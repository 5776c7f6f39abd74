"""Simulator throughput — what makes 2500-unit estimation cheap.

Measures pairs/second of the three power-simulation paths on one suite
circuit, plus the compiled-vs-interpreted kernel A/B on unit-delay
population builds (the artifact behind ``BENCH_5.json``), the
three-tier kernel A/B (``kernel_tiers.json``; ``BENCH_10.json`` holds
an earlier run) and the analyzer set-up scaling point
(``setup_scaling.json``).  The bit-parallel paths are what let the
experiment harness simulate 10^5-pair populations in seconds; the
event-driven path is the reference semantics.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from repro.netlist.generators import build_circuit, random_layered_circuit
from repro.netlist.library import default_library
from repro.sim.native import backend_name, native_available
from repro.sim.power import PowerAnalyzer
from repro.vectors.generators import random_vector_pairs
from repro.vectors.population import FinitePopulation

CIRCUIT = "c880"
PAIRS_FAST = 4096
PAIRS_EVENT = 32

# Kernel A/B workload per scale tier: (circuit, num_pairs).  The smoke
# tier keeps the interpreter's share of the run in CI seconds; ci/paper
# use the largest suite circuit (c7552, 3512 gates), where the active
# wavefront is a small fraction of the gate count and the compiled
# kernel's scheduling pays off most.
AB_WORKLOADS = {
    "smoke": ("c880", 2048),
    "ci": ("c7552", 8192),
    "paper": ("c7552", 16384),
}


@pytest.fixture(scope="module")
def workload():
    circuit = build_circuit(CIRCUIT)
    rng = np.random.default_rng(7)
    v1 = rng.integers(0, 2, size=(PAIRS_FAST, circuit.num_inputs), dtype=np.uint8)
    v2 = rng.integers(0, 2, size=(PAIRS_FAST, circuit.num_inputs), dtype=np.uint8)
    return circuit, v1, v2


def test_throughput_zero_delay(benchmark, workload):
    circuit, v1, v2 = workload
    analyzer = PowerAnalyzer(circuit, mode="zero")
    powers = benchmark(analyzer.powers_for_pairs, v1, v2)
    assert powers.shape == (PAIRS_FAST,)
    assert (powers > 0).any()


def test_throughput_unit_delay(benchmark, workload):
    circuit, v1, v2 = workload
    analyzer = PowerAnalyzer(circuit, mode="unit")
    powers = benchmark(analyzer.powers_for_pairs, v1, v2)
    assert powers.shape == (PAIRS_FAST,)


def test_throughput_event_driven(benchmark, workload):
    circuit, v1, v2 = workload
    analyzer = PowerAnalyzer(circuit, mode="event")
    powers = benchmark(
        analyzer.powers_for_pairs, v1[:PAIRS_EVENT], v2[:PAIRS_EVENT]
    )
    assert powers.shape == (PAIRS_EVENT,)


def test_kernel_ab_population_build(results_dir):
    """Compiled vs interpreted kernel on a unit-delay population build.

    Builds the same pool twice through :meth:`FinitePopulation.build`
    (the production path: chunked pair generation + PowerAnalyzer), once
    per kernel.  Asserts the pools are bit-identical — the compiled
    kernel must be a pure speedup, not an approximation — and records
    the A/B as ``BENCH_5.json``.  The compiled timing includes plan
    compilation (amortized over the whole build, as in production).
    """
    scale = os.environ.get("REPRO_SCALE", "smoke").lower()
    circuit_name, num_pairs = AB_WORKLOADS.get(scale, AB_WORKLOADS["smoke"])
    circuit = build_circuit(circuit_name)

    def build(kernel):
        analyzer = PowerAnalyzer(circuit, mode="unit", kernel=kernel)
        start = time.perf_counter()
        pop = FinitePopulation.build(
            lambda n, rng: random_vector_pairs(n, circuit.num_inputs, rng),
            analyzer.powers_for_pairs,
            num_pairs=num_pairs,
            seed=5,
            name=f"{circuit_name}-{kernel}",
        )
        return pop, time.perf_counter() - start

    pop_interp, interp_s = build("interp")
    pop_compiled, compiled_s = build("compiled")

    assert np.array_equal(pop_compiled.powers, pop_interp.powers), (
        "compiled kernel changed population powers"
    )
    speedup = interp_s / compiled_s
    payload = {
        "benchmark": "sim_kernel_ab",
        "circuit": circuit_name,
        "scale": scale,
        "num_pairs": num_pairs,
        "mode": "unit",
        "interp_seconds": interp_s,
        "compiled_seconds": compiled_s,
        "interp_pairs_per_s": num_pairs / interp_s,
        "compiled_pairs_per_s": num_pairs / compiled_s,
        "speedup": speedup,
        "powers_bit_identical": True,
    }
    (results_dir / "BENCH_5.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    print(
        f"\n{circuit_name} unit-delay build, {num_pairs} pairs: "
        f"interp {interp_s:.2f}s, compiled {compiled_s:.2f}s "
        f"({speedup:.1f}x)"
    )
    # Guard against regressions without being flaky on shared CI boxes;
    # the committed BENCH_5.json records the measured ratio.
    assert speedup >= 1.0, f"compiled kernel slower than interp ({speedup:.2f}x)"


# Three-tier workload per scale: (circuit, num_pairs, timed trials).
# Timings take the min over trials — the boxes this runs on are noisy
# and the minimum is the least-contended estimate of the true cost.
TIER_WORKLOADS = {
    "smoke": ("c880", 4096, 3),
    "ci": ("c7552", 8192, 8),
    "paper": ("c7552", 16384, 8),
}


def _min_time(fn, trials):
    best = float("inf")
    for _ in range(trials):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_kernel_tier_ab(results_dir):
    """Interp vs compiled vs native on one unit-delay workload.

    Times ``powers_for_pairs`` on the same packed workload (same seed)
    per kernel tier and asserts all tiers produce float-identical
    powers — the native tier must be a pure speedup.  Writes
    ``kernel_tiers.json``; the committed ``BENCH_10.json`` is the
    earlier measurement of the same A/B and is never overwritten.
    """
    scale = os.environ.get("REPRO_SCALE", "smoke").lower()
    circuit_name, num_pairs, trials = TIER_WORKLOADS.get(
        scale, TIER_WORKLOADS["smoke"]
    )
    circuit = build_circuit(circuit_name)
    rng = np.random.default_rng(11)
    v1 = rng.integers(0, 2, size=(num_pairs, circuit.num_inputs), dtype=np.uint8)
    v2 = rng.integers(0, 2, size=(num_pairs, circuit.num_inputs), dtype=np.uint8)

    have_native = native_available()
    tiers = ["interp", "compiled"] + (["native"] if have_native else [])
    tier_results = {}
    reference = None
    for tier in tiers:
        analyzer = PowerAnalyzer(circuit, mode="unit", kernel=tier)
        powers = analyzer.powers_for_pairs(v1, v2)  # warm-up + identity
        if reference is None:
            reference = powers
        else:
            assert np.array_equal(reference, powers), (
                f"{tier} kernel changed powers"
            )
        # The interpreter is ~50x slower; one timed trial is plenty for
        # a tier that only provides the reference point.
        n = 1 if tier == "interp" else trials
        seconds = _min_time(lambda: analyzer.powers_for_pairs(v1, v2), n)
        tier_results[tier] = {
            "seconds": seconds,
            "pairs_per_s": num_pairs / seconds,
        }

    native_speedup = None
    if have_native:
        native_speedup = (
            tier_results["compiled"]["seconds"]
            / tier_results["native"]["seconds"]
        )

    payload = {
        "benchmark": "sim_kernel_tiers",
        "circuit": circuit_name,
        "scale": scale,
        "num_pairs": num_pairs,
        "mode": "unit",
        "seed": 11,
        "native_backend": backend_name() if have_native else None,
        "tiers": tier_results,
        "native_vs_compiled_speedup": native_speedup,
        "powers_bit_identical": True,
    }
    (results_dir / "kernel_tiers.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    lines = ", ".join(
        f"{tier} {res['pairs_per_s']:.0f} pairs/s"
        for tier, res in tier_results.items()
    )
    print(f"\n{circuit_name} unit-delay, {num_pairs} pairs: {lines}")
    # Loose floor so shared CI boxes don't flake; the JSON records the
    # measured ratio.
    if have_native:
        assert native_speedup >= 1.0, (
            f"native slower than compiled ({native_speedup:.2f}x)"
        )


# Set-up scaling probe: seeded random DAGs 8x apart in gate count, with
# interfaces scaled alongside (the ISCAS85 suite's ~1 input per 16
# gates).  Fixed depth, so the larger DAG is wider, not deeper.
SETUP_SIZES = (2000, 16000)
SETUP_TRIALS = 3


def test_setup_scaling(results_dir):
    """``PowerAnalyzer`` construction time is linear in circuit size.

    Times a cold unit-mode ``PowerAnalyzer`` construction (validation,
    plan compile, capacitance extraction) on two random DAGs, best of
    three, each trial on a fresh copy so no cached plan is reused.
    Writes the log-log slope to ``setup_scaling.json``: about 1 is
    linear set-up, about 2 or more a per-net loop over the whole
    circuit.  The capacitance pass is timed on its own too, so the
    JSON attributes the set-up cost.
    """
    library = default_library()
    points = {}
    for gates in SETUP_SIZES:
        circuit = random_layered_circuit(
            f"setup{gates}", num_inputs=gates // 16,
            num_outputs=gates // 32, num_gates=gates, depth=40, seed=gates,
        )
        points[gates] = {
            "setup_seconds": _min_time(
                lambda: PowerAnalyzer(circuit.copy(), mode="unit"),
                SETUP_TRIALS,
            ),
            "net_caps_seconds": _min_time(
                lambda: library.all_net_capacitances(circuit), SETUP_TRIALS
            ),
        }
    small, large = SETUP_SIZES
    slope = math.log(
        points[large]["setup_seconds"] / points[small]["setup_seconds"]
    ) / math.log(large / small)
    payload = {
        "benchmark": "sim_setup_scaling",
        "mode": "unit",
        "trials": SETUP_TRIALS,
        "points": {str(g): p for g, p in points.items()},
        "setup_scaling_exp": slope,
    }
    (results_dir / "setup_scaling.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    print(
        f"\nPowerAnalyzer set-up: {small} gates "
        f"{points[small]['setup_seconds']:.3f}s, {large} gates "
        f"{points[large]['setup_seconds']:.3f}s, slope {slope:.2f}"
    )
    assert slope < 1.5, f"set-up grows superlinearly (slope {slope:.2f})"
