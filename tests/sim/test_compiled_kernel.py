"""Differential tests: compiled kernel vs interpreter vs event sim.

The compiled struct-of-arrays kernel must be *indistinguishable* from
the legacy per-gate interpreter: bit-identical steady states and toggle
counts, float-identical energies (both kernels charge through
``charge_rows`` with identically ordered rows).  The event-driven
simulator under a unit-delay model provides a third, independently
implemented reference for the glitch-capturing unit-delay semantics.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.netlist.circuit import Circuit
from repro.netlist.gates import GateType
from repro.netlist.generators.random_dag import random_layered_circuit
from repro.sim import compiled
from repro.sim.bitsim import BitParallelSimulator, pack_vectors
from repro.sim.compiled import (
    MAX_BATCH_ARITY,
    CompiledPlan,
    compile_plan,
    popcount_rows,
    resolve_kernel,
)
from repro.sim.delay import UnitDelay
from repro.sim.event_sim import EventDrivenSimulator
from repro.errors import ConfigError, SimulationError

# Lane counts straddling the word boundary: single lane, partial word,
# exactly one word, and spill into a second word.
LANE_COUNTS = (1, 63, 64, 65)

# (inputs, outputs, gates, depth, seed) profiles for the random DAGs.
DAG_PROFILES = (
    (8, 4, 30, 5, 101),
    (16, 8, 120, 10, 202),
    (24, 12, 400, 18, 303),
)


def _random_pairs(num_inputs: int, num_pairs: int, seed: int):
    rng = np.random.default_rng(seed)
    v1 = rng.integers(0, 2, size=(num_pairs, num_inputs), dtype=np.uint8)
    v2 = rng.integers(0, 2, size=(num_pairs, num_inputs), dtype=np.uint8)
    return v1, v2


def _random_caps(num_nets: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    caps = rng.uniform(0.5, 20.0, size=num_nets)
    caps[rng.random(num_nets) < 0.1] = 0.0  # exercise the zero-cap filter
    return caps


def _special_circuit() -> Circuit:
    """Hand-built net exercising every batch kind in one plan.

    Covers MUX, CONST0/CONST1, NOT, BUF, XNOR, and a NAND wider than
    ``MAX_BATCH_ARITY`` (forcing a per-gate straggler batch).
    """
    c = Circuit("special")
    names = [f"i{k}" for k in range(MAX_BATCH_ARITY + 2)]
    for n in names:
        c.add_input(n)
    c.add_gate("zero", GateType.CONST0, [])
    c.add_gate("one", GateType.CONST1, [])
    c.add_gate("ninv", GateType.NOT, ["i0"])
    c.add_gate("buf", GateType.BUF, ["i1"])
    c.add_gate("m", GateType.MUX, ["i0", "i1", "i2"])
    c.add_gate("xn", GateType.XNOR, ["m", "ninv"])
    c.add_gate("wide", GateType.NAND, names)  # arity > MAX_BATCH_ARITY
    c.add_gate("mix", GateType.OR, ["wide", "xn", "zero"])
    c.add_gate("mix2", GateType.AND, ["mix", "one", "buf"])
    c.set_outputs(["mix2", "m"])
    c.validate()
    return c


def _sims(circuit: Circuit):
    return (
        BitParallelSimulator(circuit, kernel="compiled"),
        BitParallelSimulator(circuit, kernel="interp"),
    )


class TestKernelSelection:
    def test_default_is_compiled(self, c17, monkeypatch):
        monkeypatch.delenv("REPRO_SIM_KERNEL", raising=False)
        sim = BitParallelSimulator(c17)
        assert sim.kernel == "compiled"
        assert sim._plan is not None

    def test_env_var_selects_interp(self, c17, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_KERNEL", "interp")
        sim = BitParallelSimulator(c17)
        assert sim.kernel == "interp"
        assert sim._plan is None
        assert sim._ops  # the interpreter's op list is built

    def test_explicit_arg_beats_env(self, c17, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_KERNEL", "interp")
        sim = BitParallelSimulator(c17, kernel="compiled")
        assert sim.kernel == "compiled"

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ConfigError, match="turbo"):
            resolve_kernel("turbo")

    def test_unknown_kernel_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_KERNEL", "turbo")
        with pytest.raises(ConfigError, match="REPRO_SIM_KERNEL"):
            resolve_kernel()


class TestDifferentialParity:
    """Compiled and interpreted kernels must agree exactly."""

    @pytest.mark.parametrize("profile", DAG_PROFILES)
    @pytest.mark.parametrize("num_lanes", LANE_COUNTS)
    def test_random_dag_parity(self, profile, num_lanes):
        ni, no, ng, depth, seed = profile
        circuit = random_layered_circuit(
            f"dag{seed}", ni, no, ng, depth, seed=seed
        )
        comp, interp = _sims(circuit)
        v1, v2 = _random_pairs(ni, num_lanes, seed + 1)
        w1, lanes = pack_vectors(v1)
        w2, _ = pack_vectors(v2)
        caps = _random_caps(comp.num_nets, seed + 2)

        s_c = comp.steady_state(w1, lanes)
        s_i = interp.steady_state(w1, lanes)
        assert np.array_equal(s_c, s_i)

        assert np.array_equal(
            comp.toggle_counts_zero_delay(w1, w2, lanes),
            interp.toggle_counts_zero_delay(w1, w2, lanes),
        )
        # Float-identical, not merely close: both kernels charge the
        # same rows in the same order through charge_rows.
        assert np.array_equal(
            comp.toggle_energy_zero_delay(w1, w2, lanes, caps),
            interp.toggle_energy_zero_delay(w1, w2, lanes, caps),
        )
        assert np.array_equal(
            comp.toggle_energy_unit_delay(w1, w2, lanes, caps),
            interp.toggle_energy_unit_delay(w1, w2, lanes, caps),
        )

    @pytest.mark.parametrize("num_lanes", LANE_COUNTS)
    def test_special_gates_parity(self, num_lanes):
        circuit = _special_circuit()
        comp, interp = _sims(circuit)
        v1, v2 = _random_pairs(circuit.num_inputs, num_lanes, 7)
        w1, lanes = pack_vectors(v1)
        w2, _ = pack_vectors(v2)
        caps = _random_caps(comp.num_nets, 8)
        assert np.array_equal(
            comp.steady_state(w1, lanes), interp.steady_state(w1, lanes)
        )
        assert np.array_equal(
            comp.toggle_energy_unit_delay(w1, w2, lanes, caps),
            interp.toggle_energy_unit_delay(w1, w2, lanes, caps),
        )

    def test_special_circuit_has_straggler_batch(self):
        plan = CompiledPlan(_special_circuit())
        kinds = {b.kind for b in plan.batches}
        assert "pergate" in kinds
        assert "mux" in kinds
        assert "reduce" in kinds

    def test_parity_against_circuit_evaluate(self, c17):
        # Both kernels vs the dict-based scalar evaluator.
        comp, interp = _sims(c17)
        rng = np.random.default_rng(5)
        vecs = rng.integers(0, 2, size=(17, c17.num_inputs), dtype=np.uint8)
        w, lanes = pack_vectors(vecs)
        s_c = comp.steady_state(w, lanes)
        s_i = interp.steady_state(w, lanes)
        assert np.array_equal(s_c, s_i)
        from repro.sim.bitsim import unpack_vectors

        bits = unpack_vectors(s_c, lanes)
        for lane in range(lanes):
            ref = c17.evaluate_vector(list(vecs[lane]))
            for j, net in enumerate(comp.net_order):
                assert bits[lane, j] == ref[net], (lane, net)


class TestEventDrivenParity:
    """Unit-delay bitsim vs the event-driven simulator (UnitDelay).

    With all capacitances equal to 1.0 the per-lane unit-delay energy
    is an exact integer: the total number of transitions, including the
    primary-input transitions — directly comparable to the event sim's
    ``total_toggles()`` (integer sums of this size are exact in
    float64).
    """

    @pytest.mark.parametrize(
        "profile", [(6, 3, 25, 4, 11), (10, 5, 60, 8, 22)]
    )
    def test_total_toggles_match(self, profile):
        ni, no, ng, depth, seed = profile
        circuit = random_layered_circuit(
            f"evt{seed}", ni, no, ng, depth, seed=seed
        )
        comp = BitParallelSimulator(circuit, kernel="compiled")
        event = EventDrivenSimulator(circuit, UnitDelay())
        num_pairs = 40
        v1, v2 = _random_pairs(ni, num_pairs, seed + 1)
        w1, lanes = pack_vectors(v1)
        w2, _ = pack_vectors(v2)
        caps = np.ones(comp.num_nets, dtype=np.float64)
        energies = comp.toggle_energy_unit_delay(w1, w2, lanes, caps)
        for lane in range(lanes):
            expected = event.simulate_pair(
                v1[lane], v2[lane]
            ).total_toggles()
            assert energies[lane] == expected, lane

    def test_hazard_pulse_counted(self, hazard_circuit):
        comp = BitParallelSimulator(hazard_circuit, kernel="compiled")
        event = EventDrivenSimulator(hazard_circuit, UnitDelay())
        w1, lanes = pack_vectors(np.array([[0]], dtype=np.uint8))
        w2, _ = pack_vectors(np.array([[1]], dtype=np.uint8))
        caps = np.ones(comp.num_nets, dtype=np.float64)
        energy = comp.toggle_energy_unit_delay(w1, w2, lanes, caps)
        assert energy[0] == event.simulate_pair([0], [1]).total_toggles()


class TestPlanCache:
    def test_plan_shared_between_simulators(self, c17):
        a = BitParallelSimulator(c17, kernel="compiled")
        b = BitParallelSimulator(c17, kernel="compiled")
        assert a._plan is b._plan

    def test_mutation_invalidates_plan(self, c17):
        plan1 = compile_plan(c17)
        c17.add_gate("extra", GateType.NOT, ["G22"])
        c17.add_output("extra")
        plan2 = compile_plan(c17)
        assert plan2 is not plan1
        assert plan2.num_gates == plan1.num_gates + 1

    def test_circuit_pickle_drops_cache(self, c17):
        compile_plan(c17)
        clone = pickle.loads(pickle.dumps(c17))
        assert clone._cache == {}

    def test_simulator_pickle_roundtrip(self, c17):
        sim = BitParallelSimulator(c17, kernel="compiled")
        clone = pickle.loads(pickle.dumps(sim))
        assert clone.kernel == "compiled"
        assert clone._plan is not None
        v1, v2 = _random_pairs(c17.num_inputs, 10, 3)
        w1, lanes = pack_vectors(v1)
        w2, _ = pack_vectors(v2)
        caps = np.ones(sim.num_nets)
        assert np.array_equal(
            sim.toggle_energy_unit_delay(w1, w2, lanes, caps),
            clone.toggle_energy_unit_delay(w1, w2, lanes, caps),
        )

    def test_interp_pickle_preserves_kernel(self, c17):
        sim = BitParallelSimulator(c17, kernel="interp")
        clone = pickle.loads(pickle.dumps(sim))
        assert clone.kernel == "interp"
        assert clone._plan is None


class TestPopcountRows:
    def test_matches_python_popcount(self):
        rng = np.random.default_rng(9)
        words = rng.integers(
            0, 2**64, size=(7, 5), dtype=np.uint64
        )
        expected = [
            sum(int(w).bit_count() for w in row) for row in words
        ]
        assert popcount_rows(words).tolist() == expected

    def test_lut_fallback_matches(self, monkeypatch):
        rng = np.random.default_rng(10)
        words = rng.integers(0, 2**64, size=(4, 9), dtype=np.uint64)
        fast = popcount_rows(words)
        monkeypatch.setattr(compiled, "_HAS_BITWISE_COUNT", False)
        slow = popcount_rows(words)
        assert np.array_equal(fast, slow)
        assert slow.dtype == np.int64

    def test_no_uint8_overflow(self):
        # > 255 set bits per row must not wrap the per-word uint8 counts.
        words = np.full((1, 8), np.uint64(0xFFFFFFFFFFFFFFFF))
        assert popcount_rows(words)[0] == 512


class TestKernelMetrics:
    def test_compiled_metrics_recorded(self):
        from repro.obs.metrics import get_registry

        registry = get_registry()
        registry.reset()
        registry.enable()
        try:
            circuit = random_layered_circuit("met", 8, 4, 40, 6, seed=77)
            sim = BitParallelSimulator(circuit, kernel="compiled")
            v1, v2 = _random_pairs(8, 32, 78)
            w1, lanes = pack_vectors(v1)
            w2, _ = pack_vectors(v2)
            caps = np.ones(sim.num_nets)
            sim.toggle_energy_unit_delay(w1, w2, lanes, caps)
            assert compiled._COMPILE_TOTAL.value >= 1
            assert compiled._COMPILE_TIMER.count >= 1
            assert compiled._BATCH_EVALS.value > 0
            assert compiled._STEPS_TOTAL.value > 0
            assert compiled._ACTIVE_LEVELS.count > 0
            # One increment per call, labelled with the resolved tier.
            invocations = registry.counter(
                "sim_kernel_invocations_total", tier="compiled"
            )
            assert invocations.value == 1
            sim.toggle_energy_unit_delay(w1, w2, lanes, caps)
            assert invocations.value == 2
        finally:
            registry.disable()
            registry.reset()

    def test_cache_hit_counter(self):
        from repro.obs.metrics import get_registry

        registry = get_registry()
        registry.reset()
        registry.enable()
        try:
            circuit = random_layered_circuit("hit", 6, 3, 20, 4, seed=88)
            compile_plan(circuit)
            hits0 = compiled._PLAN_CACHE_HITS.value
            compile_plan(circuit)
            assert compiled._PLAN_CACHE_HITS.value == hits0 + 1
        finally:
            registry.disable()
            registry.reset()

    def test_plan_cache_evicts_least_recently_used(self, monkeypatch):
        from collections import OrderedDict

        from repro.obs.metrics import get_registry

        monkeypatch.setattr(compiled, "DEFAULT_PLAN_CACHE_CAPACITY", 2)
        monkeypatch.setattr(compiled, "_PLAN_LRU", OrderedDict())
        registry = get_registry()
        registry.reset()
        registry.enable()
        try:
            circuits = [
                random_layered_circuit(f"lru{i}", 6, 3, 20, 4, seed=90 + i)
                for i in range(3)
            ]
            v1, v2 = _random_pairs(6, 65, 94)
            w1, lanes = pack_vectors(v1)
            w2, _ = pack_vectors(v2)
            oldest = BitParallelSimulator(circuits[0], kernel="compiled")
            caps = _random_caps(oldest.num_nets, 95)
            before = oldest.toggle_energy_unit_delay(w1, w2, lanes, caps)
            first_plan = compile_plan(circuits[0])
            compile_plan(circuits[1])
            compile_plan(circuits[2])  # third live circuit: evicts the first
            assert compiled._PLAN_EVICTIONS.value == 1
            assert list(compiled._PLAN_LRU) == [id(c) for c in circuits[1:]]
            recompiled = compile_plan(circuits[0])
            assert recompiled is not first_plan  # the memo was dropped
            after = BitParallelSimulator(
                circuits[0], kernel="compiled"
            ).toggle_energy_unit_delay(w1, w2, lanes, caps)
            assert np.array_equal(before, after)
        finally:
            registry.disable()
            registry.reset()
