"""Differential tests: native kernel tier vs compiled vs interpreter.

The native tier (the C-extension-backed wavefront loop) must be
*indistinguishable* from the compiled kernel: bit-identical toggle
planes and float-identical energies (all tiers charge through the one
shared :func:`~repro.sim.compiled.charge_planes`).  Everything that
needs the accelerator skips — never fails — when the C extension is
unavailable, and the selection tests prove the graceful degradation
contract: ``REPRO_SIM_KERNEL=native`` without an accelerator runs on
the compiled tier, logged and metric-counted, never an error.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.netlist.circuit import Circuit
from repro.netlist.gates import GateType
from repro.netlist.generators.iscas_like import build_circuit
from repro.netlist.generators.random_dag import random_layered_circuit
from repro.obs.metrics import get_registry
from repro.sim.bitsim import BitParallelSimulator, pack_vectors
from repro.sim.compiled import (
    MAX_BATCH_ARITY,
    charge_planes,
    compile_plan,
    kernel_info,
    lane_mask,
    resolve_kernel,
)
from repro.sim.native import (
    backend_name,
    native_available,
    reset_backend,
    unit_delay_planes_native,
)

HAVE_NATIVE = native_available()
requires_native = pytest.mark.skipif(
    not HAVE_NATIVE, reason="no native backend (no C compiler)"
)

# Lane counts straddling word and charge-block boundaries.
LANE_COUNTS = (1, 63, 64, 65, 200)

DAG_PROFILES = (
    (8, 4, 30, 5, 401),
    (16, 8, 120, 10, 402),
    (24, 12, 400, 18, 403),
)


def _random_pairs(num_inputs: int, num_pairs: int, seed: int):
    rng = np.random.default_rng(seed)
    v1 = rng.integers(0, 2, size=(num_pairs, num_inputs), dtype=np.uint8)
    v2 = rng.integers(0, 2, size=(num_pairs, num_inputs), dtype=np.uint8)
    return v1, v2


def _random_caps(num_nets: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    caps = rng.uniform(0.5, 20.0, size=num_nets)
    caps[rng.random(num_nets) < 0.1] = 0.0
    return caps


def _mixed_arity_circuit() -> Circuit:
    """Every batch kind in one netlist: MUX, consts, NOT/BUF, XNOR, a
    NAND wider than ``MAX_BATCH_ARITY`` and ragged mid-arity gates."""
    c = Circuit("native-mixed")
    names = [f"i{k}" for k in range(MAX_BATCH_ARITY + 2)]
    for n in names:
        c.add_input(n)
    c.add_gate("zero", GateType.CONST0, [])
    c.add_gate("one", GateType.CONST1, [])
    c.add_gate("ninv", GateType.NOT, ["i0"])
    c.add_gate("buf", GateType.BUF, ["i1"])
    c.add_gate("m", GateType.MUX, ["i0", "i1", "i2"])
    c.add_gate("xn", GateType.XNOR, ["m", "ninv"])
    c.add_gate("wide", GateType.NAND, names)
    c.add_gate("nor3", GateType.NOR, ["i3", "i4", "i5"])
    c.add_gate("mix", GateType.OR, ["wide", "xn", "zero", "nor3"])
    c.add_gate("mix2", GateType.AND, ["mix", "one", "buf"])
    c.set_outputs(["mix2", "m"])
    c.validate()
    return c


def _dangling_circuit() -> Circuit:
    """Gates with zero fanout: toggles on nets that feed nothing must
    still be counted, and the 'dirty nets feed no gates' quiescent step
    must terminate identically across tiers."""
    c = Circuit("native-dangling")
    for n in ("a", "b", "c"):
        c.add_input(n)
    c.add_gate("g1", GateType.AND, ["a", "b"])
    c.add_gate("dead1", GateType.XOR, ["g1", "c"])  # no consumers
    c.add_gate("dead2", GateType.NOT, ["a"])  # no consumers
    c.add_gate("g2", GateType.OR, ["g1", "c"])
    c.set_outputs(["g2", "dead1", "dead2"])
    c.validate()
    return c


@pytest.fixture
def clean_backend(monkeypatch):
    """Restore whatever backend state the other tests rely on."""
    yield monkeypatch
    monkeypatch.undo()
    reset_backend()


class TestNativeSelection:
    def test_native_is_a_known_kernel(self):
        assert resolve_kernel("native") == "native"

    def test_env_var_selects_native(self, c17, clean_backend):
        clean_backend.setenv("REPRO_SIM_KERNEL", "native")
        sim = BitParallelSimulator(c17)
        # With an accelerator: native.  Without: the documented
        # degradation to compiled.  Never an error.
        assert sim.kernel == ("native" if HAVE_NATIVE else "compiled")
        assert sim._plan is not None

    def test_no_accelerator_degrades_to_compiled(self, c17, clean_backend):
        registry = get_registry()
        was_enabled = registry.enabled
        registry.enable()
        before = registry.counter("sim_native_fallback_total").value
        clean_backend.setenv("REPRO_NATIVE_BACKEND", "none")
        reset_backend()
        assert not native_available()
        assert backend_name() is None
        sim = BitParallelSimulator(c17, kernel="native")
        assert sim.kernel == "compiled"
        assert (
            registry.counter("sim_native_fallback_total").value == before + 1
        )
        # The degraded simulator still simulates correctly.
        v1, v2 = _random_pairs(c17.num_inputs, 10, 1)
        w1, lanes = pack_vectors(v1)
        w2, _ = pack_vectors(v2)
        caps = np.ones(sim.num_nets)
        ref = BitParallelSimulator(c17, kernel="compiled")
        assert np.array_equal(
            sim.toggle_energy_unit_delay(w1, w2, lanes, caps),
            ref.toggle_energy_unit_delay(w1, w2, lanes, caps),
        )
        if not was_enabled:
            registry.disable()

    def test_kernel_info_reports_fallback(self, clean_backend):
        clean_backend.setenv("REPRO_SIM_KERNEL", "native")
        clean_backend.setenv("REPRO_NATIVE_BACKEND", "none")
        reset_backend()
        info = kernel_info()
        assert info["requested"] == "native"
        assert info["active"] == "compiled"
        assert info["fallback"] is True

    def test_kernel_info_active_native(self, clean_backend):
        if not HAVE_NATIVE:
            pytest.skip("no native backend")
        clean_backend.setenv("REPRO_SIM_KERNEL", "native")
        info = kernel_info()
        assert info["active"] == "native"
        assert info["backend"] == "cext"
        assert info["fallback"] is False

    def test_unknown_native_backend_env_rejected(self, clean_backend):
        # Only auto|none are values; the C extension is what auto builds.
        for value in ("turbo", "cext"):
            clean_backend.setenv("REPRO_NATIVE_BACKEND", value)
            reset_backend()
            with pytest.raises(ConfigError, match="REPRO_NATIVE_BACKEND"):
                native_available()

    @requires_native
    def test_pickled_sim_keeps_native_kernel(self, c17):
        sim = BitParallelSimulator(c17, kernel="native")
        clone = pickle.loads(pickle.dumps(sim))
        assert clone.kernel == "native"
        v1, v2 = _random_pairs(c17.num_inputs, 5, 2)
        w1, lanes = pack_vectors(v1)
        w2, _ = pack_vectors(v2)
        caps = np.ones(sim.num_nets)
        assert np.array_equal(
            sim.toggle_energy_unit_delay(w1, w2, lanes, caps),
            clone.toggle_energy_unit_delay(w1, w2, lanes, caps),
        )


@requires_native
class TestNativeDifferential:
    """Native vs compiled vs interpreted: exact agreement."""

    def _three_way(self, circuit, num_lanes, seed):
        native = BitParallelSimulator(circuit, kernel="native")
        comp = BitParallelSimulator(circuit, kernel="compiled")
        interp = BitParallelSimulator(circuit, kernel="interp")
        v1, v2 = _random_pairs(circuit.num_inputs, num_lanes, seed)
        w1, lanes = pack_vectors(v1)
        w2, _ = pack_vectors(v2)
        caps = _random_caps(native.num_nets, seed + 1)
        e_n = native.toggle_energy_unit_delay(w1, w2, lanes, caps)
        e_c = comp.toggle_energy_unit_delay(w1, w2, lanes, caps)
        e_i = interp.toggle_energy_unit_delay(w1, w2, lanes, caps)
        # Float-identical, not merely close.
        assert np.array_equal(e_n, e_c)
        assert np.array_equal(e_c, e_i)

    @pytest.mark.parametrize("profile", DAG_PROFILES)
    @pytest.mark.parametrize("num_lanes", LANE_COUNTS)
    def test_random_dag_parity(self, profile, num_lanes):
        ni, no, ng, depth, seed = profile
        circuit = random_layered_circuit(
            f"ndag{seed}", ni, no, ng, depth, seed=seed
        )
        self._three_way(circuit, num_lanes, seed)

    @pytest.mark.parametrize("num_lanes", LANE_COUNTS)
    def test_mixed_arity_parity(self, num_lanes):
        self._three_way(_mixed_arity_circuit(), num_lanes, 17)

    @pytest.mark.parametrize("num_lanes", (1, 65))
    def test_dangling_net_parity(self, num_lanes):
        self._three_way(_dangling_circuit(), num_lanes, 23)

    @pytest.mark.parametrize("name", ("c432", "c880"))
    def test_suite_circuit_parity(self, name):
        circuit = build_circuit(name)
        native = BitParallelSimulator(circuit, kernel="native")
        comp = BitParallelSimulator(circuit, kernel="compiled")
        v1, v2 = _random_pairs(circuit.num_inputs, 300, 31)
        w1, lanes = pack_vectors(v1)
        w2, _ = pack_vectors(v2)
        caps = _random_caps(native.num_nets, 32)
        assert np.array_equal(
            native.toggle_energy_unit_delay(w1, w2, lanes, caps),
            comp.toggle_energy_unit_delay(w1, w2, lanes, caps),
        )

    def test_identical_vectors_zero_energy(self):
        circuit = build_circuit("c432")
        native = BitParallelSimulator(circuit, kernel="native")
        v1, _ = _random_pairs(circuit.num_inputs, 70, 41)
        w1, lanes = pack_vectors(v1)
        caps = _random_caps(native.num_nets, 42)
        energy = native.toggle_energy_unit_delay(w1, w1, lanes, caps)
        assert np.array_equal(energy, np.zeros(lanes))

    def test_planes_bit_identical(self):
        """The raw toggle planes — not just the charged energies —
        match the compiled kernel's, including the used-plane count."""
        circuit = random_layered_circuit("nplanes", 12, 6, 90, 8, seed=55)
        plan = compile_plan(circuit)
        v1, v2 = _random_pairs(circuit.num_inputs, 130, 56)
        w1, lanes = pack_vectors(v1)
        w2, _ = pack_vectors(v2)
        mask = lane_mask(lanes, w1.shape[1])
        p_n, used_n = unit_delay_planes_native(plan, w1, w2, mask)
        p_c, used_c = plan.unit_delay_planes(w1, w2, mask)
        assert used_n == used_c
        for k in range(used_n):
            assert np.array_equal(np.asarray(p_n[k]), np.asarray(p_c[k])), k

    def test_charge_accelerator_matches_numpy(self, clean_backend):
        """charge_planes with the native charge accelerator vs the pure
        numpy grouped-SWAR path: bit-identical energies."""
        circuit = random_layered_circuit("ncharge", 10, 5, 80, 7, seed=66)
        plan = compile_plan(circuit)
        v1, v2 = _random_pairs(circuit.num_inputs, 150, 67)
        w1, lanes = pack_vectors(v1)
        w2, _ = pack_vectors(v2)
        mask = lane_mask(lanes, w1.shape[1])
        planes, used = plan.unit_delay_planes(w1, w2, mask)
        caps = _random_caps(plan.num_nets, 68)
        with_accel = charge_planes(planes, caps, lanes, used)
        clean_backend.setenv("REPRO_NATIVE_BACKEND", "none")
        reset_backend()
        without = charge_planes(planes, caps, lanes, used)
        assert np.array_equal(with_accel, without)
