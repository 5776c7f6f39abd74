"""Power analyzer: unit conversions, mode consistency, validation."""

import pickle

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.netlist.circuit import Circuit
from repro.netlist.generators import build_circuit
from repro.netlist.library import CellLibrary, default_library
from repro.sim.delay import LibraryDelay
from repro.sim.power import PowerAnalyzer


class TestConfiguration:
    def test_invalid_mode_rejected(self, c17):
        with pytest.raises(SimulationError, match="mode"):
            PowerAnalyzer(c17, mode="spice")

    def test_invalid_frequency_rejected(self, c17):
        with pytest.raises(SimulationError, match="frequency"):
            PowerAnalyzer(c17, frequency_hz=0)

    def test_energy_scale(self, c17):
        pa = PowerAnalyzer(c17)
        lib = default_library()
        assert pa.energy_scale == pytest.approx(0.5 * lib.vdd ** 2)

    def test_max_possible_power_formula(self, c17):
        pa = PowerAnalyzer(c17, frequency_hz=1e6)
        expected = pa.energy_scale * pa.total_capacitance_f() * 1e6
        assert pa.max_possible_power_w() == pytest.approx(expected)


class TestPairPower:
    def test_identical_vectors_zero_power(self, c17):
        for mode in ("zero", "unit", "event"):
            pa = PowerAnalyzer(c17, mode=mode)
            bd = pa.pair_power([1, 0, 1, 0, 1], [1, 0, 1, 0, 1])
            assert bd.power_w == 0.0
            assert bd.energy_j == 0.0

    def test_power_scales_with_frequency(self, c17):
        pa1 = PowerAnalyzer(c17, frequency_hz=10e6)
        pa2 = PowerAnalyzer(c17, frequency_hz=20e6)
        v1, v2 = [0, 0, 0, 0, 0], [1, 1, 1, 1, 1]
        p1 = pa1.pair_power(v1, v2).power_w
        p2 = pa2.pair_power(v1, v2).power_w
        assert p2 == pytest.approx(2 * p1)
        # energy is frequency independent
        assert pa1.pair_power(v1, v2).energy_j == pytest.approx(
            pa2.pair_power(v1, v2).energy_j
        )

    def test_hand_computed_single_toggle(self, half_adder):
        # a: 0->1 with b=1: a toggles, sum toggles 1->0, carry 0->1.
        pa = PowerAnalyzer(half_adder, mode="zero", frequency_hz=1e6)
        lib = pa.library
        bd = pa.pair_power([0, 1], [1, 1])
        caps = lib.all_net_capacitances(half_adder)
        expected_energy = (
            0.5
            * lib.vdd ** 2
            * (caps["a"] + caps["sum"] + caps["carry"])
            * 1e-15
        )
        assert bd.energy_j == pytest.approx(expected_energy)
        assert set(bd.toggle_counts) == {"a", "sum", "carry"}

    def test_event_mode_reports_settle_time(self, c17):
        pa = PowerAnalyzer(c17, mode="event")
        bd = pa.pair_power([0] * 5, [1] * 5)
        assert bd.settle_time > 0

    def test_event_mode_glitch_power_exceeds_zero_delay(self, hazard_circuit):
        pz = PowerAnalyzer(hazard_circuit, mode="zero")
        pu = PowerAnalyzer(hazard_circuit, mode="unit")
        vz = pz.pair_power([0], [1]).power_w
        vu = pu.pair_power([0], [1]).power_w
        assert vu > vz  # hazard pulse adds switched capacitance

    def test_power_mw_property(self, c17):
        pa = PowerAnalyzer(c17)
        bd = pa.pair_power([0] * 5, [1] * 5)
        assert bd.power_mw == pytest.approx(bd.power_w * 1e3)


class TestPopulationPowers:
    def test_shape_and_consistency_with_pair_power(self, c17, rng):
        for mode in ("zero", "unit"):
            pa = PowerAnalyzer(c17, mode=mode)
            v1 = rng.integers(0, 2, size=(40, 5)).astype(np.uint8)
            v2 = rng.integers(0, 2, size=(40, 5)).astype(np.uint8)
            powers = pa.powers_for_pairs(v1, v2)
            assert powers.shape == (40,)
            for k in (0, 17, 39):
                single = pa.pair_power(list(v1[k]), list(v2[k]))
                assert powers[k] == pytest.approx(single.power_w)

    def test_event_mode_population_matches_loop(self, half_adder, rng):
        pa = PowerAnalyzer(half_adder, mode="event")
        v1 = rng.integers(0, 2, size=(10, 2)).astype(np.uint8)
        v2 = rng.integers(0, 2, size=(10, 2)).astype(np.uint8)
        powers = pa.powers_for_pairs(v1, v2)
        for k in range(10):
            assert powers[k] == pytest.approx(
                pa.pair_power(list(v1[k]), list(v2[k])).power_w
            )

    def test_block_processing_equivalence(self, c17, rng):
        pa = PowerAnalyzer(c17, mode="zero")
        v1 = rng.integers(0, 2, size=(200, 5)).astype(np.uint8)
        v2 = rng.integers(0, 2, size=(200, 5)).astype(np.uint8)
        whole = pa.powers_for_pairs(v1, v2)
        blocked = pa.powers_for_pairs(v1, v2, block_lanes=64)
        assert np.allclose(whole, blocked)

    def test_shape_mismatch_rejected(self, c17):
        pa = PowerAnalyzer(c17)
        with pytest.raises(SimulationError, match="mismatch"):
            pa.powers_for_pairs(
                np.zeros((3, 5), dtype=np.uint8),
                np.zeros((4, 5), dtype=np.uint8),
            )

    def test_wrong_width_rejected(self, c17):
        pa = PowerAnalyzer(c17)
        with pytest.raises(SimulationError, match="expected"):
            pa.powers_for_pairs(
                np.zeros((3, 4), dtype=np.uint8),
                np.zeros((3, 4), dtype=np.uint8),
            )

    def test_powers_bounded_by_ceiling(self, c17, rng):
        pa = PowerAnalyzer(c17, mode="zero")
        v1 = rng.integers(0, 2, size=(100, 5)).astype(np.uint8)
        v2 = rng.integers(0, 2, size=(100, 5)).astype(np.uint8)
        powers = pa.powers_for_pairs(v1, v2)
        assert (powers <= pa.max_possible_power_w() + 1e-12).all()
        assert (powers >= 0).all()


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counting(self, *args, **kwargs):
        calls.append(self)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


class TestSetupCost:
    """Set-up work is per circuit, never per net or per pair."""

    def test_fanout_built_at_most_once(self, monkeypatch):
        circuit = build_circuit("c880")
        calls = _count_calls(monkeypatch, Circuit, "fanout_map")
        PowerAnalyzer(circuit, mode="unit")
        LibraryDelay().delays_for(circuit)
        assert len(calls) <= 1

    def test_event_pairs_reuse_capacitances(self, monkeypatch, c17, rng):
        calls = _count_calls(monkeypatch, CellLibrary, "all_net_capacitances")
        pa = PowerAnalyzer(c17, mode="event")
        v1 = rng.integers(0, 2, size=(12, 5)).astype(np.uint8)
        v2 = rng.integers(0, 2, size=(12, 5)).astype(np.uint8)
        pa.powers_for_pairs(v1, v2)
        after_first = len(calls)
        pa.powers_for_pairs(v1, v2)
        # One pass at construction, one for the lazily built event
        # simulator's delays; none per pair.
        assert after_first <= 2
        assert len(calls) == after_first

    def test_event_energy_matches_per_net_reference(self, c17):
        pa = PowerAnalyzer(c17, mode="event")
        bd = pa.pair_power([0, 1, 0, 1, 0], [1, 1, 1, 0, 1])
        lib = pa.library
        expected = pa.energy_scale * sum(
            lib.net_capacitance(c17, net) * 1e-15 * count
            for net, count in bd.toggle_counts.items()
        )
        assert bd.energy_j == expected

    def test_event_analyzer_pickles_after_use(self, c17, rng):
        pa = PowerAnalyzer(c17, mode="event")
        v1 = rng.integers(0, 2, size=(6, 5)).astype(np.uint8)
        v2 = rng.integers(0, 2, size=(6, 5)).astype(np.uint8)
        powers = pa.powers_for_pairs(v1, v2)
        clone = pickle.loads(pickle.dumps(pa))
        assert np.array_equal(clone.powers_for_pairs(v1, v2), powers)
