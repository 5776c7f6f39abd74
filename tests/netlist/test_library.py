"""Cell library: capacitance extraction and delay model."""

import pytest

from repro.errors import ConfigError
from repro.netlist.circuit import Circuit
from repro.netlist.gates import GateType
from repro.netlist.generators import (
    available_circuits,
    build_circuit,
    random_layered_circuit,
)
from repro.netlist.library import (
    CellLibrary,
    CellParams,
    default_library,
)


@pytest.fixture
def tiny():
    c = Circuit("tiny")
    c.add_input("a")
    c.add_input("b")
    c.add_gate("g1", GateType.AND, ["a", "b"])
    c.add_gate("g2", GateType.NOT, ["g1"])
    c.add_gate("g3", GateType.NOT, ["g1"])
    c.set_outputs(["g2", "g3"])
    c.validate()
    return c


class TestCellParams:
    def test_negative_values_rejected(self):
        with pytest.raises(ConfigError):
            CellParams(-1.0, 0.0, 0.0, 0.0)
        with pytest.raises(ConfigError):
            CellParams(0.0, 0.0, -5.0, 0.0)

    def test_frozen(self):
        p = CellParams(1.0, 2.0, 3.0, 4.0)
        with pytest.raises(AttributeError):
            p.input_cap_ff = 9.0


class TestCellLibrary:
    def test_default_library_covers_all_gate_types(self):
        lib = default_library()
        for gtype in GateType:
            assert gtype in lib

    def test_missing_cell_raises(self):
        lib = CellLibrary({GateType.NOT: CellParams(1, 1, 1, 1)})
        with pytest.raises(ConfigError, match="no cell for"):
            lib.params(GateType.AND)

    def test_invalid_construction(self):
        with pytest.raises(ConfigError):
            CellLibrary({}, wire_cap_per_fanout_ff=-1)
        with pytest.raises(ConfigError):
            CellLibrary({}, vdd=0)

    def test_net_capacitance_formula(self, tiny):
        lib = default_library()
        and_out = lib.params(GateType.AND).output_cap_ff
        not_in = lib.params(GateType.NOT).input_cap_ff
        expected = and_out + 2 * not_in + 2 * lib.wire_cap_per_fanout_ff
        assert lib.net_capacitance(tiny, "g1") == pytest.approx(expected)

    def test_input_net_has_no_driver_cap(self, tiny):
        lib = default_library()
        and_in = lib.params(GateType.AND).input_cap_ff
        expected = and_in + lib.wire_cap_per_fanout_ff
        assert lib.net_capacitance(tiny, "a") == pytest.approx(expected)

    def test_output_net_only_driver_cap(self, tiny):
        lib = default_library()
        expected = lib.params(GateType.NOT).output_cap_ff
        assert lib.net_capacitance(tiny, "g2") == pytest.approx(expected)

    def test_gate_delay_linear_in_load(self, tiny):
        lib = default_library()
        cell = lib.params(GateType.AND)
        load = lib.net_capacitance(tiny, "g1")
        expected = cell.intrinsic_delay_ps + cell.delay_per_ff_ps * load
        assert lib.gate_delay(tiny, "g1") == pytest.approx(expected)

    def test_primary_input_delay_zero(self, tiny):
        assert default_library().gate_delay(tiny, "a") == 0.0

    def test_bulk_helpers_cover_all_nets(self, tiny):
        lib = default_library()
        caps = lib.all_net_capacitances(tiny)
        delays = lib.all_gate_delays(tiny)
        assert set(caps) == set(tiny.nets)
        assert set(delays) == set(tiny.nets)
        assert all(v >= 0 for v in caps.values())

    def test_higher_fanout_higher_cap(self, tiny):
        lib = default_library()
        assert lib.net_capacitance(tiny, "g1") > lib.net_capacitance(
            tiny, "g2"
        )

    def test_custom_vdd(self):
        lib = default_library(vdd=2.5)
        assert lib.vdd == 2.5


def _forward_reference_circuit():
    """Gates inserted before their drivers, one net read on two pins."""
    c = Circuit("forward")
    c.add_input("a")
    c.add_input("b")
    c.add_gate("late", GateType.XOR, ["early", "early"])
    c.add_gate("early", GateType.NAND, ["a", "b"])
    c.add_gate("mux", GateType.MUX, ["a", "late", "early"])
    c.set_outputs(["mux"])
    c.validate()
    return c


def _fractional_library():
    """Non-dyadic values, so a changed summation order changes bits."""
    cells = {
        gtype: CellParams(0.1 + 0.07 * i, 0.3 + 0.11 * i, 10 / 3 + i, 0.7)
        for i, gtype in enumerate(GateType)
    }
    return CellLibrary(cells, name="fractional", wire_cap_per_fanout_ff=0.3)


class TestBulkExtractionMatchesPerNet:
    """The one-pass bulk helpers equal the per-net reference exactly."""

    @pytest.fixture(params=["default", "fractional"])
    def lib(self, request):
        if request.param == "fractional":
            return _fractional_library()
        return default_library()

    @pytest.fixture(
        params=list(available_circuits()) + ["random_dag", "forward"]
    )
    def circuit(self, request):
        if request.param == "random_dag":
            return random_layered_circuit(
                "rdag", num_inputs=40, num_outputs=20, num_gates=600,
                depth=25, seed=13,
            )
        if request.param == "forward":
            return _forward_reference_circuit()
        return build_circuit(request.param)

    def test_capacitances_identical(self, circuit, lib):
        caps = lib.all_net_capacitances(circuit)
        assert list(caps) == circuit.nets
        assert caps == {
            net: lib.net_capacitance(circuit, net) for net in circuit.nets
        }

    def test_delays_identical(self, circuit, lib):
        delays = lib.all_gate_delays(circuit)
        assert list(delays) == circuit.nets
        assert delays == {
            net: lib.gate_delay(circuit, net) for net in circuit.nets
        }

    def test_pin_multiplicity_counted(self):
        c = _forward_reference_circuit()
        lib = default_library()
        xor_in = lib.params(GateType.XOR).input_cap_ff
        mux_in = lib.params(GateType.MUX).input_cap_ff
        expected = (
            lib.params(GateType.NAND).output_cap_ff
            + 2 * xor_in + mux_in
            + 3 * lib.wire_cap_per_fanout_ff
        )
        assert lib.all_net_capacitances(c)["early"] == pytest.approx(expected)
