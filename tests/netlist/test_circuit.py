"""Circuit DAG construction, validation and derived views."""

import pytest

from repro.errors import NetlistError
from repro.netlist.circuit import Circuit, Gate
from repro.netlist.gates import GateType


def build_chain(length=3) -> Circuit:
    c = Circuit("chain")
    c.add_input("a")
    prev = "a"
    for i in range(length):
        c.add_gate(f"n{i}", GateType.NOT, [prev])
        prev = f"n{i}"
    c.set_outputs([prev])
    return c


class TestConstruction:
    def test_duplicate_input_rejected(self):
        c = Circuit()
        c.add_input("a")
        with pytest.raises(NetlistError, match="already defined"):
            c.add_input("a")

    def test_gate_shadowing_input_rejected(self):
        c = Circuit()
        c.add_input("a")
        with pytest.raises(NetlistError, match="already defined"):
            c.add_gate("a", GateType.NOT, ["a"])

    def test_input_gate_type_rejected(self):
        c = Circuit()
        with pytest.raises(NetlistError, match="add_input"):
            c.add_gate("x", GateType.INPUT, [])

    def test_gate_arity_checked_at_construction(self):
        with pytest.raises(NetlistError):
            Gate("g", GateType.AND, ("a",))

    def test_duplicate_output_rejected(self):
        c = build_chain()
        with pytest.raises(NetlistError, match="duplicate output"):
            c.set_outputs(["n2", "n2"])
        with pytest.raises(NetlistError, match="duplicate output"):
            c.add_output("n2")

    def test_contains_and_accessors(self, half_adder):
        assert "a" in half_adder
        assert "sum" in half_adder
        assert "zzz" not in half_adder
        assert half_adder.is_input("a")
        assert not half_adder.is_input("sum")
        assert half_adder.gate("sum").gtype is GateType.XOR
        with pytest.raises(NetlistError):
            half_adder.gate("a")  # inputs have no driving gate
        assert len(half_adder) == 2
        assert half_adder.num_inputs == 2
        assert half_adder.num_outputs == 2
        assert half_adder.nets == ["a", "b", "sum", "carry"]


class TestValidation:
    def test_no_inputs_rejected(self):
        c = Circuit("empty")
        with pytest.raises(NetlistError, match="no primary inputs"):
            c.validate()

    def test_no_outputs_rejected(self):
        c = Circuit()
        c.add_input("a")
        with pytest.raises(NetlistError, match="no primary outputs"):
            c.validate()

    def test_undefined_fanin_rejected(self):
        c = Circuit()
        c.add_input("a")
        c.add_gate("g", GateType.AND, ["a", "ghost"])
        c.set_outputs(["g"])
        with pytest.raises(NetlistError, match="undefined net 'ghost'"):
            c.validate()

    def test_undefined_output_rejected(self):
        c = Circuit()
        c.add_input("a")
        c.add_gate("g", GateType.NOT, ["a"])
        c.set_outputs(["ghost"])
        with pytest.raises(NetlistError, match="not a defined net"):
            c.validate()

    def test_cycle_detected(self):
        c = Circuit("cyclic")
        c.add_input("a")
        # g1 and g2 reference each other.
        c.add_gate("g1", GateType.AND, ["a", "g2"])
        c.add_gate("g2", GateType.AND, ["a", "g1"])
        c.set_outputs(["g2"])
        with pytest.raises(NetlistError, match="combinational cycle"):
            c.validate()


class TestDerivedViews:
    def test_topological_order_respects_dependencies(self, c17):
        order = c17.topological_order()
        pos = {net: i for i, net in enumerate(order)}
        for gate in c17.gates.values():
            for src in gate.fanin:
                if src in pos:
                    assert pos[src] < pos[gate.name]

    def test_levels_and_depth(self, c17):
        levels = c17.levels()
        assert levels["G1"] == 0
        assert levels["G10"] == 1
        assert levels["G16"] == 2
        assert levels["G22"] == 3
        assert c17.depth() == 3

    def test_chain_depth(self):
        assert build_chain(7).depth() == 7

    def test_fanout_map(self, c17):
        fo = c17.fanout_map()
        assert sorted(fo["G11"]) == ["G16", "G19"]
        assert fo["G22"] == ()
        assert c17.fanout_count("G16") == 2

    def test_fanout_map_shared_and_read_only(self, c17):
        fo = c17.fanout_map()
        assert c17.fanout_map() is fo
        with pytest.raises(TypeError):
            fo["G22"] = ("G1",)
        c17.add_gate("extra", GateType.NOT, ["G22"])
        assert c17.fanout_map()["G22"] == ("extra",)

    def test_dangling_nets(self):
        c = Circuit()
        c.add_input("a")
        c.add_gate("used", GateType.NOT, ["a"])
        c.add_gate("out", GateType.NOT, ["used"])
        c.add_gate("orphan", GateType.NOT, ["a"])
        c.set_outputs(["out"])
        assert c.dangling_nets() == ["orphan"]

    def test_transitive_fanin(self, c17):
        cone = c17.transitive_fanin("G22")
        assert cone == {"G10", "G16", "G11", "G1", "G2", "G3", "G6"}
        assert "G7" not in cone

    def test_stats(self, c17):
        s = c17.stats()
        assert s.num_gates == 6
        assert s.num_inputs == 5
        assert s.num_outputs == 2
        assert s.depth == 3
        assert s.gate_counts == {"nand": 6}
        assert s.max_fanout == 2
        assert s.avg_fanin == 2.0
        assert "c17" in str(s)

    def test_cache_invalidation_on_mutation(self):
        c = build_chain(2)
        assert c.depth() == 2
        c.add_gate("extra", GateType.NOT, ["n1"])
        assert c.depth() == 3


class TestEvaluate:
    def test_half_adder_truth_table(self, half_adder):
        for a in (0, 1):
            for b in (0, 1):
                vals = half_adder.evaluate({"a": a, "b": b})
                assert vals["sum"] == a ^ b
                assert vals["carry"] == a & b

    def test_c17_known_vector(self, c17):
        # All-ones input: G10 = NAND(1,1)=0, G11=0, G16=NAND(1,0)=1,
        # G19=NAND(0,1)=1, G22=NAND(0,1)=1, G23=NAND(1,1)=0.
        vals = c17.evaluate({k: 1 for k in c17.inputs})
        assert vals["G22"] == 1
        assert vals["G23"] == 0

    def test_missing_input_raises(self, half_adder):
        with pytest.raises(NetlistError, match="missing value"):
            half_adder.evaluate({"a": 1})

    def test_evaluate_vector_width_checked(self, half_adder):
        with pytest.raises(NetlistError, match="expected 2"):
            half_adder.evaluate_vector([1])

    def test_evaluate_vector_order(self, half_adder):
        vals = half_adder.evaluate_vector([1, 0])
        assert vals["a"] == 1 and vals["b"] == 0

    def test_copy_is_independent(self, half_adder):
        clone = half_adder.copy("clone")
        clone.add_gate("extra", GateType.NOT, ["sum"])
        assert "extra" in clone
        assert "extra" not in half_adder
        assert clone.name == "clone"

    def test_iter_gates_topological(self, c17):
        names = [g.name for g in c17.iter_gates_topological()]
        assert names == c17.topological_order()
