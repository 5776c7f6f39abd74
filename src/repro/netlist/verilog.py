"""Structural-Verilog (gate-primitive subset) reader and writer.

Supports the flat gate-level style most synthesis flows can emit::

    module c17 (N1, N2, N3, N6, N7, N22, N23);
      input  N1, N2, N3, N6, N7;
      output N22, N23;
      wire   N10, N11, N16, N19;
      nand g0 (N10, N1, N3);
      nand g1 (N22, N10, N16);
    endmodule

Only the Verilog gate primitives ``and or nand nor xor xnor not buf`` are
accepted (output first, then inputs, per the LRM), plus single-signal
``assign a = b;`` treated as a buffer.  Vectors, behavioural constructs
and hierarchies are out of scope — this exists so circuits can be moved
between this library and commercial flows, not to be a full HDL frontend.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import List, Union

from ..errors import ParseError
from .circuit import Circuit
from .gates import GateType

__all__ = ["parse_verilog", "load_verilog", "write_verilog", "dump_verilog"]

_PRIMITIVES = {
    "and": GateType.AND,
    "nand": GateType.NAND,
    "or": GateType.OR,
    "nor": GateType.NOR,
    "xor": GateType.XOR,
    "xnor": GateType.XNOR,
    "not": GateType.NOT,
    "buf": GateType.BUF,
}

_MODULE_RE = re.compile(
    r"module\s+([A-Za-z_][A-Za-z0-9_$]*)\s*\((.*?)\)\s*;", re.DOTALL
)
_DECL_RE = re.compile(r"^(input|output|wire)\s+(.*)$", re.DOTALL)
_GATE_RE = re.compile(
    r"^([a-z]+)\s+(?:([A-Za-z_][A-Za-z0-9_$]*)\s+)?\((.*)\)$", re.DOTALL
)
_ASSIGN_RE = re.compile(
    r"^assign\s+([A-Za-z_][A-Za-z0-9_$]*)\s*=\s*([A-Za-z_][A-Za-z0-9_$]*)$"
)


def _strip_comments(text: str) -> str:
    text = re.sub(r"/\*.*?\*/", " ", text, flags=re.DOTALL)
    text = re.sub(r"//[^\n]*", " ", text)
    return text


def _split_names(decl: str) -> List[str]:
    return [n.strip() for n in decl.split(",") if n.strip()]


def parse_verilog(text: str, name: "str | None" = None) -> Circuit:
    """Parse structural Verilog text into a :class:`Circuit`.

    Parameters
    ----------
    text:
        Full Verilog source containing exactly one module.
    name:
        Override for the circuit name (defaults to the module name).

    Raises
    ------
    ParseError
        On unsupported constructs (vectors, always blocks, hierarchy),
        unknown primitives or malformed statements.
    """
    clean = _strip_comments(text)
    module = _MODULE_RE.search(clean)
    if module is None:
        raise ParseError("no module declaration found")
    mod_name = module.group(1)
    body = clean[module.end():]
    end = body.find("endmodule")
    if end < 0:
        raise ParseError("missing endmodule")
    body = body[:end]

    circuit = Circuit(name or mod_name)
    outputs: List[str] = []
    declared_wires: List[str] = []

    for raw_stmt in body.split(";"):
        stmt = " ".join(raw_stmt.split())
        if not stmt:
            continue
        if "[" in stmt or "]" in stmt:
            raise ParseError(f"vector signals not supported: {stmt!r}")
        decl = _DECL_RE.match(stmt)
        if decl:
            kind, names = decl.group(1), _split_names(decl.group(2))
            if kind == "input":
                for n in names:
                    circuit.add_input(n)
            elif kind == "output":
                outputs.extend(names)
            else:
                declared_wires.extend(names)
            continue
        assign = _ASSIGN_RE.match(stmt)
        if assign:
            dst, src = assign.groups()
            circuit.add_gate(dst, GateType.BUF, [src])
            continue
        gate = _GATE_RE.match(stmt)
        if gate:
            prim, _instance, ports = gate.groups()
            gtype = _PRIMITIVES.get(prim)
            if gtype is None:
                raise ParseError(f"unsupported primitive or construct {prim!r}")
            nets = _split_names(ports)
            if len(nets) < 2:
                raise ParseError(f"gate needs output and >=1 input: {stmt!r}")
            out, fanin = nets[0], nets[1:]
            circuit.add_gate(out, gtype, fanin)
            continue
        raise ParseError(f"unrecognized statement: {stmt!r}")

    circuit.set_outputs(outputs)
    try:
        circuit.validate()
    except Exception as exc:
        raise ParseError(f"invalid circuit after parse: {exc}") from None
    return circuit


def load_verilog(path: Union[str, Path]) -> Circuit:
    """Read and parse a structural Verilog file from disk."""
    path = Path(path)
    return parse_verilog(path.read_text(), name=path.stem)


def write_verilog(circuit: Circuit) -> str:
    """Serialize a circuit as structural Verilog.

    MUX gates are decomposed into and/or/not primitives; constants become
    tied nets via ``assign``-free buffer trees are avoided by emitting
    supply-style one/zero drivers is out of scope, so constants raise.
    """
    lines: List[str] = []
    ports = list(circuit.inputs) + list(circuit.outputs)
    lines.append(f"module {_legalize(circuit.name)} ({', '.join(ports)});")
    lines.append(f"  input  {', '.join(circuit.inputs)};")
    lines.append(f"  output {', '.join(circuit.outputs)};")
    outputs = set(circuit.outputs)
    internal = [n for n in circuit.topological_order() if n not in outputs]
    if internal:
        lines.append(f"  wire   {', '.join(internal)};")
    idx = 0
    for gate_name in circuit.topological_order():
        gate = circuit.gate(gate_name)
        if gate.gtype is GateType.MUX:
            sel, d0, d1 = gate.fanin
            nsel = f"{gate_name}__nsel"
            a0 = f"{gate_name}__a0"
            a1 = f"{gate_name}__a1"
            lines.append(f"  wire   {nsel}, {a0}, {a1};")
            lines.append(f"  not  g{idx} ({nsel}, {sel});")
            idx += 1
            lines.append(f"  and  g{idx} ({a0}, {nsel}, {d0});")
            idx += 1
            lines.append(f"  and  g{idx} ({a1}, {sel}, {d1});")
            idx += 1
            lines.append(f"  or   g{idx} ({gate_name}, {a0}, {a1});")
            idx += 1
            continue
        if gate.gtype in (GateType.CONST0, GateType.CONST1):
            value = "1'b1" if gate.gtype is GateType.CONST1 else "1'b0"
            lines.append(f"  assign {gate_name} = {value};")
            continue
        prim = gate.gtype.value
        args = ", ".join((gate_name,) + gate.fanin)
        lines.append(f"  {prim:<4} g{idx} ({args});")
        idx += 1
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def _legalize(name: str) -> str:
    safe = re.sub(r"[^A-Za-z0-9_$]", "_", name)
    if not re.match(r"[A-Za-z_]", safe):
        safe = "m_" + safe
    return safe


def dump_verilog(circuit: Circuit, path: Union[str, Path]) -> None:
    """Write :func:`write_verilog` output to ``path``."""
    Path(path).write_text(write_verilog(circuit))
