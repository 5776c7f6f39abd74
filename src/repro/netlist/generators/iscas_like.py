"""The ISCAS85-like benchmark suite used by the paper's experiments.

The DAC-1998 paper evaluates on nine ISCAS85 circuits.  Their netlists
are public but not bundled here, so this module builds *stand-ins* with
the published interface profile (inputs / outputs / gate count / logic
depth, from the ISCAS85 documentation) and, where the original function
is known and tractable, the real structure:

* ``c6288`` — a genuine 16x16 array multiplier (that is exactly what
  C6288 is), ~2400 gates, depth > 100;
* ``c1355`` — a 32-bit single-error-correcting network (C1355 is the
  NAND-expanded C499 SEC circuit) built from the Hamming checker
  generator plus profile padding;
* ``c432`` — a 27-channel priority interrupt controller (C432's
  documented function) plus profile padding;
* ``c880`` — an 8-bit ALU core (C880's documented function) plus padding;
* the remaining five — seeded random layered DAGs matching the profile.

"Profile padding" appends a seeded random DAG sharing the same primary
inputs, so the total interface and approximate gate count match the
published profile while the structural core stays authentic.

Real ISCAS85 ``.bench`` files, if available, can be loaded with
:func:`repro.netlist.bench.load_bench` and used everywhere these
stand-ins are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from ...errors import ConfigError
from ..circuit import Circuit
from ..gates import GateType
from .arithmetic import (
    array_multiplier,
    ecc_checker,
    interrupt_controller,
    simple_alu,
)
from .random_dag import random_layered_circuit

__all__ = ["Iscas85Profile", "ISCAS85_PROFILES", "build_circuit", "available_circuits"]


@dataclass(frozen=True)
class Iscas85Profile:
    """Published profile of one ISCAS85 circuit."""

    name: str
    num_inputs: int
    num_outputs: int
    num_gates: int
    depth: int
    function: str


#: Published ISCAS85 interface profiles (Brglez & Fujiwara, 1985).
ISCAS85_PROFILES: Dict[str, Iscas85Profile] = {
    p.name: p
    for p in [
        Iscas85Profile("c432", 36, 7, 160, 17, "27-channel interrupt controller"),
        Iscas85Profile("c880", 60, 26, 383, 24, "8-bit ALU"),
        Iscas85Profile("c1355", 41, 32, 546, 24, "32-bit SEC circuit"),
        Iscas85Profile("c1908", 33, 25, 880, 40, "16-bit SEC/DED circuit"),
        Iscas85Profile("c2670", 233, 140, 1193, 32, "12-bit ALU and controller"),
        Iscas85Profile("c3540", 50, 22, 1669, 47, "8-bit ALU with BCD"),
        Iscas85Profile("c5315", 178, 123, 2307, 49, "9-bit ALU"),
        Iscas85Profile("c6288", 32, 32, 2406, 124, "16x16 multiplier"),
        Iscas85Profile("c7552", 207, 108, 3512, 43, "32-bit adder/comparator"),
    ]
}

_SEED_BASE = 0x1998_0DAC


def _merge_with_padding(
    core: Circuit,
    profile: Iscas85Profile,
    seed: int,
) -> Circuit:
    """Extend ``core`` to match ``profile`` with a random side network.

    Adds any missing primary inputs, then grows a seeded random DAG whose
    fanins mix fresh inputs with the core's nets, and extends the output
    list up to the profile's output count.  If the core already meets or
    exceeds the profile's gate count, it is returned unchanged (modulo
    input padding).
    """
    import numpy as np

    merged = core.copy(profile.name)
    missing_inputs = profile.num_inputs - merged.num_inputs
    if missing_inputs < 0:
        raise ConfigError(
            f"core for {profile.name} has more inputs than the profile"
        )
    pad_inputs: List[str] = []
    for k in range(missing_inputs):
        net = f"pad_i{k}"
        merged.add_input(net)
        pad_inputs.append(net)

    need_gates = profile.num_gates - merged.num_gates
    rng = np.random.default_rng(seed)
    pool: List[str] = list(pad_inputs) or list(merged.inputs)
    all_nets: List[str] = list(merged.inputs) + list(merged.gates)
    pad_types = [GateType.NAND, GateType.NOR, GateType.AND, GateType.OR, GateType.XOR]
    new_nets: List[str] = []
    for k in range(max(0, need_gates)):
        gtype = pad_types[int(rng.integers(len(pad_types)))]
        arity = 2 if rng.random() < 0.7 else 3
        fanin: List[str] = []
        # Bias toward recently created pad gates to build up depth.
        for _ in range(arity):
            if new_nets and rng.random() < 0.6:
                idx = len(new_nets) - 1 - int(rng.integers(min(8, len(new_nets))))
                pick = new_nets[idx]
            elif rng.random() < 0.5 and pool:
                pick = pool[int(rng.integers(len(pool)))]
            else:
                pick = all_nets[int(rng.integers(len(all_nets)))]
            if pick not in fanin:
                fanin.append(pick)
        if len(fanin) == 1:
            gtype = GateType.NOT
        net = f"pad_n{k}"
        merged.add_gate(net, gtype, fanin)
        new_nets.append(net)

    outputs = list(merged.outputs)
    chosen = set(outputs)
    fanout = merged.fanout_map()
    dangling = [
        n for n in merged.gates if not fanout[n] and n not in chosen
    ]
    for net in dangling + new_nets[::-1]:
        if len(outputs) >= profile.num_outputs:
            break
        if net not in chosen:
            outputs.append(net)
            chosen.add(net)
    merged.set_outputs(outputs[: profile.num_outputs])
    merged.validate()
    return merged


def _build_c432(profile: Iscas85Profile, seed: int) -> Circuit:
    core = interrupt_controller(channels=27, groups=3)
    return _merge_with_padding(core, profile, seed)


def _build_c880(profile: Iscas85Profile, seed: int) -> Circuit:
    core = simple_alu(8)
    return _merge_with_padding(core, profile, seed)


def _build_c1355(profile: Iscas85Profile, seed: int) -> Circuit:
    core = ecc_checker(32)
    return _merge_with_padding(core, profile, seed)


def _build_c6288(profile: Iscas85Profile, seed: int) -> Circuit:
    mult = array_multiplier(16, name=profile.name)
    return mult


def _build_random(profile: Iscas85Profile, seed: int) -> Circuit:
    return random_layered_circuit(
        profile.name,
        num_inputs=profile.num_inputs,
        num_outputs=profile.num_outputs,
        num_gates=profile.num_gates,
        depth=profile.depth,
        seed=seed,
    )


_BUILDERS: Dict[str, Callable[[Iscas85Profile, int], Circuit]] = {
    "c432": _build_c432,
    "c880": _build_c880,
    "c1355": _build_c1355,
    "c6288": _build_c6288,
}


def available_circuits() -> Tuple[str, ...]:
    """Names of the suite circuits, in the paper's table order."""
    order = [
        "c1355",
        "c1908",
        "c2670",
        "c3540",
        "c432",
        "c5315",
        "c6288",
        "c7552",
        "c880",
    ]
    return tuple(order)


def build_circuit(name: str, seed: "int | None" = None) -> Circuit:
    """Build the ISCAS85-like stand-in for circuit ``name``.

    Parameters
    ----------
    name:
        Lower-case ISCAS85 name (``"c432"`` ... ``"c7552"``).
    seed:
        Optional override of the deterministic per-circuit seed.  Only
        affects circuits with a random component.

    Raises
    ------
    ConfigError
        If ``name`` is not in the suite.
    """
    key = name.lower()
    profile = ISCAS85_PROFILES.get(key)
    if profile is None:
        raise ConfigError(
            f"unknown circuit {name!r}; choose from {sorted(ISCAS85_PROFILES)}"
        )
    if seed is None:
        seed = _SEED_BASE ^ hash_name(key)
    builder = _BUILDERS.get(key, _build_random)
    circuit = builder(profile, seed)
    circuit.name = key
    return circuit


def hash_name(name: str) -> int:
    """Stable (non-salted) string hash for seed derivation."""
    h = 2166136261
    for ch in name.encode():
        h = (h ^ ch) * 16777619 & 0xFFFFFFFF
    return h
