"""Event-driven gate-level timing simulator.

This is the reference "PowerMill substitute": given a vector pair
``(v1, v2)`` it settles the circuit at ``v1``, applies ``v2`` at t = 0
and propagates events through the gate DAG honouring per-gate delays, so
hazards/glitches generated by unequal path delays are simulated and
counted.  Transport-delay semantics are used (every scheduled transition
that differs from the net's value at its due time is applied); an
optional inertial filter drops pulses shorter than the gate delay.

The simulator records per-net toggle counts (what the power model
charges), the settle time (what the max-delay extension estimates), and
optionally full waveforms for inspection.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import SimulationError
from ..netlist.circuit import Circuit
from ..netlist.gates import eval_gate
from .delay import DelayModel, UnitDelay

__all__ = ["EventDrivenSimulator", "PairSimResult"]


@dataclass
class PairSimResult:
    """Outcome of simulating one input vector pair.

    Attributes
    ----------
    toggle_counts:
        net -> number of logic transitions on that net during the cycle
        (primary-input transitions included).
    final_values:
        net -> settled value after all events are processed.
    settle_time:
        Time of the last transition (0.0 when nothing switched).
    num_events:
        Count of applied transitions (equals the sum of toggle_counts).
    waveforms:
        net -> [(time, new_value), ...] when recording was requested,
        else empty.
    """

    toggle_counts: Dict[str, int]
    final_values: Dict[str, int]
    settle_time: float
    num_events: int
    waveforms: Dict[str, List[Tuple[float, int]]] = field(default_factory=dict)

    def total_toggles(self) -> int:
        return sum(self.toggle_counts.values())

    def glitch_count(self, circuit: Circuit) -> int:
        """Transitions in excess of the functionally necessary ones.

        A net that ends at a different value than it started needs one
        transition; one that returns to its initial value needs zero.
        Everything above that is hazard activity.
        """
        excess = 0
        for net, count in self.toggle_counts.items():
            needed = count % 2  # parity fixes the functional requirement
            excess += count - needed if count else 0
        return excess


class EventDrivenSimulator:
    """Event-driven timing simulation of a combinational circuit.

    Parameters
    ----------
    circuit:
        The circuit to simulate (validated on construction).
    delay_model:
        A :class:`~repro.sim.delay.DelayModel`; defaults to unit delay.
    inertial:
        If true, a pulse shorter than the driving gate's delay is
        filtered (the later event replaces the pending one).
    """

    def __init__(
        self,
        circuit: Circuit,
        delay_model: Optional[DelayModel] = None,
        inertial: bool = False,
    ):
        circuit.validate()
        self.circuit = circuit
        self.delay_model = delay_model or UnitDelay()
        self.inertial = inertial
        self._delays = self.delay_model.delays_for(circuit)
        # A plain-dict view of the shared read-only map keeps the
        # simulator picklable (process pools ship analyzers by pickle).
        self._fanout = dict(circuit.fanout_map())
        self._order = circuit.topological_order()

    # ------------------------------------------------------------------
    def steady_state(self, vector: Sequence[int]) -> Dict[str, int]:
        """Zero-delay settled values for one input vector."""
        return self.circuit.evaluate_vector([int(b) & 1 for b in vector])

    def simulate_pair(
        self,
        v1: Sequence[int],
        v2: Sequence[int],
        record_waveforms: bool = False,
        max_events: int = 10_000_000,
    ) -> PairSimResult:
        """Simulate the clock cycle that applies ``v2`` after ``v1``.

        Raises
        ------
        SimulationError
            If the vectors have the wrong width or the event budget is
            exhausted (which would indicate oscillation — impossible in
            an acyclic circuit, so it guards against internal errors).
        """
        n_in = self.circuit.num_inputs
        if len(v1) != n_in or len(v2) != n_in:
            raise SimulationError(
                f"vectors must have width {n_in}, got {len(v1)}/{len(v2)}"
            )
        if all(d == 0.0 for d in self._delays.values()):
            return self._simulate_zero_delay(v1, v2, record_waveforms)
        values = self.steady_state(v1)
        toggles: Dict[str, int] = {}
        waveforms: Dict[str, List[Tuple[float, int]]] = {}
        counter = itertools.count()
        queue: List[Tuple[float, int, str, int]] = []
        # Pending inertial events per net: net -> (time, value) of the
        # single outstanding scheduled transition.
        pending: Dict[str, Tuple[float, int]] = {}

        def schedule(time: float, net: str, value: int) -> None:
            if self.inertial:
                prior = pending.get(net)
                if prior is not None and prior[1] != value:
                    # Replace the not-yet-applied opposite pulse.
                    pending[net] = (time, value)
                    heapq.heappush(queue, (time, next(counter), net, value))
                    return
                pending[net] = (time, value)
            heapq.heappush(queue, (time, next(counter), net, value))

        # Apply the new vector at t = 0.
        for name, new_bit in zip(self.circuit.inputs, v2):
            new_bit = int(new_bit) & 1
            if new_bit != values[name]:
                schedule(0.0, name, new_bit)

        settle_time = 0.0
        num_events = 0
        while queue:
            # Apply every event due at the current timestamp before any
            # gate is (re)evaluated — evaluating per event would turn two
            # simultaneous input changes into a spurious zero-width pulse.
            time = queue[0][0]
            changed: List[str] = []
            while queue and queue[0][0] == time:
                _t, _seq, net, value = heapq.heappop(queue)
                if self.inertial:
                    latest = pending.get(net)
                    if latest is not None and latest != (time, value):
                        continue  # superseded by a later (re)schedule
                if values[net] == value:
                    continue
                values[net] = value
                toggles[net] = toggles.get(net, 0) + 1
                num_events += 1
                if record_waveforms:
                    waveforms.setdefault(net, []).append((time, value))
                changed.append(net)
            if not changed:
                continue
            settle_time = max(settle_time, time)
            if num_events > max_events:
                raise SimulationError(
                    "event budget exhausted — simulator invariant broken"
                )
            affected: List[str] = []
            seen: set = set()
            for net in changed:
                for sink in self._fanout[net]:
                    if sink not in seen:
                        seen.add(sink)
                        affected.append(sink)
            for sink in affected:
                gate = self.circuit.gate(sink)
                new_out = eval_gate(
                    gate.gtype, [values[f] for f in gate.fanin]
                )
                schedule(time + self._delays[sink], sink, new_out)

        return PairSimResult(
            toggle_counts=toggles,
            final_values=values,
            settle_time=settle_time,
            num_events=num_events,
            waveforms=waveforms,
        )

    def _simulate_zero_delay(
        self,
        v1: Sequence[int],
        v2: Sequence[int],
        record_waveforms: bool,
    ) -> PairSimResult:
        """Functional semantics for the all-zero-delay model.

        Every net assumes its ``v2`` steady state instantaneously, so a
        net toggles at most once and no hazard can exist — running the
        event loop would instead count delta-cycle artifacts.
        """
        s1 = self.steady_state(v1)
        s2 = self.steady_state(v2)
        toggles = {net: 1 for net in s1 if s1[net] != s2[net]}
        waveforms = (
            {net: [(0.0, s2[net])] for net in toggles}
            if record_waveforms
            else {}
        )
        return PairSimResult(
            toggle_counts=toggles,
            final_values=s2,
            settle_time=0.0,
            num_events=len(toggles),
            waveforms=waveforms,
        )

    def simulate_sequence(
        self, vectors: Sequence[Sequence[int]]
    ) -> List[PairSimResult]:
        """Simulate consecutive pairs of a vector sequence.

        Returns one :class:`PairSimResult` per applied transition
        (``len(vectors) - 1`` results).
        """
        if len(vectors) < 2:
            raise SimulationError("need at least two vectors")
        return [
            self.simulate_pair(vectors[i], vectors[i + 1])
            for i in range(len(vectors) - 1)
        ]
