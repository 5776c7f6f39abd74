"""Layer spans recorded from outside the program.

The benchmark never edits ``src/``.  It installs wrappers around public
functions and methods of the ``repro`` packages, bound where the caller
looks them up (for example the name ``fit_weibull_mle`` inside
``repro.estimation.mc_estimator``), and records one span per call:
name, start, end, parent span and thread.  Spans stay in memory; the
run aggregates them when it ends.

A layer's self time is its span's duration minus the durations of its
child spans.  Children of a span always run on the span's own thread
and nest inside it, so subtracting their durations equals subtracting
the part of the interval they cover.  A call to a span name that is
already the innermost open span on the thread (a wrapped method calling
another wrapped method of the same layer, such as a subclass's
``sample_block_maxima`` deferring to its base class) is folded into the
open span, so each logical call is counted once.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time
from typing import Callable, Dict, List, Tuple

# Span record layout (a list, so closing a span is one item store).
# The benchmark's own root spans carry a seventh item, their case tag.
NAME, START, END, PARENT, PAIRS, ERROR, TAG = range(7)


class Tracer:
    """In-memory span recorder shared by every wrapper of one process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.calls = 0
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, stack: list, name: str, pairs: int, *tag: str) -> list:
        span = [name, time.perf_counter(), None,
                stack[-1] if stack else -1, pairs, None, *tag]
        # list.append is atomic under the interpreter lock; another
        # thread may append before the length is read, so search back.
        self.spans.append(span)
        index = len(self.spans) - 1
        while self.spans[index] is not span:
            index -= 1
        stack.append(index)
        return span

    def call(self, name: str, fn: Callable, args, kwargs, pairs_of=None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        self.calls += 1
        stack = self._stack()
        if stack and self.spans[stack[-1]][NAME] == name:
            return fn(*args, **kwargs)
        span = self._open(
            stack, name, pairs_of(args, kwargs) if pairs_of is not None else 0
        )
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            span[ERROR] = type(exc).__name__
            raise
        finally:
            span[END] = time.perf_counter()
            stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, tag: str = ""):
        """Context manager form, for the benchmark's own ``setup`` and
        ``op`` spans; ``tag`` names the operation's case."""
        stack = self._stack()
        span = self._open(stack, name, 0, tag)
        try:
            yield span
        except BaseException as exc:
            span[ERROR] = type(exc).__name__
            raise
        finally:
            span[END] = time.perf_counter()
            stack.pop()


# ----------------------------------------------------------------------
# Where each layer is measured.  (module, owner attribute or None for a
# module-level function, member, span name, pairs extractor)
# ----------------------------------------------------------------------

def _arg(position: int, keyword: str):
    """Pairs extractor: the integer argument at ``position``/``keyword``."""
    def pairs_of(args, kwargs):
        if keyword in kwargs:
            return int(kwargs[keyword])
        return int(args[position]) if len(args) > position else 0
    return pairs_of


TARGETS: Tuple[tuple, ...] = (
    # netlist: circuit generation and parsing
    ("repro.netlist.generators", None, "build_circuit", "netlist.load", None),
    ("repro.netlist.generators.iscas_like", None, "build_circuit",
     "netlist.load", None),
    ("repro.netlist.bench", None, "load_bench", "netlist.load", None),
    ("repro.netlist.verilog", None, "load_verilog", "netlist.load", None),
    # sim: analyzer set-up, kernels, cross-job batching
    ("repro.sim.power", "PowerAnalyzer", "__init__", "sim.analyzer_setup",
     None),
    ("repro.netlist.library", "CellLibrary", "all_net_capacitances",
     "sim.net_caps", None),
    ("repro.sim.bitsim", "BitParallelSimulator", "__init__",
     "sim.plan_compile", None),
    ("repro.sim.power", "PowerAnalyzer", "powers_for_pairs", "sim.powers",
     None),
    ("repro.sim.bitsim", "BitParallelSimulator", "toggle_energy_zero_delay",
     "sim.kernel", _arg(3, "num_lanes")),
    ("repro.sim.bitsim", "BitParallelSimulator", "toggle_energy_unit_delay",
     "sim.kernel", _arg(3, "num_lanes")),
    ("repro.sim.compiled", "CompiledPlan", "unit_delay_planes", "sim.kernel",
     None),
    ("repro.sim.native", None, "unit_delay_planes_native", "sim.kernel",
     None),
    ("repro.sim.batch", "SimBatcher", "toggle_energy_unit_delay", "sim.batch",
     _arg(4, "num_lanes")),
    # vectors: pair generation, pool build, sampling
    ("repro.vectors.generators", None, "high_activity_vector_pairs",
     "vectors.generate", _arg(0, "num_pairs")),
    ("repro.vectors.generators", None, "transition_prob_vector_pairs",
     "vectors.generate", _arg(0, "num_pairs")),
    ("repro.vectors.population", "FinitePopulation", "build",
     "vectors.build", None),
    ("repro.vectors.population", "PowerPopulation", "sample_block_maxima",
     "vectors.sample", None),
    ("repro.vectors.population", "FinitePopulation", "sample_block_maxima",
     "vectors.sample", None),
    ("repro.vectors.population", "StreamingPopulation", "sample_block_maxima",
     "vectors.sample", None),
    ("repro.vectors.population", "FinitePopulation", "sample_powers",
     "vectors.sample", None),
    ("repro.vectors.population", "StreamingPopulation", "sample_powers",
     "vectors.sample", None),
    # evt: the fits, bound where the estimators look them up
    ("repro.estimation.mc_estimator", None, "fit_weibull_mle",
     "evt.weibull_fit", None),
    ("repro.estimation.adaptive", None, "fit_weibull_mle", "evt.weibull_fit",
     None),
    ("repro.estimation.pot", None, "fit_gpd", "evt.gpd_fit", None),
    ("repro.estimation.adaptive", None, "fit_gpd", "evt.gpd_fit", None),
    # estimation: the hyper-sample loop, repeated runs, adaptive pilot
    ("repro.estimation.mc_estimator", "MaxPowerEstimator", "run",
     "estimation.run", None),
    ("repro.estimation.mc_estimator", "MaxPowerEstimator", "hyper_sample",
     "estimation.hyper_sample", None),
    ("repro.estimation.pot", "PeaksOverThresholdEstimator", "run",
     "estimation.run", None),
    ("repro.estimation.pot", "PeaksOverThresholdEstimator", "round_estimate",
     "estimation.hyper_sample", None),
    ("repro.estimation.adaptive", "AdaptiveMaxPowerEstimator", "run",
     "estimation.run", None),
    ("repro.estimation.adaptive", "AdaptiveMaxPowerEstimator", "decide",
     "estimation.adaptive_pilot", None),
    ("repro.api", None, "_run_many", "estimation.run_many", None),
    # service: client calls (load generator) and store commits (server)
    ("repro.service.client", "Client", "submit", "service.submit", None),
    ("repro.service.client", "Client", "wait", "service.wait", None),
    ("repro.service.client", "Client", "status", "service.status", None),
    ("repro.service.client", "Client", "result", "service.result", None),
    ("repro.service.store", "SQLiteJobStore", "submit", "service.store",
     None),
    ("repro.service.store", "SQLiteJobStore", "mark_completed",
     "service.store", None),
)


def _make_wrapper(tracer: Tracer, name: str, fn: Callable, pairs_of):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, pairs_of)

    return wrapper


def install(tracer: Tracer) -> Tuple[Callable[[], None], List[str]]:
    """Wrap every target that exists; returns ``(uninstall, missing)``.

    Targets absent from the program (a deleted component, a renamed
    function) are skipped and listed, so the benchmark keeps running on
    later revisions of the code it measures.
    """
    undo: List[Tuple[object, str, object]] = []
    missing: List[str] = []
    for module_name, owner_name, member, span_name, pairs_of in TARGETS:
        label = ".".join(filter(None, (module_name, owner_name, member)))
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            missing.append(label)
            continue
        owner = getattr(module, owner_name, None) if owner_name else module
        raw = vars(owner).get(member) if owner is not None else None
        if raw is None:
            missing.append(label)
            continue
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(
                _make_wrapper(tracer, span_name, raw.__func__, pairs_of)
            )
        else:
            new = _make_wrapper(tracer, span_name, raw, pairs_of)
        setattr(owner, member, new)
        undo.append((owner, member, raw))

    def uninstall() -> None:
        for owner, member, raw in reversed(undo):
            setattr(owner, member, raw)
        undo.clear()

    return uninstall, missing


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------

PHASES = ("setup", "op")


def empty_row() -> dict:
    return {"calls": 0, "total_s": 0.0, "self_s": 0.0, "pairs": 0,
            "errors": {}, "batched_kernel_s": 0.0, "batched_kernel_calls": 0}


def aggregate(spans: List[list], default_phase: str) -> Dict[str, Dict[str, dict]]:
    """``phase -> span name -> row`` with calls, total and self seconds,
    pairs and error counts.

    A span's phase is the name of its root span when that root is one of
    the benchmark's own ``setup``/``op`` spans (``op:<case>`` for a
    tagged operation), else ``default_phase`` (spans of a server
    process, whose roots are layer spans).  A
    ``sim.kernel`` span directly inside ``sim.batch`` is a fused
    invocation run by a batch leader; ``sim.batch`` rows count them.
    """
    child_time = [0.0] * len(spans)
    phase_of = [default_phase] * len(spans)
    for i, span in enumerate(spans):
        parent = span[PARENT]
        if parent >= 0:
            phase_of[i] = phase_of[parent]
            if span[END] is not None:
                child_time[parent] += span[END] - span[START]
        elif span[NAME] in PHASES:
            tag = span[TAG] if len(span) > TAG else ""
            phase_of[i] = f"{span[NAME]}:{tag}" if tag else span[NAME]
    out: Dict[str, Dict[str, dict]] = {}
    for i, span in enumerate(spans):
        if span[END] is None:
            continue
        duration = span[END] - span[START]
        row = out.setdefault(phase_of[i], {}).setdefault(span[NAME], empty_row())
        row["calls"] += 1
        row["total_s"] += duration
        row["self_s"] += duration - child_time[i]
        row["pairs"] += span[PAIRS]
        if span[ERROR] is not None:
            row["errors"][span[ERROR]] = row["errors"].get(span[ERROR], 0) + 1
        parent = span[PARENT]
        if span[NAME] == "sim.kernel" and parent >= 0 and (
            spans[parent][NAME] == "sim.batch"
        ):
            batch = out[phase_of[i]].setdefault("sim.batch", empty_row())
            batch["batched_kernel_s"] += duration
            batch["batched_kernel_calls"] += 1
    return out


def merge(*aggregates: Dict[str, Dict[str, dict]]) -> Dict[str, dict]:
    """Sum rows over phases and processes into ``span name -> row``."""
    out: Dict[str, dict] = {}
    for agg in aggregates:
        for rows in agg.values():
            for name, row in rows.items():
                into = out.setdefault(name, empty_row())
                for key, value in row.items():
                    if key == "errors":
                        for err, count in value.items():
                            into["errors"][err] = into["errors"].get(err, 0) + count
                    else:
                        into[key] += value
    return out


def span_cost_s(repeats: int = 20000) -> float:
    """Measured cost of one recorded span over a bare call, in seconds."""
    tracer = Tracer()

    def noop():
        return None

    wrapped = _make_wrapper(tracer, "calibrate", noop, None)
    best_plain = best_wrapped = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(repeats):
            noop()
        best_plain = min(best_plain, time.perf_counter() - start)
        tracer.spans.clear()
        start = time.perf_counter()
        for _ in range(repeats):
            wrapped()
        best_wrapped = min(best_wrapped, time.perf_counter() - start)
    tracer.spans.clear()
    return max(0.0, (best_wrapped - best_plain) / repeats)


def layer_table(agg: Dict[str, Dict[str, dict]], ops: int) -> str:
    """Per-layer table: one block per phase, self time first.

    Each ``setup``/``op`` phase ends with an ``unattributed`` row: time
    that no layer span covers (the self time of the root spans).  Per-op
    figures divide by the phase's own root count (``ops`` for a server
    phase, whose work serves all operations).
    """
    lines = []
    for phase in sorted(agg, key=lambda p: (p != "setup", p == "server", p)):
        rows = agg[phase]
        roots = [rows[n]["calls"] for n in PHASES if n in rows]
        per = max(roots[0] if roots else ops, 1)
        base = sum(r["self_s"] for r in rows.values())
        lines.append(f"[{phase}] {per} root span(s)")
        lines.append(f"  {'span':<28}{'self s':>11}{'self s/op':>11}"
                     f"{'calls':>9}{'share':>8}")
        for name in sorted(rows, key=lambda n: (n in PHASES, n)):
            row = rows[name]
            label = "unattributed" if name in PHASES else name
            share = row["self_s"] / base if base > 0 else 0.0
            lines.append(
                f"  {label:<28}{row['self_s']:>11.4f}"
                f"{row['self_s'] / per:>11.5f}{row['calls']:>9d}{share:>8.1%}"
            )
    return "\n".join(lines)
