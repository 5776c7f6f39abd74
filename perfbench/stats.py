"""Metric math shared by the workloads (kept free of ``repro`` imports so
its tests run without the program)."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: Samples that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10


def tail(latencies: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, percentile, samples_beyond)`` of the latency tail.

    The tail is the highest percentile with at least ``TAIL_BEYOND``
    samples beyond it: with ``n`` sorted samples, the order statistic
    at rank ``n - TAIL_BEYOND`` (1-based), i.e. percentile
    ``100 * (n - TAIL_BEYOND) / n``.  Below ``2 * TAIL_BEYOND`` samples
    that rank would sit at or under the median, so the maximum is
    reported instead, with percentile 100 and no samples beyond it.
    """
    if not latencies:
        raise ValueError("tail of an empty sample")
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 2 * TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    rank = n - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / n, TAIL_BEYOND


@dataclass
class OpRecord:
    """One timed operation and what its checks concluded."""

    label: str
    latency_s: float
    error: Optional[str] = None
    estimate: Optional[float] = None
    units_used: Optional[int] = None
    converged: Optional[bool] = None
    true_max: Optional[float] = None
    error_bound: Optional[float] = None
    check_failures: List[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        if self.error is not None or self.check_failures:
            return True
        return self.estimate is None or not math.isfinite(self.estimate)


def summarize(records: Sequence[OpRecord],
              cycles_s: Sequence[float]) -> Dict[str, object]:
    """End-to-end metrics of one run's operations.

    ``cycles_s`` holds the wall time of each whole cycle of the run's
    case mix.  Throughput is the operations of one cycle over the median
    cycle time, so a stretch in which the shared host ran slow moves one
    cycle, not the whole figure.  Latency, throughput and cost cover
    every attempted operation; the accuracy metrics cover the operations
    whose population has a known maximum.  A failed operation still
    counts in ``attempted``.
    """
    if not records:
        raise ValueError("no operations were attempted")
    if not cycles_s:
        raise ValueError("no whole cycle was timed")
    latencies = [r.latency_s for r in records]
    tail_value, tail_pct, beyond = tail(latencies)
    ok = [r for r in records if not r.failed]
    known = [r for r in ok if r.true_max]
    errors = [abs(r.estimate - r.true_max) / r.true_max for r in known]
    return {
        "attempted": len(records),
        "failed": len(records) - len(ok),
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_value,
        "latency_tail_percentile": tail_pct,
        "latency_tail_beyond": beyond,
        "ops_per_s": len(records) / len(cycles_s) / statistics.median(cycles_s),
        "fail_frac": (len(records) - len(ok)) / len(records),
        "units_per_op": (
            statistics.fmean(r.units_used for r in ok) if ok else float("nan")
        ),
        "converged_frac": (
            sum(bool(r.converged) for r in ok) / len(ok) if ok else float("nan")
        ),
        "rel_err_p50": statistics.median(errors) if errors else None,
        "miss_eps_frac": (
            sum(e > r.error_bound for e, r in zip(errors, known)) / len(known)
            if known else None
        ),
    }

