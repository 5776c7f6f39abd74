"""Tests of the benchmark's own metric math.

Run with ``python3 -m pytest perfbench/test_perfbench.py``; they need
neither the program nor a server.
"""

import math
import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from stats import OpRecord, summarize, tail  # noqa: E402
from tracing import Tracer, aggregate, merge  # noqa: E402
from workloads import balanced_cycles  # noqa: E402


# -- tail percentile -----------------------------------------------------

def test_tail_leaves_exactly_ten_samples_beyond():
    values = [float(i) for i in range(1, 101)]
    value, percentile, beyond = tail(values)
    assert value == 90.0
    assert percentile == 90.0
    assert beyond == 10
    assert sum(v > value for v in values) == 10


def test_tail_percentile_follows_the_sample_count():
    values = [float(i) for i in range(1, 41)]
    assert tail(values) == (30.0, 75.0, 10)
    assert tail(values[:20]) == (10.0, 50.0, 10)


def test_tail_falls_back_to_the_maximum_below_twenty_samples():
    values = [3.0, 1.0, 2.0] * 6  # 18 samples
    assert tail(values) == (3.0, 100.0, 0)
    assert tail([0.5]) == (0.5, 100.0, 0)
    with pytest.raises(ValueError):
        tail([])


# -- self time -------------------------------------------------------------

def _span(name, start, end, parent, pairs=0, error=None):
    return [name, start, end, parent, pairs, error]


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("op", 0.0, 10.0, -1),           # 0
        _span("a", 1.0, 6.0, 0),              # 1
        _span("b", 2.0, 3.0, 1, pairs=64),    # 2
        _span("c", 4.0, 5.5, 1),              # 3
        _span("b", 7.0, 9.0, 0, pairs=32),    # 4
    ]
    rows = aggregate(spans, "other")["op"]
    assert rows["op"]["self_s"] == pytest.approx(10.0 - 5.0 - 2.0)
    assert rows["a"]["self_s"] == pytest.approx(5.0 - 1.0 - 1.5)
    assert rows["a"]["total_s"] == pytest.approx(5.0)
    assert rows["b"]["calls"] == 2
    assert rows["b"]["self_s"] == pytest.approx(3.0)
    assert rows["b"]["pairs"] == 96


def test_phases_follow_the_root_span():
    spans = [
        _span("setup", 0.0, 2.0, -1),
        _span("sim.kernel", 0.5, 1.0, 0),
        _span("op", 2.0, 3.0, -1),
        _span("sim.kernel", 2.1, 2.2, 2),
        _span("sim.kernel", 5.0, 5.5, -1),    # a server thread's root
    ]
    agg = aggregate(spans, "server")
    assert agg["setup"]["sim.kernel"]["total_s"] == pytest.approx(0.5)
    assert agg["op"]["sim.kernel"]["total_s"] == pytest.approx(0.1)
    assert agg["server"]["sim.kernel"]["total_s"] == pytest.approx(0.5)
    merged = merge(agg)
    assert merged["sim.kernel"]["calls"] == 3
    assert merged["sim.kernel"]["total_s"] == pytest.approx(1.1)


def test_fused_kernel_invocations_are_counted_on_the_batch_row():
    spans = [
        _span("sim.batch", 0.0, 1.0, -1, pairs=300),
        _span("sim.kernel", 0.2, 0.7, 0),
        _span("sim.batch", 0.0, 1.0, -1, pairs=300),   # a follower
    ]
    batch = aggregate(spans, "server")["server"]["sim.batch"]
    assert batch["calls"] == 2
    assert batch["batched_kernel_calls"] == 1
    assert batch["batched_kernel_s"] == pytest.approx(0.5)


def test_tracer_nests_spans_and_folds_same_name_calls():
    tracer = Tracer()

    def inner():
        return tracer.call("evt.fit", lambda: 1, (), {})

    def recursive(depth):
        if depth:
            return tracer.call("vectors.sample", recursive, (depth - 1,), {})
        return inner()

    with tracer.span("op"):
        assert tracer.call("vectors.sample", recursive, (3,), {}) == 1
    names = [s[0] for s in tracer.spans]
    assert names == ["op", "vectors.sample", "evt.fit"]
    assert tracer.spans[2][3] == 1 and tracer.spans[1][3] == 0
    assert tracer.calls == 5


def test_tracer_records_errors_and_keeps_threads_apart():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    def worker():
        with tracer.span("op"):
            tracer.call("evt.fit", lambda: None, (), {})

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    with pytest.raises(ValueError):
        tracer.call("evt.fit", boom, (), {})
    rows = aggregate(tracer.spans, "other")
    assert rows["op"]["evt.fit"]["calls"] == 4
    assert rows["op"]["op"]["calls"] == 4
    assert rows["other"]["evt.fit"]["errors"] == {"ValueError": 1}


# -- failure counting ----------------------------------------------------

def test_every_kind_of_failure_counts_against_attempted():
    ok = OpRecord("ok", 1.0, estimate=2.0, units_used=300, converged=True,
                  true_max=2.2, error_bound=0.05)
    raised = OpRecord("raised", 2.0, error="ServiceError: 500")
    nonfinite = OpRecord("nan", 3.0, estimate=math.nan, units_used=600)
    mismatch = OpRecord("check", 4.0, estimate=2.0, units_used=900,
                        check_failures=["units_used 900 != reference 600"])
    summary = summarize([ok, raised, nonfinite, mismatch], cycles_s=[10.0])
    assert summary["attempted"] == 4
    assert summary["failed"] == 3
    assert summary["fail_frac"] == 0.75
    assert summary["ops_per_s"] == 0.4
    assert summary["latency_p50_s"] == 2.5
    assert summary["units_per_op"] == 300
    assert summary["rel_err_p50"] == pytest.approx(0.2 / 2.2)
    assert summary["miss_eps_frac"] == 1.0


def test_accuracy_metrics_are_absent_without_a_known_maximum():
    rec = OpRecord("svc", 0.2, estimate=1.0, units_used=600, converged=True)
    summary = summarize([rec], cycles_s=[1.0])
    assert summary["failed"] == 0
    assert summary["rel_err_p50"] is None
    assert summary["miss_eps_frac"] is None



def test_throughput_is_one_cycle_of_operations_over_the_median_cycle():
    records = [OpRecord(f"op{i}", 0.5, estimate=1.0, units_used=300)
               for i in range(12)]
    # Four operations per cycle; one cycle ran on a slow stretch.
    summary = summarize(records, cycles_s=[2.0, 9.0, 2.5])
    assert summary["ops_per_s"] == 4 / 2.5
    with pytest.raises(ValueError):
        summarize(records, cycles_s=[])


# -- service catalogue ---------------------------------------------------

def test_balanced_cycles_deal_every_seed_into_equal_cost_cycles():
    costs = [600, 17400, 3900, 5400, 12900, 6900, 2100, 9300, 9000, 3300,
             600, 7500]
    cycles = balanced_cycles(costs, 4)
    assert sorted(k for c in cycles for k in c) == list(range(12))
    assert all(len(c) == 4 for c in cycles)
    totals = [sum(costs[k] for k in c) for c in cycles]
    assert max(totals) - min(totals) <= max(costs) - min(costs)
    # Costliest first, so pairing first with last pairs dear with cheap.
    assert all([costs[k] for k in c] == sorted((costs[k] for k in c),
                                                 reverse=True) for c in cycles)
