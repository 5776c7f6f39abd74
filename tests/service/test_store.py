"""SQLite job store: lifecycle, memoization, atomic claims, migration.

A legacy ``jobs.jsonl`` must migrate to exactly the jobs that
:func:`~repro.service.jobs.replay_log` settles from it (the migration
tests assert ``status_dict()`` and ``requeued_ids`` parity).  Beyond
that the store adds content-keyed result memoization, tear-free
terminal transitions, and compare-and-swap work claiming.
"""

from __future__ import annotations

import json
import sqlite3

import pytest

from repro.api import EstimatorConfig
from repro.errors import ConfigError
from repro.obs.metrics import get_registry
from repro.schemas import fingerprint_job_spec
from repro.service.jobs import JobState, replay_log
from repro.service.store import SQLiteJobStore

from .test_jobs import (
    HEADER,
    cancel_requested,
    fake_result,
    make_spec,
    result,
    state,
    submitted,
    write_log,
)


@pytest.fixture
def metrics():
    """Enabled (and afterwards restored) global metrics registry."""
    registry = get_registry()
    was_enabled = registry.enabled
    registry.enable()
    registry.reset()
    yield registry
    if not was_enabled:
        registry.disable()
    registry.reset()


class TestLifecycle:
    def test_submit_claim_complete_roundtrip(self, tmp_path):
        store = SQLiteJobStore(tmp_path)
        job = store.submit(make_spec())
        assert job.state == JobState.QUEUED
        claimed = store.claim_next(timeout=0.01, owner="worker-0")
        assert claimed.id == job.id
        assert claimed.state == JobState.RUNNING
        assert claimed.lease_owner == "worker-0"
        store.mark_completed(job, [fake_result(2.5)])
        assert job.state == JobState.COMPLETED
        assert job.completed_runs == 1
        assert store.counts()[JobState.COMPLETED] == 1

    def test_claim_is_fifo(self, tmp_path):
        store = SQLiteJobStore(tmp_path)
        first = store.submit(make_spec(seed=1))
        store.submit(make_spec(seed=2))
        assert store.claim_next(timeout=0.01).id == first.id

    def test_claim_times_out_empty(self, tmp_path):
        assert SQLiteJobStore(tmp_path).claim_next(timeout=0.01) is None

    def test_claim_skips_cancelled_head_in_one_call(self, tmp_path):
        store = SQLiteJobStore(tmp_path)
        first = store.submit(make_spec(seed=1))
        second = store.submit(make_spec(seed=2))
        first.cancel_event.set()  # cancelled while queued, unacknowledged
        claimed = store.claim_next(timeout=0.01)
        assert claimed is not None and claimed.id == second.id
        assert first.state == JobState.CANCELLED

    def test_cancel_queued_job_settles_immediately(self, tmp_path):
        store = SQLiteJobStore(tmp_path)
        job = store.submit(make_spec())
        store.request_cancel(job.id)
        assert job.state == JobState.CANCELLED
        assert store.claim_next(timeout=0.01) is None
        with pytest.raises(ConfigError, match="already"):
            store.request_cancel(job.id)
        with pytest.raises(KeyError):
            store.request_cancel("job-999999-dead")

    def test_status_dict_matches_legacy_fields(self, tmp_path):
        job = SQLiteJobStore(tmp_path).submit(make_spec())
        log = write_log(tmp_path, HEADER, submitted("job-000001-aaaa", 1.0))
        legacy = replay_log(log)[0]["job-000001-aaaa"]
        assert set(job.status_dict()) == set(legacy.status_dict())

    def test_terminal_transition_is_one_transaction(self, tmp_path):
        # The result row and the terminal state land atomically: at no
        # commit point can the database hold results beside a
        # non-terminal state (the JSONL log's torn-tail failure mode).
        store = SQLiteJobStore(tmp_path)
        job = store.submit(make_spec())
        store.claim_next(timeout=0.01)
        store.mark_completed(job, [fake_result(1.5)])
        with sqlite3.connect(tmp_path / "jobs.db") as probe:
            state, payload = probe.execute(
                "SELECT j.state, r.payload FROM jobs j "
                "JOIN results r ON r.job_id = j.id WHERE j.id = ?",
                (job.id,),
            ).fetchone()
        assert state == JobState.COMPLETED
        assert json.loads(payload)[0]["estimate"] == 1.5


class TestRestart:
    def test_completed_job_survives_restart_with_progress(self, tmp_path):
        store = SQLiteJobStore(tmp_path)
        job = store.submit(make_spec(num_runs=3))
        store.claim_next(timeout=0.01)
        store.mark_completed(job, [fake_result(v) for v in (1.0, 2.0, 3.0)])
        store.close()

        reborn = SQLiteJobStore(tmp_path)
        again = reborn.get(job.id)
        assert again.state == JobState.COMPLETED
        assert [r.estimate for r in again.results] == [1.0, 2.0, 3.0]
        assert again.completed_runs == 3
        assert reborn.requeued_ids == []

    def test_unfinished_jobs_requeue_with_lease_cleared(self, tmp_path):
        # Stable replica id = crash-restart of the same replica: its own
        # leases are reclaimed immediately.  (A *different* replica's
        # live lease is left alone — see test_fabric.py.)
        store = SQLiteJobStore(tmp_path, replica_id="r1")
        queued = store.submit(make_spec(seed=1))
        store.claim_next(timeout=0.01, owner="worker-0")  # dies mid-run
        store.close()

        reborn = SQLiteJobStore(tmp_path, replica_id="r1")
        job = reborn.get(queued.id)
        assert job.state == JobState.QUEUED
        assert job.started_at is None and job.lease_owner is None
        assert reborn.requeued_ids == [queued.id]

    def test_cancel_requested_midflight_settles_as_cancelled(self, tmp_path):
        store = SQLiteJobStore(tmp_path)
        job = store.submit(make_spec())
        store.claim_next(timeout=0.01)
        store.request_cancel(job.id)  # worker never acknowledged
        store.close()

        reborn = SQLiteJobStore(tmp_path)
        assert reborn.get(job.id).state == JobState.CANCELLED
        assert reborn.requeued_ids == []

    def test_id_counter_continues_after_restart(self, tmp_path):
        store = SQLiteJobStore(tmp_path)
        first = store.submit(make_spec())
        store.close()
        second = SQLiteJobStore(tmp_path).submit(make_spec())
        assert int(second.id.split("-")[1]) == int(first.id.split("-")[1]) + 1


class TestMemoization:
    def complete_one(self, store, spec):
        job = store.submit(spec)
        store.claim_next(timeout=0.01)
        store.mark_completed(job, [fake_result(3.25)])
        return job

    def test_identical_spec_settles_from_memo(self, tmp_path, metrics):
        store = SQLiteJobStore(tmp_path)
        first = self.complete_one(store, make_spec())
        again = store.submit(make_spec())
        assert again.state == JobState.COMPLETED
        assert again.memo_hit is True
        assert again.completed_runs == 1
        # Bit-identical payload, and the queue never saw the job.
        assert [r.to_dict() for r in again.results] == [
            r.to_dict() for r in first.results
        ]
        assert store.claim_next(timeout=0.01) is None
        assert metrics.counter("service_memo_hits").value == 1

    def test_memo_hits_survive_restart(self, tmp_path, metrics):
        store = SQLiteJobStore(tmp_path)
        first = self.complete_one(store, make_spec())
        store.close()
        reborn = SQLiteJobStore(tmp_path)
        again = reborn.submit(make_spec())
        assert again.memo_hit is True
        assert [r.to_dict() for r in again.results] == [
            r.to_dict() for r in first.results
        ]

    def test_different_seed_misses(self, tmp_path, metrics):
        store = SQLiteJobStore(tmp_path)
        self.complete_one(store, make_spec(seed=1))
        assert store.submit(make_spec(seed=2)).state == JobState.QUEUED
        assert metrics.counter("service_memo_hits").value == 0

    def test_non_semantic_config_knobs_do_not_key(self, tmp_path, metrics):
        # workers/retries/task_timeout change how a result is computed,
        # never what it is — exactly the --resume config-key exclusions.
        semantic = make_spec(config=EstimatorConfig(max_hyper_samples=10))
        tuned = make_spec(
            config=EstimatorConfig(
                max_hyper_samples=10, workers=4, retries=2, task_timeout=30.0
            )
        )
        assert fingerprint_job_spec(semantic) == fingerprint_job_spec(tuned)
        store = SQLiteJobStore(tmp_path)
        self.complete_one(store, semantic)
        assert store.submit(tuned).memo_hit is True

    def test_no_memo_store_always_runs(self, tmp_path, metrics):
        store = SQLiteJobStore(tmp_path, memo=False)
        self.complete_one(store, make_spec())
        again = store.submit(make_spec())
        assert again.state == JobState.QUEUED
        assert again.memo_hit is False
        assert metrics.counter("service_memo_hits").value == 0

    def test_failed_and_cancelled_jobs_never_memoize(self, tmp_path, metrics):
        store = SQLiteJobStore(tmp_path)
        failed = store.submit(make_spec())
        store.claim_next(timeout=0.01)
        store.mark_failed(failed, "boom")
        assert store.submit(make_spec()).state == JobState.QUEUED


DONE, INTERRUPTED, CANCELLED = (
    "job-000001-aaaa", "job-000002-bbbb", "job-000003-cccc"
)


def build_legacy_log(state_dir, torn_tail=False, cancelled_queued=False):
    """A legacy jobs.jsonl with one completed, one mid-flight job (plus
    optional torn tail / cancelled-while-queued variants)."""
    lines = [
        HEADER,
        submitted(DONE, 1.0, seed=1),
        state(DONE, "running", 2.0),
        result(DONE, 4.5),
        state(DONE, "completed", 3.0),
        submitted(INTERRUPTED, 4.0, seed=2),
        state(INTERRUPTED, "running", 5.0),  # running when the process dies
    ]
    if cancelled_queued:
        lines += [
            submitted(CANCELLED, 6.0, seed=3),
            cancel_requested(CANCELLED, 9.0),
        ]
    return write_log(
        state_dir,
        *lines,
        torn_tail=(
            '{"event": "state", "id": "' + INTERRUPTED if torn_tail else ""
        ),
    )


class TestMigration:
    @pytest.mark.parametrize(
        "variant",
        ["plain", "torn_tail", "cancelled_queued"],
        ids=["legacy-v1-header", "torn-tail", "cancelled-while-queued"],
    )
    def test_migrated_status_is_identical_to_legacy_replay(
        self, tmp_path, variant
    ):
        log = build_legacy_log(
            tmp_path,
            torn_tail=variant == "torn_tail",
            cancelled_queued=variant == "cancelled_queued",
        )
        replayed, _ = replay_log(log)
        # Startup recovery requeues every job replay left non-terminal,
        # in submission order.
        requeued = []
        for job in sorted(replayed.values(), key=lambda j: j.created_at):
            if not job.terminal:
                job.state = JobState.QUEUED
                job.started_at = None
                requeued.append(job.id)
        legacy_status = {j.id: j.status_dict() for j in replayed.values()}

        migrated = SQLiteJobStore(tmp_path)
        sqlite_status = {
            j.id: j.status_dict() for j in migrated.list()
        }
        assert sqlite_status == legacy_status
        assert migrated.requeued_ids == requeued == [INTERRUPTED]
        assert migrated.migrated_jobs == len(legacy_status)

    def test_log_is_retired_and_never_replayed_twice(self, tmp_path):
        build_legacy_log(tmp_path)
        store = SQLiteJobStore(tmp_path)
        jobs = {j.id for j in store.list()}
        store.close()
        assert not (tmp_path / "jobs.jsonl").exists()
        assert (tmp_path / "jobs.jsonl.migrated").exists()

        reborn = SQLiteJobStore(tmp_path)
        assert reborn.migrated_jobs == 0
        assert {j.id for j in reborn.list()} == jobs

    def test_migrated_results_and_counter_carry_over(self, tmp_path):
        build_legacy_log(tmp_path)
        store = SQLiteJobStore(tmp_path)
        completed = store.list(state=JobState.COMPLETED)
        assert len(completed) == 1
        assert completed[0].results[0].estimate == 4.5
        assert completed[0].completed_runs == 1
        fresh = store.submit(make_spec(seed=9))
        taken = {int(j.id.split("-")[1]) for j in store.list()} - {
            int(fresh.id.split("-")[1])
        }
        assert int(fresh.id.split("-")[1]) == max(taken) + 1

    def test_migrated_completed_job_memoizes(self, tmp_path, metrics):
        # The memo key works across backends: a result computed before
        # the migration serves an identical spec submitted after it.
        build_legacy_log(tmp_path)
        store = SQLiteJobStore(tmp_path)
        again = store.submit(make_spec(seed=1))
        assert again.memo_hit is True
        assert again.results[0].estimate == 4.5
        assert metrics.counter("service_memo_hits").value == 1
