"""Job model, store lifecycle basics, and legacy event-log replay.

Servers before the SQLite store appended every job event to
``<state_dir>/jobs.jsonl``.  The replay tests write such logs as literal
JSONL lines, settle them with :func:`~repro.service.jobs.replay_log`,
and check that :class:`~repro.service.store.SQLiteJobStore` migrates
them to the same jobs.
"""

from __future__ import annotations

import json

import pytest

from repro.api import EstimatorConfig
from repro.errors import ConfigError
from repro.estimation.result import EstimationResult
from repro.service.jobs import JobSpec, JobState, replay_log
from repro.service.store import SQLiteJobStore


def make_spec(**overrides) -> JobSpec:
    base = dict(circuit="c432", config=EstimatorConfig(), population_size=500)
    base.update(overrides)
    return JobSpec(**base)


def fake_result(estimate: float = 1.0) -> EstimationResult:
    return EstimationResult(
        estimate=estimate,
        interval=None,
        converged=True,
        error_bound=0.05,
        confidence=0.9,
        population_name="fake",
    )


# -- legacy jobs.jsonl lines ------------------------------------------

HEADER = '{"schema": "repro.service_jobs/v1", "schema_version": "1.0"}'


def submitted(job_id: str, t: float, seed: int = 0, num_runs: int = 1) -> str:
    return (
        f'{{"event": "submitted", "id": "{job_id}", "t": {t}, "spec": '
        f'{{"schema_version": "1.0", "circuit": "c432", "seed": {seed}, '
        f'"num_runs": {num_runs}, "population_size": 500}}}}'
    )


def state(job_id: str, value: str, t: float, error: str = "") -> str:
    extra = f', "error": "{error}"' if error else ""
    return (
        f'{{"event": "state", "id": "{job_id}", "state": "{value}", '
        f'"t": {t}{extra}}}'
    )


def result(job_id: str, *estimates: float) -> str:
    payloads = ", ".join(
        f'{{"schema_version": "1.0", "estimate": {e}, "interval": null, '
        f'"converged": true, "error_bound": 0.05, "confidence": 0.9, '
        f'"units_used": 0, "population_name": "fake"}}'
        for e in estimates
    )
    return f'{{"event": "result", "id": "{job_id}", "results": [{payloads}]}}'


def cancel_requested(job_id: str, t: float) -> str:
    return f'{{"event": "cancel_requested", "id": "{job_id}", "t": {t}}}'


def write_log(state_dir, *lines: str, torn_tail: str = ""):
    """``state_dir/jobs.jsonl`` holding ``lines``, plus an optional
    unterminated final line (a process killed mid-append)."""
    log = state_dir / "jobs.jsonl"
    log.write_text("".join(line + "\n" for line in lines) + torn_tail)
    return log


class TestJobSpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"circuit": "  "},
            {"num_runs": 0},
            {"population_size": -5},
            {"sim_mode": "bogus"},
            {"frequency_mhz": 0.0},
            {"activity": 0.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            make_spec(**kwargs)


class TestJobStore:
    """Lifecycle basics on the service's store."""

    def test_submit_assigns_unique_queued_ids(self, tmp_path):
        store = SQLiteJobStore(tmp_path)
        jobs = [store.submit(make_spec()) for _ in range(5)]
        assert len({job.id for job in jobs}) == 5
        assert all(job.state == JobState.QUEUED for job in jobs)
        assert store.counts()[JobState.QUEUED] == 5

    def test_claim_is_fifo_and_marks_running(self, tmp_path):
        store = SQLiteJobStore(tmp_path)
        first = store.submit(make_spec(seed=1))
        store.submit(make_spec(seed=2))
        claimed = store.claim_next(timeout=0.01)
        assert claimed.id == first.id
        assert claimed.state == JobState.RUNNING
        assert claimed.started_at is not None

    def test_claim_times_out_empty(self, tmp_path):
        assert SQLiteJobStore(tmp_path).claim_next(timeout=0.01) is None

    def test_cancel_queued_job_settles_immediately(self, tmp_path):
        store = SQLiteJobStore(tmp_path)
        job = store.submit(make_spec())
        store.request_cancel(job.id)
        assert job.state == JobState.CANCELLED
        assert store.claim_next(timeout=0.01) is None

    def test_cancel_terminal_job_conflicts(self, tmp_path):
        store = SQLiteJobStore(tmp_path)
        job = store.submit(make_spec())
        store.claim_next(timeout=0.01)
        store.mark_completed(job, [fake_result()])
        with pytest.raises(ConfigError, match="already"):
            store.request_cancel(job.id)

    def test_unknown_job_raises_key_error(self, tmp_path):
        with pytest.raises(KeyError):
            SQLiteJobStore(tmp_path).request_cancel("job-999999-dead")

    def test_list_filters_by_state(self, tmp_path):
        store = SQLiteJobStore(tmp_path)
        done = store.submit(make_spec(seed=1))
        store.submit(make_spec(seed=2))
        store.claim_next(timeout=0.01)
        store.mark_completed(done, [fake_result()])
        assert [j.id for j in store.list(state=JobState.COMPLETED)] == [done.id]
        assert len(store.list()) == 2

    def test_status_dict_is_versioned_and_json_able(self, tmp_path):
        store = SQLiteJobStore(tmp_path)
        job = store.submit(make_spec())
        payload = json.loads(json.dumps(job.status_dict()))
        assert payload["schema_version"]
        assert payload["spec"]["circuit"] == "c432"
        assert payload["state"] == JobState.QUEUED

    def test_status_dict_never_echoes_tenant_credential(self, tmp_path):
        # The tenant is the raw X-API-Key header, and status/list/SSE
        # are unauthenticated: the credential must never appear in any
        # serialized job payload.
        store = SQLiteJobStore(tmp_path)
        job = store.submit(make_spec(), tenant="sk-super-secret")
        assert job.tenant == "sk-super-secret"  # kept for quota checks
        payload = json.dumps(job.status_dict())
        assert "tenant" not in json.loads(payload)
        assert "sk-super-secret" not in payload


A, B, C, D = (
    "job-000001-aaaa", "job-000002-bbbb", "job-000003-cccc", "job-000004-dddd"
)


class TestReplay:
    def test_completed_jobs_survive_restart_with_results(self, tmp_path):
        log = write_log(
            tmp_path, HEADER, submitted(A, 1.0), state(A, "running", 2.0),
            result(A, 2.5), state(A, "completed", 3.0),
        )
        jobs, counter = replay_log(log)
        assert jobs[A].state == JobState.COMPLETED
        assert jobs[A].results[0].estimate == 2.5
        assert counter == 1

        reborn = SQLiteJobStore(tmp_path)
        again = reborn.get(A)
        assert again.state == JobState.COMPLETED
        assert again.results[0].estimate == 2.5
        assert reborn.requeued_ids == []

    def test_unfinished_jobs_requeue_in_submission_order(self, tmp_path):
        log = write_log(
            tmp_path, HEADER,
            submitted(A, 1.0, seed=1), state(A, "running", 1.5),
            result(A, 1.0), state(A, "completed", 1.6),
            submitted(B, 2.0, seed=2), state(B, "running", 2.5),
            submitted(C, 3.0, seed=3), state(C, "running", 3.5),
            state(C, "failed", 3.6, error="boom"),
            submitted(D, 4.0, seed=4),
        )
        jobs, _ = replay_log(log)
        # replay_log settles terminal jobs and leaves the rest as logged.
        assert jobs[B].state == JobState.RUNNING
        assert jobs[D].state == JobState.QUEUED
        assert jobs[C].state == JobState.FAILED

        reborn = SQLiteJobStore(tmp_path)
        assert reborn.requeued_ids == [B, D]
        assert reborn.get(B).state == JobState.QUEUED
        assert reborn.get(B).started_at is None
        assert reborn.get(C).state == JobState.FAILED
        assert reborn.get(C).error == "boom"
        assert reborn.claim_next(timeout=0.01).id == B

    def test_cancel_requested_midflight_settles_as_cancelled(self, tmp_path):
        log = write_log(
            tmp_path, HEADER, submitted(A, 1.0), state(A, "running", 2.0),
            cancel_requested(A, 3.0),
        )
        jobs, _ = replay_log(log)
        assert jobs[A].state == JobState.CANCELLED

        reborn = SQLiteJobStore(tmp_path)
        assert reborn.get(A).state == JobState.CANCELLED
        assert reborn.requeued_ids == []

    def test_torn_tail_is_skipped_and_repaired(self, tmp_path):
        log = write_log(
            tmp_path, HEADER, submitted(A, 1.0),
            torn_tail='{"event": "state", "id": "' + A,
        )
        jobs, _ = replay_log(log)
        assert jobs[A].state == JobState.QUEUED

        reborn = SQLiteJobStore(tmp_path)
        assert reborn.get(A).state == JobState.QUEUED
        second = reborn.submit(make_spec(seed=9))
        reborn.close()
        # The torn log is retired, never appended to or replayed again.
        assert not log.exists()
        third = SQLiteJobStore(tmp_path)
        assert third.migrated_jobs == 0
        assert third.get(A) is not None
        assert third.get(second.id) is not None

    def test_id_counter_continues_after_restart(self, tmp_path):
        log = write_log(tmp_path, HEADER, submitted("job-000007-abcd", 1.0))
        assert replay_log(log)[1] == 7
        fresh = SQLiteJobStore(tmp_path).submit(make_spec())
        assert int(fresh.id.split("-")[1]) == 8


class TestReplayRegressions:
    """Regression tests for the replay bugs the JSONL log papered over."""

    def test_replay_restores_completed_runs(self, tmp_path):
        # completed_runs used to replay as 0 even with results restored,
        # so GET /v1/jobs/{id} after a restart reported no progress.
        log = write_log(
            tmp_path, HEADER, submitted(A, 1.0, num_runs=3),
            state(A, "running", 2.0), result(A, 1.0, 2.0, 3.0),
            state(A, "completed", 3.0),
        )
        assert replay_log(log)[0][A].completed_runs == 3

        again = SQLiteJobStore(tmp_path).get(A)
        assert again.completed_runs == 3
        assert again.status_dict()["completed_runs"] == 3

    def test_crash_between_result_and_state_events_stays_completed(
        self, tmp_path
    ):
        # A completion was logged as a result event then a state event; a
        # crash between the two used to replay as "has results but not
        # terminal" -> requeued -> the finished work re-ran and its
        # results were overwritten.
        log = write_log(
            tmp_path, HEADER, submitted(A, 1.0), state(A, "running", 2.0),
            result(A, 2.5),  # the 'completed' state event never landed
        )
        job = replay_log(log)[0][A]
        assert job.state == JobState.COMPLETED
        assert job.completed_runs == 1

        reborn = SQLiteJobStore(tmp_path)
        again = reborn.get(A)
        assert again.state == JobState.COMPLETED
        assert again.results[0].estimate == 2.5
        assert again.completed_runs == 1
        assert reborn.requeued_ids == []
        assert reborn.claim_next(timeout=0.01) is None

    def test_claim_skips_cancelled_head_and_claims_next_in_one_call(
        self, tmp_path
    ):
        # A cancelled head-of-queue job used to make claim_next return
        # None, idling the worker slot for a full poll interval.
        store = SQLiteJobStore(tmp_path)
        first = store.submit(make_spec(seed=1))
        second = store.submit(make_spec(seed=2))
        first.cancel_event.set()  # cancelled while queued, unacknowledged
        claimed = store.claim_next(timeout=0.01)
        assert claimed is not None and claimed.id == second.id
        assert claimed.state == JobState.RUNNING
        assert first.state == JobState.CANCELLED

    def test_counter_counts_jobs_dropped_for_unreadable_specs(self, tmp_path):
        # A job whose spec no longer loads is dropped from replay, but
        # its id must still advance the counter or fresh ids collide.
        log = write_log(
            tmp_path, HEADER,
            '{"event": "submitted", "id": "job-000004-dead", "t": 1.0, '
            '"spec": {"schema_version": "1.0"}}',  # circuit lost
        )
        jobs, counter = replay_log(log)
        assert jobs == {} and counter == 4

        reborn = SQLiteJobStore(tmp_path)
        assert reborn.get("job-000004-dead") is None  # dropped, as before
        fresh = reborn.submit(make_spec())
        assert int(fresh.id.split("-")[1]) == 5

    def test_counts_tolerates_unknown_state_strings(self, tmp_path):
        store = SQLiteJobStore(tmp_path)
        job = store.submit(make_spec())
        job.state = "zombie"  # e.g. a corrupt row hydrated into memory
        counts = store.counts()  # KeyError before the fix
        assert counts["zombie"] == 1
        assert counts[JobState.QUEUED] == 0
