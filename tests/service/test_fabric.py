"""Multi-replica job fabric: leases, heartbeats, work stealing.

Two layers of test:

* **Store-level** — two :class:`SQLiteJobStore` instances sharing one
  database play the two replicas, so expiry/steal/commit races are
  driven deterministically (no sleeps racing real worker threads beyond
  the sub-second lease TTLs under test).
* **Service-level** — real :class:`JobServer` replicas sharing a state
  dir: a job claimed by a "killed" replica (its lease left dangling in
  the database) is stolen by the survivor's lease keeper and completes
  with results bit-identical to an in-process run, exactly once.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time

import pytest

from repro.api import estimate
from repro.obs.metrics import get_registry
from repro.service import Client
from repro.service.jobs import JobState
from repro.service.store import SQLiteJobStore
from repro.service.worker import WorkerPool

from .test_jobs import fake_result, make_spec
from .test_server import unit_spec


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


def committed_results(state_dir, job_id):
    """The job's durable results payload, straight off the database."""
    with sqlite3.connect(state_dir / "jobs.db") as conn:
        row = conn.execute(
            "SELECT payload FROM results WHERE job_id = ?", (job_id,)
        ).fetchone()
    return json.loads(row[0]) if row is not None else None


class TestLeaseLifecycle:
    def test_claim_stamps_lease(self, tmp_path):
        store = SQLiteJobStore(tmp_path, replica_id="r1", lease_ttl=30.0)
        store.submit(make_spec())
        before = time.time()
        job = store.claim_next(timeout=0.01, owner="w0")
        assert job.lease_replica == "r1"
        assert job.lease_expires_at == pytest.approx(before + 30.0, abs=2.0)
        assert store.heartbeat_interval == pytest.approx(10.0)

    def test_renew_extends_expiry_and_prevents_reap(self, tmp_path):
        store = SQLiteJobStore(tmp_path, replica_id="r1", lease_ttl=0.4)
        store.submit(make_spec())
        job = store.claim_next(timeout=0.01, owner="w0")
        first = job.lease_expires_at
        time.sleep(0.25)
        assert store.renew_lease(job) is True
        assert job.lease_expires_at > first
        time.sleep(0.25)  # past the original expiry, not the renewed one
        assert store.reap_expired() == []
        assert job.state == JobState.RUNNING
        assert not job.lease_lost

    def test_two_replicas_never_double_claim(self, tmp_path):
        a = SQLiteJobStore(tmp_path, replica_id="a", lease_ttl=30.0)
        b = SQLiteJobStore(tmp_path, replica_id="b", lease_ttl=30.0)
        a.submit(make_spec())
        assert a.claim_next(timeout=0.01, owner="wa") is not None
        assert b.claim_next(timeout=0.01, owner="wb") is None

    def test_expired_lease_stolen_and_loser_commit_rejected(
        self, tmp_path, metrics
    ):
        dead = SQLiteJobStore(tmp_path, replica_id="dead", lease_ttl=0.15)
        live = SQLiteJobStore(tmp_path, replica_id="live", lease_ttl=30.0)
        submitted = dead.submit(make_spec())
        stale = dead.claim_next(timeout=0.01, owner="wd")
        time.sleep(0.2)  # the dead replica misses every heartbeat

        reclaimed = live.reap_expired()
        assert reclaimed == [submitted.id]
        assert metrics.counter("service_lease_reclaims").value == 1
        stolen = live.claim_next(timeout=0.01, owner="wl")
        assert stolen is not None and stolen.id == submitted.id
        live.mark_completed(stolen, [fake_result(2.0)])

        # The original claimant comes back from the dead: its heartbeat
        # fails, and its own commit attempt must not clobber the winner.
        assert dead.renew_lease(stale) is False
        assert stale.lease_lost
        dead.mark_completed(stale, [fake_result(99.0)])
        payload = committed_results(tmp_path, submitted.id)
        assert len(payload) == 1  # exactly one committed execution
        assert payload[0]["estimate"] == 2.0  # ...and it is the winner's

        fresh = SQLiteJobStore(tmp_path, replica_id="reader", lease_ttl=None)
        final = fresh.get(submitted.id)
        assert final.state == JobState.COMPLETED
        assert final.results[0].estimate == 2.0

    def test_lease_lost_failure_commit_is_noop(self, tmp_path, metrics):
        dead = SQLiteJobStore(tmp_path, replica_id="dead", lease_ttl=0.15)
        live = SQLiteJobStore(tmp_path, replica_id="live", lease_ttl=30.0)
        submitted = dead.submit(make_spec())
        stale = dead.claim_next(timeout=0.01, owner="wd")
        time.sleep(0.2)
        assert live.reap_expired() == [submitted.id]
        dead.mark_failed(stale, "boom from beyond the grave")
        assert stale.lease_lost
        assert live.get(submitted.id).state == JobState.QUEUED
        assert live.get(submitted.id).error is None

    def test_startup_recovery_preserves_live_foreign_lease(self, tmp_path):
        a = SQLiteJobStore(tmp_path, replica_id="r1", lease_ttl=30.0)
        job = a.submit(make_spec())
        a.claim_next(timeout=0.01, owner="wa")

        # A *different* replica booting must not requeue r1's live lease
        # (the bug this PR fixes: recovery used to clobber every running
        # job, re-running work a healthy replica still owned).
        b = SQLiteJobStore(tmp_path, replica_id="r2", lease_ttl=30.0)
        assert b.requeued_ids == []
        assert b.get(job.id).state == JobState.RUNNING

        # The *same* replica restarting reclaims its own leases at once.
        a2 = SQLiteJobStore(tmp_path, replica_id="r1", lease_ttl=30.0)
        assert a2.requeued_ids == [job.id]
        assert a2.get(job.id).state == JobState.QUEUED

    def test_startup_recovery_requeues_expired_foreign_lease(self, tmp_path):
        a = SQLiteJobStore(tmp_path, replica_id="r1", lease_ttl=0.1)
        job = a.submit(make_spec())
        a.claim_next(timeout=0.01, owner="wa")
        time.sleep(0.15)
        b = SQLiteJobStore(tmp_path, replica_id="r2", lease_ttl=30.0)
        assert b.requeued_ids == [job.id]
        assert b.get(job.id).state == JobState.QUEUED

    def test_lease_info_age_clamped_on_clock_step(self, tmp_path):
        store = SQLiteJobStore(tmp_path, replica_id="r1", lease_ttl=30.0)
        store.submit(make_spec())
        store.claim_next(timeout=0.01, owner="w0")
        # Simulate a forward wall-clock step on the claiming host: the
        # job's started_at lands in this host's future.
        with store._tx():
            store._conn.execute(
                "UPDATE jobs SET started_at = ?", (time.time() + 3600,)
            )
        info = store.lease_info()
        assert info["active_leases"] == 1
        assert info["oldest_lease_age_seconds"] == 0.0

    def test_same_process_steal_back_cannot_double_commit(
        self, tmp_path, metrics
    ):
        # The intra-replica race: one store, one shared Job object.  The
        # job's lease expires mid-run, the reaper reclaims it, and the
        # SAME store re-claims it while the old attempt is still
        # unwinding.  The old attempt must stay poisoned (the re-claim
        # used to reset job.lease_lost) and its commit must lose the
        # token CAS (it used to compare against the live lease fields
        # the re-claim had just overwritten).
        store = SQLiteJobStore(tmp_path, replica_id="r1", lease_ttl=0.15)
        submitted = store.submit(make_spec())
        job = store.claim_next(timeout=0.01, owner="w0")
        lease_a = job.lease
        time.sleep(0.2)
        assert store.reap_expired() == [submitted.id]
        assert lease_a.lost  # the reap poisons the expired attempt

        rejob = store.claim_next(timeout=0.01, owner="w1")
        assert rejob is job  # same shared object, by construction
        lease_b = job.lease
        assert lease_b is not lease_a
        assert lease_a.lost  # re-claiming must not un-poison attempt A
        assert not job.lease_lost  # ...while the live attempt is clean

        # Old attempt finishes its orphaned run and tries to commit:
        # the token CAS rejects it even though job.lease_owner and
        # job.lease_replica now describe attempt B on this replica.
        store.mark_completed(job, [fake_result(99.0)], lease=lease_a)
        assert committed_results(tmp_path, submitted.id) is None
        assert store.renew_lease(job, lease_a) is False
        assert store.renew_lease(job, lease_b) is True

        store.mark_completed(job, [fake_result(2.0)], lease=lease_b)
        payload = committed_results(tmp_path, submitted.id)
        assert len(payload) == 1  # exactly one committed execution
        assert payload[0]["estimate"] == 2.0  # ...the live attempt's

    def test_steal_back_resets_progress_counters(self, tmp_path, metrics):
        # A re-claim swaps in a fresh trajectory AND a zeroed run count:
        # status/SSE must report the re-run's progress from scratch, not
        # inherit the orphaned attempt's.
        store = SQLiteJobStore(tmp_path, replica_id="r1", lease_ttl=0.15)
        store.submit(make_spec(num_runs=3))
        job = store.claim_next(timeout=0.01, owner="w0")
        job.completed_runs = 2  # the doomed attempt made progress
        old_trajectory = job.trajectory
        old_trajectory.append({"k": 1})
        time.sleep(0.2)
        store.reap_expired()
        rejob = store.claim_next(timeout=0.01, owner="w1")
        assert rejob is job
        assert job.completed_runs == 0
        assert job.trajectory == [] and job.trajectory is not old_trajectory

    def test_stale_attempt_unwind_keeps_live_attempt_registered(
        self, tmp_path, metrics, monkeypatch
    ):
        # WorkerPool._active bookkeeping: a reaped job re-claimed by
        # another thread of the same pool gets its own registry entry,
        # and the old attempt's cleanup pops only its own — keyed by
        # job id alone, the old unwind used to evict the live entry and
        # starve the re-run of heartbeats.
        store = SQLiteJobStore(tmp_path, replica_id="r1", lease_ttl=0.2)
        pool = WorkerPool(store, num_workers=2)  # not started: driven by hand
        store.submit(make_spec())

        gates = [threading.Event(), threading.Event()]
        started = [threading.Event(), threading.Event()]
        attempt = {"n": 0}

        def fake_run(self, job, lease):
            index = attempt["n"]
            attempt["n"] += 1
            started[index].set()
            assert gates[index].wait(10)
            return [fake_result(float(index))]

        monkeypatch.setattr(WorkerPool, "_run", fake_run)

        def drive(owner):
            job = store.claim_next(timeout=0.5, owner=owner)
            assert job is not None
            pool._execute(job)

        first = threading.Thread(target=drive, args=("w0",), daemon=True)
        first.start()
        assert started[0].wait(10)
        lease_a = next(iter(pool._active.values()))[1]
        time.sleep(0.3)  # the first attempt misses its lease
        store.reap_expired()

        second = threading.Thread(target=drive, args=("w1",), daemon=True)
        second.start()
        assert started[1].wait(10)
        assert len(pool._active) == 2  # both attempts registered

        gates[0].set()  # old attempt unwinds while the re-run is live
        first.join(10)
        leases = [lease for _job, lease in pool._active.values()]
        assert len(leases) == 1 and leases[0] is not lease_a
        assert not leases[0].lost  # the live lease keeps its heartbeats

        gates[1].set()
        second.join(10)
        assert pool._active == {}
        job_id = store.list()[0].id
        payload = committed_results(tmp_path, job_id)
        assert len(payload) == 1
        assert payload[0]["estimate"] == 1.0  # the re-run's commit won
        finished = metrics.counter(
            "service_jobs_finished_total", state="lease_lost"
        )
        assert finished.value == 1

    def test_cross_replica_cancel_via_heartbeat(self, tmp_path):
        a = SQLiteJobStore(tmp_path, replica_id="a", lease_ttl=30.0)
        b = SQLiteJobStore(tmp_path, replica_id="b", lease_ttl=30.0)
        submitted = a.submit(make_spec())
        job = a.claim_next(timeout=0.01, owner="wa")
        b.request_cancel(submitted.id)  # other replica takes the DELETE
        assert not job.cancel_event.is_set()
        assert a.renew_lease(job) is True  # heartbeat folds the flag in
        assert job.cancel_event.is_set()


class TestTwoReplicaService:
    def test_submit_on_one_replica_completes_on_other(
        self, fabric, quick_spec
    ):
        frontend = fabric("shared", workers=1, lease_ttl=30.0)
        frontend.pool.stop()  # frontend-only: accepts jobs, runs nothing
        backend = fabric("shared", workers=1, lease_ttl=30.0)
        assert frontend.replica_id != backend.replica_id

        job = Client(frontend.url, timeout=10.0).submit(quick_spec)
        status = Client(backend.url, timeout=10.0).wait(job["id"], timeout=30)
        assert status["state"] == "completed"

    def test_killed_replica_job_stolen_bit_identical(
        self, fabric, tmp_path, quick_spec
    ):
        # A replica claims the job then dies (kill -9): nothing unwinds,
        # its lease just stops being renewed.  The raw store stands in
        # for the corpse — same database rows a real crash leaves.
        dead = SQLiteJobStore(
            tmp_path / "shared", replica_id="dead", lease_ttl=0.3
        )
        submitted = dead.submit(quick_spec)
        assert dead.claim_next(timeout=0.01, owner="wd") is not None
        dead.close()

        survivor = fabric("shared", workers=1, lease_ttl=0.3)
        client = Client(survivor.url, timeout=10.0)
        status = client.wait(submitted.id, timeout=30)
        assert status["state"] == "completed"

        # Exactly one execution committed results, and the reclaim is
        # visible in the survivor's metrics.
        assert len(committed_results(tmp_path / "shared", submitted.id)) == 1
        assert "service_lease_reclaims 1" in client.metrics()

        # Bit-identical to an in-process run of the same spec: stealing
        # re-runs from scratch under the same seed contract.
        expected = estimate(
            quick_spec.circuit,
            quick_spec.config,
            seed=quick_spec.seed,
            population_size=quick_spec.population_size,
        )
        got = client.result(submitted.id)
        assert got.estimate == expected.estimate
        assert got.to_dict() == expected.to_dict()


    def test_stolen_unit_job_bit_identical(self, fabric, tmp_path, bench_path):
        """A stolen unit-delay job re-runs on the survivor's simulation
        kernel and still lands on identical bits."""
        spec = unit_spec(bench_path)
        dead = SQLiteJobStore(
            tmp_path / "shared", replica_id="dead", lease_ttl=0.3
        )
        submitted = dead.submit(spec)
        assert dead.claim_next(timeout=0.01, owner="wd") is not None
        dead.close()

        survivor = fabric("shared", workers=2, lease_ttl=0.3)
        client = Client(survivor.url, timeout=10.0)
        status = client.wait(submitted.id, timeout=60)
        assert status["state"] == "completed"
        assert len(committed_results(tmp_path / "shared", submitted.id)) == 1

        expected = estimate(
            spec.circuit,
            spec.config,
            seed=spec.seed,
            population_size=spec.population_size,
            sim_mode="unit",
        )
        got = client.result(submitted.id)
        assert got.estimate == expected.estimate
        assert got.to_dict() == expected.to_dict()


class TestAdaptiveOnFabric:
    """``method="auto"`` under the replica-safety contract: the adaptive
    controller's pilot/CV draws live on the same seeded stream as the
    production run, so a steal-and-re-run lands on identical bits."""

    def test_stolen_auto_job_bit_identical(self, fabric, tmp_path, bench_path):
        from repro.api import EstimatorConfig
        from repro.service.jobs import JobSpec

        spec = JobSpec(
            circuit=str(bench_path),
            config=EstimatorConfig(method="auto", max_hyper_samples=10),
            seed=3,
            population_size=400,
        )
        dead = SQLiteJobStore(
            tmp_path / "shared", replica_id="dead", lease_ttl=0.3
        )
        submitted = dead.submit(spec)
        assert dead.claim_next(timeout=0.01, owner="wd") is not None
        dead.close()

        survivor = fabric("shared", workers=1, lease_ttl=0.3)
        client = Client(survivor.url, timeout=10.0)
        status = client.wait(submitted.id, timeout=60)
        assert status["state"] == "completed"
        assert len(committed_results(tmp_path / "shared", submitted.id)) == 1

        expected = estimate(
            spec.circuit,
            spec.config,
            seed=spec.seed,
            population_size=spec.population_size,
        )
        got = client.result(submitted.id)
        assert got.method == "auto"
        assert got.decision is not None
        assert got.to_dict() == expected.to_dict()
