"""Job model and legacy event-log replay for the estimation service.

A job is one estimation request: a circuit/population description plus
an :class:`~repro.api.EstimatorConfig`, repeated ``num_runs`` times.
:class:`JobSpec` is the request, :class:`Job` its mutable lifecycle
state, :class:`JobLease` one claim attempt.  The store that persists
them is :class:`~repro.service.store.SQLiteJobStore`.

Older servers kept jobs in an append-only ``<state_dir>/jobs.jsonl``
event log.  :func:`replay_log` settles such a log into :class:`Job`
objects, and the SQLite store migrates it through that function on
first startup.  Log layout (one JSON object per line)::

    {"schema": "repro.service_jobs/v1", "schema_version": "1.0"}  # header
    {"event": "submitted", "id": "job-000001-3f2a", "t": ..., "spec": {...}}
    {"event": "state", "id": "...", "state": "running", "t": ...}
    {"event": "result", "id": "...", "results": [{...}, ...]}
    {"event": "cancel_requested", "id": "...", "t": ...}

Replay is tolerant exactly like the checkpoint loader: a process killed
mid-append truncates at most the final line, which is skipped.  A
replayed ``result`` event is terminal — a job whose results made it to
disk is ``completed`` even if the process died before the trailing
``state`` event — and the id counter is derived from every id seen in
the log (including jobs whose spec no longer loads), so fresh ids never
collide with logged ones.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..api import EstimatorConfig
from ..errors import ConfigError
from ..schemas import (
    SCHEMA_VERSION,
    SERVICE_LOG_SCHEMA,
    check_schema_version,
    dump_estimation_result,
    dump_job_spec,
    load_estimation_result,
    load_job_spec,
)

__all__ = ["JobState", "JobSpec", "Job", "JobLease", "replay_log"]


class JobState:
    """Lifecycle states of a job (plain strings on the wire)."""

    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    FAILED = "failed"
    CANCELLED = "cancelled"

    #: States a job never leaves.
    TERMINAL = frozenset({COMPLETED, FAILED, CANCELLED})

    #: Every state, in lifecycle order (metrics export all of them).
    ALL = (QUEUED, RUNNING, COMPLETED, FAILED, CANCELLED)


class JobLease:
    """One claim attempt's identity: the token minted by the store at
    claim time, plus a process-local ``lost`` flag.

    Every claim — including a steal-back re-claim of a job whose
    previous attempt is still unwinding in another thread of the same
    process — allocates a fresh instance.  Workers capture the instance
    when they pick the job up and hand it back to ``renew_lease`` and
    the ``mark_*`` commits, so a stale attempt compares (and poisons)
    only its *own* token: it can neither pass the new attempt's lease
    CAS nor un-poison itself when the job is re-claimed.
    """

    __slots__ = ("token", "owner", "lost")

    def __init__(self, token: str, owner: Optional[str]):
        self.token = token
        self.owner = owner
        self.lost = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"JobLease(token={self.token!r}, owner={self.owner!r}, lost={self.lost})"


@dataclass(frozen=True)
class JobSpec:
    """What to estimate: the full, self-contained job description.

    Mirrors the arguments of :func:`repro.api.estimate` /
    :func:`repro.api.run_many` one-to-one.  Seed contract: the
    population is built with ``seed`` and the estimator streams derive
    from ``seed + 1`` — identical to ``repro estimate CIRCUIT --seed s``
    and to ``estimate(circuit, config, seed=s)``, which is what makes
    service results bit-identical to in-process ones.
    """

    circuit: str
    config: EstimatorConfig = field(default_factory=EstimatorConfig)
    seed: int = 0
    num_runs: int = 1
    population_size: int = 20_000
    activity: Optional[float] = None
    sim_mode: str = "zero"
    frequency_mhz: float = 50.0

    def __post_init__(self) -> None:
        if not str(self.circuit).strip():
            raise ConfigError("job spec needs a non-empty circuit")
        if self.num_runs < 1:
            raise ConfigError("num_runs must be >= 1")
        if self.population_size < 0:
            raise ConfigError("population_size must be >= 0 (0 = streaming)")
        if self.sim_mode not in ("zero", "unit"):
            raise ConfigError("sim_mode must be 'zero' or 'unit'")
        if self.frequency_mhz <= 0:
            raise ConfigError("frequency_mhz must be positive")
        if self.activity is not None and not 0.0 < self.activity < 1.0:
            raise ConfigError("activity must be in (0, 1)")

    def to_dict(self) -> dict:
        return dump_job_spec(self)

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        return load_job_spec(data)


class Job:
    """One submitted job: spec plus mutable lifecycle state.

    Mutated only under the owning store's lock (workers go through the
    store's ``mark_*`` methods); ``cancel_event`` is the
    cooperative cancellation signal the worker's progress hooks check.
    """

    def __init__(self, job_id: str, spec: JobSpec, created_at: float):
        self.id = job_id
        self.spec = spec
        self.state = JobState.QUEUED
        self.created_at = created_at
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        self.error: Optional[str] = None
        self.results: Optional[List[object]] = None  # EstimationResult list
        self.cancel_event = threading.Event()
        #: Per-hyper-sample convergence trajectory of the current run
        #: (single-run jobs): k, α̂/β̂/μ̂, rel CI half-width, cumulative
        #: units — the live view of the paper's Figure 4 loop.
        self.trajectory: List[dict] = []
        #: Completed-run count (multi-run jobs).
        self.completed_runs = 0
        #: True when the job was settled from a memoized result of an
        #: earlier identical spec instead of running (SQLite store).
        self.memo_hit = False
        #: Worker thread that claimed the job.
        self.lease_owner: Optional[str] = None
        #: Replica (store instance) holding the lease, and when the
        #: lease lapses unless the worker heartbeat renews it first.
        self.lease_replica: Optional[str] = None
        self.lease_expires_at: Optional[float] = None
        #: The current claim attempt (fresh :class:`JobLease` per claim,
        #: ``None`` while unclaimed).  Process-local; workers capture it
        #: at claim time so a steal-back re-claim never aliases the
        #: still-unwinding previous attempt's state.
        self.lease: Optional[JobLease] = None
        #: Tenant (API-key header) the job was submitted under, for
        #: per-tenant admission quotas; ``None`` = anonymous.
        self.tenant: Optional[str] = None
        #: Span context captured from the submitting request (None when
        #: tracing was off at submission): which trace the job belongs
        #: to and which span — usually the server's ``http.request`` —
        #: its own spans parent on.
        self.trace_id: Optional[str] = None
        self.parent_span_id: Optional[str] = None

    @property
    def terminal(self) -> bool:
        return self.state in JobState.TERMINAL

    @property
    def lease_lost(self) -> bool:
        """Whether the *current* claim attempt lost its lease (expired
        and reclaimed, probably by another replica).  A fresh claim has
        a fresh lease, so a re-claimed job reads ``False`` here while
        the orphaned previous attempt keeps its own poisoned
        :class:`JobLease`."""
        return self.lease is not None and self.lease.lost

    @property
    def trace_context(self):
        """The job's :class:`~repro.obs.spans.SpanContext` (or ``None``)."""
        if self.trace_id is None:
            return None
        from ..obs.spans import SpanContext  # lazy: keep jobs import-light

        return SpanContext(trace_id=self.trace_id, span_id=self.parent_span_id)

    def status_dict(self) -> dict:
        """JSON-able status payload served by ``GET /v1/jobs/{id}``.

        Deliberately omits ``tenant``: it is the submitter's raw
        ``X-API-Key`` credential, and the status/list/SSE endpoints are
        unauthenticated — echoing it would let any client harvest every
        tenant's key.
        """
        return {
            "schema_version": SCHEMA_VERSION,
            "id": self.id,
            "state": self.state,
            "spec": self.spec.to_dict(),
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "cancel_requested": self.cancel_event.is_set(),
            "completed_runs": self.completed_runs,
            "total_runs": self.spec.num_runs,
            "memo_hit": self.memo_hit,
            "trace_id": self.trace_id,
            "trajectory": list(self.trajectory),
        }

    def result_dict(self) -> dict:
        """JSON-able result payload served by ``GET /v1/jobs/{id}/result``."""
        if self.results is None:
            raise ConfigError(f"job {self.id} has no results (state={self.state})")
        return {
            "schema_version": SCHEMA_VERSION,
            "id": self.id,
            "num_runs": self.spec.num_runs,
            "results": [dump_estimation_result(r) for r in self.results],
        }


def _numbered(job_id: str) -> bool:
    parts = job_id.split("-")
    return len(parts) >= 2 and parts[1].isdigit()


def replay_log(log_path: Union[str, Path]) -> Tuple[Dict[str, Job], int]:
    """Parse a ``jobs.jsonl`` event log into settled :class:`Job` objects.

    Returns ``(jobs, counter)`` where ``counter`` is the highest numeric
    id component seen in *any* event — including jobs dropped because
    their spec no longer loads — so ids minted after a replay can never
    collide with ids already in the log.

    Settling rules (applied when the SQLite store migrates a legacy
    log):

    * A ``result`` event is terminal: its job is ``completed`` with
      ``completed_runs == len(results)`` even if the process died before
      appending the trailing ``state`` event.
    * A non-terminal job with a pending ``cancel_requested`` is finished
      off as ``cancelled`` rather than re-run.
    * Every other non-terminal job is left in its logged state for the
      caller to requeue.
    """
    log_path = Path(log_path)
    jobs: Dict[str, Job] = {}
    counter = 0
    if not log_path.exists():
        return jobs, counter
    with open(log_path, encoding="utf-8") as handle:
        for line_no, line in enumerate(handle):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail from a mid-append kill
            if not isinstance(event, dict):
                continue
            if line_no == 0 and event.get("schema") == SERVICE_LOG_SCHEMA:
                check_schema_version(event, f"service log {log_path}")
                continue
            kind = event.get("event")
            job_id = event.get("id")
            if isinstance(job_id, str) and _numbered(job_id):
                counter = max(counter, int(job_id.split("-")[1]))
            if kind == "submitted" and job_id:
                try:
                    spec = load_job_spec(event["spec"])
                except Exception:
                    continue  # unreadable spec: drop the job, keep the log
                jobs[job_id] = Job(job_id, spec, float(event.get("t", 0.0)))
                jobs[job_id].tenant = event.get("tenant")
            elif kind == "state" and job_id in jobs:
                job = jobs[job_id]
                job.state = event.get("state", job.state)
                if job.state == JobState.RUNNING:
                    job.started_at = float(event.get("t", 0.0))
                else:
                    job.finished_at = float(event.get("t", 0.0))
                if job.state == JobState.FAILED:
                    job.error = event.get("error")
            elif kind == "result" and job_id in jobs:
                job = jobs[job_id]
                job.results = [
                    load_estimation_result(r) for r in event.get("results", [])
                ]
                # The results made it to disk: the work is done, whether
                # or not the 'completed' state event was ever appended.
                job.state = JobState.COMPLETED
                job.completed_runs = len(job.results)
            elif kind == "cancel_requested" and job_id in jobs:
                jobs[job_id].cancel_event.set()
    for job in jobs.values():
        if job.state == JobState.COMPLETED and job.results is not None:
            job.completed_runs = len(job.results)
        if job.terminal:
            job.finished_at = job.finished_at or job.created_at
            continue
        if job.results is not None:
            # Legacy logs written before result events were terminal can
            # end with results but a stale non-terminal state.
            job.state = JobState.COMPLETED
            job.completed_runs = len(job.results)
            job.finished_at = job.finished_at or job.created_at
        elif job.cancel_event.is_set():
            job.state = JobState.CANCELLED
            job.finished_at = job.finished_at or job.created_at
    return jobs, counter
