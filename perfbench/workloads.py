"""The three workloads: cold-estimate, pool-runs, service-jobs.

Every workload is a closed loop: a caller sends its next operation only
after the previous one returned.  Inputs come from the workload seed
only.  Operations whose output has a recorded reference draw their
per-operation seeds from a fixed catalogue (seeds ``0..N-1`` of each
case, all recorded in ``reference.json``); the workload seed picks the
order in which the catalogue is visited, so every seed gives a
different input sequence and every operation stays checkable.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from stats import OpRecord

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
#: Relative tolerance on a recorded estimate (units must match exactly).
REL_TOL = 1e-9
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPS = 3

# (case key, circuit, sim mode, population size); 0 = streaming.
COLD_CASES = (
    ("c3540/zero/20000", "c3540", "zero", 20_000),
    ("c7552/unit/20000", "c7552", "unit", 20_000),
    ("c432/unit/stream", "c432", "unit", 0),
)
# One cycle of cold-estimate operations, as indices into COLD_CASES.
# c3540 fills more than half of every cycle so the median operation is
# always a c3540 estimate: the streaming case is seed-bimodal (k = 3 in
# 0.1 s, or unconverged to k = 200 in ~4.5 s), and a median that fell
# on it would swing by a third between seeds.  c7552 is the tail.
COLD_CYCLE = (0, 0, 0, 1, 2)
POOL_CIRCUITS = ("c432", "c3540")
POOL_SIZE = 20_000
POOL_SEED = 1
POOL_METHODS = ("fixed", "auto")
# Service job specs: (circuit, sim mode, pool size).
SERVICE_SMALL = ("c432", "zero", 2_000)
SERVICE_FUSED = ("c880", "unit", 4_000)
SERVICE_CLIENTS = 2
# One client's cycle of operations.  Every fourth operation resubmits a
# spec the client ran before ("memo").  The two clients meet at a
# barrier before each c880 job ("fused"), so those reach the server
# together, and again after it, so c432 jobs never share the server
# with a c880 job.  The mix places the median inside the c432 jobs and the
# tail inside the c880 jobs, away from the edges between groups:
# c432 latencies step with the client's 0.2 s status poll, and a
# median on such a step would jump between seeds.
SERVICE_CYCLE = ("fused", "small", "small", "memo", "small", "small",
                 "fused", "memo", "small", "small", "small", "memo")
SERVICE_CHECKS_PER_SPEC = 2


#: Cycles recorded in the service catalogue (``reference.json``); a run
#: at ``--seconds 25`` completes 4 to 8 of them.
SERVICE_CATALOGUE_CYCLES = 24


def service_key(spec: Tuple[str, str, int]) -> str:
    circuit, mode, size = spec
    return f"{circuit}/{mode}/{size}"


def balanced_cycles(costs: Sequence[int], per_cycle: int) -> List[List[int]]:
    """Deal seeds ``0..len(costs)-1`` into cycles of ``per_cycle`` seeds
    whose total costs are nearly equal: the costliest seed first, each
    to the open cycle with the least cost so far.  Each cycle lists its
    seeds from costliest to cheapest."""
    cycles = len(costs) // per_cycle
    bins: List[List[int]] = [[] for _ in range(cycles)]
    totals = [0] * cycles
    for seed in sorted(range(cycles * per_cycle), key=lambda k: (-costs[k], k)):
        b = min((b for b in range(cycles) if len(bins[b]) < per_cycle),
                key=lambda b: (totals[b], b))
        bins[b].append(seed)
        totals[b] += costs[seed]
    return bins


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def check_against(record: OpRecord, ref: Optional[list]) -> None:
    """Exact units and an estimate within ``REL_TOL`` of the reference."""
    if ref is None:
        record.check_failures.append("no recorded reference")
        return
    units, estimate = ref[0], ref[1]
    if record.units_used != units:
        record.check_failures.append(
            f"units_used {record.units_used} != reference {units}"
        )
    if not abs(record.estimate - estimate) <= REL_TOL * abs(estimate):
        record.check_failures.append(
            f"estimate {record.estimate!r} != reference {estimate!r}"
        )


def catalogue_order(seed: int, salt: int, size: int) -> List[int]:
    """The workload seed's visiting order of one case's catalogue."""
    return [int(i) for i in np.random.default_rng([seed, salt]).permutation(size)]


def peak_rss_reset(pid: str = "self") -> bool:
    """Reset the kernel's peak-RSS mark so earlier phases do not count."""
    try:
        with open(f"/proc/{pid}/clear_refs", "w") as fh:
            fh.write("5")
        return True
    except OSError:
        return False


def peak_rss_mb(pid: str = "self") -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not reported by /proc")


def closed_loop(next_op: Callable[[int], Tuple[str, Callable[[], object]]],
                finish: Callable[[str, object, float, Optional[str]], OpRecord],
                seconds: float, tracer, cycle: int) -> Tuple[List[OpRecord], List[float]]:
    """Run operations back to back until ``seconds`` have elapsed; return
    the records and the wall time of each cycle.

    The deadline is checked only between whole cycles of ``cycle``
    operations, so every run holds each case equally often: a run that
    stopped mid-cycle would change the case mix, and with it every
    metric, depending on machine speed alone.
    """
    records: List[OpRecord] = []
    start = time.perf_counter()
    cycle_starts = [start]
    i = 0
    while True:
        if i and i % cycle == 0:
            cycle_starts.append(time.perf_counter())
            if cycle_starts[-1] - start >= seconds:
                break
        label, fn = next_op(i)
        i += 1
        out, error = None, None
        t0 = time.perf_counter()
        try:
            if tracer is not None:
                with tracer.span("op", label.split("#")[0]):
                    out = fn()
            else:
                out = fn()
        except Exception as exc:  # noqa: BLE001 - a failed op is data
            error = f"{type(exc).__name__}: {exc}"
        records.append(finish(label, out, time.perf_counter() - t0, error))
    return records, [b - a for a, b in zip(cycle_starts, cycle_starts[1:])]


# ----------------------------------------------------------------------
class ColdEstimate:
    """``repro.api.estimate`` from a suite name, one case after another."""

    name = "cold-estimate"

    def __init__(self, seed: int):
        self.seed = seed
        self.reference = load_reference()[self.name]
        self.orders = {
            key: catalogue_order(seed, salt, len(self.reference[key]))
            for salt, (key, *_rest) in enumerate(COLD_CASES)
        }

    def setup(self, reps: int) -> List[float]:
        """Set-up is the import of the library and the kernel probe, in
        a fresh interpreter each time (the caller's own import warmed
        the file cache and built the native extension)."""
        code = (
            "import time; t = time.perf_counter(); import repro.api; "
            "from repro.sim.compiled import resolve_kernel; "
            "resolve_kernel(None, probe=True); "
            "print(time.perf_counter() - t)"
        )
        times = []
        for _ in range(reps):
            out = subprocess.run(
                [sys.executable, "-c", code], check=True, capture_output=True,
                text=True, timeout=120,
            )
            times.append(float(out.stdout.strip().splitlines()[-1]))
        return times

    def run(self, seconds: float, tracer) -> Tuple[List[OpRecord], List[float]]:
        from repro.api import EstimatorConfig, estimate

        def next_op(i: int):
            case = COLD_CYCLE[i % len(COLD_CYCLE)]
            key, circuit, mode, size = COLD_CASES[case]
            # How often this case ran before op i picks its catalogue slot.
            seen = (i // len(COLD_CYCLE)) * COLD_CYCLE.count(case) + (
                COLD_CYCLE[: i % len(COLD_CYCLE)].count(case)
            )
            order = self.orders[key]
            run_seed = order[seen % len(order)]
            return f"{key}#{run_seed}", lambda: estimate(
                circuit, EstimatorConfig(), seed=run_seed,
                population_size=size, sim_mode=mode,
            )

        def finish(label, result, latency, error):
            record = OpRecord(label, latency, error)
            if result is not None:
                key, run_seed = label.split("#")
                ref = self.reference[key].get(run_seed)
                record.estimate = result.estimate
                record.units_used = result.units_used
                record.converged = result.converged
                record.error_bound = result.error_bound
                record.true_max = ref[2] if ref is not None else None
                check_against(record, ref)
            return record

        return closed_loop(next_op, finish, seconds, tracer, len(COLD_CYCLE))

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
class PoolRuns:
    """``repro.api.run_many(pool, 1, ...)`` on pre-built pools,
    alternating the paper's fixed method and the adaptive one."""

    name = "pool-runs"

    def __init__(self, seed: int):
        self.seed = seed
        self.reference = load_reference()[self.name]
        self.cases = [
            (f"{c}/{m}", c, m) for c in POOL_CIRCUITS for m in POOL_METHODS
        ]
        self.orders = {
            key: catalogue_order(seed, salt, len(self.reference["runs"][key]))
            for salt, (key, _c, _m) in enumerate(self.cases)
        }
        self.pools: Dict[str, object] = {}

    def setup(self, reps: int) -> List[float]:
        from repro.api import build_population

        times = []
        for _ in range(reps):
            start = time.perf_counter()
            self.pools = {
                c: build_population(c, population_size=POOL_SIZE, seed=POOL_SEED)
                for c in POOL_CIRCUITS
            }
            times.append(time.perf_counter() - start)
        return times

    def run(self, seconds: float, tracer) -> Tuple[List[OpRecord], List[float]]:
        from repro.api import EstimatorConfig, run_many

        configs = {m: EstimatorConfig(method=m) for m in POOL_METHODS}
        bad_pools = {
            c for c in POOL_CIRCUITS
            if self.pools[c].actual_max_power != self.reference["pools"][c]
        }

        def next_op(i: int):
            key, circuit, method = self.cases[i % len(self.cases)]
            order = self.orders[key]
            run_seed = order[(i // len(self.cases)) % len(order)]
            pool = self.pools[circuit]
            return f"{key}#{run_seed}", lambda: run_many(
                pool, 1, configs[method], base_seed=run_seed
            )[0]

        def finish(label, result, latency, error):
            record = OpRecord(label, latency, error)
            if result is not None:
                key, run_seed = label.split("#")
                circuit = key.split("/")[0]
                record.estimate = result.estimate
                record.units_used = result.units_used
                record.converged = result.converged
                record.error_bound = result.error_bound
                record.true_max = self.pools[circuit].actual_max_power
                if circuit in bad_pools:
                    record.check_failures.append("pool differs from reference")
                check_against(record, self.reference["runs"][key].get(run_seed))
            return record

        return closed_loop(next_op, finish, seconds, tracer, len(self.cases))

    def close(self) -> None:
        self.pools.clear()


# ----------------------------------------------------------------------
class ServiceJobs:
    """Two closed-loop clients against a ``repro serve`` process."""

    name = "service-jobs"

    def __init__(self, seed: int, build_dir: Path, trace: bool):
        self.seed = seed
        self.build_dir = build_dir
        self.trace = trace
        self.server: Optional[subprocess.Popen] = None
        self.url = ""
        self.server_spans_path = build_dir / f"server-spans-{os.getpid()}.json"
        self.jobs: List[dict] = []
        self.server_peak_reset = False
        self.reference = load_reference()[self.name]
        self.catalogue = {
            kind: balanced_cycles(
                [ref[0] for ref in self.reference[service_key(spec)].values()],
                SERVICE_CYCLE.count(kind) * SERVICE_CLIENTS,
            )
            for kind, spec in (("small", SERVICE_SMALL), ("fused", SERVICE_FUSED))
        }
        self.cycle_order = catalogue_order(seed, 99, SERVICE_CATALOGUE_CYCLES)

    def _cycle_seeds(self, cycle: int, cid: int) -> Dict[str, List[int]]:
        """Client ``cid``'s job seeds of each kind in the run's cycle
        ``cycle``, in submission order.

        Job cost varies up to tenfold with the seed (the hyper-samples
        needed to reach epsilon), so each catalogue cycle holds seeds of
        near-equal total cost, and the run visits the catalogue cycles
        in an order the workload seed picks.  The c880 jobs submitted
        together are fixed pairs, costliest with cheapest, because a
        job's latency depends on the job it shares the server with; the
        workload seed orders the pairs and picks which client submits
        which member.  Past the catalogue the cycles repeat with seeds
        shifted by its size, fresh to the server but unrecorded.
        """
        lap, slot = divmod(cycle, SERVICE_CATALOGUE_CYCLES)
        entry = self.cycle_order[slot]
        rng = np.random.default_rng([self.seed, 7, cycle])
        seeds = {}
        per = SERVICE_CYCLE.count("small")
        offset = lap * per * SERVICE_CLIENTS * SERVICE_CATALOGUE_CYCLES
        small = rng.permutation(self.catalogue["small"][entry])
        seeds["small"] = [offset + int(k) for k in small[cid * per:(cid + 1) * per]]
        fused = self.catalogue["fused"][entry]
        pairs = [(fused[i], fused[-1 - i]) for i in range(len(fused) // 2)]
        offset = lap * len(fused) * SERVICE_CATALOGUE_CYCLES
        seeds["fused"] = [
            offset + pairs[int(g)][(cid + int(r)) % 2]
            for g, r in zip(rng.permutation(len(pairs)),
                            rng.integers(2, size=len(pairs)))
        ]
        return seeds

    # -- server lifecycle ----------------------------------------------
    def _start_server(self) -> float:
        from repro.service import Client

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        state = self.build_dir / f"service-{os.getpid()}-{port}"
        self.state_dir = state
        cmd = [sys.executable, str(HERE / "serve.py"), "--port", str(port),
               "--state-dir", str(state)]
        if self.trace:
            cmd += ["--spans-out", str(self.server_spans_path)]
        start = time.perf_counter()
        self.server = subprocess.Popen(
            cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        self.url = f"http://127.0.0.1:{port}"
        client = Client(self.url, retries=0, timeout=5.0)
        deadline = start + 60.0
        while True:
            try:
                client.health()
                return time.perf_counter() - start
            except Exception:  # noqa: BLE001 - not up yet
                if self.server.poll() is not None or time.perf_counter() > deadline:
                    err = self.server.stderr.read().decode(errors="replace")
                    raise RuntimeError(f"server did not start: {err[-2000:]}")
                time.sleep(0.02)

    def _stop_server(self) -> None:
        if self.server is None:
            return
        self.server.send_signal(signal.SIGTERM)
        try:
            self.server.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait(timeout=30)
        if self.server.stderr is not None:
            self.server.stderr.close()
        self.server = None
        shutil.rmtree(self.state_dir, ignore_errors=True)

    def setup(self, reps: int) -> List[float]:
        times = []
        for rep in range(reps):
            times.append(self._start_server())
            if rep < reps - 1:
                self._stop_server()
        self.server_peak_reset = peak_rss_reset(str(self.server.pid))
        return times

    def server_peak_rss_mb(self) -> float:
        return peak_rss_mb(str(self.server.pid))

    # -- load ----------------------------------------------------------
    def run(self, seconds: float, tracer) -> Tuple[List[OpRecord], List[float]]:
        from repro.service import Client

        stop = threading.Event()
        start = time.perf_counter()
        # Barrier crossings: before and after each c880 group, so every
        # fourth one starts a cycle.
        crossings: List[float] = []

        def at_barrier() -> None:
            # Runs once per barrier crossing, so both clients see the
            # same decision; only cycle-start crossings consult it.
            crossings.append(time.perf_counter())
            if crossings[-1] - start >= seconds:
                stop.set()

        barrier = threading.Barrier(SERVICE_CLIENTS, action=at_barrier)
        records: List[List[Tuple[OpRecord, dict]]] = [
            [] for _ in range(SERVICE_CLIENTS)
        ]

        def client_loop(cid: int) -> None:
            client = Client(self.url)
            rng = np.random.default_rng([self.seed, 7, cid])
            fresh: List[dict] = []
            seeds: Dict[str, List[int]] = {}
            j = 0
            while True:
                if j % len(SERVICE_CYCLE) == 0:
                    seeds = self._cycle_seeds(j // len(SERVICE_CYCLE), cid)
                kind = SERVICE_CYCLE[j % len(SERVICE_CYCLE)]
                if kind == "fused":
                    try:
                        barrier.wait(timeout=120)
                    except threading.BrokenBarrierError:
                        break
                    # The deadline is checked between whole cycles.
                    if j % len(SERVICE_CYCLE) == 0 and stop.is_set():
                        break
                if kind == "memo":
                    pick = fresh[int(rng.integers(len(fresh)))]
                    spec = dict(pick, resubmit=True)
                else:
                    circuit, mode, size = (
                        SERVICE_FUSED if kind == "fused" else SERVICE_SMALL
                    )
                    spec = {"circuit": circuit, "sim_mode": mode,
                            "population_size": size,
                            "seed": seeds[kind].pop(0),
                            "resubmit": False}
                    fresh.append(spec)
                records[cid].append(self._one_job(client, spec, tracer))
                j += 1
                if kind == "fused":
                    # Meet again once every c880 job of the group is back,
                    # so no c432 job shares the server with a c880 job.
                    try:
                        barrier.wait(timeout=120)
                    except threading.BrokenBarrierError:
                        break

        threads = [
            threading.Thread(target=client_loop, args=(cid,), daemon=True)
            for cid in range(SERVICE_CLIENTS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=seconds + 170)
        if any(t.is_alive() for t in threads):
            barrier.abort()
            raise RuntimeError("service clients did not finish")
        starts = crossings[::2 * SERVICE_CYCLE.count("fused")]
        self.jobs = [job for per in records for _rec, job in per]
        return (
            [rec for per in records for rec, _job in per],
            [b - a for a, b in zip(starts, starts[1:])],
        )

    def _one_job(self, client, spec: dict, tracer) -> Tuple[OpRecord, dict]:
        from repro.schemas import dump_estimation_result

        label = f"{spec['circuit']}#{spec['seed']}{'/memo' if spec['resubmit'] else ''}"
        job = {"spec": spec, "rejected": False}
        t0 = time.perf_counter()
        error = None
        result = None
        try:
            case = "memo" if spec["resubmit"] else spec["circuit"]
            ctx = tracer.span("op", case) if tracer is not None else nullcontext()
            with ctx:
                status = client.submit(
                    spec["circuit"], seed=spec["seed"],
                    population_size=spec["population_size"],
                    sim_mode=spec["sim_mode"],
                )
                final = client.wait(status["id"])
                job["returned_at"] = time.time()
                if final["state"] != "completed":
                    raise RuntimeError(f"job {final['id']} {final['state']}")
                result = client.result(status["id"])
        except Exception as exc:  # noqa: BLE001 - a failed op is data
            error = f"{type(exc).__name__}: {exc}"
            job["rejected"] = getattr(exc, "status", None) == 429
        record = OpRecord(label, time.perf_counter() - t0, error)
        if result is not None:
            record.estimate = result.estimate
            record.units_used = result.units_used
            record.converged = result.converged
            job["status"] = final
            job["dump"] = dump_estimation_result(result)
        job["record"] = record
        return record, job

    def check(self) -> None:
        """Fresh jobs against the recorded reference, memo resubmits
        against the first submission, and a seeded sample of fresh jobs
        against in-process ``estimate`` (bit-identity)."""
        from repro.api import EstimatorConfig, estimate
        from repro.schemas import dump_estimation_result

        def key(spec):
            return (spec["circuit"], spec["seed"])

        first: Dict[tuple, dict] = {}
        for job in self.jobs:
            if not job["spec"]["resubmit"] and "dump" in job:
                first.setdefault(key(job["spec"]), job)
                spec = job["spec"]
                recorded = self.reference[service_key(
                    (spec["circuit"], spec["sim_mode"], spec["population_size"])
                )]
                if str(spec["seed"]) in recorded:
                    check_against(job["record"], recorded[str(spec["seed"])])
        for job in self.jobs:
            if job["spec"]["resubmit"] and "dump" in job:
                original = first.get(key(job["spec"]))
                if original is None or original["dump"] != job["dump"]:
                    job["record"].check_failures.append(
                        "resubmitted job differs from its first result"
                    )
        rng = np.random.default_rng([self.seed, 11])
        for circuit in (SERVICE_SMALL[0], SERVICE_FUSED[0]):
            fresh = [j for j in first.values() if j["spec"]["circuit"] == circuit]
            chosen = rng.permutation(len(fresh))[:SERVICE_CHECKS_PER_SPEC]
            for idx in chosen:
                job = fresh[int(idx)]
                spec = job["spec"]
                local = estimate(
                    spec["circuit"], EstimatorConfig(), seed=spec["seed"],
                    population_size=spec["population_size"],
                    sim_mode=spec["sim_mode"],
                )
                if dump_estimation_result(local) != job["dump"]:
                    job["record"].check_failures.append(
                        "service result differs from in-process estimate"
                    )

    def job_timings(self) -> Dict[str, float]:
        """Server-side split from the job status timestamps."""
        queue, run, lag, memo, rejected = [], [], [], 0, 0
        for job in self.jobs:
            rejected += job["rejected"]
            status = job.get("status")
            if status is None:
                continue
            if status.get("memo_hit"):
                memo += 1
                continue
            if status.get("started_at") and status.get("finished_at"):
                queue.append(status["started_at"] - status["created_at"])
                run.append(status["finished_at"] - status["started_at"])
                lag.append(job["returned_at"] - status["finished_at"])
        n = max(len(self.jobs), 1)
        mean = (lambda xs: sum(xs) / len(xs) if xs else 0.0)
        return {
            "service.queue_wait_s": mean(queue),
            "service.run_s": mean(run),
            "service.notify_lag_s": mean(lag),
            "service.memo_hit_frac": memo / n,
            "service.rejected_frac": rejected / n,
        }

    def server_spans(self) -> Optional[dict]:
        if not self.server_spans_path.exists():
            return None
        with open(self.server_spans_path) as fh:
            payload = json.load(fh)
        self.server_spans_path.unlink()
        return payload

    def close(self) -> None:
        self._stop_server()


WORKLOADS = ("cold-estimate", "pool-runs", "service-jobs")


def setup_scaling_exp() -> Tuple[float, Dict[str, float]]:
    """Log-log slope of ``PowerAnalyzer`` construction time against gate
    count, on two seeded random DAGs 4x apart (the larger c7552-sized).
    A slope near 1 is linear set-up; near 2 is a quadratic loop."""
    from repro.netlist.generators import random_layered_circuit
    from repro.sim.power import PowerAnalyzer

    sizes = {}
    for gates, inputs, outputs in ((880, 52, 27), (3520, 207, 108)):
        circuit = random_layered_circuit(
            f"probe{gates}", num_inputs=inputs, num_outputs=outputs,
            num_gates=gates, depth=40, seed=gates,
        )
        start = time.perf_counter()
        PowerAnalyzer(circuit, mode="unit")
        sizes[str(gates)] = time.perf_counter() - start
    small, large = sizes["880"], sizes["3520"]
    return math.log(large / small) / math.log(3520 / 880), sizes
