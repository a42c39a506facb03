"""The ``serve-dist`` workload: a daemon, two worker nodes, closed-loop
clients.

Each session starts ``repro-isa-compare serve --dist-port 0`` and two
``worker --jobs 1`` nodes as their own processes, each node with its
own cache directory, and waits until both nodes are registered (that is
the session's set-up). ``nproc`` client threads then run a closed loop
over the seeded job sequence of :func:`common.serve_jobs`: submit,
poll until the job is terminal, fetch every artifact. Afterwards the
daemon is drained, every artifact and every ``ConfigResult`` the
daemon cached is checked against ``reference.json``, and the journals'
lease lines are read back.

``--seconds`` buys a fixed number of jobs, :data:`JOBS_PER_S` per
second: 12 at 10 s, two rounds of five fresh jobs plus two repeats, so
every seed runs the same mix of workloads (a
time-bounded loop completed 9-11 jobs of a seed-dependent mix and its
latency median moved by half from run to run). The traced run replays
the same jobs twice, untraced then traced, in fresh sessions; only the
traced one records client-side spans (job → submit, wait, fetch) and
subscribes to the SSE stream to time leases, so the timed run never
opens more than ``nproc`` connections at once.
"""

from __future__ import annotations

import contextlib
import http.client
import json
import subprocess
import threading
import time

import common
import spans
from repro.common.errors import ReproError
from repro.harness import ResultCache, plan_suite
from repro.serve.client import ServeClient, ServeError
from repro.serve.journal import lease_records

#: What a request to a daemon that is starting or going away can raise.
_HTTP_ERRORS = (OSError, http.client.HTTPException, ValueError, ReproError)

JOBS_PER_S = 1.2
#: Extra sessions started and stopped without jobs, as set-up samples:
#: ``setup_s`` is the median over them and the timed session.
SETUP_SESSIONS = 2
POLL_S = 0.05
START_TIMEOUT = 60.0
JOB_TIMEOUT = 120.0


class Session:
    """One daemon plus its worker nodes; always :meth:`stop` it."""

    def __init__(self, run, name: str):
        self.run = run
        self.dir = run.fresh_dir(name)
        self.cache = self.dir / "daemon-cache"
        self.procs: list[subprocess.Popen] = []
        self.client = None
        self.setup_s = 0.0
        #: monotonic stamps of the start and of both nodes registered
        self.started_at = self.ready_at = 0.0

    def _spawn(self, args: list[str], log: str) -> subprocess.Popen:
        with open(self.dir / log, "wb") as fh:
            proc = subprocess.Popen(
                [common.python(), "-m", "repro", *args], env=self.run.env,
                cwd=common.ROOT, stdout=fh, stderr=subprocess.STDOUT,
                start_new_session=True)
        self.procs.append(proc)
        return proc

    def start(self, nodes: int = 2) -> None:
        self.started_at = started = time.monotonic()
        ready = self.dir / "ready.json"
        self._spawn(["serve", "--host", "127.0.0.1", "--port", "0",
                     "--dist-port", "0", "--cache-dir", str(self.cache),
                     "--ready-file", str(ready), "--jobs", "1", "--quiet"],
                    "daemon.log")
        info = _wait_for(lambda: ready.is_file()
                         and json.loads(ready.read_text()),
                         "daemon ready file", self.procs)
        self.client = ServeClient("127.0.0.1", info["port"], timeout=30.0)
        for i in range(nodes):
            self._spawn(["worker", "--connect",
                         f"127.0.0.1:{info['dist_port']}", "--name",
                         f"node{i}", "--jobs", "1", "--cache-dir",
                         str(self.dir / f"node{i}-cache"), "--no-reconnect",
                         "--quiet"], f"node{i}.log")
        _wait_for(lambda: self.client.nodes()["live"] >= nodes,
                  "worker registration", self.procs)
        self.ready_at = time.monotonic()
        self.setup_s = self.ready_at - started

    def cpu_s(self) -> float:
        """CPU seconds so far of the daemon, the nodes and their pools
        (each process was started in a session of its own)."""
        return common.session_cpu_s({proc.pid for proc in self.procs})

    def stop(self) -> None:
        if self.client is not None:
            try:
                self.client.drain()
            except _HTTP_ERRORS:
                pass
        deadline = time.monotonic() + 30.0
        for proc in self.procs:
            try:
                proc.wait(max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(10.0)
            except subprocess.TimeoutExpired:
                pass
            common.kill_group(proc)
            proc.wait()


def _wait_for(probe, what: str, procs):
    deadline = time.monotonic() + START_TIMEOUT
    while time.monotonic() < deadline:
        for proc in procs:
            if proc.poll() is not None:
                raise RuntimeError(f"{what}: a process exited with "
                                   f"{proc.returncode}")
        try:
            value = probe()
        except _HTTP_ERRORS:
            value = None
        if value:
            return value
        time.sleep(0.05)
    raise RuntimeError(f"timed out waiting for {what}")


# -- the closed loop -------------------------------------------------------------

def closed_loop(session: Session, jobs: list[dict], clients: int, *,
                tracers=None) -> dict:
    """Run ``clients`` threads over ``jobs`` until every job is done;
    returns the timed records."""
    client = session.client
    lock = threading.Lock()
    queue = list(enumerate(jobs))
    records: list[dict] = []

    def next_job():
        with lock:
            return queue.pop(0) if queue else None

    def one(rec, tracer, name):
        job = rec["job"]
        span = tracer.span if tracer else _no_span
        t0 = time.monotonic()
        with span("job", slot=rec["slot"]):
            with span("submit"):
                while True:
                    try:
                        reply = client.submit(common.serve_params(job),
                                              client=name)
                        break
                    except ServeError as err:
                        if err.status not in (429, 503) or rec["rejected"] > 20:
                            raise
                        rec["rejected"] += 1
                        time.sleep(min(err.retry_after or 1, 2))
            t1 = time.monotonic()
            with span("wait"):
                doc = client.wait(reply["job"], timeout=JOB_TIMEOUT,
                                  poll=POLL_S)
            t2 = time.monotonic()
            with span("fetch"):
                texts = {name: client.artifact(reply["job"], name)
                         for name in client.artifacts(reply["job"])}
            t3 = time.monotonic()
        rec.update(id=reply["job"], coalesced=bool(reply.get("coalesced")),
                   state=doc["state"], summary=doc.get("summary", {}),
                   error=doc.get("error", ""), submit_s=t1 - t0,
                   to_done_s=t2 - t0, fetch_s=t3 - t2, latency_s=t3 - t0,
                   artifacts={n: common.digest_text(t)
                              for n, t in texts.items()})

    def worker(index):
        tracer = tracers[index] if tracers else None
        while True:
            item = next_job()
            if item is None:
                return
            rec = {"slot": item[0], "job": item[1], "rejected": 0}
            try:
                one(rec, tracer, f"client{index}")
            except Exception as err:  # noqa: BLE001 - counted as failed
                rec.update(state="error",
                           error=f"{type(err).__name__}: {err}")
            with lock:
                records.append(rec)

    threads = [threading.Thread(target=worker, args=(i,), daemon=True)
               for i in range(clients)]
    cpu_started = session.cpu_s()
    started = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(JOB_TIMEOUT * 2)
    ended = time.monotonic()
    cpu = session.cpu_s() - cpu_started
    peaks = common.session_peak_rss_mb({proc.pid for proc in session.procs})
    with lock:
        records = sorted(records, key=lambda r: r["slot"])
    return {"jobs": len(jobs), "records": records, "wall_s": ended - started,
            "cpu_s": cpu, "timed_from": started, "timed_to": ended,
            "peak_rss_mb": sorted(peaks.values())}


def _no_span(*args, **kwargs):
    return contextlib.nullcontext()


class LeaseWatch:
    """Times leases from the SSE stream: PlanStarted → PlanFinished."""

    def __init__(self, client):
        self.client = client
        self.open: dict[tuple, float] = {}
        self.durations: list[float] = []
        self.thread = threading.Thread(target=self._read, daemon=True)

    def start(self) -> None:
        self.thread.start()

    def _read(self) -> None:
        try:
            for doc in self.client.events(time_budget=600.0):
                key = (doc.get("job"), doc.get("plan"))
                if doc.get("event") == "PlanStarted":
                    self.open[key] = time.monotonic()
                elif doc.get("event") == "PlanFinished" and key in self.open:
                    self.durations.append(
                        time.monotonic() - self.open.pop(key))
        except _HTTP_ERRORS:
            pass

    def join(self) -> None:
        self.thread.join(15.0)


# -- checking and reading back -----------------------------------------------------

def check(run, session: Session, loop: dict) -> dict:
    """Gate artifacts and cached ConfigResults; read lease journals.

    Every job is an attempted operation, and so is every submission the
    daemon rejected (429/503) before it admitted the job: a rejection is
    a failed operation. A job without a record (its client thread never
    returned) is a failed one."""
    records = loop["records"]
    run.attempted += loop["jobs"]
    recorded = {rec["slot"] for rec in records}
    for slot in range(loop["jobs"]):
        if slot not in recorded:
            run.failures.append(f"job slot {slot} never finished")
    rejected = sum(rec["rejected"] for rec in records)
    run.attempted += rejected
    run.rejected += rejected
    for rec in records:
        job = rec["job"]
        if rec["state"] != "done":
            run.failures.append(f"job {rec.get('id')} {rec['state']}: "
                                f"{rec.get('error', '')}")
            continue
        key = common.suite_key((job["workload"],), job["scale"],
                               job["windows"])
        want = run.reference["suites"].get(key)
        if want is None or rec["artifacts"] != want:
            run.failures.append(f"job {rec['id']}: artifacts of {key} "
                                f"differ from the direct rendering")
    cache = ResultCache(session.cache)
    grants_by_job: dict[str, list] = {}
    fresh_insts = 0
    distinct = {}
    for rec in records:
        if rec["state"] == "done" and rec["id"] not in grants_by_job:
            grants, _settled = lease_records(session.cache, rec["id"])
            grants_by_job[rec["id"]] = grants
            distinct[rec["id"]] = rec["job"]
    for job_id, job in distinct.items():
        plans = plan_suite(job["scale"], workloads=(job["workload"],),
                           windowed=True, window_sizes=tuple(job["windows"]))
        leased = {g["fp"] for g in grants_by_job[job_id]}
        for plan in plans:
            result = cache.get(plan)
            key = common.config_key(plan.workload, plan.isa, plan.profile,
                                    job["scale"], job["windows"])
            run.attempted += 1
            want = run.reference["configs"].get(key, {})
            if result is None or common.digest_doc(
                    result.to_dict()) != want.get("digest"):
                run.failures.append(f"cached config {key} differs from "
                                    f"its reference")
            if plan.fingerprint() in leased:
                fresh_insts += want.get("path_length", 0)
    return {"grants": grants_by_job, "fresh_insts": fresh_insts}


def _queue_wait(rec: dict) -> float:
    """Time a job sat queued behind other clients' jobs: submit-to-done
    minus the daemon's own run time for it."""
    return max(0.0, rec["to_done_s"] - rec["summary"].get("seconds", 0.0))


def _end_to_end(run, session: Session, loop: dict, read: dict) -> dict:
    """CPU time of the system under test over the closed loop and the
    guest instructions it produced, at the reference speed, and the
    summed peak RSS of its processes."""
    factor = run.probe.factor(loop["timed_from"], loop["timed_to"])
    cpu = loop["cpu_s"] * factor
    run.record.update(speed_factor=factor, raw_cpu_s=loop["cpu_s"],
                      peak_rss_mb=loop["peak_rss_mb"],
                      raw_wall_s=loop["wall_s"],
                      wall_s=loop["wall_s"] * factor)
    return {
        "setup_s": _setup(run, session),
        "cpu_s": cpu,
        "guest_ips": read["fresh_insts"] / cpu if cpu else 0.0,
        "max_rss_mb": sum(loop["peak_rss_mb"]),
    }


def _setup(run, session: Session) -> float:
    return run.calibrated(session.setup_s, session.started_at,
                          session.ready_at)


def _jobs(loop: dict) -> tuple[dict, dict]:
    """Job latency (submit to fetched artifacts) and throughput.

    These are per-layer metrics without a bound: a run has about a dozen
    jobs of five workloads whose costs differ by 10x, so the latency
    median lands on the boundary between two workloads and moved by
    0.45 of itself (IQR over ten seeds), above any bound a benchmark
    metric may carry. ``cpu_s`` bounds the work behind them: the job
    count is fixed."""
    done = [r for r in loop["records"] if r["state"] == "done"]
    latencies = [r["latency_s"] for r in done]
    tail_value, tail_pct, beyond = common.tail(latencies)
    wall = loop["wall_s"]
    return {
        "serve.job_p50_s": common.median(latencies),
        "serve.job_tail_s": tail_value,
        "serve.jobs_per_s": len(done) / wall if wall else 0.0,
    }, {"job_tail_percentile": tail_pct, "job_samples": len(latencies),
        "job_samples_beyond_tail": beyond}


def _layers(loop: dict, read: dict, stats: dict, nodes: dict,
            leases: LeaseWatch) -> dict:
    records = loop["records"]
    done = [r for r in records if r["state"] == "done"]
    seen, repeats = set(), 0
    for rec in records:
        key = json.dumps(common.serve_params(rec["job"]), sort_keys=True)
        repeats += key in seen
        seen.add(key)
    cache_hit_jobs = sum(1 for grants in read["grants"].values()
                         if not grants)
    tasks = [n["tasks_done"] for n in nodes["nodes"]]
    counters = nodes.get("counters", {})
    return {
        "serve.submit_s": common.median(r["submit_s"] for r in done),
        "serve.queue_wait_s": common.median(_queue_wait(r) for r in done),
        "serve.artifact_s": common.median(r["fetch_s"] for r in done),
        "serve.coalesced": sum(r.get("coalesced", False) for r in records),
        "serve.cache_hit_jobs": cache_hit_jobs,
        "serve.rejected": sum(r["rejected"] for r in records)
        + stats.get("jobs", {}).get("shed", 0),
        "serve.repeat_share": repeats / len(records) if records else 0.0,
        "dist.leases": sum(len(g) for g in read["grants"].values()),
        "dist.lease_s": common.median(leases.durations) if leases else 0.0,
        "dist.redispatched": counters.get("redispatched", 0),
        "dist.duplicates_dropped": counters.get("duplicates_dropped", 0),
        "dist.node_task_skew": (max(tasks) / (sum(tasks) / len(tasks))
                                if tasks and sum(tasks) else 0.0),
    }


def session_run(run, jobs: list[dict], *, traced: bool) -> dict:
    session = Session(run, "serve")
    tracers = leases = None
    try:
        session.start()
        if traced:
            tracers = [spans.Tracer() for _ in range(run.nproc)]
            leases = LeaseWatch(session.client)
            leases.start()
        loop = closed_loop(session, jobs, run.nproc, tracers=tracers)
        stats = session.client.stats()
        nodes = session.client.nodes()
    finally:
        session.stop()
    if leases is not None:
        leases.join()
    read = check(run, session, loop)
    return {"session": session, "loop": loop, "read": read, "stats": stats,
            "nodes": nodes, "tracers": tracers, "leases": leases}


def measure(run) -> dict:
    """Entry point from ``run.py``; returns the metric values."""
    count = max(1, round(run.seconds * JOBS_PER_S))
    jobs = common.serve_jobs(run.seed, count, workloads=run.args.workloads,
                             scales=run.args.serve_scales)
    plain = session_run(run, jobs, traced=False)
    job_metrics, job_extra = _jobs(plain["loop"])
    run.record["jobs"] = dict(job_metrics, **job_extra)
    run.record["job_records"] = [
        {k: r.get(k) for k in ("slot", "job", "id", "state", "coalesced",
                               "latency_s", "to_done_s", "fetch_s",
                               "summary")}
        for r in plain["loop"]["records"]]
    if not run.trace:
        metrics = _end_to_end(run, plain["session"], plain["loop"],
                              plain["read"])
        setups = [metrics["setup_s"]]
        for _ in range(SETUP_SESSIONS):
            session = Session(run, "setup")
            try:
                session.start()
            finally:
                session.stop()
            setups.append(_setup(run, session))
        metrics["setup_s"] = common.median(setups)
        run.record["setup_samples"] = setups
        return metrics
    traced = session_run(run, jobs, traced=True)
    layers = _layers(traced["loop"], traced["read"], traced["stats"],
                     traced["nodes"], traced["leases"])
    layers.update(job_metrics)
    walls = {name: run.calibrated(out["loop"]["wall_s"],
                                  out["loop"]["timed_from"],
                                  out["loop"]["timed_to"])
             for name, out in (("untraced", plain), ("traced", traced))}
    layers["trace.overhead_s"] = walls["traced"] - walls["untraced"]
    merged = _merge_spans(traced["tracers"])
    (run.records / f"{run.tag}-spans.json").write_text(
        json.dumps({"spans": merged}))
    run.record["spans"] = _span_summary(merged)
    run.record["walls"] = walls
    return layers


def _merge_spans(tracers) -> list[dict]:
    merged: list[dict] = []
    for tracer in tracers:
        offset = len(merged)
        for span in tracer.spans:
            merged.append(dict(span, id=span["id"] + offset,
                               parent=(None if span["parent"] is None
                                       else span["parent"] + offset)))
    return merged


def _span_summary(all_spans: list[dict]) -> dict:
    own = spans.self_times(all_spans)
    summary: dict[str, dict] = {}
    for span in all_spans:
        entry = summary.setdefault(span["name"], {"count": 0, "total_s": 0.0,
                                                  "self_s": 0.0})
        entry["count"] += 1
        entry["total_s"] += span["end"] - span["start"]
        entry["self_s"] += own[span["id"]]
    return summary
