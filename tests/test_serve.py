"""Serve daemon tests: admission control, coalescing, quotas, deadline
shedding, SSE slow-client protection, journal-backed crash recovery,
graceful drain, and the SIGKILL chaos flow (kill mid-suite, restart,
byte-identical artifacts, zero re-execution of journaled plans).

Most tests drive :class:`ServeApp` in-process (``submit()`` +
dispatcher thread, no sockets) so admission races are deterministic;
the HTTP/SSE/chaos tests run the real front end.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.common.errors import ExperimentError
from repro.harness import faults
from repro.harness.cache import ResultCache
from repro.harness.experiments import run_suite
from repro.harness.faults import FaultPlan, FaultSpec
from repro.serve.app import (
    ServeApp,
    canonical_params,
    render_suite_artifacts,
)
from repro.serve.client import ServeClient, ServeError
from repro.serve.journal import JobJournal, unfinished_jobs
from repro.serve.queue import Job, JobQueue, QueueFullError, \
    params_fingerprint
from repro.serve.quotas import QuotaExceededError, Quotas

#: The tiny real suite the integration tests execute: 4 configs,
#: no windowed analysis, deterministic artifacts.
PARAMS = {"scale": 0.02, "workloads": ["stream"], "windowed": False}


@pytest.fixture(autouse=True)
def _clean_faults():
    yield
    faults.uninstall()


@pytest.fixture(scope="module")
def shared_cache(tmp_path_factory):
    """One result cache for the whole module: the first test to execute
    the 4-plan suite pays for the simulation, every later test hits."""
    return tmp_path_factory.mktemp("serve-cache")


@pytest.fixture
def make_app(shared_cache):
    """ServeApp factory (shared cache unless ``cache_dir`` is given),
    with teardown that stops dispatchers and retires worker pools."""
    apps = []

    def _make(cache_dir=None, **kw):
        kw.setdefault("jobs", 1)
        app = ServeApp(cache_dir if cache_dir is not None
                       else shared_cache, **kw)
        apps.append(app)
        return app

    yield _make
    for app in apps:
        app._stop.set()
        if app._dispatcher is not None:
            app._dispatcher.join(30)
        app.executor.close()


def wait_done(job, timeout=180.0):
    assert job.done_event.wait(timeout), f"job {job.id} never finished"
    return job


def submitted_job(app, status_body):
    status, body, _headers = status_body
    assert status in (200, 202), body
    return app.jobs[body["job"]]


# -------------------------------------------------------- params / queue

class TestCanonicalParams:
    def test_defaults_applied_and_stable(self):
        a = canonical_params({"scale": 0.5})
        b = canonical_params({"scale": 0.5, "windowed": True})
        assert a == b
        assert params_fingerprint(a) == params_fingerprint(b)
        assert a["window_sizes"]  # paper defaults filled in

    def test_unknown_key_rejected(self):
        with pytest.raises(ExperimentError, match="unknown params key"):
            canonical_params({"scale": 1, "wrkloads": ["stream"]})

    def test_unknown_workload_rejected(self):
        with pytest.raises(ExperimentError, match="unknown workload"):
            canonical_params({"workloads": ["mcb"]})

    def test_bad_values_rejected(self):
        with pytest.raises(ExperimentError):
            canonical_params({"scale": 0})
        with pytest.raises(ExperimentError):
            canonical_params({"scale": "not-a-number"})
        with pytest.raises(ExperimentError):
            canonical_params({"shards": -1})
        with pytest.raises(ExperimentError):
            canonical_params([1, 2])

    def test_workloads_case_folded(self):
        params = canonical_params({"workloads": ["Stream", "LBM"]})
        assert tuple(params["workloads"]) == ("stream", "lbm")


class TestJobQueue:
    def _job(self, ident, priority=5, scale=0.5):
        return Job(id=ident, priority=priority,
                   params=canonical_params({"scale": scale}))

    def test_priority_then_fifo(self):
        q = JobQueue(8)
        q.push(self._job("a", priority=5, scale=0.1))
        q.push(self._job("b", priority=1, scale=0.2))
        q.push(self._job("c", priority=5, scale=0.3))
        assert [q.pop(0.1).id for _ in range(3)] == ["b", "a", "c"]
        assert q.pop(0.01) is None

    def test_bounded_with_retry_after(self):
        q = JobQueue(2)
        q.push(self._job("a", scale=0.1))
        q.push(self._job("b", scale=0.2))
        with pytest.raises(QueueFullError) as exc:
            q.push(self._job("c", scale=0.3))
        assert exc.value.retry_after >= 1

    def test_coalesce_until_finished(self):
        q = JobQueue(8)
        job = self._job("a", scale=0.1)
        q.push(job)
        assert q.coalesce(canonical_params({"scale": 0.1})) is job
        popped = q.pop(0.1)          # running: still coalescable
        assert q.coalesce(job.params) is popped
        q.job_finished(job, 1.0)
        assert q.coalesce(job.params) is None

    def test_retry_after_tracks_job_seconds(self):
        q = JobQueue(2)
        for _ in range(12):
            q.job_finished(self._job("x", scale=0.9), 200.0)
        assert q.retry_after() >= 50


class TestQuotas:
    def test_limit_enforced_and_released(self):
        quotas = Quotas(2)
        quotas.acquire("t")
        quotas.acquire("t")
        with pytest.raises(QuotaExceededError):
            quotas.acquire("t")
        quotas.acquire("other")  # independent per client
        quotas.release("t")
        quotas.acquire("t")
        assert quotas.snapshot() == {"t": 2, "other": 1}

    def test_forced_acquire_exceeds_limit(self):
        quotas = Quotas(1)
        quotas.acquire("t")
        quotas.acquire_forced("t")  # recovery path
        assert quotas.outstanding("t") == 2
        quotas.release("t")
        quotas.release("t")
        quotas.release("t")  # idempotent at the floor
        assert quotas.outstanding("t") == 0

    def test_zero_limit_disables(self):
        quotas = Quotas(0)
        for _ in range(50):
            quotas.acquire("t")
        assert quotas.outstanding("t") == 50


# ---------------------------------------------------- in-process daemon

class TestAdmission:
    """Admission-control paths, with no dispatcher draining the queue
    (``_running`` forced on) so queue occupancy is deterministic."""

    def test_quota_429_with_retry_after(self, make_app, tmp_path):
        # own cache: the admitted job is never dispatched, so its
        # admission-time journal stays unfinished by design
        app = make_app(cache_dir=tmp_path / "cache", client_quota=1,
                       queue_limit=8)
        app._running = True
        status, _body, _h = app.submit(
            {"params": {"scale": 0.1}, "client": "t"})
        assert status == 202
        status, body, headers = app.submit(
            {"params": {"scale": 0.2}, "client": "t"})
        assert status == 429
        assert "outstanding" in body["error"]
        assert int(headers["Retry-After"]) >= 1

    def test_queue_full_429_while_inflight_completes(self, make_app):
        app = make_app(queue_limit=1, client_quota=0)
        app._running = True
        first = submitted_job(app, app.submit({"params": PARAMS}))
        status, body, headers = app.submit({"params": {"scale": 0.2}})
        assert status == 429
        assert "queue is full" in body["error"]
        assert int(headers["Retry-After"]) >= 1
        # shedding did not hurt the admitted job: it runs to completion
        app.start_dispatcher()
        assert wait_done(first).state == "done"
        assert sorted(first.artifacts) == [
            "basicCPResult.txt", "kernelCounts.txt", "scaledCPResult.txt"]

    def test_identical_submissions_coalesce(self, make_app, tmp_path):
        # own cache: the coalesced job is never dispatched
        app = make_app(cache_dir=tmp_path / "cache", queue_limit=8)
        app._running = True
        status, body, _h = app.submit({"params": PARAMS, "client": "a"})
        assert status == 202
        # same canonical params (defaults spelled out) from another
        # client ride the same job — no second execution, no quota charge
        spelled = dict(PARAMS, translate=True)
        status, dup, _h = app.submit({"params": spelled, "client": "b"})
        assert status == 200
        assert dup["coalesced"] is True
        assert dup["job"] == body["job"]
        assert app.quotas.outstanding("b") == 0

    def test_bad_submissions_400(self, make_app):
        app = make_app()
        app._running = True
        assert app.submit({"params": {"bogus": 1}})[0] == 400
        assert app.submit({"params": PARAMS, "priority": "x"})[0] == 400
        assert app.submit({"params": PARAMS, "timeout": -5})[0] == 400

    def test_draining_rejects_503(self, make_app):
        app = make_app()
        app._running = True
        app.request_drain()
        status, body, _h = app.submit({"params": PARAMS})
        assert status == 503
        assert "draining" in body["error"]

    def test_injected_admission_race_sheds_429(self, make_app):
        faults.install(FaultPlan([FaultSpec(site="serve",
                                            kind="transient", at=(1,))]))
        app = make_app(queue_limit=8)
        app._running = True
        status, body, headers = app.submit({"params": PARAMS})
        assert status == 429
        assert "admission race" in body["error"]
        assert int(headers["Retry-After"]) >= 1
        assert app.quotas.outstanding("") == 0  # charge rolled back
        # the race was transient: the retry is admitted and runs
        job = submitted_job(app, app.submit({"params": PARAMS}))
        app.start_dispatcher()
        assert wait_done(job).state == "done"


class TestExecution:
    def test_artifacts_byte_identical_to_run_suite(self, make_app,
                                                   shared_cache):
        app = make_app()
        app._running = True
        job = submitted_job(app, app.submit({"params": PARAMS}))
        app.start_dispatcher()
        assert wait_done(job).state == "done"
        assert job.summary["plans"] == 4
        assert job.summary["journaled_done"] == 4

        suite = run_suite(0.02, workloads=("stream",), windowed=False,
                          jobs=1, cache=ResultCache(shared_cache))
        expected = render_suite_artifacts(suite, windowed=False)
        assert sorted(job.artifacts) == sorted(expected)
        for name, path in job.artifacts.items():
            with open(path, "rb") as fh:
                assert fh.read() == expected[name].encode("utf-8"), name
        # the job's journal is finished: nothing to recover
        assert unfinished_jobs(shared_cache) == []

    def test_expired_deadline_shed_before_dispatch(self, make_app):
        app = make_app()
        app._running = True
        job = submitted_job(
            app, app.submit({"params": PARAMS, "timeout": 0.05}))
        time.sleep(0.2)
        app.start_dispatcher()
        assert wait_done(job).state == "shed"
        assert "deadline expired" in job.error

    def test_deadline_propagates_to_executor_timeout(self, make_app,
                                                     monkeypatch,
                                                     tmp_path):
        # own cache: the failed job's journal stays unfinished by design
        app = make_app(cache_dir=tmp_path / "cache")
        app._running = True
        seen = {}

        def fake_run(plans):
            seen["timeout"] = app.executor.timeout
            raise ExperimentError("stop here")

        monkeypatch.setattr(app.executor, "run", fake_run)
        job = submitted_job(
            app, app.submit({"params": PARAMS, "timeout": 120.0}))
        app.start_dispatcher()
        assert wait_done(job).state == "failed"
        assert 100.0 < seen["timeout"] <= 120.0


class TestRecovery:
    def test_crash_after_journal_recovers_and_matches(self, make_app,
                                                      tmp_path):
        cache_dir = tmp_path / "cache"
        # the chaos window: the fault fires between the journal append
        # and executor dispatch — exactly where a crash loses the most
        faults.install(FaultPlan([FaultSpec(site="serve", kind="error",
                                            at=(1,))]))
        app = make_app(cache_dir=cache_dir, queue_limit=8)
        app._running = True
        job = submitted_job(
            app, app.submit({"params": PARAMS, "client": "chaos",
                             "priority": 2}))
        app.start_dispatcher()
        assert wait_done(job).state == "failed"
        assert "injected" in job.error
        faults.uninstall()
        assert unfinished_jobs(cache_dir) == [job.id]

        # stop the first daemon's machinery before starting the second
        app._stop.set()
        app._dispatcher.join(30)
        app.executor.close()

        second = make_app(cache_dir=cache_dir, queue_limit=8)
        second._running = True
        assert second.recover() == [job.id]
        revived = second.jobs[job.id]
        assert revived.recovered
        assert revived.client == "chaos"
        assert revived.priority == 2
        assert second.quotas.outstanding("chaos") == 1
        second.start_dispatcher()
        assert wait_done(revived).state == "done"
        assert unfinished_jobs(cache_dir) == []

        suite = run_suite(0.02, workloads=("stream",), windowed=False,
                          jobs=1, cache=ResultCache(cache_dir))
        expected = render_suite_artifacts(suite, windowed=False)
        for name, path in revived.artifacts.items():
            with open(path, "rb") as fh:
                assert fh.read() == expected[name].encode("utf-8"), name

    def test_drain_with_queued_jobs_recovers_on_restart(self, make_app,
                                                        tmp_path):
        """A drain with jobs still queued loses nothing: the 202 was
        already durable (journal written at admission), so the queued —
        never dispatched — jobs survive as unfinished journals and the
        next start recovers and runs them."""
        cache_dir = tmp_path / "cache"
        app = make_app(cache_dir=cache_dir, queue_limit=8)
        app._running = True   # admitting; the dispatcher never starts
        queued = [
            submitted_job(app, app.submit(
                {"params": dict(PARAMS, scale=scale),
                 "client": "drainee"}))
            for scale in (0.02, 0.04)
        ]
        # admission-time durability: journal headers exist while the
        # jobs are still queued, before any dispatch
        assert sorted(unfinished_jobs(cache_dir)) == sorted(
            job.id for job in queued)

        app.request_drain()   # the POST /drain / SIGTERM path
        status, body, headers = app.submit({"params": PARAMS})
        assert status == 503, body
        assert int(headers["Retry-After"]) >= 1   # backoff hint surfaced

        second = make_app(cache_dir=cache_dir, queue_limit=8)
        second._running = True
        assert sorted(second.recover()) == sorted(j.id for j in queued)
        second.start_dispatcher()
        for job in queued:
            revived = second.jobs[job.id]
            assert revived.recovered
            assert wait_done(revived).state == "done"
        assert unfinished_jobs(cache_dir) == []

    def test_recovery_stops_at_full_queue(self, make_app, tmp_path):
        cache_dir = tmp_path / "cache"
        for scale in (0.11, 0.12, 0.13):
            JobJournal.create(
                cache_dir, canonical_params({"scale": scale}), total=4,
                run_id=f"j-crashed-{scale}",
                extra={"client": "c", "priority": 5}).close()
        app = make_app(cache_dir=cache_dir, queue_limit=2, client_quota=1)
        recovered = app.recover()
        assert len(recovered) == 2  # queue_limit bounds the re-enqueue
        # forced acquire ignores the quota: admitted-once jobs re-enter
        assert app.quotas.outstanding("c") == 2
        # the rest stays journaled for a later start
        assert len(unfinished_jobs(cache_dir)) == 3

    def test_torn_job_journal_line_tolerated(self, tmp_path):
        # occurrence 3 = the final record_done: the crash tears the last
        # append mid-write, exactly what a power cut leaves behind
        faults.install(FaultPlan([FaultSpec(site="serve",
                                            kind="truncate", at=(3,))]))
        journal = JobJournal.create(
            tmp_path, canonical_params({"scale": 0.1}), total=2,
            run_id="j-torn", extra={"client": "c", "priority": 5})
        journal.record_done("a" * 64)
        journal.record_done("b" * 64)   # this append is torn
        journal.close()
        faults.uninstall()
        loaded = JobJournal.load(tmp_path, "j-torn")
        assert loaded.done == {"a" * 64}   # torn line skipped, not fatal
        assert loaded.header["client"] == "c"
        assert unfinished_jobs(tmp_path) == ["j-torn"]


# ------------------------------------------------------------ HTTP + SSE

class TestHttp:
    @pytest.fixture
    def served(self, make_app):
        app = make_app(queue_limit=8, client_quota=0, drain_grace=5.0)
        host, port = app.start_background()
        yield app, ServeClient(host, port)
        app.stop_background()

    def test_round_trip(self, served, shared_cache):
        app, client = served
        assert client.healthz()["ok"] is True
        assert client.ready() is True

        doc = client.submit(PARAMS, client="http-test")
        job = client.wait(doc["job"])
        assert job["state"] == "done"

        names = client.artifacts(doc["job"])
        assert "kernelCounts.txt" in names
        suite = run_suite(0.02, workloads=("stream",), windowed=False,
                          jobs=1, cache=ResultCache(shared_cache))
        expected = render_suite_artifacts(suite, windowed=False)
        for name in names:
            assert client.artifact(doc["job"], name) == expected[name]

        stats = client.stats()
        assert stats["jobs"].get("done") == 1
        assert (stats["timing"]["executed"]
                + stats["timing"]["cache_hits"]) == 4

    def test_errors_and_unknowns(self, served):
        _app, client = served
        with pytest.raises(ServeError) as exc:
            client.submit({"scale": -1})
        assert exc.value.status == 400
        with pytest.raises(ServeError) as exc:
            client.job("j-nope")
        assert exc.value.status == 404
        with pytest.raises(ServeError) as exc:
            client.artifact("j-nope", "kernelCounts.txt")
        assert exc.value.status == 404
        status, _headers, _payload = client._request("GET", "/no-such")
        assert status == 404

    def test_sse_stream_delivers_job_events(self, served):
        app, client = served
        events = []
        done = threading.Event()

        def consume():
            for doc in client.events(time_budget=60.0):
                events.append(doc)
                if (doc.get("event") == "JobUpdate"
                        and doc.get("state") == "done"):
                    break
            done.set()

        consumer = threading.Thread(target=consume, daemon=True)
        consumer.start()
        time.sleep(0.2)  # let the stream attach before events flow
        doc = client.submit(PARAMS, client="sse")
        client.wait(doc["job"])
        assert done.wait(60.0), "SSE consumer never saw the job finish"
        kinds = {e.get("event") for e in events}
        assert "JobUpdate" in kinds
        assert any(e.get("job") == doc["job"] for e in events)

    def test_slow_sse_client_disconnected_not_blocking(self, make_app):
        app = make_app(queue_limit=8, client_quota=0, sse_queue=2,
                       drain_grace=5.0)
        host, port = app.start_background()
        try:
            # the injected stalled client: its writer sleeps instead of
            # draining, so its 2-slot queue must overflow
            faults.install(FaultPlan([FaultSpec(site="serve",
                                                kind="hang",
                                                seconds=8.0)]))
            client = ServeClient(host, port)
            stalled = threading.Thread(
                target=lambda: list(client.events(time_budget=30.0)),
                daemon=True)
            stalled.start()
            time.sleep(0.2)
            faults.uninstall()  # only the one stream stalls

            doc = client.submit(PARAMS, client="fast")
            job = client.wait(doc["job"])
            assert job["state"] == "done"  # executor never blocked
            deadline = time.monotonic() + 30.0
            while (app.broker.disconnected_slow == 0
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            assert app.broker.disconnected_slow >= 1
            assert client.stats()["sse_disconnected_slow"] >= 1
            stalled.join(30.0)
            assert not stalled.is_alive()
        finally:
            app.stop_background()

    def test_drain_via_http(self, served):
        app, client = served
        doc = client.submit(PARAMS, client="drain-test")
        assert client.drain()["draining"] is True
        assert client.ready() is False
        with pytest.raises(ServeError) as exc:
            client.submit({"scale": 0.9})
        assert exc.value.status == 503
        # the in-flight job still completes within the grace period
        app._bg.join(60.0)
        assert not app._bg.is_alive()
        job = app.jobs[doc["job"]]
        assert job.state == "done"
        assert unfinished_jobs(app.cache.root) == []


# ------------------------------------------------------------ chaos kill

class TestChaosKill:
    """The headline acceptance test: SIGKILL the real daemon process
    mid-suite, restart it on the same cache, and the recovered job must
    produce byte-identical artifacts with zero re-execution of plans
    already journaled as finished."""

    def _start(self, cache_dir, ready_file):
        import repro
        from pathlib import Path

        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, REPRO_ISA_CACHE_DIR=str(cache_dir))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.harness.cli", "serve",
             "--port", "0", "--jobs", "1", "--queue-limit", "8",
             "--ready-file", str(ready_file), "--quiet"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        deadline = time.monotonic() + 60.0
        while not ready_file.exists():
            if proc.poll() is not None:
                raise AssertionError(
                    "daemon died at startup: "
                    + proc.stderr.read().decode("utf-8", "replace"))
            if time.monotonic() > deadline:
                proc.kill()
                raise AssertionError("daemon never wrote the ready file")
            time.sleep(0.05)
        info = json.loads(ready_file.read_text())
        return proc, info

    def test_sigkill_restart_byte_identical_no_rerun(self, tmp_path):
        cache_dir = tmp_path / "cache"
        proc, info = self._start(cache_dir, tmp_path / "ready1.json")
        client = ServeClient(info["host"], info["port"])
        try:
            doc = client.submit(PARAMS, client="chaos")
            job_id = doc["job"]
            # wait for at least one plan to be journaled done, then
            # SIGKILL with the suite still in flight
            deadline = time.monotonic() + 120.0
            journaled = 0
            while time.monotonic() < deadline:
                try:
                    journal = JobJournal.load(cache_dir, job_id)
                except ExperimentError:
                    time.sleep(0.02)
                    continue
                journaled = len(journal.done)
                if journal.finished or journaled >= 1:
                    break
                time.sleep(0.02)
            assert journaled >= 1, "no plan finished within 120s"
        finally:
            proc.kill()
            proc.wait(30)
        assert not JobJournal.load(cache_dir, job_id).finished, \
            "suite finished before the kill; nothing was tested"
        assert unfinished_jobs(cache_dir) == [job_id]

        proc, info = self._start(cache_dir, tmp_path / "ready2.json")
        try:
            assert info["recovered"] == [job_id]
            client = ServeClient(info["host"], info["port"])
            job = client.wait(job_id, timeout=180.0)
            assert job["state"] == "done"
            assert job["recovered"] is True

            # zero re-execution: every plan journaled before the kill is
            # a cache hit on the restarted daemon
            stats = client.stats()
            assert stats["timing"]["cache_hits"] >= journaled
            assert (stats["timing"]["executed"]
                    + stats["timing"]["cache_hits"]) == 4

            suite = run_suite(0.02, workloads=("stream",), windowed=False,
                              jobs=1, cache=ResultCache(cache_dir))
            expected = render_suite_artifacts(suite, windowed=False)
            for name in client.artifacts(job_id):
                assert client.artifact(job_id, name) == expected[name], name

            client.drain()
        finally:
            if proc.poll() is None:
                try:
                    proc.wait(60)
                except subprocess.TimeoutExpired:
                    proc.send_signal(signal.SIGKILL)
                    proc.wait(30)
        assert unfinished_jobs(cache_dir) == []
