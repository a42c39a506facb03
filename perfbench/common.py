"""Shared pieces of the pipeline benchmark: fixed configuration, seeded
input generators, digests, statistics and provenance.

Everything here is pure (no process or file side effects at import), so
``run.py``, ``matrix_pass.py``, ``serve_dist.py``, ``make_reference.py``
and the self-tests all draw the same inputs from the same seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pathlib
import platform
import random
import signal
import statistics
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"
#: Scratch space for caches, spans and result records (inside the
#: checkout; listed in the root .gitignore).
WORK = ROOT / ".bench_work"

WORKLOADS = ("stream", "cloverleaf", "lbm", "minibude", "minisweep")
#: Problem scale of the matrix workloads.
MATRIX_SCALE = 0.2
#: Problem scales of the serve-dist job menu.
SERVE_SCALES = (0.1, 0.2)
PAPER_WINDOWS = (4, 16, 64, 200, 500, 1000, 2000)
#: Window sets a reanalysis pass may draw: seven windows each, 0.8x to
#: 1.5x the paper's, so every draw costs about the same (smaller windows
#: cost more: a 0.75x set took 18% longer); none equals the paper set.
ALT_WINDOWS = (
    (5, 21, 83, 260, 650, 1300, 2600),
    (4, 13, 51, 160, 400, 800, 1600),
    (4, 14, 58, 180, 450, 900, 1800),
    (5, 18, 70, 220, 550, 1100, 2200),
    (5, 19, 77, 240, 600, 1200, 2400),
    (5, 20, 80, 250, 625, 1250, 2500),
    (6, 22, 90, 280, 700, 1400, 2800),
    (6, 24, 96, 300, 750, 1500, 3000),
)
#: The serve-dist menu's two window sets.
SERVE_WINDOWS = (PAPER_WINDOWS, ALT_WINDOWS[5])
#: Every n-th serve-dist submission repeats an earlier one. Few enough
#: that the latency median falls among fresh jobs, not on the boundary
#: between fresh jobs and cache hits.
SERVE_REPEAT_EVERY = 6


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def windows_key(windows) -> str:
    return ",".join(str(int(w)) for w in windows)


def config_key(workload: str, isa: str, profile: str, scale: float,
               windows) -> str:
    return f"{workload}/{isa}/{profile}@{scale:g}@{windows_key(windows)}"


def suite_key(workloads, scale: float, windows) -> str:
    names = "matrix" if tuple(workloads) == WORKLOADS else "+".join(workloads)
    return f"{names}@{scale:g}@{windows_key(windows)}"


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest_doc(doc: dict) -> str:
    """Digest of a ConfigResult document. The schema tag ``v`` is left
    out: the digest covers the simulated statistics, not the envelope."""
    body = {k: v for k, v in doc.items() if k != "v"}
    return digest_text(json.dumps(body, sort_keys=True,
                                  separators=(",", ":")))


# -- seeded inputs ---------------------------------------------------------

def plan_order(seed: int, pass_index: int, n: int) -> list[int]:
    """The permutation of the matrix plans for one pass."""
    order = list(range(n))
    random.Random(f"order:{seed}:{pass_index}").shuffle(order)
    return order


def reanalysis_windows(seed: int) -> list[tuple[int, ...]]:
    """The window sets successive reanalysis passes use, all distinct."""
    sets = list(ALT_WINDOWS)
    random.Random(f"windows:{seed}").shuffle(sets)
    return sets


def serve_jobs(seed: int, count: int = 60, *, workloads=WORKLOADS,
               scales=SERVE_SCALES) -> list[dict]:
    """The serve-dist submission sequence.

    Fresh jobs come in rounds of five, one per workload, so any prefix
    has nearly the same mix of workloads whatever the seed. Each
    workload walks its four menu variants in an order the seed picks
    (scale and window set flipped between rounds). Every
    ``SERVE_REPEAT_EVERY``-th slot repeats a seed-chosen earlier job.
    """
    rng = random.Random(f"serve:{seed}")
    variants = {}
    for name in workloads:
        s0, s1 = rng.sample(scales, 2) if len(scales) > 1 else scales * 2
        w0, w1 = rng.sample(range(len(SERVE_WINDOWS)), 2)
        variants[name] = [(s0, w0), (s1, w1), (s0, w1), (s1, w0)]
    fresh = []
    for round_index in range(4):
        names = list(workloads)
        rng.shuffle(names)
        for name in names:
            scale, w = variants[name][round_index]
            fresh.append({"workload": name, "scale": scale,
                          "windows": SERVE_WINDOWS[w]})
    jobs: list[dict] = []
    for slot in range(count):
        if (slot % SERVE_REPEAT_EVERY == SERVE_REPEAT_EVERY - 1
                or not fresh) and jobs:
            jobs.append(dict(rng.choice(jobs)))
        else:
            jobs.append(fresh.pop(0))
    return jobs


def serve_params(job: dict) -> dict:
    """The submission ``params`` document for one serve-dist job."""
    return {"scale": job["scale"], "workloads": [job["workload"]],
            "windowed": True, "window_sizes": list(job["windows"])}


# -- statistics ------------------------------------------------------------

def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def tail(values, beyond: int = 10) -> tuple[float, float, int]:
    """``(value, percentile, samples beyond it)``: the highest percentile
    with at least ``beyond`` samples above it. Below ``2 * beyond``
    samples no such percentile lies above the median, so the tail is the
    nearest-rank p90 and the count says how few samples lie beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 0.0, 0
    if n >= 2 * beyond:
        index = n - beyond - 1
    else:
        index = math.ceil(0.9 * n) - 1
    return float(ordered[index]), 100.0 * (index + 1) / n, n - index - 1


# -- provenance ------------------------------------------------------------

def source_digest() -> str:
    """Digest over every file under ``src/``: names the code when the
    checkout is not a git working tree and there is no commit to name."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    """HEAD of the checkout, or None outside a git working tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def provenance(seed: int, workload: str, trace: bool, **extra) -> dict:
    doc = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": nproc(),
        "python": platform.python_version(),
        "commit": git_commit(),
        "src_digest": source_digest(),
        "loadavg_start": list(os.getloadavg()),
    }
    doc.update(extra)
    return doc


def child_env(work: pathlib.Path) -> dict:
    """Environment for every process the benchmark starts: the source
    tree on the path, and every cache, temp and home dir inside
    ``work``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for name, sub in (("REPRO_ISA_CACHE_DIR", "default-cache"),
                      ("TMPDIR", "tmp"), ("HOME", "home")):
        path = work / sub
        path.mkdir(parents=True, exist_ok=True)
        env[name] = str(path)
    return env


def _session_stats(sessions):
    """``(pid, stat fields after the command name)`` of every live
    process whose session id is in ``sessions``, from ``/proc``."""
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat") as fh:
                stat = fh.read()
        except OSError:  # the process ended while we looked
            continue
        # after "(comm) ": state ppid pgrp session ... at field 3 on
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[3]) in sessions:
            yield int(entry.name), fields


def session_cpu_s(sessions) -> float:
    """CPU seconds (user and system, reaped children included) of the
    live processes of ``sessions``."""
    # utime stime cutime cstime are fields 14-17: indices 11-14 here
    ticks = sum(sum(int(x) for x in fields[11:15])
                for _, fields in _session_stats(sessions))
    return ticks / os.sysconf("SC_CLK_TCK")


def session_peak_rss_mb(sessions) -> dict[int, float]:
    """Peak RSS (``VmHWM``) in MB of each live process of ``sessions``."""
    peaks = {}
    for pid, _ in _session_stats(sessions):
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        peaks[pid] = int(line.split()[1]) / 1024.0
        except OSError:
            continue
    return peaks


def python() -> str:
    return sys.executable or "python3"


def run_child(cmd: list[str], *, env: dict, timeout: float
              ) -> subprocess.CompletedProcess:
    """Run ``cmd`` in its own process group; on timeout kill the whole
    group (pool workers included) and wait for the leader."""
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except BaseException:  # timeout or interrupt: leave nothing running
        kill_group(proc)
        proc.communicate()
        raise
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def kill_group(proc: subprocess.Popen) -> None:
    """SIGKILL every process left in ``proc``'s process group."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
