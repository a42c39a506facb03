"""Host speed probe: calibrates the benchmark's times to a reference speed.

On a shared host the speed of a core drifts by 10-25% over tens of
seconds, as other tenants load the physical cores under it. That drift
moves every timing of the pipeline with it, and no amount of repetition
inside one run averages it away. The probe measures it where the work
runs: a small fixed pure-Python kernel, run every :data:`PERIOD_S` on
each CPU in turn (pinned with ``sched_setaffinity``), its CPU time taken
with ``thread_time``, so being preempted does not count.
:meth:`Probe.factor` is :data:`REFERENCE_S` over the mean kernel time in
an interval; a time measured in that interval times the factor is the
time it would have taken at the reference speed.

The probe costs about 4% of one CPU. It runs no code of the program, so
a change to the program moves the calibrated times as it moves the raw
ones.

Run by :class:`Probe` as ``python3 perfbench/speed.py OUT``: it
appends one sample a line to ``OUT`` until its stdin closes.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time

#: Kernel iterations per sample (about 1.5 ms of CPU).
ITERATIONS = 10_000
#: Pause between samples.
PERIOD_S = 0.035
#: The kernel's CPU time at the reference speed. Only a scale: it sets
#: the host whose seconds the calibrated times are given in.
REFERENCE_S = 0.0015


def kernel(n: int = ITERATIONS) -> int:
    """Dictionary stores and integer arithmetic, like the simulator's."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(n):
        table[i & 255] = acc
        acc += i * 3 % 7
    return acc


def sample_until_eof(out) -> None:
    """Write ``time.monotonic()`` at start and kernel CPU seconds, one
    sample a line, to ``out`` until stdin closes."""
    done = threading.Event()
    threading.Thread(target=lambda: (sys.stdin.read(), done.set()),
                     daemon=True).start()
    try:
        cpus = sorted(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cpus = []
    turn = 0
    while not done.is_set():
        if len(cpus) > 1:
            os.sched_setaffinity(0, {cpus[turn % len(cpus)]})
            turn += 1
        started = time.monotonic()
        cpu = time.thread_time()
        kernel()
        out.write(f"{started!r} {time.thread_time() - cpu!r}\n")
        out.flush()
        done.wait(PERIOD_S)


class Probe:
    """The sampler process, writing to ``path``; :meth:`stop` it on
    every path out."""

    def __init__(self, python: str, env: dict, path):
        self.path = path
        self.proc = subprocess.Popen(
            [python, os.path.abspath(__file__), str(path)], env=env,
            stdin=subprocess.PIPE)

    def stop(self) -> None:
        """Close the sampler's stdin and wait for it (idempotent)."""
        if self.proc.returncode is not None:
            return
        try:
            self.proc.communicate(timeout=10.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()

    def samples(self) -> list[tuple[float, float]]:
        rows = []
        with open(self.path) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and line.endswith("\n"):
                    rows.append((float(parts[0]), float(parts[1])))
        return rows

    def factor(self, start: float, end: float) -> float:
        """Reference speed over the host's speed in ``[start, end]``
        (``time.monotonic()`` stamps, which are system-wide). Short
        intervals are widened to the 20 nearest samples."""
        samples = self.samples()
        inside = [dt for t, dt in samples if start <= t <= end]
        if len(inside) < 20:
            middle = (start + end) / 2
            nearest = sorted(samples, key=lambda s: abs(s[0] - middle))
            inside = [dt for _, dt in nearest[:20]]
        if not inside:
            raise RuntimeError("the speed probe recorded no samples")
        return REFERENCE_S / (sum(inside) / len(inside))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    with open(argv[0], "w") as out:
        sample_until_eof(out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
