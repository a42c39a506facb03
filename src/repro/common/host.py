"""Facts about the host the process runs on."""

from __future__ import annotations

import os


def available_cpus() -> int:
    """CPUs this process may run on.

    Honors CPU affinity (``taskset``, cpuset cgroups), which
    ``os.cpu_count()`` ignores, so pools sized from it never oversubscribe
    a restricted process. Falls back to ``os.cpu_count()`` where affinity
    is not exposed.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1
