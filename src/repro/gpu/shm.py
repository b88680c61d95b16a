"""Container-aware CPU budget for sizing process and thread fan-out."""

from __future__ import annotations

import os


def cpu_budget() -> int:
    """CPUs actually available to *this process*, container-aware.

    ``os.cpu_count()`` reports the host's core count even when the
    process is pinned to a subset (CI runners, cgroup-limited
    containers), which makes worker pools oversubscribe. Prefer
    ``os.process_cpu_count()`` (3.13+), then the scheduling affinity
    mask, then plain ``cpu_count`` as the last resort.
    """
    getter = getattr(os, "process_cpu_count", None)
    if getter is not None:
        n = getter()
        if n:
            return n
    if hasattr(os, "sched_getaffinity"):
        try:
            return max(1, len(os.sched_getaffinity(0)))
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return max(1, os.cpu_count() or 1)
