"""Benchmark-owned tracing: spans around calls into each layer.

Nothing here edits the program. :func:`install` replaces a fixed list
of the program's public functions with thin wrappers that time each
call, and :meth:`Tracer.remove` puts the originals back. A span holds
the layer name, start, end, the index of the span that was open on the
same thread when it began, and the service window it ran in. Spans
stay in memory until the benchmark writes them out.

Only threads named in ``Tracer.threads`` record spans. Helper threads
that a heap starts for per-shard fan-out are therefore covered by the
span of the call that started them, never counted twice.
"""

from __future__ import annotations

import functools
import threading
import time

import numpy as np

#: Field order of one span record.
NAME, START, END, PARENT, WINDOW, DATA = range(6)


class Tracer:
    """Records spans from wrapped calls; removable."""

    def __init__(self, threads=("MainThread",)) -> None:
        self.threads = frozenset(threads)
        self.spans: list[list] = []
        #: Id of the service window being executed, or -1.
        self.window = -1
        self._next_window = 0
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, args, kwargs, describe=None):
        """Run ``fn`` inside a span named ``name``.

        ``describe(args, result)`` may return a value stored as the
        span's data (a line count, a window's size, ...).
        """
        if threading.current_thread().name not in self.threads:
            return fn(*args, **kwargs)
        stack = self._stack()
        parent = stack[-1] if stack else -1
        span = [name, 0.0, 0.0, parent, self.window, None]
        index = len(self.spans)
        self.spans.append(span)
        stack.append(index)
        span[START] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[END] = time.perf_counter()
            stack.pop()
        if describe is not None:
            span[DATA] = describe(args, result)
        return result

    def window_call(self, fn, args, kwargs):
        """``ServiceCore.execute_window``: opens a numbered window.

        Queue wait is taken on entry, from each request's enqueue
        stamp (``time.monotonic``, as the daemon stamps it).
        """
        requests = args[1]
        now = time.monotonic()
        waits = [(now - r.t_enqueue) * 1e3 for r in requests]
        self.window = self._next_window
        self._next_window += 1
        try:
            return self.call(
                "service.window", fn, args, kwargs,
                lambda a, res: {
                    "size": len(requests),
                    "waits_ms": waits,
                    "sub_batches": res.sub_batches,
                    "launches": res.launches,
                    "failed": sum(1 for _, doc in res.responses
                                  if not doc.get("ok")),
                })
        finally:
            self.window = -1

    # -- installing -----------------------------------------------------

    def wrap(self, owner, attr: str, name: str, describe=None,
             special=None) -> None:
        """Replace ``owner.attr`` (function, method or classmethod)."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        is_classmethod = isinstance(original, classmethod)
        fn = original.__func__ if is_classmethod else original
        tracer = self

        if special is not None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return special(fn, args, kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return tracer.call(name, fn, args, kwargs, describe)

        setattr(owner, attr, classmethod(wrapper) if is_classmethod
                else wrapper)
        self._patches.append((owner, attr, original))

    def remove(self) -> None:
        """Restore every wrapped function, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def install(tracer: Tracer) -> Tracer:
    """Wrap the public calls of every layer (see README, Layers)."""
    import repro.service.core as service_core
    from repro.core.recovery import RecoveryManager
    from repro.core.runtime import LPRuntime
    from repro.gpu.device import Device
    from repro.gpu.memory import GlobalMemory
    from repro.megakv.lp import KVBatchSession
    from repro.nvm.mapped import MappedShadow
    from repro.nvm.sharded import ShardedShadow
    from repro.service.reqlog import RequestLog

    def n_lines(args, _result):
        return args[1]

    def drained(_args, result):
        return result

    def recovery(_args, report):
        return {"failed": report.initial.n_failed,
                "recovered": len(report.recovered_blocks),
                "grid": report.initial.n_blocks}

    tracer.wrap(service_core.ServiceCore, "execute_window", "service.window",
                special=tracer.window_call)
    tracer.wrap(service_core, "partition_window", "service.partition")
    tracer.wrap(RequestLog, "begin", "service.wal")
    tracer.wrap(RequestLog, "clear", "service.wal")
    for op in ("insert", "delete", "search", "checkpoint"):
        tracer.wrap(KVBatchSession, op, f"megakv.{op}")
    tracer.wrap(LPRuntime, "instrument", "core.instrument")
    tracer.wrap(RecoveryManager, "validate", "core.validate")
    tracer.wrap(RecoveryManager, "recover", "core.recover",
                describe=recovery)
    tracer.wrap(Device, "launch", "gpu.launch")
    tracer.wrap(Device, "drain", "gpu.drain", describe=drained)
    tracer.wrap(GlobalMemory, "alloc", "gpu.alloc_free")
    tracer.wrap(GlobalMemory, "free", "gpu.alloc_free")
    for heap in (MappedShadow, ShardedShadow):
        tracer.wrap(heap, "attach", "nvm.attach_detach")
        tracer.wrap(heap, "detach", "nvm.attach_detach")
        tracer.wrap(heap, "arm", "nvm.arm")
        tracer.wrap(heap, "commit", "nvm.commit", describe=n_lines)
        tracer.wrap(heap, "sync", "nvm.sync")
        tracer.wrap(heap, "open", "nvm.open")
    return tracer


# ----------------------------------------------------------------------
# Span arithmetic
# ----------------------------------------------------------------------

def self_times(spans: list[list]) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Children recorded on one thread nest inside their parent and never
    overlap each other, so the sum of their durations is exactly the
    part of the parent's interval they cover.
    """
    total = np.array([s[END] - s[START] for s in spans], dtype=np.float64)
    covered = np.zeros(len(spans), dtype=np.float64)
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            covered[span[PARENT]] += total[i]
    return total - covered


def outermost(spans: list[list], index: int) -> bool:
    """Whether span ``index`` is not nested in a span of its own layer
    call (a sharded heap's attach nests its shard's attach)."""
    parent = spans[index][PARENT]
    return parent < 0 or spans[parent][NAME] != spans[index][NAME]


def _quantile(values, q: float) -> float:
    return float(np.quantile(values, q)) if len(values) else 0.0


def layer_metrics(spans: list[list], units: int,
                  open_spans: list[list] | None = None,
                  windows_only: bool = False) -> dict[str, float]:
    """Per-layer metrics from one traced run.

    ``units`` is the work the run did: service windows on the ``kv-``
    workloads, crash/recover repetitions on ``lp-recover``. Times and
    counts are per unit. ``windows_only`` leaves out spans outside any
    service window (daemon start-up). ``open_spans`` are spans of
    separate processes that only reopen the heap (the KV restarts).
    """
    units = max(units, 1)
    selfs = self_times(spans)
    total = np.array([s[END] - s[START] for s in spans], dtype=np.float64)
    names = [s[NAME] for s in spans]

    def select(name, top=False):
        return [i for i, n in enumerate(names)
                if n == name and (not top or outermost(spans, i))
                and (not windows_only or spans[i][WINDOW] >= 0)]

    def self_ms(name):
        return float(selfs[select(name)].sum()) * 1e3 / units

    def total_ms(name):
        return float(total[select(name, top=True)].sum()) * 1e3 / units

    def count(name):
        return len(select(name, top=True)) / units

    windows = select("service.window")
    wdata = [spans[i][DATA] for i in windows]
    n_windows = len(windows)
    waits = [w for d in wdata for w in d["waits_ms"]]
    requests = sum(d["size"] for d in wdata)
    window_total = float(total[windows].sum())
    if n_windows:
        busy_span = spans[windows[-1]][END] - spans[windows[0]][START]
        idle_frac = 1.0 - window_total / busy_span if busy_span > 0 else 0.0
    else:
        idle_frac = 0.0

    commits = select("nvm.commit", top=True)
    commit_lines = sum(spans[i][DATA] or 0 for i in commits)
    drains = select("gpu.drain")
    recovers = [spans[i][DATA] for i in select("core.recover")]
    failed_blocks = sum(r["failed"] for r in recovers)
    recovered = sum(r["recovered"] for r in recovers)
    grid = sum(r["grid"] for r in recovers)
    # A sharded heap's attach/detach nests its shard's: the outer span's
    # self time is the manifest rewrite, the inner one's the shard's
    # directory rewrite. A mapped heap has only the outer span.
    heap_dirs = select("nvm.attach_detach", top=True)
    shard_dirs = [i for i in select("nvm.attach_detach")
                  if not outermost(spans, i)]
    in_window = [i for i in heap_dirs if spans[i][WINDOW] >= 0]
    opens = (open_spans if open_spans is not None else spans)
    open_total = [s[END] - s[START] for j, s in enumerate(opens)
                  if s[NAME] == "nvm.open" and outermost(opens, j)]

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "service.window.count": float(n_windows),
        "service.window.size_mean": ratio(requests, n_windows),
        "service.window.self_ms": self_ms("service.window"),
        "service.window.uncovered_frac": ratio(
            float(selfs[windows].sum()), window_total),
        "service.queue_wait_ms_p50": _quantile(waits, 0.50),
        "service.queue_wait_ms_p99": _quantile(waits, 0.99),
        "service.idle_frac": idle_frac,
        "service.partition.self_ms": self_ms("service.partition"),
        "service.subbatches_per_window": ratio(
            sum(d["sub_batches"] for d in wdata), n_windows),
        "service.wal.self_ms": self_ms("service.wal"),
        "service.failed": float(sum(d["failed"] for d in wdata)),
        "megakv.launches_per_window": ratio(
            sum(d["launches"] for d in wdata), n_windows),
        "megakv.insert.self_ms": self_ms("megakv.insert"),
        "megakv.delete.self_ms": self_ms("megakv.delete"),
        "megakv.search.self_ms": self_ms("megakv.search"),
        "megakv.checkpoint.self_ms": self_ms("megakv.checkpoint"),
        "core.instrument.self_ms": self_ms("core.instrument"),
        "core.validate.total_ms": total_ms("core.validate"),
        "core.recover.total_ms": total_ms("core.recover"),
        "core.failed_blocks": failed_blocks / units,
        "core.recovered_frac": ratio(recovered, grid),
        "gpu.launch.count": count("gpu.launch"),
        "gpu.launch.self_ms": self_ms("gpu.launch"),
        "gpu.drain.self_ms": self_ms("gpu.drain"),
        "gpu.drain.lines": sum(spans[i][DATA] for i in drains) / units,
        "gpu.alloc_free.count": count("gpu.alloc_free"),
        "gpu.alloc_free.self_ms": self_ms("gpu.alloc_free"),
        "nvm.attach_detach.count": count("nvm.attach_detach"),
        "nvm.attach_detach.self_ms": float(selfs[heap_dirs].sum()) * 1e3 / units,
        "nvm.attach_detach.shard_self_ms": float(
            selfs[shard_dirs].sum()) * 1e3 / units,
        "nvm.attach_detach.window_share": ratio(
            float(selfs[in_window].sum()), window_total),
        "nvm.writeback.commits": len(commits) / units,
        "nvm.writeback.lines": commit_lines / units,
        "nvm.writeback.self_ms": self_ms("nvm.arm") + self_ms("nvm.commit"),
        "nvm.sync.self_ms": self_ms("nvm.sync"),
        "nvm.open.total_ms": (float(np.mean(open_total)) * 1e3
                              if open_total else 0.0),
        "nvm.lines_per_request": ratio(commit_lines, requests),
    }
