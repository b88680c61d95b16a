"""Socket-free heart of the KV daemon.

:class:`ServiceCore` owns the durable heap, the device, the
:class:`~repro.megakv.store.MegaKVStore` and its
:class:`~repro.megakv.lp.KVBatchSession`, and implements the two
halves of the service's contract:

**The flush path.** A *window* (the requests one batching interval
collected) is split into maximal key-disjoint *sub-batches* in arrival
order (:func:`partition_window`), logged to the request WAL, launched
as LP-instrumented MegaKV batches, and checkpointed — one
``device.drain()`` per window, which is what makes batching pay: N
requests share one persistence-domain drain instead of buying one
each. Only after the drain (and the WAL retire) does the caller get
the responses to ack, so *an acked write is a drained write*.

**The resume path.** On construction with an existing heap the core
cold-opens it, replays the WAL's allocation sequence at the recorded
allocator cursor so every in-flight table and results buffer lands at
the address the heap directory knows it by, adopts the heap, and runs
every replayed launch through the engine-pluggable recovery fast path
(validate, re-execute failed regions). Acked windows were drained and
cleared their WAL record, so they are untouched; the at-most-one
unacked in-flight window either recovers fully or is re-applied by
client retries — both idempotent.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.config import LPConfig
from repro.core.recovery import RecoveryManager
from repro.core.runtime import LPRuntime
from repro.errors import ServiceError, TableFullError
from repro.gpu.device import Device
from repro.gpu.engine import make_engine
from repro.megakv.kernels import (
    KVDeleteKernel,
    KVInsertKernel,
    KVSearchKernel,
    alloc_results,
)
from repro.megakv.lp import KVBatchSession
from repro.megakv.store import MegaKVStore
from repro.nvm.mapped import MappedShadow
from repro.nvm.sharded import ShardedShadow, open_heap
from repro.obs import current as _recorder
from repro.service.reqlog import RequestLog, log_path_for

#: LP configurations the service can run under (same names as the
#: crash harness's ``--configs``).
LP_CONFIGS = {
    "global-array": LPConfig.paper_best,
    "quadratic": LPConfig.naive_quadratic,
    "cuckoo": LPConfig.naive_cuckoo,
}


@dataclass
class ServiceConfig:
    """Tunables of one daemon instance."""

    #: Record capacity of the store (slots are 8x this — the paper's
    #: <= 12.5 % load-factor sizing).
    capacity: int = 8192
    engine: str = "serial"
    cache_lines: int = 256
    #: LP configuration name (see :data:`LP_CONFIGS`).
    config: str = "global-array"
    #: Flush the batching window at this many requests ...
    max_batch: int = 128
    #: ... or this many milliseconds after its first request.
    max_wait_ms: float = 2.0
    #: Admission-control bound: requests queued beyond this are shed.
    queue_cap: int = 1024
    threads_per_block: int = 64
    store_name: str = "megakv"

    def lp_config(self) -> LPConfig:
        if self.config not in LP_CONFIGS:
            raise ServiceError(
                f"unknown LP config {self.config!r}; expected one of "
                + ", ".join(sorted(LP_CONFIGS))
            )
        return LP_CONFIGS[self.config]()


@dataclass
class Request:
    """One batchable client request (op in get/put/delete)."""

    op: str
    key: int
    value: int | None = None
    #: Client-assigned request id, echoed in the response.
    req_id: int | None = None
    #: Opaque connection handle the daemon replies on.
    conn: object = None
    #: Enqueue timestamp (monotonic) for latency accounting.
    t_enqueue: float = 0.0


@dataclass
class SubBatch:
    """A key-disjoint slice of a window; its launches commute."""

    inserts: list[Request] = field(default_factory=list)
    deletes: list[Request] = field(default_factory=list)
    searches: list[Request] = field(default_factory=list)

    def write_keys(self) -> set[int]:
        return {r.key for r in self.inserts} | {r.key for r in self.deletes}


def partition_window(requests: list[Request]) -> list[SubBatch]:
    """Split a window into maximal key-disjoint sub-batches, in order.

    MegaKV batch kernels require unique keys per batch (writes within a
    batch must commute), and a GET must not share a batch with a write
    to the same key (the batch would not know which comes first). The
    rule, scanning in arrival order: a write to a key already written
    *or read* in the current sub-batch starts a new one; so does a read
    of a key already written. Duplicate reads coexist fine.

    Within one sub-batch every op therefore touches a distinct key
    (except repeated GETs), so executing inserts, then deletes, then
    searches is equivalent to any interleaving — arrival order across
    sub-batches carries the semantics.
    """
    batches: list[SubBatch] = []
    current = SubBatch()
    written: set[int] = set()
    read: set[int] = set()
    for req in requests:
        is_write = req.op in ("put", "delete")
        conflict = (req.key in written) or (is_write and req.key in read)
        if conflict:
            batches.append(current)
            current = SubBatch()
            written = set()
            read = set()
        if req.op == "put":
            current.inserts.append(req)
            written.add(req.key)
        elif req.op == "delete":
            current.deletes.append(req)
            written.add(req.key)
        elif req.op == "get":
            current.searches.append(req)
            read.add(req.key)
        else:
            raise ServiceError(f"unbatchable op {req.op!r}")
    if current.inserts or current.deletes or current.searches:
        batches.append(current)
    return batches


def _wal_sub_batches(sub_batches: list[SubBatch]) -> list[dict]:
    """JSON-able WAL image of a partitioned window."""
    out = []
    for sb in sub_batches:
        out.append({
            "inserts": [[r.key, r.value] for r in sb.inserts],
            "deletes": [r.key for r in sb.deletes],
            "searches": [r.key for r in sb.searches],
        })
    return out


@dataclass
class WindowResult:
    """Outcome of one flushed window."""

    #: ``(request, response-doc)`` pairs, one per request, in arrival
    #: order within each op group.
    responses: list[tuple[Request, dict]]
    launches: int
    sub_batches: int
    drained_lines: int
    elapsed_s: float


class ServiceCore:
    """Heap + store + session lifecycle and the window flush path.

    Single-threaded by contract: exactly one thread (the daemon's
    batcher) may call :meth:`execute_window`. Construction runs the
    full cold-open / replay / recover sequence when ``heap_path``
    names an existing heap.
    """

    def __init__(self, config: ServiceConfig | None = None,
                 heap_path=None, shards: int = 0) -> None:
        self.config = config or ServiceConfig()
        self.heap_path = Path(heap_path) if heap_path is not None else None
        self.shards = shards
        self.heap = None
        self.reqlog: RequestLog | None = None
        #: Filled by the resume path; see ``stats()["resume"]``.
        self.resume_info: dict = {
            "resumed": False, "replayed_launches": 0,
            "recovered_blocks": 0, "reattached_buffers": 0,
            "detached_orphans": 0, "torn_lines": 0,
        }
        self._open()

    # ------------------------------------------------------------------
    # Cold start / resume
    # ------------------------------------------------------------------

    def _open(self) -> None:
        cfg = self.config
        engine = make_engine(cfg.engine)
        if self.heap_path is None:
            # Volatile service: nothing survives a restart, but the
            # whole flush path is identical (used as the latency
            # baseline by bench-serve).
            self.device = Device(cache_capacity_lines=cfg.cache_lines,
                                 engine=engine)
            self.store = MegaKVStore(self.device, cfg.capacity,
                                     name=cfg.store_name)
            self.session = KVBatchSession(
                self.device, self.store, cfg.lp_config(),
                threads_per_block=cfg.threads_per_block)
            return

        self.reqlog = RequestLog(log_path_for(self.heap_path))
        if self.heap_path.exists():
            self._resume(engine)
        else:
            self.heap_path.parent.mkdir(parents=True, exist_ok=True)
            if self.shards > 0:
                self.heap = ShardedShadow.create(self.heap_path,
                                                 n_shards=self.shards)
            else:
                self.heap = MappedShadow.create(self.heap_path)
            self.device = Device(cache_capacity_lines=cfg.cache_lines,
                                 engine=engine, shadow=self.heap)
            self.store = MegaKVStore(self.device, cfg.capacity,
                                     name=cfg.store_name)
            self.session = KVBatchSession(
                self.device, self.store, cfg.lp_config(),
                threads_per_block=cfg.threads_per_block)

    def _resume(self, engine) -> None:
        """Cold-open an existing heap, replay the WAL, recover, resume."""
        cfg = self.config
        rec = _recorder()
        with rec.trace.span("service.resume", cat="service",
                            track="service", heap=str(self.heap_path)):
            self.heap = open_heap(self.heap_path)
            torn = getattr(self.heap, "torn", None)
            self.resume_info["torn_lines"] = len(torn.lines) if torn else 0

            # Rebuild the pre-crash memory layout: the store first (its
            # two buffers are always the first allocations), then the
            # WAL window's tables and results buffers at the recorded
            # cursor.
            self.device = Device(cache_capacity_lines=cfg.cache_lines,
                                 engine=engine)
            self.store = MegaKVStore(self.device, cfg.capacity,
                                     name=cfg.store_name)
            wal = self.reqlog.read()
            replayed, result_names = [], []
            if wal is not None:
                self.device.memory.set_alloc_cursor(wal["next_addr"])
                replayed, result_names = self._replay_allocations(wal)

            # Reconcile directory vs rebuilt layout. A replayed
            # allocation the crashed process never reached is missing
            # from the heap — attach it (its seed image equals what the
            # live attach would have written). An entry no rebuilt
            # buffer claims can only be a leftover the crashed process
            # was mid-way through freeing after its drain — drop it.
            memory = self.device.memory
            for name, buf in memory.buffers.items():
                if buf.persistent and name not in self.heap.entries:
                    self.heap.attach(buf)
                    self.resume_info["reattached_buffers"] += 1
            for name in list(self.heap.entries):
                if name not in memory:
                    self.heap.detach(name)
                    self.resume_info["detached_orphans"] += 1
            self.heap.adopt(memory)

            # Engine-pluggable validate + recover, oldest-first, then
            # one drain to retire the whole window.
            recovered_blocks = 0
            for lp_kernel in replayed:
                report = RecoveryManager(self.device, lp_kernel).recover()
                recovered_blocks += len(report.recovered_blocks)
            if replayed:
                self.device.drain()
                for lp_kernel in replayed:
                    lp_kernel.table.free()
                for name in result_names:
                    self.device.free(name)
            self.reqlog.clear()

            self.resume_info.update(
                resumed=True,
                replayed_launches=len(replayed),
                recovered_blocks=recovered_blocks,
            )
            self.session = KVBatchSession(
                self.device, self.store, cfg.lp_config(),
                threads_per_block=cfg.threads_per_block)
        if rec.metrics.active:
            rec.metrics.inc("service.resumes")
            rec.metrics.inc("service.resume.replayed_launches",
                            len(replayed))
            rec.metrics.inc("service.resume.recovered_blocks",
                            recovered_blocks)

    def _replay_allocations(self, wal: dict):
        """Re-run the WAL window's allocation sequence, allocating
        tables and results buffers under their pre-crash names and
        addresses. Mirrors :meth:`_launch_sub_batch` exactly — the two
        must stay in lockstep for the adopt to be sound."""
        cfg = self.config
        runtime = LPRuntime(self.device, cfg.lp_config())
        counter = wal["batch_counter"]
        replayed, result_names = [], []

        def instrument(kernel) -> None:
            nonlocal counter
            replayed.append(runtime.instrument(
                kernel, table_name=f"{kernel.name}_b{counter}"))
            counter += 1

        for sb in wal["sub_batches"]:
            if sb["inserts"]:
                keys = np.array([k for k, _ in sb["inserts"]],
                                dtype=np.uint64)
                vals = np.array([v for _, v in sb["inserts"]],
                                dtype=np.uint64)
                instrument(KVInsertKernel(self.store, keys, vals,
                                          cfg.threads_per_block))
            if sb["deletes"]:
                keys = np.array(sb["deletes"], dtype=np.uint64)
                instrument(KVDeleteKernel(self.store, keys,
                                          cfg.threads_per_block))
            if sb["searches"]:
                keys = np.array(sb["searches"], dtype=np.uint64)
                name = f"{self.store.name}_results_{counter}"
                alloc_results(self.device, name, keys.size)
                result_names.append(name)
                instrument(KVSearchKernel(self.store, keys, name,
                                          cfg.threads_per_block))
        return replayed, result_names

    # ------------------------------------------------------------------
    # Flush path
    # ------------------------------------------------------------------

    @property
    def durable(self) -> bool:
        return self.heap is not None

    def records(self) -> int:
        """Live record count (non-empty key slots)."""
        keys = self.device.memory[f"{self.store.name}_keys"].array
        return int(np.count_nonzero(keys))

    def execute_window(self, requests: list[Request]) -> WindowResult:
        """Partition, log, launch, checkpoint, and answer one window."""
        t0 = time.perf_counter()
        sub_batches = partition_window(requests)
        responses: list[tuple[Request, dict]] = []
        launches = 0

        # Admission guard: refuse puts that could not fit. Sub-batch
        # inserts may still raise TableFullError under pathological
        # bucket skew; that is handled below as a window-wide error.
        n_puts = sum(len(sb.inserts) for sb in sub_batches)
        record_cap = self.store.n_slots // 8  # the sized load-factor target
        if n_puts and self.records() + n_puts > record_cap:
            return self._fail_window(requests, "store_full", t0)

        if self.durable:
            self.reqlog.begin(
                next_addr=self.device.memory.alloc_cursor,
                batch_counter=self.session.batch_counter,
                sub_batches=_wal_sub_batches(sub_batches),
            )
        try:
            for sb in sub_batches:
                launches += self._launch_sub_batch(sb, responses)
            drained = self.session.checkpoint()
        except TableFullError:
            # Converge whatever did land, retire the window, and report
            # the failure to every requester — their retries are
            # idempotent.
            self.session.checkpoint()
            if self.durable:
                self.reqlog.clear()
            return self._fail_window(requests, "store_full", t0)
        if self.durable:
            self.reqlog.clear()
        return WindowResult(
            responses=responses,
            launches=launches,
            sub_batches=len(sub_batches),
            drained_lines=drained,
            elapsed_s=time.perf_counter() - t0,
        )

    def _launch_sub_batch(self, sb: SubBatch,
                          responses: list[tuple[Request, dict]]) -> int:
        """One sub-batch's launches; mirrors :meth:`_replay_allocations`."""
        launches = 0
        if sb.inserts:
            keys = np.array([r.key for r in sb.inserts], dtype=np.uint64)
            vals = np.array([r.value for r in sb.inserts], dtype=np.uint64)
            self.session.insert(keys, vals)
            launches += 1
            for req in sb.inserts:
                responses.append((req, {"ok": True, "op": "put"}))
        if sb.deletes:
            keys = np.array([r.key for r in sb.deletes], dtype=np.uint64)
            self.session.delete(keys)
            launches += 1
            for req in sb.deletes:
                responses.append((req, {"ok": True, "op": "delete"}))
        if sb.searches:
            keys = np.array([r.key for r in sb.searches], dtype=np.uint64)
            outcome = self.session.search(keys)
            launches += 1
            for req, raw in zip(sb.searches, outcome.results):
                value = int(raw)
                responses.append((req, {
                    "ok": True, "op": "get",
                    "value": value if value else None,
                }))
        return launches

    @staticmethod
    def _fail_window(requests: list[Request], error: str,
                     t0: float) -> WindowResult:
        responses = [
            (req, {"ok": False, "op": req.op, "error": error})
            for req in requests
        ]
        return WindowResult(responses=responses, launches=0,
                            sub_batches=0, drained_lines=0,
                            elapsed_s=time.perf_counter() - t0)

    # ------------------------------------------------------------------
    # Introspection / shutdown
    # ------------------------------------------------------------------

    def backend(self) -> str:
        if self.heap is None:
            return "memory"
        return "sharded" if self.shards > 0 else "mapped"

    def close(self, drain: bool = True) -> None:
        """Release the heap; ``drain=False`` abandons cached lines
        (test hook simulating an unclean stop without a SIGKILL)."""
        if drain:
            self.device.drain()
        if self.heap is not None:
            self.heap.close()
            self.heap = None
