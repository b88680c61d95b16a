"""Lazy Persistency integration for the MEGA-KV store.

:class:`KVBatchSession` drives the store the way MEGA-KV's host side
does — batch in, kernel launch, batch out — with every batch running as
an LP-instrumented kernel.

Crash handling must respect LP's "arbitrarily old regions" caveat
(Section IV-A): a crash during batch N can also lose still-unevicted
effects of batches < N, so the session keeps every batch since the
last checkpoint in an *epoch* and, on a crash, recovers the whole
epoch oldest-first before admitting new work. Once one batch
re-executes anything, every later batch is replayed in full, so
re-execution order preserves last-writer-wins across batches even
when a later batch's checksums happen to match the clobbered words.
A successful recovery — or an explicit
:meth:`KVBatchSession.checkpoint` — drains the persistence domain and
closes the epoch. (A hypothesis model-based test caught
exactly the single-batch-recovery bug this design removes.)
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import LPConfig
from repro.core.recovery import RecoveryManager, RecoveryReport
from repro.core.runtime import LazyPersistentKernel, LPRuntime
from repro.gpu.device import Device, LaunchResult
from repro.gpu.kernel import ExecMode
from repro.megakv.kernels import (
    KVDeleteKernel,
    KVInsertKernel,
    KVSearchKernel,
    alloc_results,
)
from repro.megakv.store import MegaKVStore
from repro.nvm.crash import CrashPlan
from repro.obs import current as _recorder


@dataclass
class BatchOutcome:
    """Result of one LP-protected batch."""

    op: str
    launch: LaunchResult
    lp_kernel: LazyPersistentKernel
    recovery: RecoveryReport | None = None
    results: np.ndarray | None = None
    extra: dict = field(default_factory=dict)

    @property
    def crashed(self) -> bool:
        """Whether this batch hit a crash (and was then recovered)."""
        return self.launch.crashed


class KVBatchSession:
    """Batched, crash-recoverable operation stream against one store."""

    def __init__(
        self,
        device: Device,
        store: MegaKVStore,
        config: LPConfig | None = None,
        threads_per_block: int = 64,
    ) -> None:
        self.device = device
        self.store = store
        self.config = config or LPConfig.paper_best()
        self.runtime = LPRuntime(device, self.config)
        self.threads = threads_per_block
        self._batch_counter = 0
        #: Batches since the last checkpoint, oldest first.
        self._epoch: list[LazyPersistentKernel] = []
        #: Result buffers of past search batches, freed at checkpoint
        #: (their contents were copied into the BatchOutcome).
        self._stale_result_buffers: list[str] = []

    @property
    def batch_counter(self) -> int:
        """Monotonic batch number; names the next batch's checksum table.

        The service request log records this (plus the allocator
        cursor) per window, so a restarted daemon can replay the
        window's table/results allocations under identical names and
        addresses before adopting the reopened heap.
        """
        return self._batch_counter

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def insert(
        self,
        keys: np.ndarray,
        values: np.ndarray,
        crash_plan: CrashPlan | None = None,
    ) -> BatchOutcome:
        """SET a batch of (key, value) pairs."""
        kernel = KVInsertKernel(self.store, keys, values, self.threads)
        return self._run("insert", kernel, crash_plan)

    def delete(
        self, keys: np.ndarray, crash_plan: CrashPlan | None = None
    ) -> BatchOutcome:
        """DELETE a batch of keys."""
        kernel = KVDeleteKernel(self.store, keys, self.threads)
        return self._run("delete", kernel, crash_plan)

    def search(
        self, keys: np.ndarray, crash_plan: CrashPlan | None = None
    ) -> BatchOutcome:
        """GET a batch of keys; misses come back as 0."""
        results_name = f"{self.store.name}_results_{self._batch_counter}"
        alloc_results(self.device, results_name, np.asarray(keys).size)
        kernel = KVSearchKernel(self.store, keys, results_name, self.threads)
        outcome = self._run("search", kernel, crash_plan)
        outcome.results = self.device.memory[results_name].array.copy()
        self._stale_result_buffers.append(results_name)
        return outcome

    def mixed(
        self,
        ops: "list[tuple[str, np.ndarray] | tuple[str, np.ndarray, np.ndarray]]",
        crash_plans: dict[int, CrashPlan] | None = None,
    ) -> list[BatchOutcome]:
        """Run a mixed request stream, one batch per operation.

        ``ops`` is a list of ``("insert", keys, values)``,
        ``("search", keys)`` or ``("delete", keys)`` tuples — the
        paper's "insert, search & delete 16K recs" workload shape.
        ``crash_plans`` optionally injects a crash into the i-th batch;
        the session recovers each crashed batch before admitting the
        next, so the stream's semantics are crash-transparent.
        """
        crash_plans = crash_plans or {}
        outcomes: list[BatchOutcome] = []
        for i, op in enumerate(ops):
            plan = crash_plans.get(i)
            kind = op[0]
            if kind == "insert":
                outcomes.append(self.insert(op[1], op[2], crash_plan=plan))
            elif kind == "search":
                outcomes.append(self.search(op[1], crash_plan=plan))
            elif kind == "delete":
                outcomes.append(self.delete(op[1], crash_plan=plan))
            else:
                raise ValueError(f"unknown KV operation {kind!r}")
        return outcomes

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def checkpoint(self) -> int:
        """Drain the persistence domain and close the batch epoch.

        Everything up to here is durable; a later crash can no longer
        require re-validating these batches, so their checksum tables
        (and already-copied search-result buffers) are released.
        Returns the lines the drain wrote.
        """
        rec = _recorder()
        with rec.trace.span("megakv.checkpoint", cat="megakv",
                            track="megakv", epoch_batches=len(self._epoch)):
            lines = self.device.drain()
            for kernel in self._epoch:
                kernel.table.free()
            self._epoch.clear()
            for name in self._stale_result_buffers:
                if name in self.device.memory:
                    self.device.free(name)
            self._stale_result_buffers.clear()
        if rec.metrics.active:
            rec.metrics.inc("megakv.checkpoints")
            rec.metrics.inc("megakv.checkpoint.lines", lines)
        return lines

    def _run(self, op, kernel, crash_plan) -> BatchOutcome:
        table_name = f"{kernel.name}_b{self._batch_counter}"
        batch_no = self._batch_counter
        self._batch_counter += 1
        rec = _recorder()
        lp_kernel = self.runtime.instrument(kernel, table_name=table_name)
        with rec.trace.span("megakv.batch", cat="megakv", track="megakv",
                            op=op, batch=batch_no):
            launch = self.device.launch(lp_kernel, crash_plan=crash_plan)
            outcome = BatchOutcome(op=op, launch=launch,
                                   lp_kernel=lp_kernel)
            if launch.crashed:
                # A crash may have lost effects of any batch in the open
                # epoch, not just the one in flight: recover
                # oldest-first, then checkpoint so the epoch starts
                # clean.
                if rec.metrics.active:
                    rec.metrics.inc("megakv.batch.crashes", op=op)
                self.device.restart()
                # Once a batch re-executes any block, every later batch
                # re-executes in full: the re-execution may overwrite a
                # later batch's write to the same key, and that batch's
                # checksum lanes can alias the clobbered words (modular
                # and parity sums both collide), so its validation
                # cannot be trusted to notice.
                replay = False
                for epoch_kernel in (*self._epoch, lp_kernel):
                    if replay:
                        self.device.launch(epoch_kernel,
                                           mode=ExecMode.RECOVER)
                    report = RecoveryManager(self.device,
                                             epoch_kernel).recover()
                    replay = replay or bool(report.recovered_blocks)
                outcome.recovery = report
                self.checkpoint()
            else:
                self._epoch.append(lp_kernel)
        if rec.metrics.active:
            rec.metrics.inc("megakv.batches", op=op)
        return outcome
