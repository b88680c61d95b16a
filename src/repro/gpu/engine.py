"""Pluggable launch engines: how a launch's thread blocks get executed.

The paper's central observation is that LP regions (= thread blocks) are
*associative*: the GPU guarantees no inter-block ordering, so any
schedule that applies every block's effects exactly once is legal
(Section IV-A; Lin & Solihin make the same assumption for GPU
persistency models generally). The simulator exploits exactly that
property here. :class:`~repro.gpu.device.Device.launch` delegates the
block loop to a :class:`LaunchEngine`:

* :class:`SerialEngine` — the one-block-at-a-time loop and the
  parity reference.
* :class:`BatchedEngine` — vectorizes *groups* of homogeneous blocks
  across an extra numpy axis in-process (see
  :class:`~repro.gpu.batch.BatchBlockContext`), for kernels whose
  ``run_block`` is already array-shaped. Store application and table
  insertion happen per block in launch order, so cache recency,
  eviction order, NVM shadow state, write statistics, checksum tables
  and crash semantics match the serial engine.

Associativity buys its speed through in-process vectorization, not
through processes: a forked worker pool over a shared device image
measured 0.53x-1.20x the batched engine's throughput on 2 CPUs, so
there is no process-parallel engine (see ``docs/architecture.md``).

Determinism contract (shared by both engines): given the same plan, an
engine must produce the same ``completed_blocks``, the same tally, the
same volatile + NVM memory images, the same write-back statistics and
the same checksum-table contents as :class:`SerialEngine`. The parity
test suite (``tests/gpu/test_engines.py``) pins this bit-for-bit.

The post-crash pipeline is engine-pluggable too: ``VALIDATE`` blocks
*return* per-block outcome records (recomputed checksum lanes) instead
of mutating host state, so a group of them can be recomputed in one
batched pass and then handed — in the launch's block order — to
:meth:`~repro.gpu.kernel.Kernel.merge_validation_outcomes` for one
deterministic grid-wide table compare. ``RECOVER`` re-execution
batches exactly like forward execution (table refreshes stay deferred
to launch-order application).

:class:`BatchedEngine` falls back to serial for kernels that opt out
(``batchable = False``).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.errors import LaunchError
from repro.gpu.atomics import AtomicUnit
from repro.gpu.batch import BatchBlockContext
from repro.gpu.costs import Tally
from repro.gpu.kernel import BlockContext, ExecMode, Kernel, LaunchConfig
from repro.gpu.memory import GlobalMemory
from repro.obs import current as _recorder

#: Block-group granularity of serial tracing spans: fine enough
#: to see progress, coarse enough that a 10k-block launch stays a
#: loadable timeline.
TRACE_GROUP_BLOCKS = 64


@dataclass
class LaunchPlan:
    """Everything an engine needs to execute one launch's blocks.

    ``block_ids`` is the final execution order, already shuffled and
    crash-truncated by the device; engines run exactly these blocks and
    nothing else.
    """

    kernel: Kernel
    config: LaunchConfig
    memory: GlobalMemory
    atomics: AtomicUnit
    mode: ExecMode
    block_ids: list[int]
    fence_latency: float = 660.0
    fence_concurrency: int = 1
    #: Optional callback fired with the cumulative completed-block
    #: count each time a block's effects land in the plan's memory
    #: (serial execution and batched application alike).
    #: The crash harness's "kill after N blocks" trigger point.
    block_hook: object | None = None

    def new_tally(self) -> Tally:
        """A zeroed launch-level tally with this plan's geometry."""
        return Tally(
            n_blocks=self.config.n_blocks,
            threads_per_block=self.config.threads_per_block,
        )

    def block_context(self, block_id: int,
                      mode: ExecMode | None = None) -> BlockContext:
        """A fresh context for one block of this launch."""
        return BlockContext(
            self.memory, self.atomics, self.config, block_id,
            self.mode if mode is None else mode,
            fence_latency_cycles=self.fence_latency,
            fence_concurrency=self.fence_concurrency,
        )


class LaunchEngine(abc.ABC):
    """Strategy for executing a launch plan's thread blocks."""

    #: Stable identifier used by :func:`make_engine` and reports.
    name: str = "engine"

    @abc.abstractmethod
    def execute(self, plan: LaunchPlan) -> tuple[list[int], Tally]:
        """Run every block in ``plan.block_ids``.

        Returns the completed block ids (in execution order) and the
        launch tally (atomic totals are filled in by the device
        afterwards, from the plan's :class:`AtomicUnit`).
        """


# ---------------------------------------------------------------------------
# Serial
# ---------------------------------------------------------------------------

class SerialEngine(LaunchEngine):
    """One block at a time — the reference semantics."""

    name = "serial"

    def execute(self, plan: LaunchPlan) -> tuple[list[int], Tally]:
        tally = plan.new_tally()
        completed: list[int] = []
        outcomes: list = []
        rec = _recorder()
        if rec.trace.enabled:
            # Per-block-group spans: chunked only when tracing, so the
            # default hot loop stays branch-free per block.
            ids = plan.block_ids
            for lo in range(0, len(ids), TRACE_GROUP_BLOCKS):
                group = ids[lo:lo + TRACE_GROUP_BLOCKS]
                with rec.trace.span(
                    "engine.blocks", cat="engine", track="engine",
                    engine=self.name, mode=plan.mode.name,
                    first=group[0], count=len(group),
                ):
                    self._run_blocks(plan, group, tally, completed,
                                     outcomes)
        else:
            self._run_blocks(plan, plan.block_ids, tally, completed,
                             outcomes)
        if plan.mode is ExecMode.VALIDATE:
            with rec.trace.span(
                "engine.validate.merge", cat="engine", track="engine",
                engine=self.name, blocks=len(completed),
            ):
                plan.kernel.merge_validation_outcomes(outcomes)
        tally.absorb_atomics(plan.atomics)
        if rec.metrics.active:
            rec.metrics.inc("engine.blocks.completed", len(completed),
                            engine=self.name)
        return completed, tally

    def _run_blocks(self, plan: LaunchPlan, block_ids: list[int],
                    tally: Tally, completed: list[int],
                    outcomes: list) -> None:
        kernel = plan.kernel
        for block_id in block_ids:
            ctx = plan.block_context(block_id)
            if plan.mode is ExecMode.VALIDATE:
                outcomes.append(kernel.validate_block(ctx))
            elif plan.mode is ExecMode.RECOVER:
                kernel.recover_block(ctx)
            else:
                kernel.run_block(ctx)
            tally.merge(ctx.finalize_tally())
            completed.append(block_id)
            if plan.block_hook is not None:
                plan.block_hook(len(completed))


# ---------------------------------------------------------------------------
# Batched (vectorized groups, in-process)
# ---------------------------------------------------------------------------

def _run_batch_group(plan: LaunchPlan, group, tally: Tally,
                     completed: list[int], outcomes: list) -> None:
    """Execute one vectorized block group, then apply it per block in order.

    The kernel's deferred effects follow the :class:`BatchBlockContext`
    shapes (leading store axis = block; insert lanes keyed by block id).
    """
    bctx = BatchBlockContext(
        plan.memory, plan.config, group, mode=plan.mode,
        fence_latency_cycles=plan.fence_latency,
        fence_concurrency=plan.fence_concurrency,
    )
    if plan.mode is ExecMode.VALIDATE:
        outcomes.extend(plan.kernel.validate_block_batch(bctx))
    elif plan.mode is ExecMode.RECOVER:
        plan.kernel.recover_block_batch(bctx)
    else:
        plan.kernel.run_block_batch(bctx)
    tally.merge(bctx.finalize_tally())

    memory = plan.memory
    for row, block_id in enumerate(group):
        bid = int(block_id)
        for name, idx, vals, mask in bctx.store_records:
            row_idx = idx[row]
            row_vals = vals[row]
            if mask is not None:
                keep = mask[row]
                row_idx = row_idx[keep]
                row_vals = row_vals[keep]
            if row_idx.size:
                memory.write(memory[name], row_idx, row_vals)
        for lanes in bctx.table_inserts.get(bid, ()):
            ctx = plan.block_context(bid)
            plan.kernel.apply_table_insert(ctx, bid, lanes)
            tally.merge(ctx.finalize_tally())
    completed.extend(int(b) for b in group)
    if plan.block_hook is not None:
        for n in range(len(completed) - len(group) + 1,
                       len(completed) + 1):
            plan.block_hook(n)


class BatchedEngine(LaunchEngine):
    """Vectorize groups of homogeneous blocks across a numpy axis.

    The engine hands the kernel a
    :class:`~repro.gpu.batch.BatchBlockContext` covering up to
    ``group_size`` blocks; the kernel's ``run_block_batch`` computes
    every block's loads, stores and charges in whole-group array
    operations. Stores (and deferred table insertions) are then applied
    per block in launch order, so the persistence domain sees exactly
    the serial engine's write sequence.

    Requirements on batchable kernels (``batchable = True``): blocks
    must not read locations written during the same launch (the
    block-disjoint-output property LP regions have anyway), and any LP
    wrapper needs commutative checksum lanes. Falls back to
    :class:`SerialEngine` otherwise.

    ``VALIDATE`` launches run the vectorized re-validation fast path:
    each group recomputes every block's checksum lanes in one batched
    pass (``validate_block_batch``), and the collected outcome records
    merge through one grid-wide vectorized table compare. ``RECOVER``
    launches re-execute failed blocks in groups through
    ``recover_block_batch``, with refreshed checksums applied per block
    in launch order like any forward insert.
    """

    name = "batched"

    def __init__(self, group_size: int = 256) -> None:
        if group_size < 1:
            raise LaunchError(
                f"BatchedEngine needs group_size >= 1, got {group_size}"
            )
        self.group_size = group_size
        self._serial = SerialEngine()

    def execute(self, plan: LaunchPlan) -> tuple[list[int], Tally]:
        if not plan.kernel.batchable:
            return self._serial.execute(plan)

        tally = plan.new_tally()
        completed: list[int] = []
        outcomes: list = []
        rec = _recorder()
        ids = plan.block_ids
        for lo in range(0, len(ids), self.group_size):
            group = ids[lo:lo + self.group_size]
            with rec.trace.span(
                "engine.group", cat="engine", track="engine",
                engine=self.name, mode=plan.mode.name,
                first=group[0], count=len(group),
            ):
                _run_batch_group(plan, group, tally, completed, outcomes)
            if rec.metrics.active:
                rec.metrics.inc("engine.scheduling.groups",
                                engine=self.name)
        if plan.mode is ExecMode.VALIDATE:
            with rec.trace.span(
                "engine.validate.merge", cat="engine", track="engine",
                engine=self.name, blocks=len(completed),
            ):
                plan.kernel.merge_validation_outcomes(outcomes)
        tally.absorb_atomics(plan.atomics)
        if rec.metrics.active:
            rec.metrics.inc("engine.blocks.completed", len(completed),
                            engine=self.name)
        return completed, tally


# ---------------------------------------------------------------------------
# Resolution
# ---------------------------------------------------------------------------

def make_engine(spec: LaunchEngine | str | None) -> LaunchEngine:
    """Resolve an engine spec: instance, name, or ``None`` (serial)."""
    if spec is None:
        return SerialEngine()
    if isinstance(spec, LaunchEngine):
        return spec
    if spec == "serial":
        return SerialEngine()
    if spec == "batched":
        return BatchedEngine()
    raise LaunchError(
        f"unknown launch engine {spec!r}; expected 'serial' or 'batched'"
    )
