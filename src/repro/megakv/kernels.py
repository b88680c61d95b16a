"""Batched insert/search/delete kernels for the MEGA-KV store.

Each kernel processes one request batch: one request per thread, blocks
owning disjoint, contiguous request slices — the LP region layout of
Section VII-4.

Checksum protocol (shared with :mod:`repro.megakv.lp`): every kernel
folds, per request, exactly the words that must be durable for the
request to have "happened":

* **insert** — folds ``[key, value]`` by (re-)storing both the key and
  the value at the chosen slot. The key is stored even on the update
  path, so original execution, recovery re-execution and validation all
  fold the same words.
* **delete** — clears the slot by storing ``0``; ``0`` is the identity
  of both checksum lanes, so "the key is gone" folds identically
  whether the slot was cleared in this run (store of 0), had already
  been cleared (no fold), or is validated after persisting (key
  absent ⇒ nothing folded).
* **search** — read-only over the store; the per-request results buffer
  is the protected output, making it an ordinary idempotent LP region.

Validation overrides for insert/delete replay the *semantic effect*
(search the store for the key) rather than the mutation — the
application-specific validation the paper anticipates for
non-trivially-idempotent regions.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.tables.base import mix64_array
from repro.errors import TableFullError
from repro.gpu.device import Device
from repro.gpu.kernel import BlockContext, ExecMode, Kernel, LaunchConfig
from repro.megakv.store import BUCKET_WIDTH, EMPTY_SLOT, MegaKVStore

#: Seed perturbation selecting a key's second candidate bucket (must
#: match :meth:`~repro.megakv.store.MegaKVStore.bucket_of`).
_SECOND_CHOICE = 0x9E3779B97F4A7C15


class _BatchKernel(Kernel):
    """Shared plumbing: one thread per request, contiguous block slices."""

    #: Every MEGA-KV kernel mutates host-side ``store.stats`` inside
    #: ``run_block`` (and insert claims slots via ``atomic_cas``), so a
    #: block's execution cannot be replayed from a log. The in-process
    #: batched engine is fine — search opts back in below.
    parallel_safe = False

    def __init__(
        self,
        store: MegaKVStore,
        batch_keys: np.ndarray,
        threads_per_block: int = 64,
    ) -> None:
        self.store = store
        self.batch_keys = np.asarray(batch_keys, dtype=np.uint64)
        if np.any(self.batch_keys == EMPTY_SLOT):
            raise TableFullError("batch keys must be non-zero")
        self.threads = threads_per_block
        self.n_requests = self.batch_keys.size

    def launch_config(self) -> LaunchConfig:
        n_blocks = max(1, math.ceil(self.n_requests / self.threads))
        return LaunchConfig.linear(n_blocks, self.threads)

    def _slice(self, ctx: BlockContext) -> range:
        lo = ctx.block_id * self.threads
        hi = min(lo + self.threads, self.n_requests)
        return range(lo, hi)

    def _find(self, ctx: BlockContext, key: np.uint64) -> int | None:
        """Scan the key's bucket; returns the slot index or ``None``."""
        slots = self.store.bucket_slots(int(key))
        bucket_keys = ctx.ld(self.store.keys, slots)
        self.store.stats.probe_slots += slots.size
        hit = np.flatnonzero(bucket_keys == key)
        if hit.size == 0:
            return None
        return int(slots[int(hit[0])])


class KVInsertKernel(_BatchKernel):
    """SET: insert or update each (key, value) request."""

    name = "megakv-insert"
    idempotent = True
    #: lplint sees the atomic_cas claim and the bucket-scan read of the
    #: key array it also writes; re-execution nevertheless stores the
    #: same [key, value] words on every path (module docstring), and
    #: the dynamic oracle pins that (benchmarks/oracle_verdicts.json).
    lint_suppressions = {
        "LP002": "re-execution stores identical [key, value] words on "
                 "every path; idempotence pinned by the dynamic oracle "
                 "(benchmarks/oracle_verdicts.json)",
    }

    def __init__(
        self,
        store: MegaKVStore,
        batch_keys: np.ndarray,
        batch_values: np.ndarray,
        threads_per_block: int = 64,
    ) -> None:
        super().__init__(store, batch_keys, threads_per_block)
        self.batch_values = np.asarray(batch_values, dtype=np.uint64)
        if np.any(self.batch_values == EMPTY_SLOT):
            raise TableFullError("batch values must be non-zero")
        if self.batch_values.size != self.n_requests:
            raise TableFullError("keys and values must align")
        self.protected_buffers = (store.keys.name, store.values.name)

    def run_block(self, ctx: BlockContext) -> None:
        for i in self._slice(ctx):
            key = self.batch_keys[i]
            value = self.batch_values[i]
            slot = self._find(ctx, key)
            if slot is None:
                slot = self._claim(ctx, key)
                self.store.stats.inserts += 1
            else:
                self.store.stats.updates += 1
            # Store key AND value on both paths so every execution of
            # this request folds the same [key, value] words.
            ctx.st(self.store.keys, slot, key)
            ctx.st(self.store.values, slot, value)
            ctx.flops(4)

    def _claim(self, ctx: BlockContext, key: np.uint64) -> int:
        slots = self.store.bucket_slots(int(key))
        for s in slots:
            old = ctx.atomic_cas(self.store.keys, int(s), EMPTY_SLOT, key)
            if old == EMPTY_SLOT or old == key:
                return int(s)
        raise TableFullError(
            f"both candidate buckets of key {int(key)} are full "
            f"(load factor {self.store.load_factor:.2f})"
        )

    def validate_block(self, ctx: BlockContext) -> None:
        """Fold what the store *now holds* for each of my requests."""
        for i in self._slice(ctx):
            key = self.batch_keys[i]
            slot = self._find(ctx, key)
            if slot is None:
                continue  # lost insert: nothing folds, key-lane mismatch
            # VALIDATE-mode stores fold memory contents at these slots.
            ctx.st(self.store.keys, slot, key)
            ctx.st(self.store.values, slot, self.batch_values[i])


class KVDeleteKernel(_BatchKernel):
    """DELETE: remove each requested key (idempotent on absent keys)."""

    name = "megakv-delete"
    idempotent = True
    #: lplint sees the bucket scan reading the key array the delete
    #: also writes; clearing an already-cleared slot is a no-op, so
    #: re-execution is idempotent — pinned by the dynamic oracle.
    lint_suppressions = {
        "LP002": "clearing an already-cleared slot is a no-op; "
                 "idempotence pinned by the dynamic oracle "
                 "(benchmarks/oracle_verdicts.json)",
    }

    def __init__(
        self,
        store: MegaKVStore,
        batch_keys: np.ndarray,
        threads_per_block: int = 64,
    ) -> None:
        super().__init__(store, batch_keys, threads_per_block)
        self.protected_buffers = (store.keys.name, store.values.name)

    def run_block(self, ctx: BlockContext) -> None:
        for i in self._slice(ctx):
            key = self.batch_keys[i]
            slot = self._find(ctx, key)
            self.store.stats.deletes += 1
            if slot is None:
                continue
            self.store.stats.removed += 1
            # Clearing stores fold 0 — the identity of both checksum
            # lanes, by design (see module docstring).
            ctx.st(self.store.keys, slot, EMPTY_SLOT)
            ctx.st(self.store.values, slot, EMPTY_SLOT)
            ctx.flops(2)

    def validate_block(self, ctx: BlockContext) -> None:
        """A persisted delete folds nothing; a lost one folds the key."""
        for i in self._slice(ctx):
            key = self.batch_keys[i]
            slot = self._find(ctx, key)
            if slot is None:
                continue  # correctly gone
            ctx.st(self.store.keys, slot, EMPTY_SLOT)
            ctx.st(self.store.values, slot, EMPTY_SLOT)


class KVSearchKernel(_BatchKernel):
    """GET: look up each key, writing values to a results buffer.

    Misses write ``0`` (never a legal value). The results buffer is a
    block-disjoint protected output, so this is a plain idempotent LP
    region needing no custom validation.
    """

    name = "megakv-search"
    idempotent = True

    def __init__(
        self,
        store: MegaKVStore,
        batch_keys: np.ndarray,
        results_buffer: str,
        threads_per_block: int = 64,
    ) -> None:
        super().__init__(store, batch_keys, threads_per_block)
        self.results_buffer = results_buffer
        self.protected_buffers = (results_buffer,)

    def block_output_map(self, block_id: int):
        """Search results are a static, block-disjoint slice — the
        fast Listing-7 validation path applies."""
        lo = block_id * self.threads
        hi = min(lo + self.threads, self.n_requests)
        return {self.results_buffer: np.arange(lo, hi)}

    def run_block(self, ctx: BlockContext) -> None:
        for i in self._slice(ctx):
            key = self.batch_keys[i]
            slot = self._find(ctx, key)
            self.store.stats.searches += 1
            if slot is None:
                value = EMPTY_SLOT
            else:
                value = ctx.ld(self.store.values, slot)[0]
                self.store.stats.hits += 1
            ctx.st(self.results_buffer, i, value,
                   slots=np.asarray([i % ctx.n_threads]))
            ctx.flops(2)

    # -- batched execution ----------------------------------------------

    batchable = True

    def run_block_batch(self, bctx) -> None:
        """Whole-group probe: every request's two buckets in one pass.

        Reproduces ``run_block`` exactly: the first matching slot in
        bucket-candidate order wins (duplicated candidate buckets alias,
        so the earliest index is the same slot serial probing picks),
        read traffic counts the *deduplicated* probe width per request,
        and the ragged tail block is masked out.
        """
        T = self.threads
        req = bctx.block_ids[:, None] * T + np.arange(T)       # (B, T)
        mask = req < self.n_requests
        keys = self.batch_keys[np.where(mask, req, 0)]          # (B, T)

        n_buckets = np.uint64(self.store.n_buckets)
        b0 = (mix64_array(keys, self.store.seed)
              % n_buckets).astype(np.int64)
        b1 = (mix64_array(keys, self.store.seed ^ _SECOND_CHOICE)
              % n_buckets).astype(np.int64)
        offs = np.arange(BUCKET_WIDTH)
        slots = np.concatenate(
            [b0[..., None] * BUCKET_WIDTH + offs,
             b1[..., None] * BUCKET_WIDTH + offs],
            axis=-1,
        )                                                       # (B, T, 2W)
        # Serial probing deduplicates coinciding candidate buckets, so
        # its per-request read charge is one bucket wide in that case.
        probe_width = np.where(b0 == b1, BUCKET_WIDTH, 2 * BUCKET_WIDTH)
        total_probe = int(probe_width[mask].sum())
        self.store.stats.probe_slots += total_probe

        bucket_keys = bctx.ld(self.store.keys, slots,
                              charge_elements=total_probe)
        match = bucket_keys == keys[..., None]
        hit = match.any(axis=-1) & mask
        first = np.argmax(match, axis=-1)
        hit_slot = np.take_along_axis(
            slots, first[..., None], axis=-1
        )[..., 0]

        n_valid = int(np.count_nonzero(mask))
        n_hits = int(np.count_nonzero(hit))
        self.store.stats.searches += n_valid
        self.store.stats.hits += n_hits

        result = np.full(req.shape, EMPTY_SLOT, dtype=np.uint64)
        result[hit] = bctx.ld(self.store.values, hit_slot[hit])
        bctx.st(self.results_buffer, req, result,
                slots=np.arange(T), mask=mask)
        bctx.alu(2.0 * T * n_valid)


def alloc_results(device: Device, name: str, n_requests: int):
    """Allocate a persistent results buffer for a search batch."""
    return device.alloc(name, (n_requests,), np.uint64, persistent=True)
