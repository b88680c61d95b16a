"""Crash-recovery tests for the LP-protected MEGA-KV session."""

import numpy as np
import pytest

import repro
from repro.megakv import KVBatchSession, MegaKVStore
from repro.workloads.generators import key_value_records


def build(capacity=512, n=200, cache_lines=8, seed=0):
    device = repro.Device(cache_capacity_lines=cache_lines)
    store = MegaKVStore(device, capacity=capacity)
    session = KVBatchSession(device, store, threads_per_block=16)
    keys, vals = key_value_records(np.random.default_rng(seed), n)
    return device, store, session, keys, vals


def as_dict(keys, vals):
    return dict(zip(map(int, keys), map(int, vals)))


def test_clean_batches():
    _, store, session, keys, vals = build(cache_lines=1024)
    out = session.insert(keys, vals)
    assert not out.crashed
    res = session.search(keys)
    assert np.array_equal(res.results, vals)
    session.delete(keys[:100])
    assert store.contents() == as_dict(keys[100:], vals[100:])


def test_insert_crash_recovers_all_records():
    _, store, session, keys, vals = build()
    out = session.insert(
        keys, vals,
        crash_plan=repro.CrashPlan(after_blocks=6, persist_fraction=0.4,
                                   seed=3),
    )
    assert out.crashed
    assert out.recovery is not None and out.recovery.recovered
    assert store.contents() == as_dict(keys, vals)


def test_delete_crash_recovers_removals():
    _, store, session, keys, vals = build()
    session.insert(keys, vals)
    out = session.delete(
        keys[:120],
        crash_plan=repro.CrashPlan(after_blocks=3, persist_fraction=0.5,
                                   seed=9),
    )
    assert out.recovery.recovered
    assert store.contents() == as_dict(keys[120:], vals[120:])


def test_search_crash_recovers_results():
    _, store, session, keys, vals = build()
    session.insert(keys, vals)
    out = session.search(
        keys[:100],
        crash_plan=repro.CrashPlan(after_blocks=2, persist_fraction=0.2,
                                   seed=11),
    )
    assert out.recovery.recovered
    assert np.array_equal(out.results, vals[:100])


def test_consecutive_crashing_batches():
    """Recover each batch before admitting the next (the session rule)."""
    _, store, session, keys, vals = build(n=150)
    session.insert(
        keys, vals,
        crash_plan=repro.CrashPlan(after_blocks=4, persist_fraction=0.3,
                                   seed=1),
    )
    session.delete(
        keys[:50],
        crash_plan=repro.CrashPlan(after_blocks=1, persist_fraction=0.6,
                                   seed=2),
    )
    out = session.search(keys)
    expect = np.concatenate([np.zeros(50, np.uint64), vals[50:]])
    assert np.array_equal(out.results, expect)


@pytest.mark.parametrize("seed", range(4))
def test_insert_crash_recovery_across_seeds(seed):
    _, store, session, keys, vals = build(seed=seed)
    out = session.insert(
        keys, vals,
        crash_plan=repro.CrashPlan(after_blocks=7,
                                   persist_fraction=0.25, seed=seed),
    )
    assert out.recovery.recovered
    assert store.contents() == as_dict(keys, vals)


def test_each_batch_gets_its_own_checksum_table():
    device, _, session, keys, vals = build(cache_lines=1024, n=64)
    session.insert(keys[:32], vals[:32])
    session.insert(keys[32:], vals[32:])
    lp_buffers = [n for n in device.memory.buffers if n.startswith("__lp_")]
    assert len(lp_buffers) >= 2


def test_mixed_operation_stream():
    """The paper's workload shape: insert, search & delete records."""
    _, store, session, keys, vals = build(cache_lines=1024, n=120)
    outcomes = session.mixed([
        ("insert", keys, vals),
        ("search", keys[:60]),
        ("delete", keys[:40]),
        ("search", keys[:60]),
    ])
    assert [o.op for o in outcomes] == ["insert", "search", "delete",
                                        "search"]
    assert np.array_equal(outcomes[1].results, vals[:60])
    expect = np.concatenate([np.zeros(40, np.uint64), vals[40:60]])
    assert np.array_equal(outcomes[3].results, expect)


def test_mixed_stream_with_injected_crashes():
    _, store, session, keys, vals = build(n=150)
    outcomes = session.mixed(
        [
            ("insert", keys, vals),
            ("delete", keys[:50]),
            ("search", keys),
        ],
        crash_plans={
            0: repro.CrashPlan(after_blocks=5, persist_fraction=0.4,
                               seed=4),
            1: repro.CrashPlan(after_blocks=1, persist_fraction=0.2,
                               seed=8),
        },
    )
    assert outcomes[0].crashed and outcomes[0].recovery.recovered
    assert outcomes[1].crashed and outcomes[1].recovery.recovered
    assert not outcomes[2].crashed
    expect = np.concatenate([np.zeros(50, np.uint64), vals[50:]])
    assert np.array_equal(outcomes[2].results, expect)


def test_mixed_stream_rejects_unknown_ops():
    _, _, session, keys, _ = build(n=10)
    with pytest.raises(ValueError):
        session.mixed([("upsert", keys)])


def test_checkpoint_releases_epoch_resources():
    device, store, session, keys, vals = build(cache_lines=1024, n=80)
    session.insert(keys, vals)
    session.search(keys[:20])
    n_before = len(device.memory.buffers)
    lines = session.checkpoint()
    assert lines >= 0
    assert len(device.memory.buffers) < n_before
    # The store itself survives and further batches work.
    out = session.search(keys[:20])
    assert np.array_equal(out.results, vals[:20])


def test_crash_recovers_older_batches_in_epoch():
    """Regression for the bug hypothesis found: a crash during batch N
    must also recover batches < N whose effects were still volatile."""
    device, store, session, keys, vals = build(cache_lines=4, n=24)
    session.insert(keys[:12], vals[:12])              # stays dirty
    out = session.insert(
        keys[12:], vals[12:],
        crash_plan=repro.CrashPlan(after_blocks=0, seed=3),
    )
    assert out.recovery is not None
    assert store.contents() == as_dict(keys, vals)


def test_epoch_recovery_replays_batches_after_a_reexecuted_one():
    """A recovered older batch may overwrite a later batch's key; the
    later batch must be replayed even when its checksums alias.

    Sequence found by the model-based test: re-executing batch 2 puts
    key 31 back to 16, and batch 3's fold over [8, 1, 31] happens to
    match (22 + 31 + 16 == 22 + 23 + 24 in the modular lane, and the
    parity lane collides too), so validation alone misses the clobber.
    """
    device = repro.Device(cache_capacity_lines=8)
    store = MegaKVStore(device, capacity=128)
    session = KVBatchSession(device, store, threads_per_block=8)
    model, next_value = {}, 1
    for keys, crash in [([1, 2, 3, 4], False),
                        ([1, 2, 3, 4, 5], True),
                        ([2, 32, 33, 34, 35, 36, 31, 3, 4, 5, 6, 7], False),
                        ([8, 1, 31], False),
                        ([2, 3, 4, 5, 6, 7, 1, 8, 9], False),
                        ([1], True)]:
        vals = np.arange(next_value, next_value + len(keys),
                         dtype=np.uint64)
        next_value += len(keys)
        plan = None
        if crash:
            n_blocks = -(-len(keys) // 8)
            plan = repro.CrashPlan(after_blocks=n_blocks // 2,
                                   persist_fraction=0.4, seed=next_value)
        session.insert(np.array(keys, dtype=np.uint64), vals,
                       crash_plan=plan)
        model.update(zip(keys, map(int, vals)))
        assert store.contents() == model
