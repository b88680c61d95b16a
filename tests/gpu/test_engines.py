"""Launch-engine parity: serial vs batched, bit for bit.

LP regions are associative (DESIGN.md §3): a launch's final state must
not depend on *how* its blocks were scheduled. The batched engine
exploits that with vectorized block groups, but the contract
is strict bit-identity with :class:`SerialEngine` on every observable:
completed blocks, every tally field, every buffer's volatile data and
NVM shadow, the write-back statistics, and (for LP kernels) the
checksum-table contents those buffers hold. These tests pin that
contract across block orders and mid-kernel crashes.
"""

import dataclasses

import numpy as np
import pytest

import repro
from repro.errors import LaunchError
from repro.gpu.engine import BatchedEngine, SerialEngine, make_engine
from repro.megakv.kernels import KVInsertKernel, KVSearchKernel, alloc_results
from repro.megakv.store import MegaKVStore
from repro.workloads.spmv import SPMVWorkload

#: Engine specs under test. ``batched-g2`` puts a group boundary every
#: two blocks, so per-block application order is exercised even on
#: launches smaller than the default 256-block group.
ENGINES = ["batched", "batched-g2"]


def engine_for(spec):
    return BatchedEngine(group_size=2) if spec == "batched-g2" else spec


def assert_same_launch(ref, other):
    """Bit-identity of two (device, result) pairs from identical launches."""
    dev_a, res_a = ref
    dev_b, res_b = other
    assert res_a.completed_blocks == res_b.completed_blocks
    assert res_a.crashed == res_b.crashed
    for field in dataclasses.fields(res_a.tally):
        val_a = getattr(res_a.tally, field.name)
        val_b = getattr(res_b.tally, field.name)
        assert val_a == val_b, (field.name, val_a, val_b)
    assert dev_a.memory.buffers.keys() == dev_b.memory.buffers.keys()
    for name, buf in dev_a.memory.buffers.items():
        assert np.array_equal(buf.data, dev_b.memory[name].data), name
        if buf.shadow is not None:
            assert np.array_equal(
                buf.shadow, dev_b.memory[name].shadow
            ), name
    assert (dev_a.memory.write_stats.by_reason
            == dev_b.memory.write_stats.by_reason)
    assert (dev_a.memory.write_stats.by_buffer
            == dev_b.memory.write_stats.by_buffer)


def run_spmv(engine, config, order="sequential", crash_after=None):
    device = repro.Device(cache_capacity_lines=64, block_order=order,
                          seed=7, engine=engine_for(engine))
    work = SPMVWorkload(scale="small", seed=3)
    kernel = work.setup(device)
    lp_kernel = repro.LPRuntime(device, config).instrument(kernel)
    crash_plan = None
    if crash_after is not None:
        crash_plan = repro.CrashPlan(after_blocks=crash_after,
                                     persist_fraction=0.3, seed=5)
    result = device.launch(lp_kernel, crash_plan=crash_plan)
    return device, result


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("order", ["sequential", "shuffled"])
def test_spmv_parity(engine, order):
    config = repro.LPConfig.paper_best()
    assert_same_launch(run_spmv("serial", config, order),
                       run_spmv(engine, config, order))


@pytest.mark.parametrize("engine", ENGINES)
def test_spmv_parity_under_crash(engine):
    """A mid-kernel crash truncates identically under every engine."""
    config = repro.LPConfig.paper_best()
    ref = run_spmv("serial", config, crash_after=4)
    got = run_spmv(engine, config, crash_after=4)
    assert ref[1].crashed and got[1].crashed
    assert_same_launch(ref, got)


@pytest.mark.parametrize("engine", ENGINES)
def test_spmv_parity_hash_table_config(engine):
    """Quadratic-table inserts replay in block order: table bits match."""
    config = repro.LPConfig.naive_quadratic()
    assert_same_launch(run_spmv("serial", config, "shuffled"),
                       run_spmv(engine, config, "shuffled"))


def test_crashed_state_recovers_identically():
    """The batched engine's crash image is valid LP recovery input."""
    config = repro.LPConfig.paper_best()
    states = {}
    for engine in ("serial", "batched"):
        device = repro.Device(cache_capacity_lines=64, seed=7,
                              engine=engine)
        work = SPMVWorkload(scale="small", seed=3)
        kernel = work.setup(device)
        lp_kernel = repro.LPRuntime(device, config).instrument(kernel)
        plan = repro.CrashPlan(after_blocks=4, persist_fraction=0.3,
                               seed=5)
        device.launch(lp_kernel, crash_plan=plan)
        report = repro.RecoveryManager(device, lp_kernel).recover()
        work.verify(device)
        states[engine] = (device, report)
    dev_s, rep_s = states["serial"]
    dev_b, rep_b = states["batched"]
    assert rep_s.recovered_blocks == rep_b.recovered_blocks
    for name, buf in dev_s.memory.buffers.items():
        assert np.array_equal(buf.data, dev_b.memory[name].data), name


def run_megakv_search(engine):
    device = repro.Device(cache_capacity_lines=64, engine=engine_for(engine))
    store = MegaKVStore(device, capacity=512)
    rng = np.random.default_rng(11)
    keys = np.unique(
        rng.integers(1, 2 ** 40, size=400, dtype=np.uint64)
    )
    vals = rng.integers(1, 2 ** 40, size=keys.size, dtype=np.uint64)
    device.launch(KVInsertKernel(store, keys, vals))
    # Half hits, half misses, ragged final block.
    queries = np.concatenate([
        keys[:150],
        rng.integers(2 ** 41, 2 ** 42, size=131, dtype=np.uint64),
    ])
    alloc_results(device, "results", queries.size)
    search = KVSearchKernel(store, queries, "results",
                            threads_per_block=64)
    lp_kernel = repro.LPRuntime(
        device, repro.LPConfig.paper_best()
    ).instrument(search)
    result = device.launch(lp_kernel)
    return device, result, store


@pytest.mark.parametrize("engine", ENGINES)
def test_megakv_search_engine_parity(engine):
    dev_s, res_s, store_s = run_megakv_search("serial")
    dev_b, res_b, store_b = run_megakv_search(engine)
    assert_same_launch((dev_s, res_s), (dev_b, res_b))
    # Host-side probe accounting must match too, including the
    # dedup'd probe width when both hash choices coincide.
    assert (dataclasses.asdict(store_s.stats)
            == dataclasses.asdict(store_b.stats))


# ---------------------------------------------------------------------------
# Engine mechanics.


def test_batched_requires_commutative_checksums():
    """Order-sensitive lanes (Adler-32) disable batching, not correctness."""
    config = repro.LPConfig(
        checksums=(repro.ChecksumKind.ADLER32,),
        reduction=repro.ReductionMode.SEQUENTIAL_MEMORY,
    )
    assert_same_launch(run_spmv("serial", config),
                       run_spmv("batched", config))


def test_duplicate_block_ids_rejected():
    device = repro.Device()
    kernel = SPMVWorkload(scale="tiny", seed=3).setup(device)
    with pytest.raises(LaunchError, match="duplicate block ids"):
        device.launch(kernel, block_ids=[0, 1, 1])


def test_make_engine_resolution():
    assert isinstance(make_engine(None), SerialEngine)
    assert isinstance(make_engine("serial"), SerialEngine)
    assert isinstance(make_engine("batched"), BatchedEngine)
    engine = BatchedEngine(group_size=3)
    assert make_engine(engine) is engine
    with pytest.raises(LaunchError, match="unknown launch engine"):
        make_engine("warp-speculative")
    with pytest.raises(LaunchError, match="'serial' or 'batched'"):
        make_engine("parallel")


def test_device_accepts_engine_name():
    device = repro.Device(engine="batched")
    assert isinstance(device.engine, BatchedEngine)


def test_batched_group_size_must_be_positive():
    with pytest.raises(LaunchError, match="group_size >= 1"):
        BatchedEngine(group_size=0)
