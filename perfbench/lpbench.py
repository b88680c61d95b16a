"""The ``lp-recover`` workload: the paper's crash → recover pipeline.

No service: LP-instrumented SPMV (1024 blocks x 64 threads, 8
non-zeros per row) on fresh mapped heaps with a small write-back
cache, on the ``batched`` engine. Each repetition

1. sets up heap A and launches the kernel cleanly, then drains
   (``launch_s``; the drained output is the crash-free image);
2. sets up heap B and launches the kernel again, crashing once half
   the blocks have run;
3. closes heap B, cold-reopens it, adopts it into the crashed device's
   memory and runs ``RecoveryManager.recover`` (``recover_s``);
4. drains, then checks the recovered output against the crash-free
   image bit for bit and against a host numpy reference, and checks
   that the failed-block set is the one every repetition saw.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

N_BLOCKS, THREADS, NNZ = 1024, 64, 8
N_ROWS = N_BLOCKS * THREADS
CACHE_LINES = 64
LINE_BYTES = 128
MIN_REPS = 3


def make_inputs(seed: int):
    """CSR values, column indices and the dense vector, from ``seed``."""
    rng = np.random.default_rng([seed, 0x5B3])
    cols = rng.integers(0, N_ROWS, size=N_ROWS * NNZ).astype(np.int32)
    vals = rng.random(N_ROWS * NNZ, dtype=np.float32)
    x = rng.random(N_ROWS, dtype=np.float32)
    return vals, cols, x


def reference(vals, cols, x) -> np.ndarray:
    """Host numpy SPMV, accumulated in the kernel's order."""
    vals = vals.reshape(N_ROWS, NNZ)
    cols = cols.reshape(N_ROWS, NNZ)
    y = np.zeros(N_ROWS, dtype=np.float32)
    for k in range(NNZ):
        y += vals[:, k] * x[cols[:, k]]
    return y


def setup(seed: int, path: Path):
    """Inputs, a fresh heap, the device and the instrumented kernel."""
    import repro
    from repro.workloads.spmv import SPMVKernel

    vals, cols, x = make_inputs(seed)
    heap = repro.MappedShadow.create(path)
    device = repro.Device(engine="batched", shadow=heap,
                          cache_capacity_lines=CACHE_LINES)
    device.alloc("spmv_vals", (vals.size,), np.float32, init=vals)
    device.alloc("spmv_cols", (cols.size,), np.int32, init=cols)
    device.alloc("spmv_x", (N_ROWS,), np.float32, init=x)
    device.alloc("spmv_y", (N_ROWS,), np.float32)
    kernel = repro.LPRuntime(device, repro.LPConfig.paper_best()).instrument(
        SPMVKernel(N_ROWS, NNZ, THREADS))
    return heap, device, kernel


def run_pass(seed: int, seconds: float, work: Path) -> dict:
    """Repeat the pipeline for ``seconds``; returns samples and checks."""
    import repro

    work.mkdir(parents=True, exist_ok=True)
    path_a, path_b = work / "clean.heap", work / "crash.heap"
    expected = reference(*make_inputs(seed))
    setup_s, launch_s, recover_s, cycle_s, write_amp = [], [], [], [], []
    failed_sets: list[list[int]] = []
    problems: list[str] = []
    t_stop = time.perf_counter() + seconds
    reps = 0
    while reps < MIN_REPS or time.perf_counter() < t_stop:
        reps += 1
        t = time.perf_counter()
        heap_a, dev_a, kernel_a = setup(seed, path_a)
        setup_s.append(time.perf_counter() - t)

        lines0 = heap_a.lines_written
        t = time.perf_counter()
        dev_a.launch(kernel_a)
        dev_a.drain()
        t_launch = time.perf_counter() - t
        launch_s.append(t_launch)
        y_bytes = dev_a.memory["spmv_y"].nbytes
        write_amp.append((heap_a.lines_written - lines0) * LINE_BYTES / y_bytes)
        clean = dev_a.memory["spmv_y"].shadow.copy()
        heap_a.close()
        if not np.array_equal(clean, expected):
            problems.append(f"repetition {reps}: crash-free output differs "
                            "from the numpy reference")

        t = time.perf_counter()
        heap_b, dev_b, kernel_b = setup(seed, path_b)
        setup_s.append(time.perf_counter() - t)
        t = time.perf_counter()
        dev_b.launch(kernel_b, crash_plan=repro.CrashPlan(
            after_blocks=N_BLOCKS // 2))
        t_crash = time.perf_counter() - t
        heap_b.close()

        t = time.perf_counter()
        reopened = repro.MappedShadow.open(path_b)
        reopened.adopt(dev_b.memory)
        report = repro.RecoveryManager(dev_b, kernel_b).recover()
        t_recover = time.perf_counter() - t
        recover_s.append(t_recover)
        cycle_s.append(t_launch + t_crash + t_recover)

        dev_b.drain()
        y = dev_b.memory["spmv_y"]
        if not (np.array_equal(y.shadow, clean) and np.array_equal(y.data, clean)):
            problems.append(f"repetition {reps}: recovered output differs "
                            "from the crash-free image")
        failed_sets.append(list(report.initial.failed_blocks))
        if failed_sets[-1] != failed_sets[0]:
            problems.append(f"repetition {reps}: failed-block set differs "
                            "from repetition 1")
        reopened.close()
    for path in (path_a, path_b):
        path.unlink(missing_ok=True)
    return {
        "reps": reps,
        "setup_s": setup_s, "launch_s": launch_s, "recover_s": recover_s,
        "cycle_s": cycle_s, "write_amp": write_amp,
        "failed_blocks": len(failed_sets[0]),
        "problems": problems,
        "working_set": {
            "input_bytes": N_ROWS * NNZ * 8 + N_ROWS * 4,
            "output_bytes": N_ROWS * 4,
            "cache_bytes": CACHE_LINES * LINE_BYTES,
        },
    }
