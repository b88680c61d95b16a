"""Run one workload of the benchmark and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload kv-mixed --seed 1 --seconds 10 --trace 0

Prints one line per metric (name, value, unit, sample count), writes a
run record (host, seed, commit, every metric with its quartiles) to
``.perfbench_work/<workload>/record.json``, and prints as its last line
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
workload for half the time plain and half with the layer wrappers
installed, and reports the per-layer metrics. Exits 1 when a
correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import repro  # noqa: E402

if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"repro was imported from {repro.__file__}, not from "
                     f"{ROOT / 'src'}; the benchmark measures the checkout")

import kvbench  # noqa: E402
import lpbench  # noqa: E402
from tracing import Tracer, install, layer_metrics  # noqa: E402

WORKLOADS = (*kvbench.WORKLOADS, "lp-recover")

END_TO_END = {
    "setup_s": "s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "peak_rps": "1/s",
    "write_amp": "B/B",
    "launch_s": "s",
    "recover_s": "s",
}

PER_LAYER = {
    "client.late_ms_p99": "ms",
    "service.window.count": "count",
    "service.window.size_mean": "count",
    "service.window.self_ms": "ms/unit",
    "service.window.uncovered_frac": "frac",
    "service.queue_wait_ms_p50": "ms",
    "service.queue_wait_ms_p99": "ms",
    "service.idle_frac": "frac",
    "service.partition.self_ms": "ms/unit",
    "service.subbatches_per_window": "count/unit",
    "service.wal.self_ms": "ms/unit",
    "service.failed": "count",
    "megakv.launches_per_window": "count/unit",
    "megakv.insert.self_ms": "ms/unit",
    "megakv.delete.self_ms": "ms/unit",
    "megakv.search.self_ms": "ms/unit",
    "megakv.checkpoint.self_ms": "ms/unit",
    "core.instrument.self_ms": "ms/unit",
    "core.validate.total_ms": "ms/unit",
    "core.recover.total_ms": "ms/unit",
    "core.failed_blocks": "count/unit",
    "core.recovered_frac": "frac",
    "gpu.launch.count": "count/unit",
    "gpu.launch.self_ms": "ms/unit",
    "gpu.drain.self_ms": "ms/unit",
    "gpu.drain.lines": "count/unit",
    "gpu.alloc_free.count": "count/unit",
    "gpu.alloc_free.self_ms": "ms/unit",
    "nvm.attach_detach.count": "count/unit",
    "nvm.attach_detach.self_ms": "ms/unit",
    "nvm.attach_detach.shard_self_ms": "ms/unit",
    "nvm.attach_detach.window_share": "frac",
    "nvm.writeback.commits": "count/unit",
    "nvm.writeback.lines": "count/unit",
    "nvm.writeback.self_ms": "ms/unit",
    "nvm.sync.self_ms": "ms/unit",
    "nvm.open.total_ms": "ms",
    "nvm.lines_per_request": "count",
    "trace.overhead.peak_rps": "x",
    "trace.overhead.launch_s": "x",
}


def quartiles(values) -> dict:
    """Median, quartiles and count of a sample; a bare count for
    metrics that are one ratio over the run."""
    if isinstance(values, int):
        return {"n": values}
    values = list(values)
    if not values:
        return {"median": 0.0, "q1": 0.0, "q3": 0.0, "n": 0}
    q1, med, q3 = np.quantile(values, [0.25, 0.5, 0.75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3),
            "n": len(values)}


def host_fingerprint() -> dict:
    from repro.gpu.shm import cpu_budget

    return {
        "nproc": os.cpu_count(),
        "cpu_budget": cpu_budget(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

def run_kv(name: str, seed: int, seconds: float, work: Path,
           trace: bool) -> dict:
    plain = kvbench.run_pass(name, seed, seconds, work, trace=False)
    out = {
        "attempted": plain["attempted"], "failed": plain["failed"],
        "problems": plain["problems"], "metrics": plain["metrics"],
        "samples": {name: quartiles(v) for name, v in plain["samples"].items()},
        "working_set": plain["working_set"],
        "failures": {"shed": plain["shed"]},
    }
    if trace:
        traced = kvbench.run_pass(name, seed, seconds, work, trace=True)
        out["attempted"] += traced["attempted"]
        out["failed"] += traced["failed"]
        out["problems"] += traced["problems"]
        out["layers"] = traced["layers"]
        out["spans"] = traced["spans"]
        out["traced_metrics"] = traced["metrics"]
    return out


def lp_metrics(res: dict) -> tuple[dict, dict]:
    cycle_ms = [s * 1e3 for s in res["cycle_s"]]
    metrics = {
        "setup_s": float(np.median(res["setup_s"])),
        "p50_ms": float(np.quantile(cycle_ms, 0.50)),
        "p99_ms": float(np.quantile(cycle_ms, 0.99)),
        "peak_rps": len(cycle_ms) / sum(res["cycle_s"]),
        "write_amp": float(np.median(res["write_amp"])),
        "launch_s": float(np.median(res["launch_s"])),
        "recover_s": float(np.median(res["recover_s"])),
    }
    samples = {
        "setup_s": quartiles(res["setup_s"]),
        "p50_ms": quartiles(cycle_ms), "p99_ms": quartiles(cycle_ms),
        "peak_rps": quartiles(len(cycle_ms)),
        "write_amp": quartiles(res["write_amp"]),
        "launch_s": quartiles(res["launch_s"]),
        "recover_s": quartiles(res["recover_s"]),
    }
    return metrics, samples


def run_lp(seed: int, seconds: float, work: Path, trace: bool) -> dict:
    plain = lpbench.run_pass(seed, seconds, work)
    metrics, samples = lp_metrics(plain)
    out = {
        "attempted": plain["reps"], "failed": len(plain["problems"]),
        "problems": plain["problems"], "metrics": metrics,
        "samples": samples, "working_set": plain["working_set"],
        "failures": {},
    }
    if trace:
        tracer = install(Tracer())
        try:
            traced = lpbench.run_pass(seed, seconds, work)
        finally:
            tracer.remove()
        out["attempted"] += traced["reps"]
        out["failed"] += len(traced["problems"])
        out["problems"] += traced["problems"]
        out["layers"] = layer_metrics(tracer.spans, units=traced["reps"])
        out["layers"]["client.late_ms_p99"] = 0.0
        out["spans"] = tracer.spans
        out["traced_metrics"], _ = lp_metrics(traced)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", default=None,
                        help="scratch directory, emptied first (default: "
                             ".perfbench_work/<workload> in the checkout)")
    args = parser.parse_args(argv)

    work = Path(args.work) if args.work else ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    trace = bool(args.trace)
    # A traced run measures a plain pass and a traced pass, half as
    # long each, so that it takes as long as a plain run.
    seconds = args.seconds / 2 if trace else args.seconds
    if args.workload == "lp-recover":
        res = run_lp(args.seed, seconds, work, trace)
    else:
        res = run_kv(args.workload, args.seed, seconds, work, trace)

    if trace:
        layers = dict(res["layers"])
        plain, traced = res["metrics"], res["traced_metrics"]
        layers["trace.overhead.peak_rps"] = traced["peak_rps"] / plain["peak_rps"]
        layers["trace.overhead.launch_s"] = traced["launch_s"] / plain["launch_s"]
        reported = {name: layers[name] for name in PER_LAYER}
        units = PER_LAYER
    else:
        reported = {name: res["metrics"][name] for name in END_TO_END}
        units = END_TO_END
    correct = not res["problems"]

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "commit": git_commit(), "host": host_fingerprint(),
        "working_set": res["working_set"],
        "correct": correct, "problems": res["problems"][:50],
        "attempted": res["attempted"], "failed": res["failed"],
        "failures": res["failures"],
        "metrics": {name: {"value": res["metrics"][name],
                           "unit": END_TO_END[name],
                           **res["samples"].get(name, {})}
                    for name in END_TO_END},
    }
    if trace:
        record["layers"] = {name: {"value": layers[name],
                                   "unit": PER_LAYER[name]}
                            for name in PER_LAYER}
        with open(work / "spans.json", "w") as fh:
            json.dump(res["spans"], fh)
    with open(work / "record.json", "w") as fh:
        json.dump(record, fh, indent=1)

    for name, value in reported.items():
        n = record["metrics"].get(name, {}).get("n")
        count = f"  (n={n})" if n is not None else ""
        print(f"{args.workload:18s} {name:32s} {value:14.6g} {units[name]}{count}")
    print(f"{args.workload:18s} fail_frac {res['failed']}/{res['attempted']}")
    for problem in res["problems"][:20]:
        print(f"CHECK FAILED: {problem}")
    print(f"record: {work / 'record.json'}")
    print(json.dumps({
        "correct": correct,
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in reported.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
