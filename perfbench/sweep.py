"""Run the benchmark over several seeds and summarise the spread.

Usage (from the repository root)::

    python3 perfbench/sweep.py --workloads kv-mixed,lp-recover --seeds 1-10

Runs ``perfbench/run.py --trace 0`` once per (workload, seed), one at
a time, with ``run_seconds`` from ``BENCHMARK.json``. For every
end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(n=4)``), the number of runs, and the spread:
the inter-quartile distance as a share of the median, next to the
metric's bound. Writes the same summary, with each run's host record,
to ``.perfbench_work/sweep.json``. Exits 1 if a run fails or any
spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (values[0], None, values[0]))
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary: dict = {"seconds": seconds, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
                ok = False
                continue
            result = json.loads(lines[-1])
            record = json.loads(
                (ROOT / ".perfbench_work" / workload / "record.json").read_text())
            runs.append({"seed": seed, "result": result, "host": record["host"],
                         "commit": record["commit"]})
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                flush=True)
        rows = {}
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            if not values:
                continue
            row = summarise(values)
            row["bound"] = bound
            rows[name] = row
            flag = ""
            if row["spread"] > bound:
                flag, ok = "  OVER BOUND", False
            elif row["spread"] > bound / 3:
                flag = "  over bound/3"
            print(f"  {workload:18s} {name:12s} median={row['median']:<12.6g} "
                  f"q1={row['q1']:<12.6g} q3={row['q3']:<12.6g} n={row['n']:<3d} "
                  f"spread={row['spread']:.4f} bound={bound}{flag}")
        summary["workloads"][workload] = {"metrics": rows, "runs": runs}
    out = ROOT / ".perfbench_work" / "sweep.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1))
    print(f"summary: {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
