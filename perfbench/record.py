"""Run the benchmark over several seeds and summarize the spread.

    python3 perfbench/record.py --seeds 0 1 2 3 4 [--trace 0 1] \
        [--workloads large_n exact_b] [--out perfbench/results/X.json]

Each (workload, trace mode, seed) runs as its own `run.py` process for the
`run_seconds` of BENCHMARK.json. For every metric the summary prints the
median over seeds and the spread, (q3 - q1) / median with the quartiles of
`statistics.quantiles(values, n=4)`, next to the metric's bound. `--out`
keeps every run's sizes, environment and result in one JSON file.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds, trace):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return {"info": json.loads(lines[-2]), "result": json.loads(lines[-1]),
            "wall_s": time.perf_counter() - start}


def spread(values):
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / mid if mid else float("inf")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--trace", type=int, nargs="+", choices=(0, 1),
                        default=[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    runs = []
    for workload in args.workloads:
        for trace in args.trace:
            rows = []
            for seed in args.seeds:
                run = run_once(workload, seed, spec["run_seconds"], trace)
                runs.append(run)
                rows.append(run["result"])
                print(f"{workload} trace {trace} seed {seed}: "
                      f"correct={run['result']['correct']} failed="
                      f"{run['result']['failed']}/{run['result']['attempted']}"
                      f" in {run['wall_s']:.1f} s",
                      flush=True)
            for name in rows[0]["metrics"]:
                values = [r["metrics"][name]["value"] for r in rows]
                line = (f"  {workload:14s} {name:38s} "
                        f"median {statistics.median(values):.6g}")
                if len(values) > 1:
                    line += f"  spread {spread(values):.4f}"
                if bounds.get(name) is not None:
                    line += f"  bound {bounds[name]}"
                print(line, flush=True)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(runs, indent=1) + "\n")


if __name__ == "__main__":
    main()
