"""Exact-count self-check of the benchmark at a tiny size.

    python3 perfbench/smoke.py

Runs every workload twice on the same seed, shrunk to a few hundred
instances and a few iterations, once untraced and once traced, and checks
that each run is correct and that the counts a later change may cite
(graph builds, solves, graph bytes, model bytes, iterations) repeat
exactly. Timings are printed by the runs but never checked here.
"""

import sys

import run

EXACT = ("model_json_bytes", "graph.build_graph.calls",
         "solver.solve_reg.calls", "graph.stored_bytes", "solver.iterations")


def tiny(params):
    return dict(params, n=160, iters=3, repeats=2,
                alphas=params.get("alphas", ())[:2], nmi_floor=-1.0)


def counts(name, seed):
    seen = {}
    for trace in (False, True):
        result, info = run.run_workload(name, seed, 0.0, trace,
                                        tiny(run.WORKLOADS[name]))
        if not result["correct"] or result["failed"]:
            raise SystemExit(f"{name}: checks failed: {info['problems']}")
        seen.update({key: result["metrics"][key]["value"]
                     for key in EXACT if key in result["metrics"]})
    return seen


def main():
    sys.path.insert(0, str(run.ROOT / "src"))
    bad = 0
    for name in run.WORKLOADS:
        first, second = counts(name, 3), counts(name, 3)
        status = "ok" if first == second else "MISMATCH"
        bad += first != second
        print(f"{name:14s} {status} {first}" +
              ("" if first == second else f" vs {second}"))
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
