"""End-to-end and per-layer benchmark of the mvfuzzy library.

Run from the repository root:

    python3 perfbench/run.py --workload large_n --seed 0 --seconds 15 --trace 0

One process drives the public library API for one workload. It sets up
the data (fresh import of the package, `make_synthetic`, `save_dataset`,
`load_dataset`) several times and reports the median, and repeats the
workload's user path until `--seconds` have passed. It checks every result
and prints, as its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones, measured with no
instrumentation. With `--trace 1` the run alternates untraced and traced
passes of the user path; the traced passes wrap the library's module
attributes (see tracer.py) and give per-layer self times and call counts
per pass, and the gap between the two kinds of pass is reported as the
tracing overhead. The spans are written to perfbench/out/. The line
before the result records the sizes and the environment (BLAS library
and thread count, versions, nproc, commit) of the run.

BLAS runs at its default thread count. The library receives only the
generated data. As in the paper, which scores fixed data sets, each
workload's data set is fixed (make_synthetic with DATA_SEED); `--seed`
draws what the protocol randomizes: the model initialization and the
k-means seeds. Drawn from `--seed` too, the data made k-means time and NMI
vary up to threefold between seeds, through the random cluster layout.
"""

import argparse
import contextlib
import ctypes
import glob
import importlib
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path
from statistics import median, quantiles

import numpy as np

from tracer import Tracer, patched

PACKAGE = "mvfuzzy"
ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
N_CLUSTERS = 4
DATA_SEED = 0
SETUP_BATCH = 3
WARMUP_N = 200
REPLAY_ATOL = 1e-9
# Random labels score an NMI near 0 and every workload scored 0.86 or more
# at the seed commit: the floor catches a broken model.
NMI_FLOOR = 0.4

# Each workload stresses a different layer (the "why" is repeated in
# BENCHMARK.json). Every workload clusters 20 times, as the paper does.
# The 8/12-dim views get noise 1.5: at noise 3 they score an NMI of only
# 0.63-0.74 and k-means takes 1.7 times as long. The 40/60/80-dim views
# average noise 3 out (NMI 1).
WORKLOADS = {
    # The dense NxN kNN graph and its traces dominate the fit.
    "large_n": dict(kind="single", n=4000, dims=(8, 12), noise=1.5, rules=3,
                    iters=20, repeats=20, restarts=10, b_update="paper"),
    # Wide fuzzy designs (D=205/305/405): the consequent solves dominate.
    "wide_iter": dict(kind="single", n=1000, dims=(40, 60, 80), noise=3.0,
                      rules=5, iters=40, repeats=20, restarts=10,
                      b_update="paper"),
    # The paper protocol: five fits that redo the same preprocessing, and
    # 100 k-means calls. Library defaults except tol_stop=0, so that every
    # point runs all max_iter=100 iterations whatever the seed.
    "grid_protocol": dict(kind="grid", n=1500, dims=(8, 12), noise=1.5,
                          alphas=(0.25, 0.5, 1.0, 2.0, 4.0), repeats=20,
                          restarts=10),
    # The m dense NxN consistency solves dominate.
    "exact_b": dict(kind="single", n=1000, dims=(8, 12), noise=1.5, rules=3,
                    iters=30, repeats=20, restarts=10, b_update="exact"),
}

# Library functions traced, as "module.function". The library looks each
# of them up as a module attribute at call time, so every call is seen.
TRACED = (
    "data.load_dataset",
    "antecedent.fit_antecedents", "antecedent.fuzzy_map",
    "graph.build_graph", "graph.knn_similarity", "graph.laplacian",
    "solver.fit", "solver.prepare_inputs", "solver.update_common",
    "solver.update_specific", "solver.solve_reg", "solver.update_consistency",
    "solver.objective", "solver.update_view_weights",
    "representation.embed", "representation.export_rules",
    "representation.rules_predict",
    "model_io.save_model", "model_io.load_model",
    "evaluation.grid_search", "evaluation.evaluate_embedding",
    "evaluation.kmeans", "evaluation.nmi", "evaluation.acc",
    "evaluation.purity",
)
# Spans reported as per-layer self seconds and calls per pass; the ones in
# INCLUSIVE also report their total time, children included, because their
# cost sits partly in traced callees (solve_reg, fuzzy_map, build_graph).
LAYERS = tuple(t for t in TRACED if t not in (
    "graph.build_graph", "solver.fit", "evaluation.grid_search",
    "evaluation.evaluate_embedding"))
INCLUSIVE = ("solver.prepare_inputs", "solver.update_common",
             "solver.update_specific", "solver.update_consistency")


def stored_bytes(obj):
    """Bytes held in the arrays of an object: an ndarray, or the fields of
    a container such as GraphLaplacian (dense or scipy.sparse parts)."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if hasattr(obj, "__dict__"):
        return sum(stored_bytes(v) for v in vars(obj).values())
    return 0


def import_package():
    """Import the package from scratch, as a new process would."""
    for name in [n for n in sys.modules
                 if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    return importlib.import_module(PACKAGE)


class Bench:
    """One workload run: set-ups, repeated user-path passes, checks."""

    def __init__(self, params, seed, work, trace):
        self.params = params
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.sizes = {}
        # Records taken at span boundaries, keyed by span index.
        self.graph_bytes = {}
        self.fit_elapsed = {}
        self.tracer = None
        if trace:
            self.tracer = Tracer(PACKAGE, TRACED, on_return={
                "graph.build_graph": self._on_graph,
                "solver.fit": self._on_fit})

    def _on_graph(self, result, index):
        self.graph_bytes[index] = stored_bytes(result)

    def _on_fit(self, result, index):
        self.fit_elapsed[index] = [e.elapsed for e in result[1].entries]

    @contextlib.contextmanager
    def traced(self, name):
        """Tracer installed under a root span, yielding the span's index;
        nothing (None) when the run is untraced."""
        if self.tracer is None:
            yield None
            return
        with self.tracer.installed(), self.tracer.span(name) as root:
            yield root

    def fail(self, problems, weight=1):
        self.problems += problems
        self.failed += weight

    # -- set-up -----------------------------------------------------------

    def setup(self):
        """One data set-up: returns (seconds, package, dataset)."""
        p = self.params
        start = time.perf_counter()
        mv = import_package()
        with self.traced("bench.setup"):
            ds = mv.make_synthetic(n_instances=p["n"], n_views=len(p["dims"]),
                                   n_clusters=N_CLUSTERS, noise=p["noise"],
                                   seed=DATA_SEED, dims=list(p["dims"]))
            manifest = mv.save_dataset(ds, self.work / "data", seed=DATA_SEED)
            loaded = mv.load_dataset(manifest["views"], manifest["labels"])
        seconds = time.perf_counter() - start
        self.attempted += 1
        same = (np.array_equal(ds.labels, loaded.labels)
                and all(np.array_equal(a, b)
                        for a, b in zip(ds.views, loaded.views)))
        if not same:
            self.fail(["dataset CSV round trip changed the data"])
        return seconds, mv, loaded

    # -- checks -----------------------------------------------------------

    def check_model(self, mv, ds, trace, z, replay, reloaded):
        """Objective finite, rule replay equal to embed, save/load exact."""
        problems = []
        if not np.all(np.isfinite(trace.totals())):
            problems.append("objective total is not finite")
        gap = float(np.abs(replay - z).max())
        if not gap <= REPLAY_ATOL:
            problems.append(f"rule replay differs from embed by {gap:.3g}")
        if not np.array_equal(mv.embed(ds, reloaded).data, z):
            problems.append("reloaded model does not reproduce embed")
        return problems

    def check_quality(self, nmi):
        floor = self.params.get("nmi_floor", NMI_FLOOR)
        return [] if nmi > floor else [f"NMI {nmi:.4f} is not above {floor}"]

    # -- user paths -------------------------------------------------------

    def single_pass(self, mv, ds):
        """fit -> embed -> evaluate_embedding -> export_rules + rules_predict
        -> save_model + load_model; returns the pass's metrics or None."""
        p = self.params
        hp = mv.Hyperparams(seed=self.seed, n_rules=p["rules"],
                            max_iter=p["iters"], tol_stop=0.0,
                            b_update=p["b_update"])
        path = self.work / "model.json"
        self.attempted += 1
        start, cpu = time.perf_counter(), time.process_time()
        try:
            state, trace = mv.fit(ds, hp)
            fit_end = time.perf_counter()
            z = mv.embed(ds, state).data
            report = mv.evaluate_embedding(z, ds.labels, repeats=p["repeats"],
                                           restarts=p["restarts"],
                                           seed=self.seed)
            replay = mv.rules_predict(mv.export_rules(state), ds.views).data
            mv.save_model(state, path)
            reloaded = mv.load_model(path)
        except (mv.NumericFailure, mv.DataError) as err:
            self.fail([f"{type(err).__name__}: {err}"])
            return None
        out = {"run_s": time.perf_counter() - start,
               "cpu_s": time.process_time() - cpu,
               "fit_s": fit_end - start,
               "nmi": report.nmi, "acc": report.acc,
               "model_json_bytes": path.stat().st_size}
        self.record_sizes(ds, state, [trace])
        problems = (self.check_model(mv, ds, trace, z, replay, reloaded)
                    + self.check_quality(report.nmi))
        if problems:
            self.fail(problems)
            return None
        return out

    def grid_pass(self, mv, ds):
        """grid_search over alpha; every point's model is then checked like
        a single fit. Returns the pass's metrics or None."""
        p = self.params
        grid = [mv.Hyperparams(seed=self.seed, alpha=a, tol_stop=0.0)
                for a in p["alphas"]]
        fits, fit_s = [], 0.0
        fit = mv.evaluation.fit

        def timed_fit(*args, **kwargs):
            nonlocal fit_s
            start = time.perf_counter()
            try:
                result = fit(*args, **kwargs)
            finally:
                fit_s += time.perf_counter() - start
            fits.append(result)
            return result

        # Time the fits grid_search makes, and keep the fitted models for
        # the checks.
        self.attempted += len(grid)
        with patched(PACKAGE, fit, timed_fit):
            start, cpu = time.perf_counter(), time.process_time()
            result = mv.grid_search(ds, grid, repeats=p["repeats"],
                                    restarts=p["restarts"], seed=self.seed)
            run_s = time.perf_counter() - start
            cpu_s = time.process_time() - cpu

        errors = [f"grid point {pt.index}: {pt.error}"
                  for pt in result.points if pt.report is None]
        if errors:
            self.fail(errors, weight=len(errors))
            return None
        best = result.best["nmi"]
        nmi = result.points[best].report.nmi
        bad = 0
        path = self.work / "model.json"
        for index, (state, trace) in enumerate(fits):
            z = mv.embed(ds, state).data
            replay = mv.rules_predict(mv.export_rules(state), ds.views).data
            mv.save_model(state, path)
            if index == best:
                model_bytes = path.stat().st_size
            problems = self.check_model(mv, ds, trace, z, replay,
                                        mv.load_model(path))
            if index == best:
                problems += self.check_quality(nmi)
            if problems:
                self.problems += [f"grid point {index}: {m}"
                                  for m in problems]
                bad += 1
        self.record_sizes(ds, fits[0][0], [t for _, t in fits])
        if bad:
            self.failed += bad
            return None
        return {"run_s": run_s, "cpu_s": cpu_s, "fit_s": fit_s, "nmi": nmi,
                "acc": result.points[result.best["acc"]].report.acc,
                "model_json_bytes": model_bytes}

    def record_sizes(self, ds, state, traces):
        self.sizes = {
            "N": ds.n_instances, "V": ds.n_views, "view_dims": ds.view_dims,
            "D": [int(p.shape[0]) for p in state.p_common],
            "m": state.embed_dim, "rules": state.hp.n_rules,
            "k": N_CLUSTERS, "repeats": self.params["repeats"],
            "restarts": self.params["restarts"],
            "fits": len(traces),
            "iterations": sum(len(t.entries) - 1 for t in traces),
        }

    # -- driver -----------------------------------------------------------

    def pass_function(self):
        return (self.grid_pass if self.params["kind"] == "grid"
                else self.single_pass)

    def warm_up(self, mv):
        """One untimed pass on a small data set, so that lazy imports and
        BLAS thread start-up are not charged to the first timed pass."""
        p = self.params
        small = dict(p, n=WARMUP_N, repeats=2, alphas=p.get("alphas", ())[:1],
                     iters=2, nmi_floor=-1.0)
        warm = Bench(small, self.seed, self.work, trace=False)
        ds = mv.make_synthetic(n_instances=WARMUP_N, n_views=len(p["dims"]),
                               n_clusters=N_CLUSTERS, noise=p["noise"],
                               seed=DATA_SEED, dims=list(p["dims"]))
        warm.pass_function()(mv, ds)
        self.attempted += warm.attempted
        self.failed += warm.failed
        self.problems += warm.problems

    def run(self, seconds):
        """Set up, warm up, then alternate untraced and (when tracing)
        traced passes until `seconds` have passed. Set-ups are repeated
        between passes too: a shared machine's speed drifts over seconds,
        and one burst of set-ups would sample a single moment.
        Returns (median set-up seconds, untraced pass metrics, traced
        (metrics, root span) pairs)."""
        setup_times = []

        def set_up():
            for _ in range(SETUP_BATCH):
                seconds_taken, mv, ds = self.setup()
                setup_times.append(seconds_taken)
            return mv, ds

        mv, ds = set_up()
        self.warm_up(mv)
        one_pass = self.pass_function()
        untraced, traced = [], []
        deadline = time.perf_counter() + seconds
        i = 0
        while i < (2 if self.tracer else 1) or time.perf_counter() < deadline:
            if self.tracer is not None and i % 2 == 1:
                with self.traced("bench.pass") as root:
                    out = one_pass(mv, ds)
                if out is not None:
                    traced.append((out, root))
            else:
                out = one_pass(mv, ds)
                if out is not None:
                    untraced.append(out)
            mv, ds = set_up()
            i += 1
        return median(setup_times), untraced, traced

    # -- metrics ----------------------------------------------------------

    def end_to_end(self, setup_s, untraced):
        def med(key):
            return median([out[key] for out in untraced])

        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return {
            "setup_s": (setup_s, "s"),
            "run_s": (med("run_s"), "s"),
            "fit_s": (med("fit_s"), "s"),
            "cpu_s": (med("cpu_s"), "s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
            "nmi": (med("nmi"), "ratio"),
            "acc": (med("acc"), "ratio"),
            "model_json_bytes": (med("model_json_bytes"), "bytes"),
            "ok_ratio": (1.0 - self.failed / max(self.attempted, 1), "ratio"),
        }

    def layer_values(self, root):
        """Per-layer values of the set-up or pass rooted at span `root`."""
        spans = self.tracer.spans
        inside = self.tracer.descendants(root)
        totals = self.tracer.totals(inside)
        out = {}
        for name in LAYERS:
            own, calls, total = totals.get(name, (0.0, 0, 0.0))
            out[f"{name}.s"] = own
            out[f"{name}.calls"] = calls
            if name in INCLUSIVE:
                out[f"{name}.total_s"] = total
        graphs = [i for i in inside if spans[i][0] == "graph.build_graph"]
        out["graph.build_graph.calls"] = len(graphs)
        out["graph.stored_bytes"] = sum(self.graph_bytes[i] for i in graphs)
        fit_init, iteration_ms = 0.0, []
        for i in inside:
            if spans[i][0] != "solver.fit" or i not in self.fit_elapsed:
                continue
            elapsed = self.fit_elapsed[i]
            prep = sum(spans[j][2] - spans[j][1] for j in inside
                       if spans[j][3] == i
                       and spans[j][0] == "solver.prepare_inputs")
            fit_init += spans[i][2] - spans[i][1] - prep - elapsed[-1]
            iteration_ms += list(np.diff(elapsed) * 1000.0)
        out["solver.fit_init.s"] = fit_init
        out["solver.iterations"] = len(iteration_ms)
        return out, iteration_ms

    def per_layer(self, untraced, traced):
        """Medians over traced passes; data.load_dataset over set-ups."""
        passes, iteration_ms = [], []
        for _, root in traced:
            values, times = self.layer_values(root)
            passes.append(values)
            iteration_ms += times
        metrics = {k: median([v[k] for v in passes]) for k in passes[0]}
        setups = [self.layer_values(i)[0]
                  for i, span in enumerate(self.tracer.spans)
                  if span[0] == "bench.setup"]
        for key in ("data.load_dataset.s", "data.load_dataset.calls"):
            metrics[key] = median([v[key] for v in setups])
        q = quantiles(iteration_ms, n=4, method="inclusive")
        metrics["solver.iteration_ms.p50"] = q[1]
        metrics["solver.iteration_ms.p75"] = q[2]
        base = median([out["run_s"] for out in untraced])
        metrics["trace.overhead_share"] = (
            median([out["run_s"] for out, _ in traced]) / base - 1.0)
        return {k: (v, layer_unit(k)) for k, v in metrics.items()}


def layer_unit(key):
    if key.endswith(("_s", ".s")):
        return "s"
    if key.endswith(("calls", "iterations")):
        return "count"
    units = {"graph.stored_bytes": "bytes", "trace.overhead_share": "ratio"}
    return units.get(key, "ms")


# -- environment --------------------------------------------------------------

def blas_info(module):
    """BLAS library a package was built against and its live thread count."""
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (AttributeError, KeyError, TypeError):
        blas = {}
    threads = None
    libs = Path(module.__file__).parent.parent / f"{module.__name__}.libs"
    for lib in glob.glob(str(libs / "*openblas*.so*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": blas.get("name"), "version": blas.get("version"),
            "threads": threads}


def git_commit(root):
    """HEAD commit read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "numpy_blas": blas_info(np), "scipy_blas": blas_info(scipy),
        "blas_env": {k: v for k, v in os.environ.items()
                     if k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                              "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(ROOT),
    }


def run_workload(name, seed, seconds, trace, params=None):
    """Run one workload in this process; returns (result, info)."""
    params = params or WORKLOADS[name]
    OUT.mkdir(parents=True, exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    bench = Bench(params, seed, work, trace)
    try:
        setup_s, untraced, traced = bench.run(seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not untraced or (trace and not traced):
        raise RuntimeError("no pass succeeded: " + "; ".join(bench.problems))
    metrics = (bench.per_layer(untraced, traced) if trace
               else bench.end_to_end(setup_s, untraced))
    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    info = {"workload": name, "seed": seed, "seconds": seconds,
            "trace": int(trace),
            "run_s": [out["run_s"] for out in untraced],
            "traced_run_s": [out["run_s"] for out, _ in traced],
            "sizes": bench.sizes, "environment": environment(),
            "problems": bench.problems}
    if trace:
        spans_file = OUT / f"spans_{name}_seed{seed}.json"
        spans_file.write_text(json.dumps(bench.tracer.dump()))
        info["spans"] = str(spans_file.relative_to(ROOT))
    return result, info


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    src = ROOT / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        sys.exit(f"perfbench: no {PACKAGE} package under {src}")
    sys.path.insert(0, str(src))

    result, info = run_workload(args.workload, args.seed, args.seconds,
                                bool(args.trace))
    for problem in info["problems"]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
