"""Acceptance suite.

One test per criterion, each at its stated tolerance, each printing a
single pass/fail line (run with `pytest tests/test_acceptance.py -v -s`).
"""

import time

import numpy as np
import pytest

import mvfuzzy.cli as cli
from conftest import random_instance, surrogate_audit
from mvfuzzy.antecedent import (AntecedentBank, estimate_widths,
                                firing_levels, varpart_centers)
from mvfuzzy.data import make_synthetic
from mvfuzzy.evaluation import acc, evaluate_embedding, nmi, purity
from mvfuzzy.graph import build_graph
from mvfuzzy.representation import (_linguistic_labels, embed, export_rules,
                                    rules_predict)
from mvfuzzy.solver import (Hyperparams, fit, graph_traces, irls_diag,
                            objective, surrogate, update_common,
                            update_consistency, update_specific,
                            update_view_weights)
from oracles import (acc_oracle, fd_gradient, nmi_oracle,
                     pairwise_smoothness, purity_oracle, scalar_objective)


def report(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance {number:02d}] {description}{suffix}: {status}")
    assert ok, f"criterion {number} failed: {description}{suffix}"


@pytest.fixture(scope="module")
def standard_dataset():
    return make_synthetic(n_instances=200, n_views=2, n_clusters=4,
                          noise=0.1, seed=7)


@pytest.fixture(scope="module")
def standard_fit(standard_dataset):
    return fit(standard_dataset, Hyperparams())


def test_c01_width_normalization():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(10, 201))
        d = int(rng.integers(1, 301))
        k = int(rng.choice([1, 3, 5]))
        x = rng.normal(scale=float(rng.uniform(0.5, 3.0)), size=(n, d))
        widths = estimate_widths(x, varpart_centers(x, min(k, n)))
        worst = max(worst, float(np.abs(widths.sum(axis=0) - 1.0).max()))
    elapsed = time.perf_counter() - start
    report(1, "width columns sum to 1 on 50 random datasets",
           worst <= 1e-10 and elapsed < 5.0,
           f"max |sum-1| = {worst:.2e}, {elapsed:.2f}s")


def test_c02_firing_normalization_under_stress():
    rng = np.random.default_rng(102)
    d = 300
    bank = AntecedentBank(centers=rng.random((3, d)),
                          widths=np.full((3, d), 1e-8))
    x = rng.random((40, d)) + 1000.0
    levels = firing_levels(x, bank)
    finite = bool(np.all(np.isfinite(levels)))
    sums = levels.sum(axis=1)
    worst = float(np.abs(sums - 1.0).max())
    report(2, "firing levels stay normalized at d=300, floor widths",
           finite and worst <= 1e-9, f"max |sum-1| = {worst:.2e}")


def test_c03_laplacian_suite():
    rng = np.random.default_rng(103)
    worst_sym = worst_row = worst_eig = worst_tr = 0.0
    for n, d, k in ((20, 3, 3), (90, 10, 5), (200, 6, 7)):
        g = build_graph(rng.normal(size=(n, d)), n_neighbors=k)
        s, lap = g.dense()
        worst_sym = max(worst_sym, float(np.abs(s - s.T).max()))
        worst_row = max(worst_row, float(np.abs(lap.sum(axis=1)).max()))
        worst_eig = min(worst_eig, float(np.linalg.eigvalsh(lap).min()))
        z = rng.normal(size=(n, 3))
        quad = float(np.trace(z.T @ lap @ z))
        brute = pairwise_smoothness(s, z)
        worst_tr = max(worst_tr, abs(quad - brute) / abs(brute))
    ok = (worst_sym <= 1e-10 and worst_row <= 1e-10
          and worst_eig >= -1e-8 and worst_tr <= 1e-10)
    report(3, "Laplacian symmetry/row-sum/PSD/trace-identity suite", ok,
           f"sym {worst_sym:.1e}, rows {worst_row:.1e}, "
           f"min eig {worst_eig:.1e}, trace rel {worst_tr:.1e}")


def test_c04_objective_matches_scalar_oracle():
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(20):
        state, b, problem, graphs, design = random_instance(
            rng, n=10, n_views=2, m=2, n_rules=2,
            alpha=float(rng.uniform(0.1, 2.0)),
            beta=float(rng.uniform(0.1, 2.0)),
            gamma=float(rng.uniform(0.1, 2.0)),
            delta=float(rng.uniform(0.5, 2.0)))
        terms = objective(state, problem, b)
        oracle = scalar_objective(
            state.p_common, state.p_specific, b,
            state.view_weights, design,
            [g.dense()[1] for g in graphs],
            state.hp.alpha, state.hp.beta, state.hp.gamma, state.hp.delta)
        for name in ("graph", "orthogonality", "consistency", "b_sparsity",
                     "pc_sparsity", "ps_sparsity", "entropy"):
            denom = max(abs(oracle[name]), 1e-12)
            worst = max(worst,
                        abs(getattr(terms, name) - oracle[name]) / denom)
        worst = max(worst,
                    abs(terms.total - oracle["total"])
                    / max(abs(oracle["total"]), 1e-12))
    report(4, "objective equals scalar-loop oracle on 20 instances",
           worst <= 1e-10, f"max rel err = {worst:.2e}")


def test_c05_update_stationarity():
    rng = np.random.default_rng(105)
    worst = 0.0
    for trial in range(3):
        state, b, problem, _, _ = random_instance(
            rng, n=8, n_views=2, m=2, n_rules=2, alpha=0.6, beta=0.9,
            gamma=0.5, b_update="exact")

        f_c = irls_diag(state.p_common[0], state.hp.eps_irls)
        new_pc = update_common(state, 0, problem, b, f_diag=f_c)
        fn = lambda p: surrogate(("common", 0), p, state, problem, b, f_c)
        scale = np.abs(fd_gradient(fn, state.p_common[0])).max()
        worst = max(worst, np.abs(fd_gradient(fn, new_pc)).max() / scale)

        f_s = irls_diag(state.p_specific[0], state.hp.eps_irls)
        new_ps = update_specific(state, 0, problem, f_diag=f_s)
        fn = lambda p: surrogate(("specific", 0), p, state, problem, b, f_s)
        scale = np.abs(fd_gradient(fn, state.p_specific[0])).max()
        worst = max(worst, np.abs(fd_gradient(fn, new_ps)).max() / scale)

        f_b = irls_diag(b, state.hp.eps_irls)
        new_b = update_consistency(state, problem, f_diag=f_b)
        fn = lambda b: surrogate(("consistency", None), b, state, problem,
                                 None, f_b)
        scale = np.abs(fd_gradient(fn, b)).max()
        worst = max(worst, np.abs(fd_gradient(fn, new_b)).max() / scale)
    report(5, "frozen-reweighting updates zero their surrogate gradients",
           worst <= 1e-5, f"max rel gradient = {worst:.2e}")


def test_c06_view_weight_exactness():
    rng = np.random.default_rng(106)
    worst_gap = 0.0
    worst_sum = 0.0
    for delta in (0.3, 1.0, 4.0):
        state, _, problem, _, _ = random_instance(
            rng, n_views=2, delta=delta)
        traces = graph_traces(state, problem)
        w_star = update_view_weights(traces, delta)

        def energy(w):
            ent = sum(x * np.log(x) for x in w if x > 0)
            return float(w @ traces) + delta * ent

        grid = np.arange(0.0, 1.0 + 1e-9, 1e-3)
        best_grid = min(energy(np.array([g, 1.0 - g])) for g in grid)
        worst_gap = max(worst_gap, energy(w_star) - best_grid)
        worst_sum = max(worst_sum, abs(float(w_star.sum()) - 1.0))
    report(6, "weight update beats the 1e-3 simplex grid and sums to 1",
           worst_gap <= 1e-9 and worst_sum <= 1e-12,
           f"max gap = {worst_gap:.2e}, max |sum-1| = {worst_sum:.2e}")


def test_c07_convergence(standard_dataset):
    start = time.perf_counter()
    hp = Hyperparams(max_iter=60, tol_stop=0.0, b_update="paper")
    _, trace = fit(standard_dataset, hp)
    totals = trace.totals()
    drop = totals[60] < totals[1]
    rel_last5 = np.abs(np.diff(totals[-6:])) / np.abs(totals[-6:-1])
    settled = bool(rel_last5.max() <= 1e-3)
    frac = float((np.diff(totals) <= 0).mean())

    hp_exact = Hyperparams(max_iter=60, tol_stop=0.0, b_update="exact")
    audit = surrogate_audit(lambda: fit(standard_dataset, hp_exact))
    violations = 0
    checks = 0
    for blocks in audit:
        for before, after in blocks.values():
            checks += 1
            if after > before + 1e-9 * (1.0 + abs(before)):
                violations += 1
    elapsed = time.perf_counter() - start
    # 60 iterations of 5 blocks: the map and two consequents per view.
    ok = (drop and settled and frac >= 0.95 and violations == 0
          and checks == 60 * 5 and elapsed < 60.0)
    report(7, "convergence within 60 iterations",
           ok, f"obj[1]={totals[1]:.3f} obj[60]={totals[60]:.3f}, "
               f"last-5 rel {rel_last5.max():.1e}, non-increase "
               f"{frac:.1%}, surrogate viol {violations}/{checks}, "
               f"{elapsed:.1f}s")


def test_c08_end_to_end_quality(standard_dataset, standard_fit):
    state, _ = standard_fit
    z = embed(standard_dataset, state)
    rep = evaluate_embedding(z.data, standard_dataset.labels,
                             n_clusters=4, repeats=20, restarts=10, seed=0)
    ok = rep.nmi >= 0.9 and rep.acc >= 0.9
    report(8, "synthetic end-to-end mean NMI and ACC at or above 0.9",
           ok, f"NMI {rep.nmi:.4f}, ACC {rep.acc:.4f}")


def test_c09_ablation_wiring(standard_dataset, standard_fit):
    state_full, _ = standard_fit
    z_full = embed(standard_dataset, state_full)
    nmi_full = evaluate_embedding(z_full.data, standard_dataset.labels,
                                  repeats=20, restarts=10, seed=0).nmi

    hp_c = Hyperparams(variant="common_only")
    _, trace_c = fit(standard_dataset, hp_c)
    common_ok = (np.all(trace_c.term_values("orthogonality") == 0.0)
                 and np.all(trace_c.term_values("ps_sparsity") == 0.0))

    hp_n = Hyperparams(variant="no_consistency")
    state_n, trace_n = fit(standard_dataset, hp_n)
    nocons_ok = (np.all(trace_n.term_values("consistency") == 0.0)
                 and np.all(trace_n.term_values("b_sparsity") == 0.0))
    z_n = embed(standard_dataset, state_n)
    nmi_nocons = evaluate_embedding(z_n.data, standard_dataset.labels,
                                    repeats=20, restarts=10, seed=0).nmi
    ok = common_ok and nocons_ok and nmi_full >= nmi_nocons
    report(9, "ablation wiring and full >= no-consistency ordering",
           ok, f"full NMI {nmi_full:.4f} vs no-consistency "
               f"{nmi_nocons:.4f}")


def test_c10_metric_oracles():
    rng = np.random.default_rng(110)
    exact = True
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(4, 25))
        pred = rng.integers(0, int(rng.integers(1, 6)), size=n)
        true = rng.integers(0, int(rng.integers(1, 6)), size=n)
        if acc(pred, true) != acc_oracle(pred.tolist(), true.tolist()):
            exact = False
        worst = max(worst, abs(nmi(pred, true)
                               - nmi_oracle(pred.tolist(), true.tolist())))
        worst = max(worst, abs(purity(pred, true)
                               - purity_oracle(pred.tolist(),
                                               true.tolist())))
        pred_perm = rng.permutation(pred.max() + 1)[pred]
        true_perm = rng.permutation(true.max() + 1)[true]
        for metric in (nmi, acc, purity):
            worst = max(worst, abs(metric(pred, true)
                                   - metric(pred_perm, true_perm)))
    report(10, "metrics match oracles over 1000 trials",
           exact and worst <= 1e-12,
           f"acc exact = {exact}, max dev = {worst:.2e}")


def test_c11_rule_export_fidelity(standard_dataset, standard_fit):
    state, _ = standard_fit
    export = export_rules(state)
    direct = embed(standard_dataset, state).data
    replayed = rules_predict(export, standard_dataset.views).data
    worst = float(np.abs(replayed - direct).max())
    labels = _linguistic_labels(np.array([0.0858, 0.0458, 0.0760]))
    labels_ok = labels == ["High", "Low", "Middle"]
    report(11, "rule export replays exactly and labels rank correctly",
           worst <= 1e-10 and labels_ok,
           f"max |diff| = {worst:.2e}, labels = {labels}")


def test_c12_cli_determinism(tmp_path):
    data_dir = tmp_path / "data"
    assert cli.main(["synth", "--out", str(data_dir), "--n", "150",
                     "--clusters", "4", "--seed", "7"]) == 0
    args = ["--views", str(data_dir / "view_0.csv"),
            str(data_dir / "view_1.csv"),
            "--labels", str(data_dir / "labels.csv"),
            "--seed", "13", "--iters", "30"]
    for run in ("one", "two"):
        assert cli.main(["fit", *args,
                         "--out", str(tmp_path / run)]) == 0
    model_same = ((tmp_path / "one" / "model.json").read_bytes()
                  == (tmp_path / "two" / "model.json").read_bytes())
    trace_same = ((tmp_path / "one" / "trace.csv").read_bytes()
                  == (tmp_path / "two" / "trace.csv").read_bytes())
    report(12, "identical seed and config give bit-identical artifacts",
           model_same and trace_same,
           f"model {model_same}, trace {trace_same}")
