"""The benchmark's tracer records nothing for a target it cannot find, so
every traced name must resolve to a function of the library, and the
library must reach it through that module attribute."""

import ast
import contextlib
import importlib
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from conftest import random_instance
from mvfuzzy import evaluation, solver
from mvfuzzy.solver import Hyperparams

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def traced_targets():
    tree = ast.parse(RUN_PY.read_text(encoding="utf-8"))
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["TRACED"]):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no TRACED tuple")


def test_traced_targets_resolve_to_library_functions():
    targets = traced_targets()
    assert targets
    missing = []
    for target in targets:
        module_name, _, attr = target.partition(".")
        module = importlib.import_module(f"mvfuzzy.{module_name}")
        if not callable(getattr(module, attr, None)):
            missing.append(target)
    assert not missing, f"traced targets not found: {missing}"


def test_evaluate_embedding_calls_kmeans_through_module():
    z = np.random.default_rng(0).normal(size=(20, 2))
    with mock.patch.object(evaluation, "kmeans",
                           wraps=evaluation.kmeans) as traced:
        evaluation.evaluate_embedding(z, np.arange(20) % 2, repeats=3,
                                      restarts=1)
    assert traced.call_count == 3


@pytest.mark.parametrize("metric", ["nmi", "acc", "purity"])
def test_evaluate_embedding_calls_each_metric_through_module(metric):
    # perfbench reads these call counts per layer: one per repeat.
    z = np.random.default_rng(0).normal(size=(20, 2))
    with mock.patch.object(evaluation, metric,
                           wraps=getattr(evaluation, metric)) as traced:
        evaluation.evaluate_embedding(z, np.arange(20) % 2, repeats=3,
                                      restarts=1)
    assert traced.call_count == 3


def test_restricted_consequent_solve_calls_solve_reg_through_module():
    # perfbench traces solve_reg: the solve on the rows above the eps
    # floor must still reach it through the module attribute.
    state, b, problem, _, _ = random_instance(np.random.default_rng(0))
    old = state.p_common[0].copy()
    old[:3] = 0.0
    f_c = solver.irls_diag(old, state.hp.eps_irls)
    with mock.patch.object(solver, "solve_reg",
                           wraps=solver.solve_reg) as traced:
        solver.update_common(state, 0, problem, b, f_c)
    assert traced.call_count >= 1
    assert traced.call_args_list[0].args[0].shape[0] < len(old)


@pytest.mark.parametrize("variant", solver.VARIANTS)
def test_fit_calls_each_consequent_update_through_module(blob_dataset,
                                                         variant):
    # perfbench times each update and the objective apart: fit must reach
    # each through its module attribute, whatever it shares between them
    # through private keywords. Per fit of 3 iterations: the consequents
    # once per view and iteration (the common_only variant never updates
    # the specific), the map once more at initialization (never under
    # no_consistency), and the objective once more for entry 0.
    hp = Hyperparams(max_iter=3, tol_stop=0.0, seed=1, variant=variant)
    names = ("update_common", "update_specific", "update_consistency",
             "objective", "update_view_weights")
    with contextlib.ExitStack() as stack:
        traced = {name: stack.enter_context(mock.patch.object(
            solver, name, wraps=getattr(solver, name))) for name in names}
        solver.fit(blob_dataset, hp)
    per_view = 3 * blob_dataset.n_views
    assert {name: traced[name].call_count for name in names} == {
        "update_common": per_view,
        "update_specific": 0 if variant == "common_only" else per_view,
        "update_consistency": 0 if variant == "no_consistency" else 4,
        "objective": 4,
        "update_view_weights": 3,
    }


@pytest.mark.parametrize("refit", [False, True])
def test_grid_search_calls_kmeans_through_module(blob_dataset, refit):
    grid = [Hyperparams(alpha=a, max_iter=3, seed=1) for a in (0.5, 2.0)]
    with mock.patch.object(evaluation, "kmeans",
                           wraps=evaluation.kmeans) as traced:
        evaluation.grid_search(blob_dataset, grid, repeats=3, restarts=1,
                               refit_per_repeat=refit)
    assert traced.call_count == 3 * len(grid)


def preparation_counts(run):
    """Calls of prepare_inputs (wherever the library looks it up) and of
    build_graph that run() makes."""
    with mock.patch.object(solver, "prepare_inputs",
                           wraps=solver.prepare_inputs) as prep, \
            mock.patch.object(evaluation, "prepare_inputs", prep), \
            mock.patch.object(solver, "build_graph",
                              wraps=solver.build_graph) as graphs:
        run()
    return prep.call_count, graphs.call_count


@pytest.mark.parametrize("refit", [False, True])
def test_grid_search_prepares_once(blob_dataset, refit):
    grid = [Hyperparams(alpha=a, max_iter=2, seed=1) for a in (0.5, 1, 2)]
    counts = preparation_counts(lambda: evaluation.grid_search(
        blob_dataset, grid, repeats=2, restarts=1, refit_per_repeat=refit))
    assert counts == (1, blob_dataset.n_views)


def test_grid_search_prepares_once_per_rule_count(blob_dataset):
    grid = [Hyperparams(alpha=a, n_rules=r, max_iter=2, seed=1)
            for a, r in ((0.5, 2), (0.5, 3), (2.0, 2), (2.0, 3))]
    counts = preparation_counts(lambda: evaluation.grid_search(
        blob_dataset, grid, repeats=2, restarts=1))
    assert counts == (2, 2 * blob_dataset.n_views)


def test_single_fit_prepares_through_module(blob_dataset):
    counts = preparation_counts(
        lambda: solver.fit(blob_dataset, Hyperparams(max_iter=1)))
    assert counts == (1, blob_dataset.n_views)
