import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.linalg

from conftest import (coordinate_basis, failing_solve, from_coords,
                      prepared_designs, random_instance, solve_calls,
                      surrogate_audit)
from mvfuzzy import antecedent, graph, solver
from mvfuzzy.data import DataError, MultiViewDataset, make_synthetic
from mvfuzzy.model_io import model_to_dict
from mvfuzzy.representation import embed, export_rules, rules_predict
from mvfuzzy.solver import (B_UPDATE_MODES, VARIANTS, Hyperparams,
                            ModelState, NumericFailure, Problem, fit,
                            graph_traces, irls_diag, objective,
                            prepare_inputs, solve_reg,
                            surrogate, update_common, update_consistency,
                            update_specific, update_view_weights)
from oracles import (fd_gradient, full_width_common, full_width_specific,
                     scalar_objective)


def zeroed(state):
    """Copy of a random state with all learned matrices set to zero."""
    return ModelState(
        hp=state.hp,
        standardizers=state.standardizers,
        banks=state.banks,
        p_common=[np.zeros_like(p) for p in state.p_common],
        p_specific=[np.zeros_like(p) for p in state.p_specific],
        view_weights=np.full_like(state.view_weights,
                                  1.0 / state.view_weights.size),
    )


class TestObjective:
    def test_all_zero_state_closed_form(self):
        rng = np.random.default_rng(0)
        state, b, problem, _, _ = random_instance(rng, beta=1.5, delta=2.0)
        state = zeroed(state)
        terms = objective(state, problem, np.zeros_like(b))
        v = state.n_views
        m = state.embed_dim
        expected = 1.5 * v * m + 2.0 * v * (1 / v) * math.log(1 / v)
        assert abs(terms.total - expected) < 1e-12
        assert terms.graph == 0.0 and terms.orthogonality == 0.0

    def test_uniform_entropy_two_views(self):
        rng = np.random.default_rng(1)
        state, b, problem, _, _ = random_instance(rng, delta=3.0)
        state = zeroed(state)
        terms = objective(state, problem, np.zeros_like(b))
        assert abs(terms.entropy - (-3.0 * math.log(2.0))) < 1e-12

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(2)
        state, b, problem, graphs, design = random_instance(
            rng, alpha=0.7, beta=1.3, gamma=0.4, delta=0.9)
        terms = objective(state, problem, b)
        oracle = scalar_objective(
            state.p_common, state.p_specific, b,
            state.view_weights, design,
            [g.dense()[1] for g in graphs],
            alpha=0.7, beta=1.3, gamma=0.4, delta=0.9)
        assert abs(terms.total - oracle["total"]) <= 1e-10 * abs(
            oracle["total"])

    def test_total_is_sum_of_breakdown(self):
        rng = np.random.default_rng(3)
        state, b, problem, _, _ = random_instance(rng)
        terms = objective(state, problem, b)
        parts = (terms.graph + terms.orthogonality + terms.consistency
                 + terms.b_sparsity + terms.pc_sparsity
                 + terms.ps_sparsity + terms.entropy)
        assert terms.total == pytest.approx(parts, rel=1e-12)

    def test_coordinates_match_scalar_loop_oracle(self):
        # N = 20 >= 2 sum_v D_v = 20: the map is held as E = B Q, and the
        # objective at E is the oracle's at B = E Q^T.
        rng = np.random.default_rng(19)
        state, e, problem, graphs, design = random_instance(
            rng, n=20, dims=(1, 2), alpha=0.7, beta=1.3, gamma=0.4,
            delta=0.9)
        assert e.shape == (2, 10)
        terms = objective(state, problem, e)
        oracle = scalar_objective(
            state.p_common, state.p_specific,
            from_coords(problem, design, e), state.view_weights, design,
            [g.dense()[1] for g in graphs],
            alpha=0.7, beta=1.3, gamma=0.4, delta=0.9)
        for name in solver.TERM_NAMES:
            assert getattr(terms, name) == pytest.approx(
                oracle[name], rel=1e-10, abs=1e-12)

    def test_view_count_mismatch_rejected(self):
        rng = np.random.default_rng(4)
        state, b, problem, graphs, design = random_instance(rng)
        with pytest.raises(ValueError):
            objective(state, Problem.from_graphs(design[:1], graphs[:1]), b)


class TestIrlsDiag:
    def test_identity(self):
        np.testing.assert_array_equal(irls_diag(np.eye(2)), [1.0, 1.0])

    def test_zero_row_uses_epsilon(self):
        m = np.array([[0.0, 0.0], [1.0, 0.0]])
        diag = irls_diag(m, eps=1e-8)
        assert diag[0] == 1e8 and diag[1] == 1.0

    def test_three_four_five(self):
        assert irls_diag(np.array([[3.0, 4.0]]))[0] == pytest.approx(0.2)


class TestSolveReg:
    def test_plain_system(self):
        a = np.array([[2.0, 0.0], [0.0, 4.0]])
        x = solve_reg(a, np.array([2.0, 8.0]))
        np.testing.assert_allclose(x, [1.0, 2.0])

    def test_singular_consistent_recovered(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(6, 2))
        gram = z @ z.T
        rhs = gram @ rng.normal(size=6)
        x = solve_reg(gram, rhs)
        np.testing.assert_allclose(gram @ x, rhs, atol=1e-8)

    def test_non_finite_matrix_fails(self):
        with pytest.raises(NumericFailure):
            solve_reg(np.full((2, 2), np.nan), np.ones(2))

    @pytest.mark.parametrize("scale", [1.0, 1e8, 1e12])
    def test_ridge_retry_scales_with_the_diagonal(self, scale):
        # Singular but consistent at every scale. The ridged system's
        # condition number is about 1/RIDGE, so its solution is good to
        # about eps/RIDGE ~ 2e-6 whatever the scale.
        x = solve_reg(scale * np.ones((2, 2)), scale * np.ones(2))
        np.testing.assert_allclose(x, [0.5, 0.5], rtol=1e-5)

    def test_non_finite_solution_gets_the_ridge_retry(self):
        # No pivot is exactly zero, but the first solution overflows to
        # inf; the ridge of RIDGE = 1e-10 brings it back to about 1e20.
        a = np.diag([1e-300, 1.0])
        rhs = np.array([1e10, 1.0])
        assert not np.all(np.isfinite(np.linalg.solve(a, rhs)))
        x = solve_reg(a, rhs)
        np.testing.assert_allclose(x, [1e10 / (1e-300 + 1e-10),
                                       1.0 / (1.0 + 1e-10)], rtol=1e-12)

    @pytest.mark.parametrize("a, rhs", [
        *[(scale * np.ones((2, 2)), scale * np.ones(2))
          for scale in (1.0, 1e8, 1e12)],
        (np.diag([1e-300, 1.0]), np.array([1e10, 1.0])),
    ], ids=["scale_1", "scale_1e8", "scale_1e12", "non_finite"])
    def test_ridge_retry_solves_a_plus_ridge_times_identity(self, a, rhs):
        # The retry adds the ridge to a copy's diagonal: the same system as
        # a + ridge * I, built without two more (D, D) arrays.
        ridge = solver.RIDGE * max(1.0, float(np.abs(np.diag(a)).max()))
        np.testing.assert_array_equal(
            solve_reg(a, rhs),
            np.linalg.solve(a + ridge * np.eye(len(a)), rhs))

    def test_solution_is_c_ordered(self):
        # embed is bit-reproducible across save/load only for C-ordered P.
        rng = np.random.default_rng(1)
        z = rng.normal(size=(7, 7))
        x = solve_reg(z @ z.T + np.eye(7), rng.normal(size=(7, 3)))
        assert x.flags.c_contiguous


class TestUpdateCommon:
    def test_zero_data_terms_give_zero(self):
        rng = np.random.default_rng(5)
        state, b, problem, _, _ = random_instance(
            rng, alpha=0.0, beta=0.0, gamma=1.0)
        state.view_weights = np.zeros(state.n_views)
        dg = problem.gram[0].shape[0]
        new = update_common(state, 0, problem, b, f_diag=np.ones(dg))
        np.testing.assert_allclose(new, 0.0, atol=1e-12)

    def test_fd_stationarity_of_surrogate(self):
        rng = np.random.default_rng(6)
        state, b, problem, _, _ = random_instance(
            rng, alpha=0.5, beta=0.8, gamma=0.6)
        f_c = irls_diag(state.p_common[0], state.hp.eps_irls)
        new = update_common(state, 0, problem, b, f_diag=f_c)

        def value(p):
            return surrogate(("common", 0), p, state, problem, b, f_c)

        scale = np.abs(fd_gradient(value, state.p_common[0])).max()
        grad_at_new = np.abs(fd_gradient(value, new)).max()
        assert grad_at_new <= 1e-5 * scale

    def test_large_gamma_shrinks_solution(self):
        rng = np.random.default_rng(7)
        state, b, problem, _, _ = random_instance(rng)
        dg = problem.gram[0].shape[0]
        norms = []
        for gamma in (1e0, 1e2, 1e4):
            st = replace_gamma(state, gamma)
            new = update_common(st, 0, problem, b, f_diag=np.ones(dg))
            norms.append(np.linalg.norm(new))
        assert norms[0] > norms[1] > norms[2]

    def test_no_map_equals_beta_zero_bit_for_bit(self):
        # b=None leaves the map residual out of the system; at beta = 0 a
        # map adds 0.0 times finite terms, which changes no entry.
        rng = np.random.default_rng(18)
        state, b, problem, _, _ = random_instance(
            rng, alpha=0.5, beta=0.0, gamma=0.6)
        for v in range(state.n_views):
            f_c = irls_diag(state.p_common[v], state.hp.eps_irls)
            np.testing.assert_array_equal(
                update_common(state, v, problem, None, f_c),
                update_common(state, v, problem, b, f_c))


def replace_gamma(state, gamma):
    return ModelState(
        hp=replace(state.hp, gamma=gamma),
        standardizers=state.standardizers,
        banks=state.banks,
        p_common=state.p_common,
        p_specific=state.p_specific,
        view_weights=state.view_weights,
    )


class TestUpdateSpecific:
    def test_zero_common_gives_zero(self):
        rng = np.random.default_rng(8)
        state, _, problem, _, _ = random_instance(rng)
        state.p_common = [np.zeros_like(p) for p in state.p_common]
        f_s = irls_diag(state.p_specific[0], state.hp.eps_irls)
        new = update_specific(state, 0, problem, f_diag=f_s)
        np.testing.assert_allclose(new, 0.0, atol=1e-12)

    def test_fd_stationarity_of_surrogate(self):
        rng = np.random.default_rng(9)
        state, _, problem, _, _ = random_instance(rng, alpha=0.5, gamma=0.6)
        f_s = irls_diag(state.p_specific[0], state.hp.eps_irls)
        new = update_specific(state, 0, problem, f_diag=f_s)

        def value(p):
            return surrogate(("specific", 0), p, state, problem, None, f_s)

        scale = np.abs(fd_gradient(value, state.p_specific[0])).max()
        assert np.abs(fd_gradient(value, new)).max() <= 1e-5 * scale


def solve_shapes(traced):
    return [call.args[0].shape for call in traced.call_args_list]


def dense_columns(a, asked):
    """The columns callable of `solver._solve_l21` for a dense smooth
    system a; it appends each requested index list to asked."""
    def columns(idx):
        asked.append(idx.tolist())
        return a[:, idx]
    return columns


class TestActiveSet:
    """Consequent rows at the eps floor stay at exactly zero until the KKT
    test ||h_i|| <= gamma fails for them."""

    EPS = Hyperparams().eps_irls

    def test_floor_row_failing_the_kkt_test_is_released(self):
        # Smooth system a couples rows 0 and 2; row 2 is free. With row 2
        # solved alone, h_0 = a_02 x_2 - rhs_0 has norm 2.7 > gamma = 1,
        # so row 0 is released; h_1 = -rhs_1 has norm 0.5 and row 1 stays.
        a = np.array([[2.0, 0.0, 1.0], [0.0, 2.0, 0.0], [1.0, 0.0, 2.0]])
        rhs = np.array([[3.0, 0.0], [0.0, 0.5], [1.0, 1.0]])
        f = np.array([1 / self.EPS, 1 / self.EPS, 1.0])
        asked = []
        with mock.patch.object(solver, "solve_reg",
                               wraps=solver.solve_reg) as traced:
            x = solver._solve_l21(dense_columns(a, asked), rhs, 1.0, f,
                                  self.EPS, view=0)
        assert solve_shapes(traced) == [(1, 1), (2, 2)]
        assert asked == [[2], [0, 2]]
        free = [0, 2]
        want = np.linalg.solve(a[np.ix_(free, free)] + np.diag(f[free]),
                               rhs[free])
        np.testing.assert_allclose(x[free], want, rtol=1e-12)
        assert np.all(x[0] != 0)
        assert not x[1].any()

    def test_free_rows_never_fail_the_kkt_test(self):
        # At gamma = 1e-20 the rounding left in the free rows' residual
        # exceeds gamma; only the zero rows are tested, so the loop ends
        # after one solve. Row 0 is decoupled with rhs_0 = 0, so h_0 = 0.
        rng = np.random.default_rng(26)
        z = rng.normal(size=(4, 4))
        a = np.zeros((5, 5))
        a[0, 0] = 1.0
        a[1:, 1:] = z @ z.T + np.eye(4)
        rhs = np.vstack([np.zeros((1, 2)), rng.normal(size=(4, 2))])
        f = np.array([1 / self.EPS, 1.0, 1.0, 1.0, 1.0])
        with mock.patch.object(solver, "solve_reg",
                               wraps=solver.solve_reg) as traced:
            x = solver._solve_l21(dense_columns(a, []), rhs, 1e-20, f,
                                  self.EPS, view=0)
        assert solve_shapes(traced) == [(4, 4)]
        assert not x[0].any()
        np.testing.assert_allclose(x[1:], np.linalg.solve(a[1:, 1:], rhs[1:]),
                                   rtol=1e-10)

    def test_block_all_at_the_floor_returns_exact_zeros(self):
        rng = np.random.default_rng(23)
        state, _, problem, _, _ = random_instance(rng, gamma=1.0)
        state.p_common = [1e-6 * p for p in state.p_common]
        f_s = np.full(len(state.p_specific[0]), 1 / self.EPS)
        with mock.patch.object(solver, "solve_reg",
                               side_effect=AssertionError("solve_reg ran")):
            new = update_specific(state, 0, problem, f_diag=f_s)
        assert new.shape == state.p_specific[0].shape
        assert not new.any()

    def test_block_all_at_the_floor_asks_for_no_column(self):
        # Every residual row has norm 0.5 < gamma = 1: no row is released,
        # so no column of the system is formed.
        rhs = np.full((4, 2), 0.5 / np.sqrt(2))
        f = np.full(4, 1 / self.EPS)
        asked = []
        x = solver._solve_l21(dense_columns(np.eye(4), asked), rhs, 1.0, f,
                              self.EPS, view=0)
        assert asked == []
        assert x.shape == rhs.shape
        assert not x.any()

    @pytest.mark.parametrize("kind", ["common", "specific"])
    def test_all_floor_update_forms_no_gram_product(self, kind):
        # With every row at the floor and gamma large, the update needs
        # only its right-hand side: the Gram matrix is never read.
        rng = np.random.default_rng(27)
        state, b, problem, _, _ = random_instance(rng, gamma=1e6)
        problem = replace(problem)
        problem.gram = [None] * len(problem.gram)
        f = np.full(len(state.p_common[0]), 1 / self.EPS)
        if kind == "common":
            new = update_common(state, 0, problem, b, f_diag=f)
        else:
            new = update_specific(state, 0, problem, f_diag=f)
        assert not new.any()

    def test_gamma_zero_restricts_nothing(self):
        rng = np.random.default_rng(24)
        state, b, problem, _, _ = random_instance(rng, gamma=0.0)
        dg = len(state.p_common[0])
        f_c = np.full(dg, 1 / self.EPS)
        with mock.patch.object(solver, "solve_reg",
                               wraps=solver.solve_reg) as traced:
            new = update_common(state, 0, problem, b, f_diag=f_c)
        assert solve_shapes(traced) == [(dg, dg)]
        assert np.all(new.any(axis=1))

    @pytest.mark.parametrize("kind", ["common", "specific"])
    def test_no_floor_row_equals_the_full_width_solve(self, kind):
        rng = np.random.default_rng(25)
        state, b, problem, _, _ = random_instance(
            rng, alpha=0.5, beta=0.8, gamma=0.6)
        for v in range(state.n_views):
            if kind == "common":
                f = irls_diag(state.p_common[v], self.EPS)
                got = update_common(state, v, problem, b, f)
                want = full_width_common(state, v, problem, b, f)
            else:
                f = irls_diag(state.p_specific[v], self.EPS)
                got = update_specific(state, v, problem, f)
                want = full_width_specific(state, v, problem, f)
            assert f.max() < 1 / self.EPS
            np.testing.assert_allclose(got, want, rtol=0,
                                       atol=1e-10 * np.abs(want).max())


class TestUpdateConsistency:
    def test_paper_mode_single_view_gamma_zero(self):
        rng = np.random.default_rng(10)
        state, b, problem, _, design = random_instance(
            rng, n_views=1, dims=(3,), gamma=0.0)
        new = update_consistency(state, problem,
                                 irls_diag(b, state.hp.eps_irls))
        expected = (design[0] @ state.p_common[0]).T
        np.testing.assert_allclose(new, expected, atol=0, rtol=0)

    def test_paper_mode_is_the_design_formula_on_the_design_side(self):
        # 2 sum_v D_v = 36 > N = 10: the map is B itself, computed as
        # before coordinates existed, to the bit.
        rng = np.random.default_rng(20)
        state, b, problem, _, design = random_instance(rng, gamma=0.6)
        assert coordinate_basis(problem, design) is None
        f_b = irls_diag(b, state.hp.eps_irls)
        stacked = sum((x @ pc).T for x, pc in zip(design, state.p_common))
        np.testing.assert_array_equal(
            update_consistency(state, problem, f_b),
            stacked / (1.0 + state.hp.gamma * f_b)[:, None])

    @pytest.mark.parametrize("b_update", B_UPDATE_MODES)
    def test_coordinate_update_maps_to_the_design_update(self, b_update):
        # The same instance with the map held as E (N = 40 >= 2 * 18) and
        # as B (the R blocks replaced by the designs): B = E Q^T.
        rng = np.random.default_rng(21)
        state, e, problem, _, design = random_instance(
            rng, n=40, dims=(3, 4), gamma=0.6, b_update=b_update)
        assert coordinate_basis(problem, design) is not None
        f_b = irls_diag(e, state.hp.eps_irls)
        want = update_consistency(state, replace(problem, coords=design), f_b)
        got = from_coords(problem, design,
                          update_consistency(state, problem, f_b))
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-12 * np.abs(want).max())

    def test_exact_mode_reaches_pseudoinverse(self):
        rng = np.random.default_rng(11)
        state, b, problem, _, design = random_instance(
            rng, n_views=1, dims=(3,), gamma=0.0, b_update="exact")
        new = update_consistency(state, problem,
                                 irls_diag(b, state.hp.eps_irls))
        zc = design[0] @ state.p_common[0]
        assert np.linalg.norm(new @ zc - np.eye(state.embed_dim)) <= 1e-8

    def test_exact_mode_fd_stationarity(self):
        rng = np.random.default_rng(12)
        state, b, problem, _, _ = random_instance(
            rng, n=4, dims=(3, 4), gamma=0.7, b_update="exact")
        f_b = irls_diag(b, state.hp.eps_irls)
        new = update_consistency(state, problem, f_diag=f_b)

        def value(b):
            return surrogate(("consistency", None), b, state, problem,
                             None, f_b)

        scale = np.abs(fd_gradient(value, b)).max()
        assert np.abs(fd_gradient(value, new)).max() <= 1e-5 * scale

    def test_exact_mode_beta_zero_gives_zero_map(self):
        rng = np.random.default_rng(17)
        for gamma in (0.0, 0.7):
            state, b, problem, _, _ = random_instance(
                rng, beta=0.0, gamma=gamma, b_update="exact")
            new = update_consistency(state, problem,
                                     irls_diag(b, state.hp.eps_irls))
            np.testing.assert_array_equal(new, 0.0)

    def test_exact_mode_non_finite_input_fails(self):
        rng = np.random.default_rng(16)
        state, b, problem, _, _ = random_instance(rng, b_update="exact")
        state.p_common[0][0, 0] = np.inf
        with pytest.raises(NumericFailure):
            update_consistency(state, problem,
                               irls_diag(b, state.hp.eps_irls))


class TestUpdateViewWeights:
    def test_equal_traces_give_uniform(self):
        rng = np.random.default_rng(13)
        state, _, problem, _, _ = random_instance(rng)
        state.p_common = [np.zeros_like(p) for p in state.p_common]
        state.p_specific = [np.zeros_like(p) for p in state.p_specific]
        w = update_view_weights(graph_traces(state, problem), state.hp.delta)
        np.testing.assert_allclose(w, 0.5, atol=1e-15)

    def test_hand_computed_two_view_softmax(self):
        w = update_view_weights(np.array([0.0, 1.7]), 1.7)
        expected = np.array([1.0, np.exp(-1.0)])
        expected /= expected.sum()
        np.testing.assert_allclose(w, expected, atol=1e-12)
        assert abs(w.sum() - 1.0) <= 1e-12

    def test_temperature_limits(self):
        traces = np.array([1.0, 4.0])
        weights = {delta: update_view_weights(traces, delta)
                   for delta in (0.5, 5.0, 5e6)}
        np.testing.assert_allclose(weights[5e6], 0.5, atol=1e-5)
        assert weights[0.5][0] > weights[5.0][0] > 0.5


class TestFit:
    def test_zero_iterations_returns_initialization(self, blob_dataset):
        hp = Hyperparams(max_iter=0, seed=1)
        state, trace = fit(blob_dataset, hp)
        assert len(trace.entries) == 1
        assert trace.entries[0].iteration == 0

    def test_seeded_determinism(self, blob_dataset):
        hp = Hyperparams(max_iter=8, seed=42)
        state_a, trace_a = fit(blob_dataset, hp)
        state_b, trace_b = fit(blob_dataset, hp)
        assert model_to_dict(state_a) == model_to_dict(state_b)
        assert trace_a.totals().tolist() == trace_b.totals().tolist()

    def test_objective_decreases_on_blobs(self, fitted_blob):
        _, trace = fitted_blob
        totals = trace.totals()
        assert totals[-1] < totals[1]
        diffs = np.diff(totals)
        assert (diffs <= 0).mean() >= 0.95

    def test_weight_simplex_every_iteration(self, fitted_blob):
        _, trace = fitted_blob
        for entry in trace.entries:
            assert np.all(entry.weights >= 0)
            assert abs(entry.weights.sum() - 1.0) <= 1e-12

    def test_common_only_keeps_specific_zero(self, blob_dataset):
        hp = Hyperparams(max_iter=6, variant="common_only", seed=3)
        state, trace = fit(blob_dataset, hp)
        for p in state.p_specific:
            np.testing.assert_array_equal(p, 0.0)
        assert np.all(trace.term_values("ps_sparsity") == 0.0)
        assert np.all(trace.term_values("orthogonality") == 0.0)

    def test_no_consistency_zeroes_map_terms(self, blob_dataset):
        hp = Hyperparams(max_iter=6, variant="no_consistency", seed=3)
        state, trace = fit(blob_dataset, hp)
        assert np.all(trace.term_values("consistency") == 0.0)
        assert np.all(trace.term_values("b_sparsity") == 0.0)

    def test_embed_dim_defaults_to_class_count(self, blob_dataset):
        hp = Hyperparams(max_iter=2)
        state, _ = fit(blob_dataset, hp)
        assert state.embed_dim == blob_dataset.n_classes

    def test_missing_embed_dim_without_labels_rejected(self, blob_dataset):
        from mvfuzzy.data import MultiViewDataset

        unlabeled = MultiViewDataset(views=list(blob_dataset.views))
        with pytest.raises(ValueError):
            fit(unlabeled, Hyperparams(max_iter=1))

    def test_too_many_neighbors_rejected(self, blob_dataset):
        hp = Hyperparams(max_iter=1, n_neighbors=blob_dataset.n_instances)
        with pytest.raises(ValueError, match="n_neighbors"):
            fit(blob_dataset, hp)

    def test_early_stop_triggers(self, blob_dataset):
        """The fit stops at the first t >= 5 whose last five relative
        changes of the total are all below tol_stop, read off the trace."""
        hp = Hyperparams(max_iter=400, tol_stop=1e-4, seed=5)
        _, trace = fit(blob_dataset, hp)
        totals = trace.totals()
        prev = np.abs(totals[:-1])
        rel = np.abs(np.diff(totals)) / np.maximum(prev, 1e-12)

        def quiet(t):  # rel[t - 1] is the change into iteration t
            return bool(np.all(rel[t - 5:t] < hp.tol_stop))

        stop = len(totals) - 1
        assert trace.stop_reason == "tolerance"
        assert 5 <= stop < 400 and quiet(stop)
        assert not any(quiet(t) for t in range(5, stop))

    def test_numeric_failure_is_tagged_with_its_iteration(
            self, blob_dataset, monkeypatch):
        hp = Hyperparams(max_iter=6, tol_stop=0.0, seed=5)
        calls = solve_calls(lambda: fit(blob_dataset, hp))
        monkeypatch.setattr(solver, "solve_reg",
                            failing_solve(calls.index((4, 1)) + 1))
        with pytest.raises(NumericFailure) as info:
            fit(blob_dataset, hp)
        assert (info.value.iteration, info.value.view) == (4, 1)

    @pytest.mark.parametrize("max_iter", [0, 7])
    def test_iteration_cap_is_the_stop_reason(self, blob_dataset, max_iter):
        hp = Hyperparams(max_iter=max_iter, tol_stop=0.0, seed=5)
        _, trace = fit(blob_dataset, hp)
        assert len(trace.entries) - 1 == max_iter
        assert trace.stop_reason == "max_iter"

    # A noisy fit that ends all-zero, c09's no_consistency fit and the
    # README's fit.
    @pytest.mark.parametrize("data, hp, collapsed", [
        (dict(n_clusters=3, noise=3.0, seed=0, dims=[20, 30]),
         Hyperparams(n_rules=5, max_iter=20, seed=1), True),
        (dict(n_clusters=4, noise=0.1, seed=7),
         Hyperparams(variant="no_consistency"), True),
        (dict(n_clusters=4, noise=0.1, seed=7), Hyperparams(seed=0), False)])
    def test_collapse_flag(self, data, hp, collapsed):
        ds = make_synthetic(n_instances=200, n_views=2, **data)
        state, trace = fit(ds, hp)
        assert trace.collapsed is collapsed
        assert collapsed == all(not pc.any() for pc in state.p_common)

    def test_embed_dim_above_fuzzy_width_rejected(self, monkeypatch):
        # 8/12-dim views with 3 rules: fuzzy widths 27 and 39.
        ds = make_synthetic(n_instances=40, n_views=2, n_clusters=3,
                            seed=4)

        def refuse(*args, **kwargs):
            raise AssertionError("prepared before checking embed_dim")

        monkeypatch.setattr(solver, "prepare_inputs", refuse)
        with pytest.raises(ValueError, match=r"embed_dim 28 .*\[27, 39\]"):
            fit(ds, Hyperparams(embed_dim=28, max_iter=1))
        with pytest.raises(ValueError, match="embed_dim 60"):
            fit(ds, Hyperparams(embed_dim=60, max_iter=1),
                prepared=object())
        monkeypatch.undo()
        state, _ = fit(ds, Hyperparams(embed_dim=27, max_iter=1))
        assert state.embed_dim == 27

    def test_default_embed_dim_checked_against_fuzzy_width(self):
        # One rule on a 1-dim view: width 2, but 3 classes.
        ds = make_synthetic(n_instances=30, n_views=1, n_clusters=3,
                            seed=4, dims=[1])
        with pytest.raises(ValueError, match=r"\[2\]"):
            fit(ds, Hyperparams(n_rules=1, max_iter=1))


class TestConstantViews:
    @pytest.mark.parametrize("constant", [[1], [0, 1]])
    def test_constant_training_view_rejected(self, blob_dataset, constant):
        views = [np.full_like(v, 2.5) if i in constant else v
                 for i, v in enumerate(blob_dataset.views)]
        ds = MultiViewDataset(views=views, labels=blob_dataset.labels)
        with pytest.raises(DataError, match=f"view {constant[0]}:"):
            prepare_inputs(ds, Hyperparams())
        with pytest.raises(DataError, match=f"view {constant[0]}:"):
            fit(ds, Hyperparams(max_iter=2))

    @pytest.mark.filterwarnings("ignore:zero total scatter")
    def test_one_varying_feature_is_enough(self, blob_dataset):
        views = [v.copy() for v in blob_dataset.views]
        views[0][:, 1:] = 0.0
        ds = MultiViewDataset(views=views, labels=blob_dataset.labels)
        _, trace = fit(ds, Hyperparams(max_iter=2))
        assert np.all(np.isfinite(trace.totals()))

    def test_constant_batch_still_embeds(self, fitted_blob):
        state, _ = fitted_blob
        batch = MultiViewDataset(views=[np.ones((2, v.n_features))
                                        for v in state.banks])
        z = embed(batch, state).data
        assert z.shape[0] == 2 and np.all(np.isfinite(z))


def _prepared_arrays(prepared):
    out = [a for s in prepared.standardizers for a in (s.mean, s.scale)]
    out += [a for b in prepared.banks for a in (b.centers, b.widths)]
    problem = prepared.problem
    return out + problem.xlx + problem.gram + problem.coords


# 200 instances, fuzzy widths 27 + 39 = 66 <= 100: R coordinates. The 80
# instances of blob_dataset hold the map as B.
@pytest.fixture(scope="module")
def coords_dataset():
    return make_synthetic(n_instances=200, n_views=2, n_clusters=4,
                          noise=0.1, seed=7)


class TestProblem:
    def test_sides_of_the_coordinate_choice(self, blob_dataset,
                                            coords_dataset):
        prepared = prepare_inputs(blob_dataset, Hyperparams())
        problem = prepared.problem
        assert problem.n_instances == 80
        assert all(np.array_equal(r, x) for r, x in zip(
            problem.coords, prepared_designs(blob_dataset, prepared)))
        problem = prepare_inputs(coords_dataset, Hyperparams()).problem
        assert problem.n_instances == 200
        assert [r.shape for r in problem.coords] == [(66, 27), (66, 39)]

    @pytest.mark.parametrize("n, is_coords", [(19, False), (20, True)])
    def test_coordinates_start_at_n_twice_the_width(self, n, is_coords):
        rng = np.random.default_rng(22)
        _, _, problem, _, design = random_instance(rng, n=n, dims=(1, 2))
        assert (coordinate_basis(problem, design) is not None) == is_coords

    def test_coordinate_side_keeps_no_n_row_array(self, coords_dataset):
        problem = prepare_inputs(coords_dataset, Hyperparams()).problem
        assert not hasattr(problem, "design")
        arrays = _arrays_in(problem)
        assert len(arrays) == 3 * coords_dataset.n_views
        assert all(a.shape[0] < coords_dataset.n_instances for a in arrays)

    def test_r_blocks_reproduce_the_designs(self, coords_dataset):
        prepared = prepare_inputs(coords_dataset, Hyperparams())
        problem = prepared.problem
        design = prepared_designs(coords_dataset, prepared)
        xcat = np.hstack(design)
        r = np.hstack(problem.coords)
        assert np.array_equal(r, np.triu(r))
        q = coordinate_basis(problem, design)
        np.testing.assert_allclose(q @ r, xcat, rtol=0,
                                   atol=1e-12 * np.abs(xcat).max())
        # The firing levels of each view sum to one, so the stacked
        # designs are rank-deficient.
        assert np.linalg.matrix_rank(xcat) < xcat.shape[1]
        for r_v, x, g in zip(problem.coords, design, problem.gram):
            np.testing.assert_allclose(r_v.T @ r_v, g, rtol=0,
                                       atol=1e-12 * np.abs(g).max())


def _arrays_in(obj):
    """Every ndarray reachable from obj through lists, tuples and object
    attributes."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, (list, tuple)):
        return [a for x in obj for a in _arrays_in(x)]
    if hasattr(obj, "__dict__"):
        return _arrays_in(list(vars(obj).values()))
    return []


class _NoNRowArrays:
    """A Problem whose arrays with N rows cannot be read."""

    def __init__(self, problem):
        self._problem = problem

    def __getattr__(self, name):
        value = getattr(self._problem, name)
        if any(a.shape[0] == self._problem.n_instances
               for a in _arrays_in(value)):
            raise AssertionError(f"the fit read (N, .) arrays: {name}")
        return value


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("b_update", B_UPDATE_MODES)
def test_coordinate_fit_never_reads_the_designs(coords_dataset, variant,
                                                b_update):
    hp = Hyperparams(max_iter=4, seed=2, variant=variant, b_update=b_update)
    prepared = prepare_inputs(coords_dataset, hp)
    guarded = replace(prepared, problem=_NoNRowArrays(prepared.problem))
    state, trace = fit(coords_dataset, hp, prepared=guarded)
    ref_state, ref_trace = fit(coords_dataset, hp, prepared=prepared)
    assert model_to_dict(state) == model_to_dict(ref_state)
    assert trace.totals().tolist() == ref_trace.totals().tolist()


@pytest.mark.parametrize("side", ["design", "coords"])
def test_surrogate_audit_never_rises(blob_dataset, coords_dataset, side):
    # c07's audit on both sides of the coordinate choice: each exact-mode
    # block update lowers its own surrogate.
    dataset = blob_dataset if side == "design" else coords_dataset
    hp = Hyperparams(max_iter=20, tol_stop=0.0, b_update="exact", seed=1)
    audit = surrogate_audit(lambda: fit(dataset, hp))
    pairs = [pair for blocks in audit for pair in blocks.values()]
    assert len(pairs) == 20 * 5
    for before, after in pairs:
        assert after <= before + 1e-9 * (1.0 + abs(before))


SURROGATE_BLOCKS = [("common", 1), ("specific", 0), ("consistency", None)]


def _block_value(block, state, b):
    kind, v = block
    return b if kind == "consistency" else getattr(state, "p_" + kind)[v]


@pytest.mark.parametrize("block", SURROGATE_BLOCKS)
def test_surrogate_leaves_the_state_untouched(block):
    # surrogate sets the block in a copy of the state: the caller's lists,
    # arrays and map are the same objects, holding the same values.
    state, b, problem, _, _ = random_instance(np.random.default_rng(4))
    old = _block_value(block, state, b)
    lists = state.p_common, state.p_specific
    arrays = [*state.p_common, *state.p_specific, state.view_weights, b]
    copies = [a.copy() for a in arrays]
    surrogate(block, 2.0 * old + 1.0, state, problem, b, irls_diag(old))
    assert state.p_common is lists[0] and state.p_specific is lists[1]
    assert all(now is was for now, was in zip(
        [*state.p_common, *state.p_specific, state.view_weights], arrays))
    for now, was in zip(arrays, copies):
        np.testing.assert_array_equal(now, was)


@pytest.mark.parametrize("block", SURROGATE_BLOCKS)
def test_surrogate_of_a_wrong_width_block_raises(block):
    # The block set to x goes through objective's shape check: a consequent
    # with a row too many, or a map with a column too many.
    state, b, problem, _, _ = random_instance(np.random.default_rng(5))
    old = _block_value(block, state, b)
    axis = 1 if block[0] == "consistency" else 0
    x = np.concatenate([old, old.take([0], axis)], axis)
    with pytest.raises(ValueError, match="design width mismatch"):
        surrogate(block, x, state, problem, b, irls_diag(x))


@pytest.mark.parametrize("variant, b_update", [
    ("full", "paper"), ("full", "exact"), ("common_only", "exact"),
    ("no_consistency", "paper")])
def test_surrogate_audit_changes_no_bit(coords_dataset, variant, b_update,
                                        monkeypatch):
    # The audit records the values surrogate gives, and the fit's state
    # and trace are those of a fit without the audit.
    hp = Hyperparams(max_iter=6, tol_stop=0.0, seed=3, variant=variant,
                     b_update=b_update)
    prepared = prepare_inputs(coords_dataset, hp)
    state, trace = fit(coords_dataset, hp, prepared=prepared)
    values, audited = [], []

    def recording(*args):
        values.append(surrogate(*args))
        return values[-1]

    monkeypatch.setattr(solver, "surrogate", recording)
    audit = surrogate_audit(lambda: audited.append(
        fit(coords_dataset, hp, prepared=prepared)))
    audited_state, audited_trace = audited[0]
    assert model_to_dict(audited_state) == model_to_dict(state)
    assert [(e.iteration, e.terms, e.weights.tolist())
            for e in audited_trace.entries] == [
        (e.iteration, e.terms, e.weights.tolist()) for e in trace.entries]
    assert len(audit) == 6
    assert [v for blocks in audit
            for pair in blocks.values() for v in pair] == values
    blocks = (variant != "no_consistency") + 2 + 2 * (variant != "common_only")
    assert len(values) == 2 * 6 * blocks


@pytest.fixture(scope="module")
def wide_dataset():
    """Fuzzy designs 55 and 80 wide at five rules, on 200 instances: many
    consequent rows reach the eps floor within a few iterations."""
    return make_synthetic(n_instances=200, n_views=2, n_clusters=4,
                          noise=1.5, seed=0, dims=[10, 15])


def total_rises(trace):
    return int((np.diff(trace.totals()) > 0).sum())


# At gamma = 0.5 in paper mode the total rises on 7 iterations; at
# gamma = 0.2 in exact mode the KKT test releases 8 floor rows.
@pytest.mark.parametrize("b_update, gamma", [("paper", 0.5),
                                             ("exact", 0.2)])
def test_active_set_fit_tracks_the_full_width_fit(wide_dataset, b_update,
                                                  gamma, monkeypatch):
    # A row held at zero is one that the full-width solve leaves within
    # about eps_irls * ||h_i|| / gamma <= eps_irls of zero, so the trace
    # moves by far less than 1e-6.
    hp = Hyperparams(n_rules=5, max_iter=25, tol_stop=0.0, seed=1,
                     gamma=gamma, b_update=b_update)
    prepared = prepare_inputs(wide_dataset, hp)
    state, trace = fit(wide_dataset, hp, prepared=prepared)
    assert sum(int((~p.any(axis=1)).sum()) for p in state.p_common) > 0
    monkeypatch.setattr(solver, "update_common", full_width_common)
    monkeypatch.setattr(solver, "update_specific", full_width_specific)
    _, full_trace = fit(wide_dataset, hp, prepared=prepared)
    np.testing.assert_allclose(trace.totals(), full_trace.totals(),
                               rtol=1e-6, atol=0)
    assert total_rises(trace) == total_rises(full_trace)


class TestPrepared:
    def test_records_what_it_was_built_for(self, blob_dataset):
        prepared = prepare_inputs(blob_dataset,
                                  Hyperparams(n_rules=2, bandwidth=1.5))
        assert prepared.key == (2, 5, 1.5)
        assert prepared.shape == (blob_dataset.n_instances,
                                  tuple(blob_dataset.view_dims))

    def test_fits_leave_it_unchanged(self, blob_dataset):
        prepared = prepare_inputs(blob_dataset, Hyperparams())
        before = [a.copy() for a in _prepared_arrays(prepared)]
        for variant in VARIANTS:
            for b_update in B_UPDATE_MODES:
                hp = Hyperparams(max_iter=3, seed=1, variant=variant,
                                 b_update=b_update)
                state, _ = fit(blob_dataset, hp, prepared=prepared)
                state.banks.clear()
        after = _prepared_arrays(prepared)
        assert len(after) == len(before)
        for a, b in zip(after, before):
            np.testing.assert_array_equal(a, b)

    def test_shared_fit_equals_fresh_fit(self, blob_dataset):
        prepared = prepare_inputs(blob_dataset, Hyperparams())
        for hp in (Hyperparams(max_iter=6, seed=3, alpha=0.5),
                   Hyperparams(max_iter=6, seed=4, b_update="exact")):
            shared_state, shared_trace = fit(blob_dataset, hp,
                                             prepared=prepared)
            state, trace = fit(blob_dataset, hp)
            assert model_to_dict(shared_state) == model_to_dict(state)
            assert shared_trace.totals().tolist() == trace.totals().tolist()

    @pytest.mark.parametrize("change", [
        {"n_rules": 2}, {"n_neighbors": 4}, {"bandwidth": 2.0}])
    def test_other_preprocessing_fields_rejected(self, blob_dataset,
                                                 change):
        prepared = prepare_inputs(blob_dataset, Hyperparams())
        hp = Hyperparams(max_iter=1, **change)
        with pytest.raises(ValueError, match="built for"):
            fit(blob_dataset, hp, prepared=prepared)

    def test_other_data_shape_rejected(self, blob_dataset):
        prepared = prepare_inputs(blob_dataset, Hyperparams())
        fewer = MultiViewDataset(
            views=[v[:-1] for v in blob_dataset.views],
            labels=blob_dataset.labels[:-1])
        narrower = MultiViewDataset(
            views=[blob_dataset.views[0], blob_dataset.views[1][:, :-1]],
            labels=blob_dataset.labels)
        for ds in (fewer, narrower):
            with pytest.raises(ValueError, match="shape"):
                fit(ds, Hyperparams(max_iter=1), prepared=prepared)


def assert_finite_fit_replays(dataset, hp):
    """Fit, then check a finite trace and a rule replay equal to embed."""
    state, trace = fit(dataset, hp)
    assert np.all(np.isfinite(trace.totals()))
    z = embed(dataset, state).data
    replay = rules_predict(export_rules(state), dataset.views).data
    assert np.abs(replay - z).max() <= 1e-9


class TestDegenerateDesigns:
    @pytest.mark.parametrize("b_update", B_UPDATE_MODES)
    def test_single_view(self, blob_dataset, b_update):
        single = MultiViewDataset(views=[blob_dataset.views[0]],
                                  labels=blob_dataset.labels)
        assert_finite_fit_replays(
            single, Hyperparams(max_iter=10, seed=3, b_update=b_update))

    @pytest.mark.parametrize("b_update", B_UPDATE_MODES)
    def test_gamma_zero_with_duplicated_feature_columns(self, blob_dataset,
                                                        b_update):
        # Duplicated features give duplicated fuzzy design columns, so
        # the view's design is rank-deficient; with gamma = 0 no L2,1
        # weight props the consequent systems up.
        v0 = blob_dataset.views[0]
        dup = MultiViewDataset(views=[np.hstack([v0, v0]),
                                      blob_dataset.views[1]],
                               labels=blob_dataset.labels)
        hp = Hyperparams(max_iter=10, seed=3, gamma=0.0, b_update=b_update)
        design = prepared_designs(dup, prepare_inputs(dup, hp))[0]
        assert np.linalg.matrix_rank(design) < design.shape[1]
        assert_finite_fit_replays(dup, hp)


SCIPY_DENSE = ("solve", "cho_factor", "cho_solve", "lu_factor", "lstsq",
               "svd")


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("b_update", B_UPDATE_MODES)
def test_fit_runs_on_numpy_linalg_only(blob_dataset, variant, b_update,
                                       monkeypatch):
    """numpy and scipy each ship their own OpenBLAS, each with its own
    thread pool. The package never loads scipy's (see
    `test_package_loads_no_scipy`); this test holds the fit to numpy's
    solvers even in a process that has loaded scipy.linalg, where a scipy
    factorization would make the two pools contend for the cores."""
    def refuse(*args, **kwargs):
        raise AssertionError("the fit called a scipy.linalg solver")

    originals = [getattr(scipy.linalg, name) for name in SCIPY_DENSE]
    for name in SCIPY_DENSE:
        monkeypatch.setattr(scipy.linalg, name, refuse)
    # Names imported with `from scipy.linalg import ...` too.
    for module in (antecedent, graph, solver):
        for attr, value in list(vars(module).items()):
            if any(value is f for f in originals):
                monkeypatch.setattr(module, attr, refuse)
    hp = Hyperparams(max_iter=3, seed=2, variant=variant, b_update=b_update)
    _, trace = fit(blob_dataset, hp)
    assert np.all(np.isfinite(trace.totals()))


# Prints the scipy modules and the OpenBLAS libraries the process holds
# after running {body}; a None entry in sys.modules is a blocked import,
# not a loaded module.
FOOTPRINT = """
import json, sys
{body}
scipy = sorted(m for m, module in sys.modules.items()
               if m.split(".")[0] == "scipy" and module is not None)
try:
    with open("/proc/self/maps") as fh:
        paths = {{line.split()[-1] for line in fh if len(line.split()) > 5}}
    blas = sorted(p for p in paths if "openblas" in p.rsplit("/", 1)[-1])
except OSError:
    blas = None
print(json.dumps({{"scipy": scipy, "openblas": blas}}))
"""

PACKAGE_RUN = """
import mvfuzzy.cli
from mvfuzzy import (Hyperparams, embed, evaluate_embedding, export_rules,
                     fit, grid_search, load_model, make_synthetic,
                     rules_predict, save_model)
ds = make_synthetic(n_instances=60, n_views=2, n_clusters=3, seed=1)
for b_update in ("exact", "paper"):
    hp = Hyperparams(max_iter=3, seed=0, b_update=b_update)
    state, _ = fit(ds, hp)
z = embed(ds, state).data
evaluate_embedding(z, ds.labels, repeats=2, restarts=2)
grid_search(ds, [hp], repeats=2, restarts=2)
rules_predict(export_rules(state), ds.views)
save_model(state, sys.argv[1])
load_model(sys.argv[1])
"""


def test_package_loads_no_scipy(tmp_path):
    """A run through the whole package (fit in both B modes, embed,
    evaluate, grid, rule export and replay, model I/O, the CLI module)
    loads no scipy module, so the process maps one OpenBLAS, numpy's. The
    run sets sys.modules["scipy"] = None first, so any scipy import,
    however deep, fails the run."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    body = 'sys.modules["scipy"] = None\n' + PACKAGE_RUN
    done = subprocess.run(
        [sys.executable, "-c", FOOTPRINT.format(body=body),
         str(tmp_path / "model.json")], env=env, capture_output=True,
        text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    package = json.loads(done.stdout.splitlines()[-1])
    assert package["scipy"] == []
    if sys.platform.startswith("linux"):
        assert len(package["openblas"]) == 1, package["openblas"]


class TestHyperparams:
    def test_validation(self):
        with pytest.raises(ValueError):
            Hyperparams(alpha=-1.0)
        with pytest.raises(ValueError):
            Hyperparams(delta=0.0)
        with pytest.raises(ValueError):
            Hyperparams(variant="bogus")
        with pytest.raises(ValueError):
            Hyperparams(b_update="bogus")
        with pytest.raises(ValueError):
            Hyperparams(n_rules=0)
        for name in ("alpha", "beta", "gamma", "delta"):
            for bad in (np.nan, np.inf, None, "1", 1 + 0j, True):
                with pytest.raises(ValueError, match="finite"):
                    Hyperparams(**{name: bad})
        for bad in (None, [1.0], "fast", True, 0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="bandwidth"):
                Hyperparams(bandwidth=bad)
        assert Hyperparams(bandwidth=np.float32(0.5)).bandwidth == 0.5

    @pytest.mark.parametrize("field, bad", [
        ("max_iter", 2.5), ("n_rules", 2.5), ("embed_dim", 2.0),
        ("n_neighbors", 2.5), ("max_iter", True), ("n_rules", "3"),
        ("seed", 2.5)])
    def test_counts_must_be_integers(self, field, bad):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            Hyperparams(**{field: bad})

    @pytest.mark.parametrize("bad", ["nan", np.nan, np.inf, 0.0, -1e-8])
    def test_eps_irls_must_be_finite_and_positive(self, bad):
        with pytest.raises(ValueError, match="eps_irls"):
            Hyperparams(eps_irls=bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, "1e-6"])
    def test_tol_stop_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="tol_stop"):
            Hyperparams(tol_stop=bad)

    def test_numpy_integers_and_no_early_stop_accepted(self):
        hp = Hyperparams(n_rules=np.int64(2), max_iter=np.int32(3),
                         embed_dim=None, tol_stop=0.0, eps_irls=1e-300)
        assert hp.n_rules == 2 and hp.max_iter == 3
