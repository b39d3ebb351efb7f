"""Graph, solver, k-means, fuzzy-mapping and rule-export invariants over
random shapes and hyperparameters.

The graph tests draw point sets, neighbor counts and bandwidths, and
check the sparse kNN graph against the dense stable-argsort oracle and
the Laplacian invariants. The k-means tests check each restart of a
multi-restart Lloyd call against the direct-distance loop, its final centers
against masked means, and the k-means++ init (on rounded and unrounded
points) and `kmeans` against sequential oracles. The solver tests draw N,
V, the per-view inputs, m, the rule count and the regularization
weights, build a random instance over real fuzzy design matrices and kNN
graphs, and check one invariant against a dense or finite-difference
reference. The fuzzy mapping tests draw data shapes, scales and rule
counts and check the normalizations; the rule-export test fits small
random models and replays the exported rule bases against `embed`. The
example sequence is derandomized, so every run checks the same cases.
"""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (from_coords, protocol_labelings, protocol_seeds,
                      random_instance)
from mvfuzzy import graph
from mvfuzzy.antecedent import (EPS_WIDTH, fit_antecedents, firing_levels,
                                fuzzy_map)
from mvfuzzy.data import MultiViewDataset
from mvfuzzy.evaluation import _kmeanspp_init, _lloyd, _lloyd_inputs, kmeans
from mvfuzzy.representation import embed, export_rules, rules_predict
from mvfuzzy.solver import (B_UPDATE_MODES, VARIANTS, Hyperparams, Problem,
                            fit, graph_traces, irls_diag, objective,
                            surrogate, update_common, update_consistency,
                            update_specific, update_view_weights)
from oracles import (dense_exact_consistency, dense_knn_similarity,
                     fd_gradient, kmeans_oracle, kmeanspp_oracle,
                     lloyd_oracle)

PROPS = settings(max_examples=40, deadline=None, derandomize=True,
                 database=None)

# The graph and k-means checks are cheap, so they draw more examples.
GRAPH_PROPS = settings(PROPS, max_examples=200)

POSITIVE_GAMMA = st.floats(0.01, 10.0)
ANY_GAMMA = st.one_of(st.just(0.0), POSITIVE_GAMMA)


# "dyadic", "grid" and "duplicates" points have coordinates m/16 with
# |m| <= 1024 (or small integers), so every squared distance is exact in
# float64 whatever order BLAS sums it in: any difference from the oracle
# is a selection or assembly difference, not rounding. "gaussian" points
# are only compared in one row block, where the library forms the same
# x @ x.T product as the oracle.
EXACT_KINDS = ("dyadic", "grid", "duplicates")


@st.composite
def point_sets(draw, kinds=EXACT_KINDS + ("gaussian",)):
    kind = draw(st.sampled_from(kinds))
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "gaussian":
        x = rng.normal(size=(n, d)) * draw(st.floats(1e-3, 1e3))
    elif kind == "grid":
        # Few distinct values: most rows tie at their k-th distance.
        x = rng.integers(-2, 3, size=(n, d)).astype(float)
    else:
        x = rng.integers(-1024, 1025, size=(n, d)) / 16.0
        if kind == "duplicates":
            x = x[rng.integers(0, draw(st.integers(1, n)), size=n)]
    k = draw(st.integers(1, n - 1))
    bandwidth = draw(st.one_of(st.just("auto"), st.floats(0.1, 10.0)))
    return x, k, bandwidth


@GRAPH_PROPS
@given(point_sets())
def test_knn_similarity_matches_dense_oracle(points):
    x, k, bandwidth = points
    s = graph.knn_similarity(x, k, bandwidth)
    np.testing.assert_array_equal(s.toarray(),
                                  dense_knn_similarity(x, k, bandwidth))


@GRAPH_PROPS
@given(point_sets(kinds=EXACT_KINDS), st.data())
def test_knn_similarity_matches_oracle_across_row_blocks(points, data):
    x, k, bandwidth = points
    n = len(x)
    rows = data.draw(st.integers(1, max(1, n // 2)))
    with mock.patch.object(graph, "_BLOCK_BYTES", 8 * n * rows):
        assert len(graph._row_blocks(n)) > 2
        s = graph.knn_similarity(x, k, bandwidth)
    np.testing.assert_array_equal(s.toarray(),
                                  dense_knn_similarity(x, k, bandwidth))


# N <= 40 leaves at most 10 column groups, so the k-th-distance bound of
# `graph._nearest` is checked again with 1 to 8 groups, where it binds on
# ties, duplicates and remainder columns.
@GRAPH_PROPS
@given(point_sets(), st.integers(1, 8))
def test_knn_similarity_matches_dense_oracle_with_few_groups(points, groups):
    x, k, bandwidth = points
    with mock.patch.object(graph, "_GROUPS", groups):
        s = graph.knn_similarity(x, k, bandwidth)
    np.testing.assert_array_equal(s.toarray(),
                                  dense_knn_similarity(x, k, bandwidth))


@GRAPH_PROPS
@given(point_sets(kinds=EXACT_KINDS), st.integers(1, 8), st.data())
def test_knn_similarity_matches_oracle_across_row_blocks_with_few_groups(
        points, groups, data):
    x, k, bandwidth = points
    n = len(x)
    rows = data.draw(st.integers(1, max(1, n // 2)))
    with mock.patch.object(graph, "_BLOCK_BYTES", 8 * n * rows), \
            mock.patch.object(graph, "_GROUPS", groups):
        assert len(graph._row_blocks(n)) > 2
        s = graph.knn_similarity(x, k, bandwidth)
    np.testing.assert_array_equal(s.toarray(),
                                  dense_knn_similarity(x, k, bandwidth))


@GRAPH_PROPS
@given(point_sets())
def test_laplacian_symmetric_zero_row_sums_psd(points):
    x, k, bandwidth = points
    g = graph.build_graph(x, k, bandwidth)
    lap = g.laplacian.toarray()
    assert np.abs(lap - lap.T).max() <= 1e-10
    assert np.abs(lap.sum(axis=1)).max() <= 1e-10
    assert np.linalg.eigvalsh(lap).min() >= -1e-8


def kmeanspp_init(points, k, rng):
    """`_kmeanspp_init` on the (m, N) columns that `kmeans` passes it."""
    return _kmeanspp_init(np.ascontiguousarray(points.T), k, rng)


@GRAPH_PROPS
@given(st.integers(1, 60), st.integers(1, 6), st.integers(1, 8),
       st.integers(0, 2 ** 32 - 1), st.booleans())
def test_lloyd_matches_direct_distance_oracle(n, m, k, seed, spread_init):
    # Gaussian points have no exact distance ties, so the matrix-product
    # assignment must pick the same centers as the direct distances.
    k = min(k, n)
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, m)) * 10.0 ** rng.uniform(-3, 3)
    if spread_init:
        # Centers far outside the data leave clusters empty, so the
        # reseed path runs.
        centers = rng.normal(size=(k, m)) * 3.0 * points.std()
    else:
        centers = kmeanspp_init(points, k, rng)
    ref_labels, ref_sse = lloyd_oracle(points, centers.copy())
    (labels,), (sse,) = _lloyd(points, centers[None], *_lloyd_inputs(points))
    np.testing.assert_array_equal(labels, ref_labels)
    if m > 1:
        assert sse == ref_sse
    else:
        # On one column numpy's masked mean sums pairwise, not in index
        # order, so the centers and the SSE may differ in the last bits.
        assert abs(sse - ref_sse) <= 1e-12 * ref_sse


@GRAPH_PROPS
@given(st.integers(1, 60), st.integers(1, 6), st.integers(1, 8),
       st.lists(st.booleans(), min_size=2, max_size=6),
       st.one_of(st.integers(1, 6), st.just(300)),
       st.integers(0, 2 ** 32 - 1))
def test_lockstep_lloyd_matches_oracle_per_restart(n, m, k, spread_inits,
                                                   max_iter, seed):
    # Each restart of one lockstep call must end where it would alone:
    # the batch mixes restarts that need reseeds (centers far outside the
    # data) with k-means++ ones, the restarts stop at different steps,
    # and a small max_iter cuts some of them off while others have
    # stopped.
    k = min(k, n)
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, m)) * 10.0 ** rng.uniform(-3, 3)
    centers = np.stack([
        rng.normal(size=(k, m)) * 3.0 * points.std() if spread
        else kmeanspp_init(points, k, rng) for spread in spread_inits])
    refs = [lloyd_oracle(points, c.copy(), max_iter) for c in centers]
    labels, sses = _lloyd(points, centers, *_lloyd_inputs(points),
                          max_iter=max_iter)
    for (ref_labels, ref_sse), restart_labels, sse in zip(refs, labels,
                                                          sses):
        np.testing.assert_array_equal(restart_labels, ref_labels)
        if m > 1:
            assert sse == ref_sse
        else:
            # As in test_lloyd_matches_direct_distance_oracle.
            assert abs(sse - ref_sse) <= 1e-12 * ref_sse


@GRAPH_PROPS
@given(st.integers(1, 60), st.integers(1, 6), st.integers(1, 8),
       st.lists(st.booleans(), min_size=1, max_size=6),
       st.one_of(st.integers(0, 6), st.just(300)),
       st.integers(0, 2 ** 32 - 1))
def test_lloyd_final_centers_are_masked_means(n, m, k, spread_inits,
                                              max_iter, seed):
    # Only the final centers must be exact: each restart's centers are the
    # masked means of the labels it last assigned, which the oracle leaves
    # in its own centers. A restart that converged (max_iter = 300 always
    # suffices here) returns those labels; one cut off by max_iter returns
    # the next assignment, and max_iter = 0 leaves the init.
    k = min(k, n)
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, m)) * 10.0 ** rng.uniform(-3, 3)
    centers = np.stack([
        rng.normal(size=(k, m)) * 3.0 * points.std() if spread
        else kmeanspp_init(points, k, rng) for spread in spread_inits])
    refs = centers.copy()
    for ref in refs:
        lloyd_oracle(points, ref, max_iter)
    labels, _ = _lloyd(points, centers, *_lloyd_inputs(points),
                       max_iter=max_iter)
    for centers_i, ref, labels_i in zip(centers, refs, labels):
        expected = [ref]
        if max_iter == 300:
            expected.append([points[labels_i == c].mean(axis=0)
                             for c in range(k)])
        for want in expected:
            if m > 1:
                np.testing.assert_array_equal(centers_i, want)
            else:
                # As in test_lloyd_matches_direct_distance_oracle.
                np.testing.assert_allclose(
                    centers_i, want, rtol=0,
                    atol=1e-12 * np.abs(points).max())


@st.composite
def kmeans_inputs(draw):
    """Points and k, some sets with rows repeated (k may exceed the
    distinct rows, so the init's fallback and the reseeds run).

    Coordinates are Gaussian draws rounded to 20 fractional bits and
    scaled by a power of two, so every sum of up to 40 of them is exact:
    a center is the correctly rounded mean in any summation order, and a
    cluster of copies has its center on the copies. The library assigns
    points by a matrix product and the oracle by direct distances, so a
    center one ulp off its copies could draw them either way.
    """
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    points = np.round(rng.normal(size=(n, m)) * 2.0 ** 20) * 2.0 ** (
        draw(st.integers(-30, 10)) - 20)
    if draw(st.booleans()):
        points = points[rng.integers(0, draw(st.integers(1, n)), size=n)]
    return points, draw(st.integers(1, min(n, 8)))


@GRAPH_PROPS
@given(kmeans_inputs(), st.integers(0, 2 ** 32 - 1))
def test_kmeanspp_init_matches_oracle(inputs, seed):
    points, k = inputs
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    np.testing.assert_array_equal(kmeanspp_init(points, k, rng),
                                  kmeanspp_oracle(points, k, ref_rng))
    # The skipped last distance pass draws nothing: the streams agree.
    assert rng.random() == ref_rng.random()


@GRAPH_PROPS
@given(st.integers(1, 60), st.integers(1, 16), st.integers(1, 8),
       st.floats(-3.0, 3.0), st.booleans(), st.integers(0, 2 ** 32 - 1))
def test_kmeanspp_init_matches_oracle_on_unrounded_points(n, m, k, scale,
                                                          offset, seed):
    # Unrounded Gaussian coordinates: from m = 8 on, the init's column-order
    # distance sums and the oracle's pairwise row sums may differ in the
    # last bits, which must not move a pick or the generator's stream.
    k = min(k, n)
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, m)) * 10.0 ** scale
    if offset:
        points += 1e3 * points.std() * rng.normal(size=m)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    np.testing.assert_array_equal(kmeanspp_init(points, k, rng),
                                  kmeanspp_oracle(points, k, ref_rng))
    assert rng.random() == ref_rng.random()


@GRAPH_PROPS
@given(kmeans_inputs(), st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
def test_kmeans_matches_sequential_oracle(inputs, restarts, seed):
    points, k = inputs
    np.testing.assert_array_equal(
        kmeans(points, k, restarts=restarts, seed=seed),
        kmeans_oracle(points, k, restarts, seed))


@GRAPH_PROPS
@given(kmeans_inputs(), st.integers(1, 4), st.integers(1, 4),
       st.integers(0, 2 ** 32 - 1))
def test_protocol_record_keeps_every_labeling(inputs, repeats, restarts,
                                             seed):
    # The repeats of one evaluate_embedding share a fixed-point record;
    # each labeling must equal a kmeans call made without one, and the
    # sequential oracle. Sets with repeated rows tie often, so different
    # labelings share their counts.
    points, k = inputs
    labelings = protocol_labelings(points, k, repeats, restarts, seed)
    assert len(labelings) == repeats
    for labels, ss in zip(labelings, protocol_seeds(seed, repeats)):
        np.testing.assert_array_equal(
            labels, kmeans(points, k, restarts=restarts, seed=ss))
        np.testing.assert_array_equal(
            labels, kmeans_oracle(points, k, restarts, ss))


@GRAPH_PROPS
@given(kmeans_inputs(), st.integers(1, 6), st.integers(1, 6),
       st.sampled_from([0, 1, 2, 3, 5, 300]), st.integers(0, 2 ** 32 - 1))
def test_lloyd_with_filled_record_is_bit_identical(inputs, filled, fresh,
                                                   max_iter, seed):
    # A record filled by earlier restarts on the same points must change
    # nothing: labels, SSEs and the final centers left in place are those
    # of a run without it, whatever max_iter cuts off. The restarts rerun
    # the filling inits, so those that converged reach a recorded fixed
    # point (a restart may also cycle on duplicate rows and record none).
    points, k = inputs
    rng = np.random.default_rng(seed)
    inits = np.stack([kmeanspp_init(points, k, rng)
                      for _ in range(filled + fresh)])
    record = {}
    _lloyd(points, inits[:filled].copy(), *_lloyd_inputs(points),
           fixed_points=record)
    plain = inits.copy()
    want_labels, want_sses = _lloyd(points, plain, *_lloyd_inputs(points),
                                    max_iter=max_iter)
    got = inits.copy()
    labels, sses = _lloyd(points, got, *_lloyd_inputs(points),
                          max_iter=max_iter, fixed_points=record)
    np.testing.assert_array_equal(labels, want_labels)
    assert sses == want_sses
    np.testing.assert_array_equal(got, plain)


@st.composite
def instances(draw, gamma=POSITIVE_GAMMA, **hp_kwargs):
    """Half the draws have N >= 2 sum_v D_v, so the Problem holds the map
    in R coordinates; the other half have N <= 24 and mostly hold it as
    B (m, N)."""
    n_views = draw(st.integers(1, 3))
    dims = tuple(draw(st.lists(st.integers(1, 4), min_size=n_views,
                               max_size=n_views)))
    n_rules = draw(st.integers(1, 3))
    width = n_rules * sum(d + 1 for d in dims)
    if draw(st.booleans()):
        n = draw(st.integers(2 * width, 2 * width + 16))
    else:
        n = draw(st.integers(4, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return random_instance(
        rng, n=n, n_views=n_views, m=draw(st.integers(1, 4)),
        n_rules=n_rules, dims=dims, alpha=draw(st.floats(0.0, 4.0)),
        beta=draw(st.floats(0.1, 4.0)), gamma=draw(gamma),
        delta=draw(st.floats(0.05, 20.0)), **hp_kwargs)


def dense_condition(gram, shift):
    """Condition number of gram + shift*I on the subspace a least-squares
    solve of it resolves."""
    s = np.linalg.svd(gram + shift * np.eye(len(gram)), compute_uv=False)
    s = s[s > len(gram) * np.finfo(float).eps * s[0]]
    return s[0] / s[-1] if s.size else 1.0


def assert_stationary(surrogate, start, new):
    """The surrogate's FD gradient vanishes at `new` relative to `start`."""
    scale = np.abs(fd_gradient(surrogate, start)).max()
    assert np.abs(fd_gradient(surrogate, new)).max() <= 1e-5 * scale


@PROPS
@given(instances())
def test_graph_traces_match_dense_trace(instance):
    state, _, problem, graphs = instance
    traces = graph_traces(state, problem)
    for v, g in enumerate(graphs):
        z = problem.design[v] @ (state.p_common[v] + state.p_specific[v])
        dense = float(np.trace(z.T @ g.laplacian @ z))
        # Natural scale of the form: ||L||_inf bounds L's top eigenvalue.
        scale = np.abs(g.laplacian).sum(axis=1).max() * float((z * z).sum())
        assert abs(traces[v] - dense) <= 1e-10 * scale


@PROPS
@given(instances(gamma=ANY_GAMMA, b_update="exact"), st.booleans(),
       st.booleans())
def test_exact_consistency_matches_dense_solve(instance, duplicate_view,
                                               zero_column):
    state, b, problem, _ = instance
    if duplicate_view:
        problem = Problem(design=problem.design + problem.design[:1],
                          xlx=problem.xlx + problem.xlx[:1],
                          gram=problem.gram + problem.gram[:1])
        state = replace(state,
                        p_common=state.p_common + state.p_common[:1],
                        p_specific=state.p_specific + state.p_specific[:1])
    if zero_column:
        state.p_common[-1] = state.p_common[-1].copy()
        state.p_common[-1][:, 0] = 0.0
    f_b = irls_diag(b, state.hp.eps_irls)
    new = from_coords(problem, update_consistency(state, problem, f_diag=f_b))
    zcs = [x @ pc for x, pc in zip(problem.design, state.p_common)]
    # The exact update minimizes the beta-weighted map residual, so the
    # oracle's shift is gamma / beta.
    shift = state.hp.gamma / state.hp.beta
    ref = dense_exact_consistency(zcs, f_b, shift)
    # The dense solve squares U's conditioning, and its own forward error
    # grows as cond(A) * eps. Above cond(A) ~ 450 the tolerance follows
    # that bound, with a 1e3 margin, instead of the flat 1e-10.
    gram = sum(z @ z.T for z in zcs)
    kappa = max(dense_condition(gram, shift * f) for f in f_b)
    tol = max(1e-10, 1e3 * kappa * np.finfo(float).eps)
    assert np.abs(new - ref).max() <= tol * np.abs(ref).max()


@PROPS
@given(instances(), st.sampled_from(VARIANTS))
def test_common_update_is_stationary(instance, variant):
    state, b, problem, _ = instance
    state = replace(state, hp=replace(state.hp, variant=variant))
    if variant == "no_consistency":
        b = None
    f_c = irls_diag(state.p_common[0], state.hp.eps_irls)
    new = update_common(state, 0, problem, b, f_diag=f_c)
    assert_stationary(
        lambda p: surrogate(("common", 0), p, state, problem, b, f_c),
        state.p_common[0], new)


@PROPS
@given(instances())
def test_specific_update_is_stationary(instance):
    state, _, problem, _ = instance
    f_s = irls_diag(state.p_specific[0], state.hp.eps_irls)
    new = update_specific(state, 0, problem, f_diag=f_s)
    assert_stationary(
        lambda p: surrogate(("specific", 0), p, state, problem, None, f_s),
        state.p_specific[0], new)


@PROPS
@given(instances(gamma=ANY_GAMMA, b_update="exact"))
def test_exact_consistency_update_is_stationary(instance):
    state, b, problem, _ = instance
    f_b = irls_diag(b, state.hp.eps_irls)
    new = update_consistency(state, problem, f_diag=f_b)
    assert_stationary(
        lambda x: surrogate(("consistency", None), x, state, problem, b,
                            f_b),
        b, new)


@PROPS
@given(instances(), st.sampled_from(("common", "specific", "consistency")),
       st.integers(0, 2 ** 32 - 1))
def test_surrogate_changes_match_objective(instance, block, seed):
    """Between two values of one block, the objective's graph,
    orthogonality and consistency terms change by exactly as much as the
    block's surrogate without its frozen gamma * sum_i f_i ||x_i||^2."""
    state, b, problem, _ = instance
    if block == "common":
        x1 = state.p_common[0]
        at = lambda x: (replace(state, p_common=[x] + state.p_common[1:]), b)
        blk = ("common", 0)
    elif block == "specific":
        x1 = state.p_specific[0]
        at = lambda x: (replace(state, p_specific=[x] + state.p_specific[1:]),
                        b)
        blk = ("specific", 0)
    else:
        x1 = b
        at = lambda x: (state, x)
        blk = ("consistency", None)
    x2 = np.random.default_rng(seed).normal(size=x1.shape)
    f = irls_diag(x1, state.hp.eps_irls)

    terms = [objective(st_x, problem, b_x)
             for st_x, b_x in (at(x1), at(x2))]
    smooth = [t.graph + t.orthogonality + t.consistency for t in terms]
    full = [surrogate(blk, x, state, problem, b, f) for x in (x1, x2)]
    frozen = [state.hp.gamma * float((f[:, None] * x * x).sum())
              for x in (x1, x2)]
    scale = sum(abs(t.graph) + abs(t.orthogonality) + abs(t.consistency)
                for t in terms) + sum(abs(v) for v in full)
    change = (full[1] - frozen[1]) - (full[0] - frozen[0])
    assert abs((smooth[1] - smooth[0]) - change) <= 1e-10 * scale


@PROPS
@given(instances(), st.floats(1e-3, 1e3), st.floats(1e-3, 1e3))
def test_view_weights_stay_on_simplex(instance, delta, p_scale):
    state, _, problem, _ = instance
    state = replace(state, hp=replace(state.hp, delta=delta),
                    p_common=[p_scale * p for p in state.p_common])
    w = update_view_weights(state, problem)
    assert np.all(np.isfinite(w)) and np.all(w >= 0)
    assert abs(w.sum() - 1.0) <= 1e-12


@st.composite
def mapped_views(draw):
    """A view, a bank fitted on it and a batch to map: the training rows,
    or fresh rows at another scale and offset."""
    n = draw(st.integers(1, 40))
    d = draw(st.integers(1, 8))
    n_rules = draw(st.integers(1, min(n, 6)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.normal(size=(n, d)) * draw(st.floats(1e-3, 1e3))
    bank = fit_antecedents(x, n_rules)
    if draw(st.booleans()):
        x = (rng.normal(size=(draw(st.integers(1, 20)), d))
             * draw(st.floats(1e-2, 1e2)) + draw(st.floats(-50, 50)))
    return x, bank


# One row, or rows that leave a feature without scatter, floor the widths
# with a RuntimeWarning; the normalizations must hold all the same.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@GRAPH_PROPS
@given(mapped_views())
def test_widths_firing_levels_and_constant_slots_sum_to_one(mapped):
    x, bank = mapped
    # Each feature's widths sum to 1 across rules, up to the floor, or sit
    # at the floor when the feature has no scatter.
    floored = np.all(bank.widths == EPS_WIDTH, axis=0)
    sums = bank.widths.sum(axis=0)[~floored]
    assert np.all(np.abs(sums - 1.0) <= bank.n_rules * EPS_WIDTH + 1e-12)
    levels = firing_levels(x, bank)
    assert np.all(levels >= 0)
    np.testing.assert_allclose(levels.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    out = fuzzy_map(x, bank)
    d = x.shape[1]
    assert out.shape == (x.shape[0], bank.n_rules * (d + 1))
    constants = out[:, ::d + 1]
    np.testing.assert_array_equal(constants, levels)
    np.testing.assert_allclose(constants.sum(axis=1), 1.0, rtol=0,
                               atol=1e-12)


@PROPS
@given(st.data())
def test_rule_replay_equals_embed(data):
    n_views = data.draw(st.integers(1, 3))
    dims = data.draw(st.lists(st.integers(1, 5), min_size=n_views,
                              max_size=n_views))
    n = data.draw(st.integers(8, 30))
    n_rules = data.draw(st.integers(1, 3))
    m = data.draw(st.integers(1, min(4, n_rules * (min(dims) + 1))))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    train = MultiViewDataset(views=[rng.normal(size=(n, d)) for d in dims])
    hp = Hyperparams(n_rules=n_rules, embed_dim=m,
                     max_iter=data.draw(st.integers(0, 3)),
                     n_neighbors=data.draw(st.integers(1, 5)),
                     variant=data.draw(st.sampled_from(VARIANTS)),
                     b_update=data.draw(st.sampled_from(B_UPDATE_MODES)),
                     seed=data.draw(st.integers(0, 1000)))
    state, _ = fit(train, hp)
    export = export_rules(state)
    fresh = MultiViewDataset(views=[3.0 * rng.normal(size=(5, d))
                                    for d in dims])
    for ds in (train, fresh):
        z = embed(ds, state).data
        replay = rules_predict(export, ds.views).data
        assert replay.shape == z.shape
        assert np.abs(replay - z).max() <= 1e-9
