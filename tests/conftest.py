from unittest import mock

import numpy as np
import pytest

from mvfuzzy import Hyperparams, evaluation, fit, make_synthetic, solver
from mvfuzzy.antecedent import fuzzy_map
from mvfuzzy.solver import ModelState, NumericFailure, Problem


@pytest.fixture(scope="session")
def blob_dataset():
    """Small well-separated two-view dataset for fast unit tests."""
    return make_synthetic(n_instances=80, n_views=2, n_clusters=3,
                          noise=0.1, seed=11)


@pytest.fixture(scope="session")
def fitted_blob(blob_dataset):
    hp = Hyperparams(max_iter=25, seed=5)
    return fit(blob_dataset, hp)


def knn_dense(x, n_neighbors, bandwidth="auto"):
    """The similarity S of x's kNN graph, dense (N, N). The graph
    module's constants are read at call time, so a patched block or
    group budget applies."""
    from mvfuzzy.graph import build_graph

    return build_graph(x, n_neighbors, bandwidth).dense()[0]


def random_instance(rng, n=10, n_views=2, m=2, n_rules=2, dims=(3, 4),
                    **hp_kwargs):
    """A random solver state and consistency map over real fuzzy design
    matrices and graphs, with the Problem built from them; returns
    (state, map, problem, graphs, designs). The map is held in the
    Problem's coordinates, as fit holds it: a random B (m, n), mapped to
    E = B Q when the Problem has R coordinates."""
    from mvfuzzy.antecedent import fit_antecedents
    from mvfuzzy.graph import build_graph

    design = []
    graphs = []
    for d in dims[:n_views]:
        x = rng.normal(size=(n, d))
        bank = fit_antecedents(x, n_rules)
        xg = fuzzy_map(x, bank)
        design.append(xg)
        graphs.append(build_graph(xg, n_neighbors=min(3, n - 1)))
    hp_kwargs.setdefault("embed_dim", m)
    hp_kwargs.setdefault("n_rules", n_rules)
    hp = Hyperparams(**hp_kwargs)
    weights = rng.random(n_views) + 0.1
    weights /= weights.sum()
    state = ModelState(
        hp=hp,
        standardizers=[None] * n_views,
        banks=[None] * n_views,
        p_common=[rng.normal(size=(xg.shape[1], m)) for xg in design],
        p_specific=[rng.normal(size=(xg.shape[1], m)) for xg in design],
        view_weights=weights,
    )
    b = rng.normal(size=(m, n))
    problem = Problem.from_graphs(design, graphs)
    return state, to_coords(problem, design, b), problem, graphs, design


def prepared_designs(dataset, prepared):
    """The fuzzy designs (N, D_v) that prepare_inputs built for dataset,
    rebuilt bit for bit from the Prepared's standardizers and banks."""
    return [fuzzy_map(s.transform(x), bank) for s, bank, x
            in zip(prepared.standardizers, prepared.banks, dataset.views)]


def coordinate_basis(problem, design):
    """The Q of the thin QR [X_1 ... X_V] = Q [R_1 ... R_V] of the designs
    problem was built from when problem.coords are its R blocks (fewer
    than N rows), or None when they are the designs themselves. A map B
    (m, N) with rows in the span of Q is held as E = B Q, and B = E Q^T."""
    if problem.coords[0].shape[0] == problem.n_instances:
        return None
    return np.linalg.qr(np.hstack(design))[0]


def to_coords(problem, design, b):
    """A map B (m, N) in the coordinates of problem, built from design."""
    q = coordinate_basis(problem, design)
    return b if q is None else b @ q


def from_coords(problem, design, e):
    """A map held in the coordinates of problem, built from design, as
    B (m, N)."""
    q = coordinate_basis(problem, design)
    return e if q is None else e @ q.T


def protocol_labelings(z, k, repeats, restarts, seed):
    """The labeling of every `kmeans` call that `evaluate_embedding` makes,
    in order."""
    labelings = []
    kmeans = evaluation.kmeans

    def recording(*args, **kwargs):
        labelings.append(kmeans(*args, **kwargs))
        return labelings[-1]

    with mock.patch.object(evaluation, "kmeans", recording):
        evaluation.evaluate_embedding(z, np.zeros(len(z)), n_clusters=k,
                                      repeats=repeats, restarts=restarts,
                                      seed=seed)
    return labelings


def protocol_record(z, k, repeats, restarts, seed):
    """The fixed-point record that the `kmeans` calls of one
    `evaluate_embedding` share, as the protocol leaves it."""
    records = []
    kmeans = evaluation.kmeans

    def capturing(*args, _fixed_points=None, **kwargs):
        records.append(_fixed_points)
        return kmeans(*args, _fixed_points=_fixed_points, **kwargs)

    with mock.patch.object(evaluation, "kmeans", capturing):
        evaluation.evaluate_embedding(z, np.zeros(len(z)), n_clusters=k,
                                      repeats=repeats, restarts=restarts,
                                      seed=seed)
    assert all(record is records[0] for record in records)
    return records[0]


def protocol_seeds(seed, repeats):
    """The seeds `evaluate_embedding` derives for its `repeats` calls."""
    return np.random.SeedSequence(seed).spawn(repeats)


def solve_calls(run):
    """(iteration, view) of every `solver.solve_reg` call that run() makes
    through one fit: the iteration is one more than the view-weight
    updates made before the call."""
    calls, weight_updates = [], []
    solve_reg = solver.solve_reg
    update_view_weights = solver.update_view_weights

    def solving(a, rhs, view=None):
        calls.append((len(weight_updates) + 1, view))
        return solve_reg(a, rhs, view=view)

    def weighting(*args, **kwargs):
        weight_updates.append(None)
        return update_view_weights(*args, **kwargs)

    with mock.patch.object(solver, "solve_reg", solving), \
            mock.patch.object(solver, "update_view_weights", weighting):
        run()
    return calls


def surrogate_audit(run):
    """The surrogate audit of the one fit that run() makes: per iteration,
    a dict that maps each block updated, keyed as `solver.surrogate` names
    them, to `solver.surrogate` at its old and its new value, at the
    reweighting f_diag its update was given. fit calls every update
    through its module attribute, as perfbench's tracer sees them, so the
    wrappers set there watch each one. The map's initial update has no
    old value and is not audited; a view-weight update ends an iteration.
    """
    audit, maps = [{}], []
    update_consistency = solver.update_consistency
    update_common = solver.update_common
    update_specific = solver.update_specific
    update_view_weights = solver.update_view_weights

    def record(block, old, new, state, problem, b, f_diag):
        audit[-1][block] = tuple(
            solver.surrogate(block, x, state, problem, b, f_diag)
            for x in (old, new))

    def consistency(state, problem, f_diag):
        new = update_consistency(state, problem, f_diag)
        if maps:
            record(("consistency", None), maps[-1], new, state, problem,
                   None, f_diag)
        maps.append(new)
        return new

    def common(state, view, problem, b, f_diag, **kwargs):
        new = update_common(state, view, problem, b, f_diag, **kwargs)
        record(("common", view), state.p_common[view], new, state, problem,
               b, f_diag)
        return new

    def specific(state, view, problem, f_diag):
        new = update_specific(state, view, problem, f_diag)
        record(("specific", view), state.p_specific[view], new, state,
               problem, maps[-1] if maps else None, f_diag)
        return new

    def weighting(traces, delta):
        audit.append({})
        return update_view_weights(traces, delta)

    with mock.patch.multiple(solver, update_consistency=consistency,
                             update_common=common, update_specific=specific,
                             update_view_weights=weighting):
        run()
    return audit[:-1]


def failing_solve(n):
    """A `solver.solve_reg` whose nth call raises NumericFailure for the
    view it was given, as a singular system would; the other calls
    solve."""
    solve_reg = solver.solve_reg
    count = []

    def solving(a, rhs, view=None):
        count.append(None)
        if len(count) == n:
            raise NumericFailure("linear system is singular", view=view)
        return solve_reg(a, rhs, view=view)

    return solving
