from unittest import mock

import numpy as np
import pytest

from mvfuzzy import Hyperparams, evaluation, fit, make_synthetic
from mvfuzzy.solver import ModelState, Problem


@pytest.fixture(scope="session")
def blob_dataset():
    """Small well-separated two-view dataset for fast unit tests."""
    return make_synthetic(n_instances=80, n_views=2, n_clusters=3,
                          noise=0.1, seed=11)


@pytest.fixture(scope="session")
def fitted_blob(blob_dataset):
    hp = Hyperparams(max_iter=25, seed=5)
    return fit(blob_dataset, hp)


def random_instance(rng, n=10, n_views=2, m=2, n_rules=2, dims=(3, 4),
                    **hp_kwargs):
    """A random solver state and consistency map over real fuzzy design
    matrices and graphs, with the Problem built from them. The map is
    held in the Problem's coordinates, as fit holds it: a random B
    (m, n), mapped to E = B Q when the Problem has R coordinates."""
    from mvfuzzy.antecedent import fit_antecedents, fuzzy_map
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
    return state, to_coords(problem, b), problem, graphs


def coordinate_basis(problem):
    """The Q of the thin QR [X_1 ... X_V] = Q [R_1 ... R_V] when
    problem.coords are its R blocks, or None when they are the designs
    themselves. A map B (m, N) with rows in the span of Q is held as
    E = B Q, and B = E Q^T."""
    if all(r is x for r, x in zip(problem.coords, problem.design)):
        return None
    return np.linalg.qr(np.hstack(problem.design))[0]


def to_coords(problem, b):
    """A map B (m, N) in problem's coordinates."""
    q = coordinate_basis(problem)
    return b if q is None else b @ q


def from_coords(problem, e):
    """A map held in problem's coordinates, as B (m, N)."""
    q = coordinate_basis(problem)
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


def protocol_seeds(seed, repeats):
    """The seeds `evaluate_embedding` derives for its `repeats` calls."""
    return np.random.SeedSequence(seed).spawn(repeats)
