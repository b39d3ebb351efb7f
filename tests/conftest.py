import pytest

from mvfuzzy import Hyperparams, fit, make_synthetic
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
    matrices and graphs, with the Problem built from them."""
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
    return state, b, Problem.from_graphs(design, graphs), graphs
