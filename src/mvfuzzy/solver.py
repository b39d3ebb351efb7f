"""Joint objective and alternating optimization of the multi-view model.

State per view: a common consequent matrix and a specific consequent
matrix acting on the fuzzy design matrix, plus a softmax-weighted view
importance vector. The consistency map B (m, N) exists only inside `fit`,
which carries it in the coordinates that `Problem` states: with K < N
columns whenever 2 sum_v D_v <= N, so that no iteration touches N.
Row-sparsity terms are handled by iteratively reweighted least squares
(Nie et al., NeurIPS 2010): each update freezes the diagonal reweighting,
minimizes its block's `surrogate` by a linear solve, and moves on. The
consequent updates solve it on the rows above the reweighting floor only,
and hold the others at exactly 0 while a KKT test allows; only the live
columns of their systems are formed.

Every dense factorization in the fit goes through numpy's LAPACK. numpy
and scipy each ship their own OpenBLAS, each with its own thread pool; a
scipy solve between numpy products makes the two pools contend for the
same cores and can double the fit's CPU time. The package loads no scipy
module, so a process that uses it maps only numpy's OpenBLAS.
"""

import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .antecedent import Standardizer, fit_antecedents, fuzzy_map
from .data import DataError, _is_int, _is_real
from .graph import _check_bandwidth, build_graph

VARIANTS = ("full", "common_only", "no_consistency")
B_UPDATE_MODES = ("paper", "exact")

RIDGE = 1e-10


class NumericFailure(RuntimeError):
    """A linear solve failed even after the ridge retry."""

    def __init__(self, message, view=None, iteration=None):
        super().__init__(message)
        self.view = view
        self.iteration = iteration


@dataclass
class Hyperparams:
    """Regularization weights and run controls.

    embed_dim=None defers to the number of label classes at fit time.
    b_update "paper" uses the one-shot diagonal closed form for the
    consistency map; "exact" solves its stationarity system outright
    through one thin SVD, at O(K (mV)^2) per iteration, where K is the
    width of the map's coordinates (see `Problem`).

    eps_irls is the floor of the row norms in the L2,1 reweighting
    1 / max(||x_i||, eps_irls). A consequent row whose norm is at most
    eps_irls is at the floor: while gamma > 0 the next update holds it at
    exactly 0 unless the KKT test of `_solve_l21` releases it.

    alpha, beta, gamma and delta must be finite reals (not bools);
    bandwidth "auto" or a finite positive real. n_rules, embed_dim,
    max_iter, n_neighbors and seed must be integers; eps_irls must be
    finite and positive, tol_stop finite.
    """

    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0
    delta: float = 1.0
    n_rules: int = 3
    embed_dim: int | None = None
    max_iter: int = 100
    n_neighbors: int = 5
    bandwidth: object = "auto"
    eps_irls: float = 1e-8
    tol_stop: float = 1e-6
    seed: int = 0
    b_update: str = "paper"
    variant: str = "full"

    def __post_init__(self):
        weights = (self.alpha, self.beta, self.gamma, self.delta)
        if not all(_is_real(w) and np.isfinite(w) for w in weights):
            raise ValueError("alpha, beta, gamma, delta must be finite "
                             f"reals, got {weights!r}")
        if min(self.alpha, self.beta, self.gamma) < 0:
            raise ValueError("alpha, beta, gamma must be non-negative")
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        for name in ("n_rules", "embed_dim", "max_iter", "n_neighbors",
                     "seed"):
            value = getattr(self, name)
            if not (_is_int(value) or name == "embed_dim" and value is None):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not (_is_real(self.eps_irls) and np.isfinite(self.eps_irls)
                and self.eps_irls > 0):
            raise ValueError(
                f"eps_irls must be finite and positive, got {self.eps_irls!r}")
        if not (_is_real(self.tol_stop) and np.isfinite(self.tol_stop)):
            raise ValueError(f"tol_stop must be finite, got {self.tol_stop!r}")
        _check_bandwidth(self.bandwidth)
        if self.n_rules < 1:
            raise ValueError("n_rules must be >= 1")
        if self.embed_dim is not None and self.embed_dim < 1:
            raise ValueError("embed_dim must be >= 1")
        if self.max_iter < 0:
            raise ValueError("max_iter must be >= 0")
        if self.b_update not in B_UPDATE_MODES:
            raise ValueError(f"b_update must be one of {B_UPDATE_MODES}")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")


@dataclass
class ModelState:
    """Everything a fitted model needs to embed new data; no field scales
    with the training-set size."""

    hp: Hyperparams
    standardizers: list
    banks: list
    p_common: list
    p_specific: list
    view_weights: np.ndarray

    @property
    def n_views(self):
        return len(self.p_common)

    @property
    def embed_dim(self):
        return self.p_common[0].shape[1]


@dataclass
class ObjectiveTerms:
    graph: float
    orthogonality: float
    consistency: float
    b_sparsity: float
    pc_sparsity: float
    ps_sparsity: float
    entropy: float

    @property
    def total(self):
        return sum(getattr(self, name) for name in TERM_NAMES)


TERM_NAMES = tuple(f.name for f in fields(ObjectiveTerms))


@dataclass
class TraceEntry:
    iteration: int
    terms: ObjectiveTerms
    weights: np.ndarray
    elapsed: float

    @property
    def total(self):
        return self.terms.total


@dataclass
class FitTrace:
    """Per-iteration objective breakdown; entry 0 is the initialization.

    stop_reason is "tolerance" when the early-stop test on the entries'
    totals ended the fit, "max_iter" when the cap did. collapsed is True
    when every entry of every common block ended exactly 0, so that the
    common part of the embedding is 0 for any input. Neither is in the CSV.
    """

    entries: list = field(default_factory=list)
    stop_reason: str | None = None
    collapsed: bool = False

    def totals(self):
        return np.array([e.total for e in self.entries])

    def term_values(self, name):
        return np.array([getattr(e.terms, name) for e in self.entries])

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("iteration,total," + ",".join(TERM_NAMES) + "\n")
            for e in self.entries:
                cells = [str(e.iteration), repr(e.total)]
                cells += [repr(getattr(e.terms, n)) for n in TERM_NAMES]
                fh.write(",".join(cells) + "\n")


def _row_norms(x):
    """Euclidean norm of each row of x. The L2,1 terms of `objective` and
    the IRLS weights of `fit` are both read from it, so they agree to the
    bit on the same block."""
    return np.sqrt((x ** 2).sum(axis=1))


def irls_diag(m, eps=1e-8):
    """Diagonal of the row reweighting matrix: 1 / max(row norm, eps)."""
    return 1.0 / np.maximum(_row_norms(np.asarray(m, dtype=float)), eps)


def solve_reg(a, rhs, view=None):
    """Direct solve with a single ridge retry.

    Never forms an explicit inverse. It factors with `np.linalg.solve`,
    not scipy's solvers, so the fit stays on numpy's one BLAS (see the
    module note); the solution comes back C-ordered, as `embed` needs for
    bit-identical output after a save and load. A solve that raises
    LinAlgError (an exactly singular pivot) or returns a non-finite entry
    gets one retry with RIDGE * max(1, max |diag(a)|) added to the
    diagonal, a ridge scaled to the system so that it still acts when IRLS
    weights push the diagonal to 1e8 and beyond, before NumericFailure is
    raised. No residual is checked: LU with partial pivoting is backward
    stable, so a finite solution always has a small backward error, and
    that never showed it to be a meaningful one. On an ill-conditioned
    system the solution can still be far from the exact one; how badly
    conditioned the fit's systems are is for a fit report to state.
    """
    def attempt(mat):
        try:
            out = np.linalg.solve(mat, rhs)
        except np.linalg.LinAlgError:
            return None
        return out if np.all(np.isfinite(out)) else None

    out = attempt(a)
    if out is None:
        ridge = RIDGE * max(1.0, float(np.abs(np.diag(a)).max()))
        ridged = np.array(a, dtype=float)
        ridged.flat[::len(a) + 1] += ridge
        out = attempt(ridged)
    if out is None:
        raise NumericFailure("linear system is singular", view=view)
    return out


@dataclass
class Problem:
    """Per-view quantities every iteration reads, derived once by
    `from_graphs`. xlx[v] is X^T L X for the view's fuzzy design X (N, D_v)
    and kNN graph Laplacian L, and gram[v] is X^T X, both (D_v, D_v).
    Neither the designs nor the graphs are kept: every graph-dependent
    term of the objective is a quadratic form in X^T L X, and every map
    term reads coords.

    coords[v] (K, D_v) is the view's design in the coordinates that `fit`
    carries the consistency map in, and n_instances is N. When
    2 sum_v D_v <= N they are the column blocks R_v of the R factor of one
    thin QR [X_1 ... X_V] = Q R, with K = sum_v D_v; Q is never formed.
    The map is then held as E = B Q (m, K), whose rows have the norms of
    B's, since every map the fit forms has its rows in the span of Q. QR,
    not a Cholesky factor of the stacked Gram matrix, because the stacked
    designs are rank-deficient (the firing levels of every view sum to
    one). Otherwise coords[v] is X_v, K = N and the map is held as B,
    which is cheaper when the designs are wide. Every function here takes
    a map b held so: B X_v = b coords[v], and b's L2,1 norm is B's.
    """

    xlx: list
    gram: list
    coords: list
    n_instances: int

    @classmethod
    def from_graphs(cls, design, graphs):
        """The Problem of the views' fuzzy designs and kNN graphs. X^T L X
        is formed from each graph's neighbour lists (O(N*k) entries) by
        `GraphLaplacian.quadratic`."""
        xlx = [g.quadratic(x) for x, g in zip(design, graphs)]
        gram = [x.T @ x for x in design]
        n = design[0].shape[0]
        widths = np.cumsum([0] + [x.shape[1] for x in design])
        if 2 * widths[-1] > n:
            coords = list(design)
        else:
            r = np.linalg.qr(np.hstack(design), mode="r")
            coords = [np.ascontiguousarray(r[:, a:b])
                      for a, b in zip(widths[:-1], widths[1:])]
        return cls(xlx=xlx, gram=gram, coords=coords, n_instances=n)


def _smoothness(xlx, p):
    """tr(Z^T L Z) for Z = X P, as tr(P^T (X^T L X) P)."""
    return float((p * (xlx @ p)).sum())


def _cross(gram, pc, ps):
    """||Zc^T Zs||_F^2 for Zc = X Pc, Zs = X Ps."""
    return float(((pc.T @ gram @ ps) ** 2).sum())


def _map_residual(bx, pc):
    """||B Zc - I||_F^2 for Zc = X Pc, given B X (= E R in coordinates)."""
    r = bx @ pc
    r.flat[::r.shape[1] + 1] -= 1.0
    r *= r
    return float(r.sum())


def _map_products(b, problem):
    """B X_v of every view for the map b, held as `Problem` states (None:
    no map, and no products)."""
    return None if b is None else [b @ r for r in problem.coords]


def _block_norms(state, b):
    """The row norms of every block, keyed as `surrogate` names the blocks;
    the map's only when there is one (b not None)."""
    norms = {}
    if b is not None:
        norms["consistency", None] = _row_norms(b)
    for v in range(state.n_views):
        norms["common", v] = _row_norms(state.p_common[v])
        norms["specific", v] = _row_norms(state.p_specific[v])
    return norms


def graph_traces(state, problem):
    """Per-view smoothness tr((Zc+Zs)^T L (Zc+Zs)) of the current state."""
    return np.array([
        _smoothness(xlx, pc + ps) for xlx, pc, ps
        in zip(problem.xlx, state.p_common, state.p_specific)])


def objective(state, problem, b, *, _traces=None, _bxs=None, _norms=None):
    """Evaluate the joint objective term by term at consistency map b,
    held as `Problem` states. Frobenius terms are squared; the row-sparsity
    terms are plain L2,1 norms; 0*ln(0) counts as 0. b=None means there
    is no map (fit passes it under the no_consistency variant): the map
    residual and its sparsity term are then absent and reported as exact
    zeros.

    fit passes what its iteration has already formed, so that nothing is
    evaluated twice: the graph_traces as _traces, the products B X_v of
    every view as _bxs, and each block's row norms as _norms, a dict keyed
    by block as `surrogate` names them. Each is the same array the
    objective would form from the state and b.
    """
    hp = state.hp
    if len(problem.coords) != state.n_views:
        raise ValueError("problem view count does not match the state")
    for v, (r, pc, ps) in enumerate(zip(problem.coords, state.p_common,
                                        state.p_specific)):
        if not r.shape[1] == pc.shape[0] == ps.shape[0] or (
                b is not None and b.shape[1] != r.shape[0]):
            raise ValueError(f"view {v}: design width mismatch")

    w = state.view_weights
    if _traces is None:
        _traces = graph_traces(state, problem)
    graph_term = float(w @ _traces)
    orth = hp.alpha * sum(
        _cross(g, pc, ps) for g, pc, ps
        in zip(problem.gram, state.p_common, state.p_specific))

    if _norms is None:
        _norms = _block_norms(state, b)
    if b is None:
        consist = 0.0
        b_sparse = 0.0
    else:
        if _bxs is None:
            _bxs = _map_products(b, problem)
        consist = hp.beta * sum(
            _map_residual(bx, pc) for bx, pc in zip(_bxs, state.p_common))
        b_sparse = hp.gamma * float(_norms["consistency", None].sum())

    views = range(state.n_views)
    pc_sparse = hp.gamma * sum(float(_norms["common", v].sum())
                               for v in views)
    ps_sparse = hp.gamma * sum(float(_norms["specific", v].sum())
                               for v in views)

    wpos = w[w > 0]
    entropy = hp.delta * float((wpos * np.log(wpos)).sum())

    return ObjectiveTerms(graph=graph_term, orthogonality=orth,
                          consistency=consist, b_sparsity=b_sparse,
                          pc_sparsity=pc_sparse, ps_sparsity=ps_sparse,
                          entropy=entropy)


def _solve_l21(columns, rhs, gamma, f_diag, eps, view):
    """Minimize a consequent block's `surrogate` over the rows not held at
    0. Up to terms free of x it is x^T a x - 2 tr(rhs^T x) plus the frozen
    gamma sum_i f_i ||x_i||^2, for a the smooth system, symmetric; it is
    never formed here. columns(idx) returns its columns idx, a[:, idx]
    (D, |idx|), and is asked only for the free rows' columns: the full
    width only when every row is free, and then the whole system is
    solved with no test. Rows at the IRLS floor (f_i >= 1 / eps, so the
    old row norm was at most eps) start at exactly 0 when gamma > 0; the
    system is solved on the other rows only. With x_i = 0 the stationarity
    condition h + gamma f x = 0 of the smooth residual h = a x - rhs
    becomes the subgradient test ||h_i|| <= gamma, the weight that
    multiplies f_i; each zero row that fails it is released and the free
    rows are solved again. A zero row so certified is within eps of its old
    value, and a solve of every row would leave it within about
    eps ||h_i|| / gamma <= eps of 0. A block with no free row asks for no
    column: its test reads rhs alone.
    """
    # The L2,1 weight per unit of f: it sets both the diagonal term and
    # the KKT threshold.
    weight = gamma
    idx = np.flatnonzero(f_diag < (1.0 / eps if weight > 0 else np.inf))
    x = np.zeros(rhs.shape)
    while True:
        if idx.size:
            cols = columns(idx)
            if idx.size == len(rhs):
                cols.flat[::idx.size + 1] += weight * f_diag
                return solve_reg(cols, rhs, view=view)
            sub = cols.take(idx, 0)
            sub.flat[::idx.size + 1] += weight * f_diag[idx]
            live = solve_reg(sub, rhs.take(idx, 0), view=view)
            x[idx] = live
            # The gamma f term adds nothing to h on a zero row.
            h = cols @ live
            h -= rhs
        else:
            h = -rhs
        h *= h
        norms = h.sum(axis=1)
        norms[idx] = 0.0  # only the zero rows are tested
        released = np.flatnonzero(norms > weight * weight)
        if not released.size:
            return x
        idx = np.union1d(idx, released)


def _update_consequent(state, view, problem, other, bx, f_diag):
    """IRLS update of one of a view's two consequent blocks, the other
    block `other` held fixed, with the row reweighting f_diag frozen. bx is
    B X for the frozen consistency map (None: no map residual enters the
    system). It minimizes the block's surrogate over the free rows; rows at
    the eps_irls floor stay at exactly 0 while the KKT test of `_solve_l21`
    certifies them, each within eps_irls of its old value.

    The smooth system wv X^T L X + alpha (G P)(G P)^T + beta (B X)^T (B X),
    with G = X^T X and P = other, is formed only in the columns
    `_solve_l21` asks for: the live rows'."""
    hp = state.hp
    xlx = problem.xlx[view]
    wv = state.view_weights[view]

    rhs = -wv * (xlx @ other)
    if bx is not None:
        rhs += hp.beta * bx.T

    def columns(idx):
        gp = problem.gram[view] @ other
        cols = xlx.take(idx, 1)
        cols *= wv
        cols += hp.alpha * (gp @ gp.take(idx, 0).T)
        if bx is not None:
            cols += hp.beta * (bx.T @ bx.take(idx, 1))
        return cols

    return _solve_l21(columns, rhs, hp.gamma, f_diag, hp.eps_irls, view)


def update_common(state, view, problem, b, f_diag, *, _bxs=None):
    """IRLS update of one view's common consequent matrix against the
    frozen consistency map b, held as `Problem` states (b=None: there is no
    map); see `_update_consequent`. fit passes the iteration's products
    B X_v of every view as _bxs, so this one is not formed again."""
    bxs = _map_products(b, problem) if _bxs is None else _bxs
    bx = None if bxs is None else bxs[view]
    return _update_consequent(state, view, problem, state.p_specific[view],
                              bx, f_diag)


def update_specific(state, view, problem, f_diag):
    """IRLS update of one view's specific consequent matrix, which no map
    residual involves; see `_update_consequent`. The common_only variant
    never calls this (the matrix stays zero)."""
    return _update_consequent(state, view, problem, state.p_common[view],
                              None, f_diag)


def update_consistency(state, problem, f_diag):
    """New consistency map from the current common consequents, with the
    row reweighting f_diag (m,) of the map frozen. The map is returned as
    `Problem` states; below, Zc_v = X_v Pc_v may be read as
    coords[v] Pc_v and N as K, with the same result in those coordinates.

    "paper" mode keeps the paper's cheap diagonal closed form, which is
    the true minimizer of the map's `surrogate` only at beta = 1 and when
    the summed common representations have identity covariance. "exact"
    mode minimizes it outright; up to terms free of B it is
    beta sum_v ||B Zc_v - I||^2 + gamma sum_i f_i ||b_i||^2, so row i
    solves b_i (U U^T + (gamma / beta) f_i I) = s_i with
    U = [Zc_1 ... Zc_V] (N, mV) and s_i = sum_v Zc_v[:, i]. Since s_i lies
    in the span of U, one thin SVD U = Q S W^T gives every row as
    b_i = s_i Q diag(1 / (S^2 + (gamma / beta) f_i)) Q^T, at O(K (mV)^2)
    per iteration. Singular values below the usual rank tolerance for an
    (N, mV) matrix are dropped, so gamma = 0 yields the pseudo-inverse
    solution; beta = 0 yields B = 0.
    """
    hp = state.hp
    zcs = [r @ pc for r, pc in zip(problem.coords, state.p_common)]
    stacked = sum(z.T for z in zcs)  # (m, K)

    if hp.b_update == "paper":
        return stacked / (1.0 + hp.gamma * f_diag)[:, None]

    if hp.beta == 0:
        # No map residual to fit: B = 0 is the minimum-norm minimizer.
        return np.zeros_like(stacked)
    u = np.hstack(zcs)
    if not np.all(np.isfinite(u)):
        # LAPACK's SVD can spin forever on an infinite entry.
        raise NumericFailure("common representations are not finite")
    try:
        q, sigma, _ = np.linalg.svd(u, full_matrices=False)
    except np.linalg.LinAlgError:
        raise NumericFailure("consistency SVD did not converge") from None
    rank_tol = max(problem.n_instances, u.shape[1]) * np.finfo(float).eps
    keep = sigma > rank_tol * sigma[0]
    q, sigma = q[:, keep], sigma[keep]
    coef = (stacked @ q) / (sigma ** 2 + hp.gamma / hp.beta * f_diag[:, None])
    return coef @ q.T


def update_view_weights(traces, delta):
    """The minimizer over the simplex of w @ traces + delta sum_v w_v ln w_v
    for the per-view `graph_traces`: the softmax of -traces / delta, with
    max subtraction so that huge traces cannot overflow."""
    logits = -traces / delta
    logits -= logits.max()
    w = np.exp(logits)
    return w / w.sum()


def surrogate(block, x, state, problem, b, f_diag):
    """The smooth function a block's update minimizes at frozen f_diag:
    `objective` with the block set to x and its L2,1 term
    gamma sum_i ||x_i|| frozen as gamma sum_i f_i ||x_i||^2.

    block is ("common", v), ("specific", v) or ("consistency", None); b is
    the frozen map, held as `Problem` states (None: there is no map), and
    the consistency block sets it to x. The terms a block does not enter
    are constant within its update. state is not changed.
    """
    kind, v = block
    if kind == "consistency":
        b = x
    else:
        name = "p_" + kind
        blocks = list(getattr(state, name))
        blocks[v] = x
        state = replace(state, **{name: blocks})
    norms = _row_norms(x)
    return objective(state, problem, b).total + state.hp.gamma * (
        float((f_diag * norms * norms).sum()) - float(norms.sum()))


# The Hyperparams fields prepare_inputs reads; no other field changes
# what it builds.
PREP_FIELDS = ("n_rules", "n_neighbors", "bandwidth")


def prep_key(hp):
    """The values of PREP_FIELDS in hp: fits whose keys are equal can
    share one Prepared."""
    return tuple(getattr(hp, name) for name in PREP_FIELDS)


@dataclass(frozen=True)
class Prepared:
    """What fit derives from the data alone: per view the standardizer
    and rule bank, and the Problem. It records the preprocessing fields
    (key, see prep_key) and the data shape (N, view widths) it was built
    for. fit only reads it, so any number of fits may share one."""

    key: tuple
    shape: tuple
    standardizers: list
    banks: list
    problem: Problem

    def check(self, dataset, hp):
        """Raise ValueError unless this was built for hp's preprocessing
        fields and for data of dataset's shape."""
        if prep_key(hp) != self.key:
            got = dict(zip(PREP_FIELDS, prep_key(hp)))
            built = dict(zip(PREP_FIELDS, self.key))
            raise ValueError(
                f"prepared inputs were built for {built}, not {got}")
        if _data_shape(dataset) != self.shape:
            raise ValueError(
                f"prepared inputs were built for data of shape {self.shape}"
                f" (N, view widths), not {_data_shape(dataset)}")


def _data_shape(dataset):
    return dataset.n_instances, tuple(dataset.view_dims)


def prepare_inputs(dataset, hp):
    """Standardize, estimate antecedents, map to fuzzy space, build graphs,
    and derive the Problem every iteration reads; returns a Prepared.

    These are the deterministic preprocessing steps shared by every
    variant. They read only the data and hp's PREP_FIELDS, so one
    Prepared serves every fit that agrees on those. The designs and graphs
    enter the fit only through the Problem and are dropped once it is made.
    Raises DataError naming the first view whose features are all
    constant: such a view has no structure to embed.
    """
    for v, view in enumerate(dataset.views):
        if np.all(view.min(axis=0) == view.max(axis=0)):
            raise DataError(
                f"view {v}: every feature is constant; a view with no "
                "variance has nothing to embed")
    standardizers = [Standardizer.fit(v) for v in dataset.views]
    xs = [s.transform(v) for s, v in zip(standardizers, dataset.views)]
    banks = [fit_antecedents(x, hp.n_rules) for x in xs]
    design = [fuzzy_map(x, bank) for x, bank in zip(xs, banks)]
    graphs = [build_graph(xg, hp.n_neighbors, hp.bandwidth) for xg in design]
    return Prepared(key=prep_key(hp), shape=_data_shape(dataset),
                    standardizers=standardizers, banks=banks,
                    problem=Problem.from_graphs(design, graphs))


def _resolve_embed_dim(dataset, hp):
    """The embedding width m: hp.embed_dim, else the class count. B Zc_v
    = I_m needs m <= D_v = n_rules (d_v + 1), the width of every view's
    fuzzy design, so a wider m is rejected."""
    m = hp.embed_dim
    if m is None:
        if dataset.labels is None:
            raise ValueError(
                "embed_dim not set and dataset has no labels to infer it "
                "from")
        m = dataset.n_classes
    widths = [hp.n_rules * (d + 1) for d in dataset.view_dims]
    if m > min(widths):
        raise ValueError(
            f"embed_dim {m} exceeds the fuzzy design width of a view "
            f"(n_rules * (d_v + 1) = {widths}); the common representations "
            f"have rank at most {min(widths)}")
    return m


def fit(dataset, hp=None, prepared=None):
    """Run the full alternating optimization.

    Per iteration: consistency map first, then per view the common and
    specific consequents (fresh values feed forward within the iteration),
    then the view weights. Stops early once the relative objective change
    stays below tol_stop for 5 consecutive iterations. Returns the fitted
    state and the per-iteration trace.

    Each quantity the iteration reads more than once is formed once: the
    products B X_v right after the map update, for the common updates and
    the objective; each block's row norms right after its update, for the
    objective and for the block's next IRLS weights; the graph traces after
    the consequents, for the view weights and the objective. Each update
    is called through its module attribute, so a caller may wrap it there
    to time it or to audit its surrogate.

    prepared, from prepare_inputs(dataset, hp') with prep_key(hp') equal
    to prep_key(hp), skips the preprocessing; fit only reads it, and the
    result is the same as without it. A ValueError is raised if it was
    built for other preprocessing fields or another data shape, and, before
    any preparation, if the embedding width exceeds a view's fuzzy width.
    """
    hp = hp or Hyperparams()
    m = _resolve_embed_dim(dataset, hp)
    hp = replace(hp, embed_dim=m)

    if prepared is None:
        prepared = prepare_inputs(dataset, hp)
    else:
        prepared.check(dataset, hp)
    problem = prepared.problem
    rng = np.random.default_rng(hp.seed)

    p_common = []
    p_specific = []
    widths = [r.shape[1] for r in problem.coords]
    for dg in widths:
        p_common.append(rng.normal(size=(dg, m)) / np.sqrt(dg))
    for dg in widths:
        if hp.variant == "common_only":
            p_specific.append(np.zeros((dg, m)))
        else:
            p_specific.append(rng.normal(size=(dg, m)) / np.sqrt(dg))

    state = ModelState(
        hp=hp,
        standardizers=list(prepared.standardizers),
        banks=list(prepared.banks),
        p_common=p_common,
        p_specific=p_specific,
        view_weights=np.full(dataset.n_views, 1.0 / dataset.n_views),
    )
    b = None
    if hp.variant != "no_consistency":
        # The map does not exist yet; its first update uses unit reweighting.
        b = update_consistency(state, problem, f_diag=np.ones(m))
    bxs = _map_products(b, problem)
    norms = _block_norms(state, b)

    trace = FitTrace(stop_reason="max_iter")
    start = time.perf_counter()

    def record(t, traces=None):
        """Append iteration t's trace entry."""
        trace.entries.append(TraceEntry(
            iteration=t,
            terms=objective(state, problem, b, _traces=traces, _bxs=bxs,
                            _norms=norms),
            weights=state.view_weights.copy(),
            elapsed=time.perf_counter() - start,
        ))

    record(0)

    def step(block, update, *args, **kwargs):
        """IRLS update of one block, reweighted at its old value's row
        norms; the new value's norms take their place."""
        f_diag = 1.0 / np.maximum(norms[block], hp.eps_irls)
        new = update(*args, f_diag=f_diag, **kwargs)
        norms[block] = _row_norms(new)
        return new

    for t in range(1, hp.max_iter + 1):
        try:
            if b is not None:
                b = step(("consistency", None), update_consistency, state,
                         problem)
                bxs = _map_products(b, problem)
            for v in range(state.n_views):
                state.p_common[v] = step(("common", v), update_common, state,
                                         v, problem, b, _bxs=bxs)
                if hp.variant != "common_only":
                    state.p_specific[v] = step(("specific", v),
                                               update_specific, state, v,
                                               problem)
            # The weights do not change the traces: one evaluation
            # serves the weight update and the objective.
            traces = graph_traces(state, problem)
            state.view_weights = update_view_weights(traces, hp.delta)
        except NumericFailure as err:
            err.iteration = t
            raise

        record(t, traces)

        if hp.tol_stop > 0 and t >= 5:
            last = np.array([e.total for e in trace.entries[-6:]])
            prev, curr = last[:-1], last[1:]
            rel = np.abs(curr - prev) / np.maximum(np.abs(prev), 1e-12)
            if np.all(rel < hp.tol_stop):
                trace.stop_reason = "tolerance"
                break

    trace.collapsed = not any(pc.any() for pc in state.p_common)
    return state, trace
