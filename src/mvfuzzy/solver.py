"""Joint objective and alternating optimization of the multi-view model.

State per view: a common consequent matrix and a specific consequent
matrix acting on the fuzzy design matrix, plus a softmax-weighted view
importance vector. The consistency map B (m, N) exists only inside `fit`,
which carries it as coordinates E = B Q (m, sum_v D_v) in the basis Q of one
thin QR of the stacked designs whenever 2 sum_v D_v <= N (see `Problem`),
so that no iteration touches N; otherwise it carries B itself.
Row-sparsity terms are handled by iteratively reweighted least squares:
each update freezes the diagonal reweighting, solves a linear system, and
moves on.

Every dense factorization in the fit goes through numpy's LAPACK. numpy
and scipy each ship their own OpenBLAS, each with its own thread pool; a
scipy solve between numpy products makes the two pools contend for the
same cores and can double the fit's CPU time.
"""

import numbers
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .antecedent import Standardizer, fit_antecedents, fuzzy_map
from .data import DataError
from .graph import build_graph

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
        bandwidth = self.bandwidth
        if not (isinstance(bandwidth, str) and bandwidth == "auto"
                or _is_real(bandwidth) and 0 < bandwidth < np.inf):
            raise ValueError("bandwidth must be 'auto' or finite and "
                             f"positive, got {bandwidth!r}")
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


def _is_int(value):
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value):
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


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


TERM_NAMES = ("graph", "orthogonality", "consistency", "b_sparsity",
              "pc_sparsity", "ps_sparsity", "entropy")


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

    def as_dict(self):
        return {name: getattr(self, name) for name in TERM_NAMES}


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

    stop_reason is "tolerance" when the early-stop test ended the fit and
    "max_iter" when the iteration cap did; it is not part of the CSV.
    """

    entries: list = field(default_factory=list)
    surrogate_audit: list = field(default_factory=list)
    stop_reason: str | None = None

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


def l21_norm(m):
    """Sum of Euclidean row norms."""
    return float(np.sqrt((np.asarray(m) ** 2).sum(axis=1)).sum())


def irls_diag(m, eps=1e-8):
    """Diagonal of the row reweighting matrix: 1 / max(row norm, eps)."""
    norms = np.sqrt((np.asarray(m, dtype=float) ** 2).sum(axis=1))
    return 1.0 / np.maximum(norms, eps)


def solve_reg(a, rhs, view=None):
    """Direct solve with a single ridge retry.

    Never forms an explicit inverse. It factors with `np.linalg.solve`,
    not scipy's solvers, so the fit stays on numpy's one BLAS (see the
    module note); the solution comes back C-ordered, as `embed` needs for
    bit-identical output after a save and load. A solve whose relative
    residual betrays a singular or inconsistent system gets one retry
    with RIDGE * max(1, max |diag(a)|) added to the diagonal, a ridge
    scaled to the system so that it still acts when IRLS weights push
    the diagonal to 1e8 and beyond, before NumericFailure is raised.
    """
    def attempt(mat):
        try:
            out = np.linalg.solve(mat, rhs)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(out)):
            return None
        # Backward-error test: flags finite-but-meaningless output from a
        # numerically singular factorization.
        residual = float(np.abs(mat @ out - rhs).max())
        scale = float(np.abs(rhs).max(initial=0.0)
                      + np.abs(mat).max() * np.abs(out).max(initial=0.0))
        if residual > 1e-6 * max(scale, 1e-30):
            return None
        return out

    out = attempt(a)
    if out is None:
        ridge = RIDGE * max(1.0, float(np.abs(np.diag(a)).max()))
        out = attempt(a + ridge * np.eye(a.shape[0]))
    if out is None:
        raise NumericFailure("linear system is singular", view=view)
    return out


@dataclass
class Problem:
    """Per-view quantities every iteration reads, derived once.

    design[v] is the fuzzy design matrix X (N, D_v); xlx[v] is X^T L X for
    the view's kNN graph Laplacian L and gram[v] is X^T X, both (D_v, D_v).
    The graphs themselves are not kept: every graph-dependent term of the
    objective is a quadratic form in X^T L X.

    coords[v] (K, D_v) is the view's design in the coordinates that `fit`
    carries the consistency map in, and n_instances is N. When
    2 sum_v D_v <= N they are the column blocks R_v of the R factor of one
    thin QR [X_1 ... X_V] = Q R, with K = sum_v D_v; Q is never formed.
    The map is then held as E = B Q (m, K): B X_v = E R_v, and the rows
    of E have the norms of B's, since every map the fit forms has its rows
    in the span of Q. QR, not a Cholesky factor of the stacked Gram
    matrix, because the stacked designs are rank-deficient (the firing
    levels of every view sum to one). Otherwise coords[v] is X_v itself,
    K = N and the map is B, which is cheaper when the designs are wide.
    """

    design: list
    xlx: list
    gram: list
    coords: list = field(init=False)
    n_instances: int = field(init=False)

    def __post_init__(self):
        self.n_instances = self.design[0].shape[0]
        widths = np.cumsum([0] + [x.shape[1] for x in self.design])
        if 2 * widths[-1] > self.n_instances:
            self.coords = list(self.design)
            return
        r = np.linalg.qr(np.hstack(self.design), mode="r")
        self.coords = [np.ascontiguousarray(r[:, a:b])
                       for a, b in zip(widths[:-1], widths[1:])]

    @classmethod
    def from_graphs(cls, design, graphs):
        """Form X^T L X from each graph's sparse CSR Laplacian (O(N*k)
        entries) by a sparse x dense product, then X^T times that."""
        xlx = [x.T @ (g.laplacian @ x) for x, g in zip(design, graphs)]
        return cls(design=list(design), xlx=xlx,
                   gram=[x.T @ x for x in design])


def _smoothness(xlx, p):
    """tr(Z^T L Z) for Z = X P, as tr(P^T (X^T L X) P)."""
    return float((p * (xlx @ p)).sum())


def _cross(gram, pc, ps):
    """||Zc^T Zs||_F^2 for Zc = X Pc, Zs = X Ps."""
    return float(((pc.T @ gram @ ps) ** 2).sum())


def _map_residual(bx, pc):
    """||B Zc - I||_F^2 for Zc = X Pc, given B X (= E R in coordinates)."""
    return float(((bx @ pc - np.eye(pc.shape[1])) ** 2).sum())


def graph_traces(state, problem):
    """Per-view smoothness tr((Zc+Zs)^T L (Zc+Zs)) of the current state."""
    return np.array([
        _smoothness(xlx, pc + ps) for xlx, pc, ps
        in zip(problem.xlx, state.p_common, state.p_specific)])


def objective(state, problem, b, *, _traces=None):
    """Evaluate the joint objective term by term at consistency map b.

    b is held in problem.coords: it is E = B Q (m, K) when those are the
    R blocks of the stacked designs' QR and B (m, N) itself otherwise; B
    X_v = b R_v and the L2,1 norm of b is that of B either way.
    Frobenius terms are squared; the row-sparsity terms are plain L2,1
    norms; 0*ln(0) counts as 0. b=None means there is no map (fit passes
    it under the no_consistency variant): the map residual and its
    sparsity term are then absent and reported as exact zeros. fit passes
    the iteration's graph_traces as _traces, so they are evaluated once.
    """
    hp = state.hp
    if len(problem.coords) != state.n_views:
        raise ValueError("problem view count does not match the state")
    for v in range(state.n_views):
        if problem.coords[v].shape[1] != state.p_common[v].shape[0]:
            raise ValueError(f"view {v}: design width mismatch")

    w = state.view_weights
    if _traces is None:
        _traces = graph_traces(state, problem)
    graph_term = float(w @ _traces)
    orth = hp.alpha * sum(
        _cross(g, pc, ps) for g, pc, ps
        in zip(problem.gram, state.p_common, state.p_specific))

    if b is None:
        consist = 0.0
        b_sparse = 0.0
    else:
        consist = hp.beta * sum(
            _map_residual(b @ r, pc)
            for r, pc in zip(problem.coords, state.p_common))
        b_sparse = hp.gamma * l21_norm(b)

    pc_sparse = hp.gamma * sum(l21_norm(p) for p in state.p_common)
    ps_sparse = hp.gamma * sum(l21_norm(p) for p in state.p_specific)

    wpos = w[w > 0]
    entropy = hp.delta * float((wpos * np.log(wpos)).sum())

    return ObjectiveTerms(graph=graph_term, orthogonality=orth,
                          consistency=consist, b_sparsity=b_sparse,
                          pc_sparsity=pc_sparse, ps_sparsity=ps_sparse,
                          entropy=entropy)


def update_common(state, view, problem, b, f_diag):
    """Closed-form update of one view's common consequent matrix, with the
    row reweighting f_diag and the consistency map b (held in
    problem.coords) frozen; b=None means there is no map, so no map
    residual enters the system."""
    hp = state.hp
    xlx = problem.xlx[view]
    wv = state.view_weights[view]
    ps = state.p_specific[view]

    gps = problem.gram[view] @ ps
    a = wv * xlx + hp.gamma * np.diag(f_diag) + hp.alpha * (gps @ gps.T)
    rhs = -wv * (xlx @ ps)
    if b is not None:
        bx = b @ problem.coords[view]
        a = a + hp.beta * (bx.T @ bx)
        rhs = rhs + hp.beta * bx.T
    return solve_reg(a, rhs, view=view)


def update_specific(state, view, problem, f_diag):
    """Closed-form update of one view's specific consequent matrix; the
    common_only variant never calls this (the matrix stays zero)."""
    hp = state.hp
    xlx = problem.xlx[view]
    wv = state.view_weights[view]
    pc = state.p_common[view]

    gpc = problem.gram[view] @ pc
    a = wv * xlx + hp.alpha * (gpc @ gpc.T) + hp.gamma * np.diag(f_diag)
    rhs = -wv * (xlx @ pc)
    return solve_reg(a, rhs, view=view)


def update_consistency(state, problem, f_diag):
    """New consistency map from the current common consequents, with the
    row reweighting f_diag (m,) of the map frozen. The map is returned in
    problem.coords: as E = B Q (m, K) when those are R blocks, as B
    (m, N) otherwise; below, Zc_v = X_v Pc_v may be read as R_v Pc_v and
    N as K, with the same result in those coordinates.

    "paper" mode keeps the paper's cheap diagonal closed form, which is
    the true minimizer of the surrogate only at beta = 1 and when the
    summed common representations have identity covariance. "exact" mode
    minimizes the frozen-reweighting surrogate
    beta sum_v ||B Zc_v - I||^2 + gamma sum_i f_i ||b_i||^2 outright:
    row i solves b_i (U U^T + (gamma / beta) f_i I) = s_i with
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


def update_view_weights(state, problem, *, _traces=None):
    """Entropy-regularized softmax over the per-view smoothness traces,
    computed with max subtraction so huge traces cannot overflow. fit
    passes the iteration's graph_traces as _traces."""
    if _traces is None:
        _traces = graph_traces(state, problem)
    logits = -_traces / state.hp.delta
    logits -= logits.max()
    w = np.exp(logits)
    return w / w.sum()


def surrogate(block, x, state, problem, b, f_diag):
    """Smooth objective that one block's update minimizes at frozen f_diag.

    block is ("common", v), ("specific", v) or ("consistency", None): the
    objective's graph, orthogonality and map-residual terms that involve
    the block, with the block set to x, plus gamma * sum_i f_i ||x_i||^2.
    b is the frozen map the common block is fitted against (None: there is
    no map); the consistency block reads x in its place. Maps are held in
    problem.coords, as in `objective`.
    """
    hp = state.hp
    kind, v = block
    if kind == "consistency":
        value = hp.beta * sum(_map_residual(x @ r, pc) for r, pc
                              in zip(problem.coords, state.p_common))
    else:
        pc, ps = ((x, state.p_specific[v]) if kind == "common"
                  else (state.p_common[v], x))
        value = state.view_weights[v] * _smoothness(problem.xlx[v], pc + ps)
        value += hp.alpha * _cross(problem.gram[v], pc, ps)
        if kind == "common" and b is not None:
            value += hp.beta * _map_residual(b @ problem.coords[v], x)
    value += hp.gamma * float((f_diag[:, None] * x * x).sum())
    return value


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
    Prepared serves every fit that agrees on those. The graphs enter the
    fit only through X^T L X, so they are dropped once that is formed.
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


def fit(dataset, hp=None, prepared=None, audit_surrogates=False):
    """Run the full alternating optimization.

    Per iteration: consistency map first, then per view the common and
    specific consequents (fresh values feed forward within the iteration),
    then the view weights. Stops early once the relative objective change
    stays below tol_stop for 5 consecutive iterations. Returns the fitted
    state and the per-iteration trace.

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

    trace = FitTrace(stop_reason="max_iter")
    start = time.perf_counter()
    trace.entries.append(TraceEntry(
        iteration=0,
        terms=objective(state, problem, b),
        weights=state.view_weights.copy(),
        elapsed=time.perf_counter() - start,
    ))

    def step(block, old, update, *args):
        """IRLS update of one block, reweighted at its old value."""
        f_diag = irls_diag(old, hp.eps_irls)
        new = update(*args, f_diag=f_diag)
        if audit_surrogates:
            audit[block] = tuple(surrogate(block, x, state, problem, b, f_diag)
                                 for x in (old, new))
        return new

    for t in range(1, hp.max_iter + 1):
        audit = {}
        try:
            if b is not None:
                b = step(("consistency", None), b, update_consistency,
                         state, problem)
            for v in range(state.n_views):
                state.p_common[v] = step(("common", v), state.p_common[v],
                                         update_common, state, v, problem, b)
                if hp.variant != "common_only":
                    state.p_specific[v] = step(
                        ("specific", v), state.p_specific[v],
                        update_specific, state, v, problem)
            # The weights do not change the traces: one evaluation
            # serves the weight update and the objective.
            traces = graph_traces(state, problem)
            state.view_weights = update_view_weights(state, problem,
                                                     _traces=traces)
        except NumericFailure as err:
            err.iteration = t
            raise

        trace.entries.append(TraceEntry(
            iteration=t,
            terms=objective(state, problem, b, _traces=traces),
            weights=state.view_weights.copy(),
            elapsed=time.perf_counter() - start,
        ))
        if audit_surrogates:
            trace.surrogate_audit.append(audit)

        if hp.tol_stop > 0 and t >= 5:
            totals = trace.totals()
            prev = totals[-6:-1]
            curr = totals[-5:]
            rel = np.abs(curr - prev) / np.maximum(np.abs(prev), 1e-12)
            if np.all(rel < hp.tol_stop):
                trace.stop_reason = "tolerance"
                break

    return state, trace
