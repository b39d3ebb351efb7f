"""Clustering-based evaluation: K-means, NMI/ACC/Purity, grid search."""

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import linear_sum_assignment

from .representation import embed
from .solver import NumericFailure, fit, prep_key, prepare_inputs


def _kmeanspp_init(points, k, rng):
    """Seed k centers by squared-distance-proportional sampling; if every
    remaining distance is zero (duplicate points) fall back to the lowest
    unchosen index."""
    n = points.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = ((points - points[chosen[0]]) ** 2).sum(axis=1)
    for _ in range(1, k):
        total = d2.sum()
        if total > 0:
            probs = d2 / total
            idx = int(rng.choice(n, p=probs))
        else:
            taken = set(chosen)
            idx = next(i for i in range(n) if i not in taken)
        chosen.append(idx)
        d2 = np.minimum(d2, ((points - points[idx]) ** 2).sum(axis=1))
    return points[chosen].copy()


def _lloyd_inputs(points):
    """The column mean, the mean-centred points and the C-ordered columns
    of `points`: what `_lloyd` reads besides the points, derived once for
    every restart."""
    mean = points.mean(axis=0)
    return mean, points - mean, np.ascontiguousarray(points.T)


def _lloyd(points, centers, mean, centred, columns, max_iter=300):
    """Lloyd iterations; each emptied cluster, lowest index first, is
    re-seeded at the point farthest from its assigned center. `mean`,
    `centred` and `columns` come from `_lloyd_inputs(points)`.

    Each iteration costs one (N, m) x (m, k) product: points go to the
    center with the least ||c||^2 - 2 x.c, formed on mean-centred
    coordinates so that a large common offset does not cancel. Centers
    are per-column `bincount` sums over the counts. They add each
    cluster's rows in index order, as a masked `.mean(axis=0)` over two
    or more columns does, so those centers are bit-identical to it; on
    one column numpy's mean sums pairwise and may differ in the last
    bit. The final labels and SSE use direct squared distances.
    """
    n, k = points.shape[0], centers.shape[0]
    labels = np.full(n, -1)
    for _ in range(max_iter):
        rel = centers - mean
        scores = centred @ (-2.0 * rel.T)
        scores += (rel * rel).sum(axis=1)
        new_labels = scores.argmin(axis=1)
        counts = np.bincount(new_labels, minlength=k)
        if not counts.all():
            own = ((points - centers[new_labels]) ** 2).sum(axis=1)
            # Lowest empty cluster first, until none is empty: a reseed
            # may empty a cluster on either side of it.
            while not counts.all():
                c = int(counts.argmin())
                far = int(own.argmax())
                centers[c] = points[far]
                counts[new_labels[far]] -= 1
                counts[c] = 1
                new_labels[far] = c
                own[far] = -np.inf
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j, column in enumerate(columns):
            centers[:, j] = np.bincount(labels, weights=column,
                                        minlength=k) / counts
    d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    labels = d2.argmin(axis=1)
    sse = float(d2[np.arange(n), labels].sum())
    return labels, sse


def kmeans(points, n_clusters, restarts=10, seed=0):
    """Best-of-restarts K-means labels, deterministic given the seed.

    Each Lloyd iteration costs one (N, d) x (d, k) product for the
    assignment and one `bincount` per column for the centers.

    Parameters
    ----------
    points : (N, d) finite array to cluster, small enough that its
        squared distances do not overflow.
    n_clusters : number of clusters, 1 <= n_clusters <= N.
    restarts : independent k-means++ initializations to try; the run with
        the lowest within-cluster SSE wins (ties keep the earliest run).
    seed : int or SeedSequence feeding a fresh generator.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    if not 1 <= n_clusters <= n:
        raise ValueError(f"n_clusters must be in [1, {n}]")
    if not np.all(np.isfinite(points)):
        raise ValueError("points must be finite (no NaN or inf)")
    # A squared distance is at most 4 max ||x - mean||^2, and k-means++
    # sums N of them: all of that must stay finite.
    with np.errstate(over="ignore", invalid="ignore"):
        mean, centred, columns = _lloyd_inputs(points)
        bound = 4.0 * n * (centred * centred).sum(axis=1).max()
    if not np.isfinite(bound):
        raise ValueError("points are too large: squared distances overflow")
    rng = np.random.default_rng(seed)
    best_labels, best_sse = None, np.inf
    for _ in range(max(1, restarts)):
        centers = _kmeanspp_init(points, n_clusters, rng)
        labels, sse = _lloyd(points, centers, mean, centred, columns)
        if sse < best_sse:
            best_labels, best_sse = labels, sse
    return best_labels


def _contingency(pred, true):
    pred = np.asarray(pred).ravel()
    true = np.asarray(true).ravel()
    if pred.shape[0] != true.shape[0]:
        raise ValueError("label arrays must have equal length")
    if pred.shape[0] == 0:
        raise ValueError("label arrays are empty")
    _, pi = np.unique(pred, return_inverse=True)
    _, ti = np.unique(true, return_inverse=True)
    table = np.zeros((pi.max() + 1, ti.max() + 1), dtype=np.int64)
    np.add.at(table, (pi, ti), 1)
    return table


def nmi(pred, true):
    """Mutual information normalized by the geometric mean of entropies.

    Natural logs. Two identical single-cluster partitions score 1; a
    single-cluster partition against anything else scores 0.
    """
    table = _contingency(pred, true)
    n = table.sum()
    pr = table.sum(axis=1) / n
    pc = table.sum(axis=0) / n
    h_pred = -float((pr * np.log(pr)).sum())
    h_true = -float((pc * np.log(pc)).sum())
    if h_pred == 0.0 and h_true == 0.0:
        return 1.0
    if h_pred == 0.0 or h_true == 0.0:
        return 0.0
    rows, cols = np.nonzero(table)
    p = table[rows, cols] / n
    mi = max(float((p * np.log(p / (pr[rows] * pc[cols]))).sum()), 0.0)
    return float(mi / np.sqrt(h_pred * h_true))


def acc(pred, true):
    """Clustering accuracy under the optimal cluster-to-class assignment,
    solved exactly on the (rectangular) contingency matrix."""
    table = _contingency(pred, true)
    rows, cols = linear_sum_assignment(-table)
    return float(table[rows, cols].sum() / table.sum())


def purity(pred, true):
    """Fraction of points lying in their cluster's majority class."""
    table = _contingency(pred, true)
    return float(table.max(axis=1).sum() / table.sum())


@dataclass
class ClusteringReport:
    """Per-repeat clustering metrics plus the best run's assignment."""

    nmi_runs: np.ndarray
    acc_runs: np.ndarray
    purity_runs: np.ndarray
    best_assignment: np.ndarray

    @property
    def nmi(self):
        return float(self.nmi_runs.mean())

    @property
    def acc(self):
        return float(self.acc_runs.mean())

    @property
    def purity(self):
        return float(self.purity_runs.mean())

    @property
    def nmi_std(self):
        return float(self.nmi_runs.std())

    @property
    def acc_std(self):
        return float(self.acc_runs.std())

    @property
    def purity_std(self):
        return float(self.purity_runs.std())

    def to_dict(self):
        return {
            "nmi": {"mean": self.nmi, "std": self.nmi_std,
                    "runs": self.nmi_runs.tolist()},
            "acc": {"mean": self.acc, "std": self.acc_std,
                    "runs": self.acc_runs.tolist()},
            "purity": {"mean": self.purity, "std": self.purity_std,
                       "runs": self.purity_runs.tolist()},
            "best_assignment": self.best_assignment.tolist(),
        }


def evaluate_embedding(z, true_labels, n_clusters=None, repeats=20,
                       restarts=10, seed=0):
    """Cluster an embedding `repeats` times with derived seeds and score
    each run; the best run (highest NMI, earliest on ties) supplies the
    reported assignment."""
    z = np.asarray(z, dtype=float)
    true_labels = np.asarray(true_labels)
    if n_clusters is None:
        n_clusters = int(np.unique(true_labels).size)
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return _clustering_report(
        (kmeans(z, n_clusters, restarts=restarts, seed=ss)
         for ss in seed.spawn(repeats)), true_labels)


def _clustering_report(labelings, true_labels):
    """Score each predicted labeling as it arrives; the best one (highest
    NMI, earliest on ties) supplies the reported assignment."""
    nmis, accs, purities, assignments = [], [], [], []
    for pred in labelings:
        nmis.append(nmi(pred, true_labels))
        accs.append(acc(pred, true_labels))
        purities.append(purity(pred, true_labels))
        assignments.append(pred)
    nmis = np.array(nmis)
    best = int(nmis.argmax())
    return ClusteringReport(
        nmi_runs=nmis,
        acc_runs=np.array(accs),
        purity_runs=np.array(purities),
        best_assignment=assignments[best],
    )


@dataclass
class GridPointResult:
    index: int
    hp: object
    report: ClusteringReport | None = None
    error: str | None = None


@dataclass
class GridSearchResult:
    points: list = field(default_factory=list)
    best: dict = field(default_factory=dict)

    def write_csv(self, path):
        header = ("index,alpha,beta,gamma,delta,n_rules,embed_dim,"
                  "nmi_mean,nmi_std,acc_mean,acc_std,"
                  "purity_mean,purity_std,error")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(header + "\n")
            for p in self.points:
                hp = p.hp
                cells = [str(p.index), repr(hp.alpha), repr(hp.beta),
                         repr(hp.gamma), repr(hp.delta), str(hp.n_rules),
                         str(hp.embed_dim)]
                if p.report is not None:
                    r = p.report
                    cells += [repr(r.nmi), repr(r.nmi_std), repr(r.acc),
                              repr(r.acc_std), repr(r.purity),
                              repr(r.purity_std), ""]
                else:
                    cells += [""] * 6 + [p.error or "failed"]
                fh.write(",".join(cells) + "\n")


def grid_search(dataset, grid, repeats=20, restarts=10, seed=0,
                refit_per_repeat=False):
    """Fit and score every grid point; failures are recorded, not fatal.

    Each point fits once and re-clusters `repeats` times with derived
    seeds (set refit_per_repeat to also redraw the model initialization
    per repeat). Points that agree on the preprocessing fields (see
    solver.prep_key) share one prepare_inputs call; one Prepared is held
    at a time, and a failed preparation is recorded for every point of
    its group. Points, seeds and results stay in grid order. The best
    point is chosen independently per metric by the highest mean,
    earliest index on ties.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("grid must not be empty")
    if dataset.labels is None:
        raise ValueError("grid search needs ground-truth labels")
    master = np.random.SeedSequence(seed)
    children = master.spawn(len(grid))
    groups = {}
    for gi, hp in enumerate(grid):
        groups.setdefault(prep_key(hp), []).append(gi)
    points = {}
    for indices in groups.values():
        try:
            prepared = prepare_inputs(dataset, grid[indices[0]])
        except (NumericFailure, ValueError) as err:
            for gi in indices:
                points[gi] = GridPointResult(gi, grid[gi], error=str(err))
            continue
        for gi in indices:
            hp = grid[gi]
            try:
                if refit_per_repeat:
                    report = _clustering_report(
                        _refit_labelings(dataset, hp, prepared, repeats,
                                         restarts, children[gi]),
                        dataset.labels)
                else:
                    state, _ = fit(dataset, hp, prepared=prepared)
                    z = embed(dataset, state).data
                    report = evaluate_embedding(
                        z, dataset.labels, repeats=repeats,
                        restarts=restarts, seed=children[gi])
                points[gi] = GridPointResult(gi, hp, report=report)
            except (NumericFailure, ValueError) as err:
                points[gi] = GridPointResult(gi, hp, error=str(err))
        del prepared
    result = GridSearchResult(points=[points[gi] for gi in range(len(grid))])
    for metric in ("nmi", "acc", "purity"):
        scored = [(getattr(p.report, metric), p.index)
                  for p in result.points if p.report is not None]
        if scored:
            best_value = max(s[0] for s in scored)
            result.best[metric] = min(i for s, i in scored
                                      if s == best_value)
    return result


def _refit_labelings(dataset, hp, prepared, repeats, restarts, seed_seq):
    """Per repeat, refit from `prepared` with a derived model seed, embed
    and cluster."""
    for ss in seed_seq.spawn(repeats):
        fit_seed, km_seed = ss.spawn(2)
        hp_r = replace(hp, seed=int(fit_seed.generate_state(1)[0]))
        state, _ = fit(dataset, hp_r, prepared=prepared)
        z = embed(dataset, state).data
        yield kmeans(z, dataset.n_classes, restarts=restarts, seed=km_seed)
