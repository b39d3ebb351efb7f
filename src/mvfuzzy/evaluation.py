"""Clustering-based evaluation: K-means, the METRICS scores, grid search."""

import csv
from dataclasses import dataclass, field, replace

import numpy as np

from .data import _is_int
from .representation import embed
from .solver import NumericFailure, fit, prep_key, prepare_inputs

# Bytes of squared-distance vectors one `_lloyd` call keeps for reuse; the
# cache is emptied before an insert that would pass this.
_DISTANCE_BYTES = 16 * 2 ** 20


def _weighted_pick(weights, total, rng):
    """The index that `rng.choice(len(weights), p=weights / total)` draws,
    for non-negative weights with a positive finite total: numpy's own
    draw, one uniform searched in the normalized cumulative sums, so the
    generator's stream is the same. It skips choice's checks of p (finite,
    non-negative, summing to 1), which k-means++ distances pass by
    construction."""
    cdf = (weights / total).cumsum()
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _kmeanspp_init(columns, k, rng):
    """Seed k centers, as a (k, m) array, from the C-ordered (m, N)
    `columns` by squared-distance-proportional sampling; if every
    remaining distance is zero (duplicate points) fall back to the lowest
    unchosen index. Each pick but the first reads the least squared
    distance to the centers chosen so far, so the init makes k - 1
    distance passes. Each pass subtracts a center's column into one
    reused (m, N) buffer and sums the squares over the columns, in column
    order; each pick is drawn as `rng.choice` would draw it from the
    normalized distances (see `_weighted_pick`)."""
    n = columns.shape[1]
    chosen = [int(rng.integers(n))]
    diff = np.empty_like(columns)
    d2 = None
    for _ in range(1, k):
        np.subtract(columns, columns[:, chosen[-1], None], out=diff)
        diff *= diff
        last = diff.sum(axis=0)
        d2 = last if d2 is None else np.minimum(d2, last, out=d2)
        total = d2.sum()
        if total > 0:
            idx = _weighted_pick(d2, total, rng)
        else:
            taken = set(chosen)
            idx = next(i for i in range(n) if i not in taken)
        chosen.append(idx)
    return columns[:, chosen].T.copy()


def _lloyd_inputs(points):
    """The column mean, the mean-centred columns and the columns of
    `points`, each C-ordered (m, N): what `_lloyd` reads besides the
    points, derived once for every restart."""
    mean = points.mean(axis=0)
    columns = np.ascontiguousarray(points.T)
    return mean, columns - mean[:, None], columns


def _first_argmin(scores):
    """`scores.argmin(axis=0)` for (k, N) scores, as k passes over
    contiguous N-length rows; the strict `<` keeps the first minimum, as
    `argmin` does. Row c exceeds every label set before it, so a maximum
    sets the labels it wins."""
    best = scores[0].copy()
    labels = np.zeros(best.shape, dtype=np.intp)
    for c in range(1, scores.shape[0]):
        closer = scores[c] < best
        np.minimum(best, scores[c], out=best)
        np.maximum(labels, closer * c, out=labels)
    return labels


def _lloyd(points, centers, mean, centred_t, columns, max_iter=300,
           fixed_points=None):
    """Lloyd iterations of R restarts, one after another; returns the
    (R, N) labels and the R SSEs. `centers` is (R, k, m) and is updated in
    place to each restart's final centers; `mean`, `centred_t` and
    `columns` come from `_lloyd_inputs(points)`. Each emptied cluster,
    lowest index first, is re-seeded at the point farthest from its
    assigned center. A restart stops when its labels repeat, or when they
    return to those of two steps before: a two-cycle, which would
    otherwise run to `max_iter`.

    A step sends each point to the center with the least
    ||c||^2 - 2 x.c, formed on mean-centred coordinates so that a large
    common offset does not cancel, as one (k, m) x (m, N) product into a
    (k, N) buffer that every restart reuses. The centers of a step are one
    (k, N) x (N, m) product of the 0/1 assignment and the points over the
    counts; they only steer the next assignment.

    From step 2 on, a step is a function of the labels the last step
    left (after its reseeds) alone, so labels L* that a step maps to
    themselves are a fixed point: a restart that reaches them stops there
    whatever `max_iter` is. `fixed_points` is the record of these points'
    fixed points (a fresh one if None): a dict from the bytes of L* in the
    least integer type that holds k - 1 to that fixed point's final
    (centers, labels, SSE), which are a function of L* alone. A restart
    whose labels after a step are a key stops at once and takes that
    final, so each fixed point's final pass runs once, in this call or a
    later one on the same points and k. A two-cycle is not a fixed point
    and is not recorded.

    The final pass forms each restart's centers once more from its last
    labels, as per-column `bincount` sums over the counts. Those add each
    cluster's rows in index order, as a masked `.mean(axis=0)` over two
    or more columns does, so the final centers are bit-identical to it;
    on one column numpy's mean sums pairwise and may differ in the last
    bit. The final labels and SSE use direct squared distances, formed
    once per distinct center vector among the passes the call runs, up
    to `_DISTANCE_BYTES` of them at a time.
    """
    r, k, _ = centers.shape
    n = points.shape[0]
    if fixed_points is None:
        fixed_points = {}
    compact = np.min_scalar_type(k - 1)
    labels = np.full((r, n), -1)
    scores = np.empty((k, n))
    ks = np.arange(k)[:, None]
    onehot = np.empty((k, n))
    distances = {}
    sses = []
    for centers_i, labels_i in zip(centers, labels):
        last, fixed = labels_i, False
        # The keys of the last two steps' labels, None before any step.
        last_key = older_key = final = None
        for _ in range(max_iter):
            rel = centers_i - mean
            np.matmul(-2.0 * rel, centred_t, out=scores)
            scores += (rel * rel).sum(axis=1)[:, None]
            last = _first_argmin(scores)
            counts = np.bincount(last, minlength=k)
            if not counts.all():
                own = ((points - centers_i[last]) ** 2).sum(axis=1)
                # Lowest empty cluster first, until none is empty: a
                # reseed may empty a cluster on either side of it.
                while not counts.all():
                    c = int(counts.argmin())
                    far = int(own.argmax())
                    centers_i[c] = points[far]
                    counts[last[far]] -= 1
                    counts[c] = 1
                    last[far] = c
                    own[far] = -np.inf
            key = last.astype(compact).tobytes()
            final = fixed_points.get(key)
            fixed = key == last_key
            if final is not None or fixed or key == older_key:
                break
            older_key, last_key = last_key, key
            np.equal(ks, last, out=onehot)
            np.divide(onehot @ points, counts[:, None], out=centers_i)
        if final is None:
            final = _final_pass(points, columns, centers_i, last, distances,
                                scores)
            if fixed:
                fixed_points[key] = (final[0], final[1].astype(compact),
                                     final[2])
        centers_i[:], labels_i[:], sse = final
        sses.append(sse)
    return labels, sses


def _final_pass(points, columns, centers_i, labels_i, distances, d2):
    """One restart's final (centers, labels, SSE) from its last labels
    (the init `centers_i` if it never assigned, under max_iter=0).
    `distances` maps a center's bytes to its squared distances, within
    `_DISTANCE_BYTES`; `d2` is a (k, N) buffer."""
    k, n = centers_i.shape[0], points.shape[0]
    centers_i = centers_i.copy()
    if labels_i[0] >= 0:
        counts = np.bincount(labels_i, minlength=k)
        for j, column in enumerate(columns):
            centers_i[:, j] = np.bincount(labels_i, weights=column,
                                          minlength=k) / counts
    for c, center in enumerate(centers_i):
        key = center.tobytes()
        if key not in distances:
            if (len(distances) + 1) * n * 8 > _DISTANCE_BYTES:
                distances.clear()
            distances[key] = ((points - center) ** 2).sum(axis=1)
        d2[c] = distances[key]
    final_labels = _first_argmin(d2)
    return centers_i, final_labels, float(d2[final_labels,
                                             np.arange(n)].sum())


def _check_count(name, value):
    """Raise ValueError unless `value` is an integer (not a bool) >= 1."""
    if not _is_int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")


def _as_points(points):
    """`points` as a float array; ValueError unless it is (N, d), d >= 1."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] < 1:
        raise ValueError("points must be a 2-D (N, d) array with d >= 1, "
                         f"got shape {points.shape}")
    return points


def kmeans(points, n_clusters, restarts=10, seed=0, *, _fixed_points=None):
    """Best-of-restarts K-means labels, deterministic given the seed.

    The call draws every restart's k-means++ init first, in order (Lloyd
    draws nothing, so the generator's stream is that of restarts run one
    after another); the init's distances sum over the columns of the
    (d, N) layout. It then runs each restart's Lloyd steps in turn (see
    `_lloyd`): per step, one (k, d) x (d, N) score product and one
    (k, N) x (N, d) center product. The restarts share the fixed-point
    record that `_lloyd` describes; each restart's labels and SSE equal
    those of the restart run alone.

    Parameters
    ----------
    points : (N, d) finite array to cluster, d >= 1, small enough that
        its squared distances do not overflow.
    n_clusters : number of clusters, an integer, 1 <= n_clusters <= N.
    restarts : independent k-means++ initializations to try, an integer
        >= 1; the run with the lowest within-cluster SSE wins (ties keep
        the earliest run).
    seed : int or SeedSequence feeding a fresh generator.
    _fixed_points : private; the `_lloyd` fixed-point record that
        `evaluate_embedding` shares across the calls it makes on one
        embedding. It must only ever see these points and n_clusters. A
        call without one starts a fresh record.
    """
    _check_count("restarts", restarts)
    if not _is_int(n_clusters):
        raise ValueError(f"n_clusters must be an integer, got {n_clusters!r}")
    points = _as_points(points)
    n = points.shape[0]
    if not 1 <= n_clusters <= n:
        raise ValueError(f"n_clusters must be in [1, {n}]")
    if not np.all(np.isfinite(points)):
        raise ValueError("points must be finite (no NaN or inf)")
    # A squared distance is at most 4 max ||x - mean||^2, and k-means++
    # sums N of them: all of that must stay finite.
    with np.errstate(over="ignore", invalid="ignore"):
        mean, centred_t, columns = _lloyd_inputs(points)
        bound = 4.0 * n * (centred_t * centred_t).sum(axis=0).max()
    if not np.isfinite(bound):
        raise ValueError("points are too large: squared distances overflow")
    rng = np.random.default_rng(seed)
    centers = np.stack([_kmeanspp_init(columns, n_clusters, rng)
                        for _ in range(restarts)])
    labels, sses = _lloyd(points, centers, mean, centred_t, columns,
                          fixed_points=_fixed_points)
    return labels[int(np.argmin(sses))].copy()


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


def nmi(pred, true, *, _table=None):
    """Mutual information normalized by the geometric mean of entropies.

    Natural logs. Two identical single-cluster partitions score 1; a
    single-cluster partition against anything else scores 0. Each metric
    takes the contingency table of pred and true as _table, so that
    `_clustering_report` builds it once for all three.
    """
    table = _contingency(pred, true) if _table is None else _table
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


def _best_matching(table):
    """The largest sum of a one-to-one matching of rows to columns of an
    integer table: the Hungarian method with potentials (Kuhn, 1955), in
    the O(r^2 c) shortest-augmenting-path form, on r <= c rows (the table
    is transposed if needed) and in Python integers, so it is exact."""
    if table.shape[0] > table.shape[1]:
        table = table.T
    rows = table.tolist()
    n_cols = len(rows[0])
    # The method minimizes the cost -table. Columns are 1-based; column 0
    # holds the row being added. owner[j] is the 1-based row matched to
    # column j, or 0.
    u, v = [0] * (len(rows) + 1), [0] * (n_cols + 1)
    owner, via = [0] * (n_cols + 1), [0] * (n_cols + 1)
    for i in range(1, len(rows) + 1):
        owner[0], j0 = i, 0
        slack, used = [float("inf")] * (n_cols + 1), [False] * (n_cols + 1)
        while owner[j0]:
            used[j0] = True
            i0, delta, j1 = owner[j0], float("inf"), 0
            row, ui = rows[i0 - 1], u[i0]
            for j in range(1, n_cols + 1):
                if not used[j]:
                    reduced = -row[j - 1] - ui - v[j]
                    if reduced < slack[j]:
                        slack[j], via[j] = reduced, j0
                    if slack[j] < delta:
                        delta, j1 = slack[j], j
            for j in range(n_cols + 1):
                if used[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                else:
                    slack[j] -= delta
            j0 = j1
        while j0:
            owner[j0] = owner[via[j0]]
            j0 = via[j0]
    return sum(rows[i - 1][j - 1] for j, i in enumerate(owner) if j and i)


def acc(pred, true, *, _table=None):
    """Clustering accuracy under the optimal cluster-to-class assignment,
    solved exactly on the (rectangular) contingency matrix by
    `_best_matching` in integer arithmetic, so the ratio is the exact
    matched count over N. Pure Python, O(k^3): on one Xeon core about
    0.02 ms per call at k = 4 clusters and 14 ms at k = 102."""
    table = _contingency(pred, true) if _table is None else _table
    return float(_best_matching(table) / table.sum())


def purity(pred, true, *, _table=None):
    """Fraction of points lying in their cluster's majority class."""
    table = _contingency(pred, true) if _table is None else _table
    return float(table.max(axis=1).sum() / table.sum())


# Every metric the reports carry, name -> printed label, in report order.
# The first ranks the repeats: the best run scores highest on it.
METRICS = {"nmi": "NMI", "acc": "ACC", "purity": "Purity"}


@dataclass
class ClusteringReport:
    """Per-repeat scores of each METRICS name plus the best run's
    assignment."""

    runs: dict
    best_assignment: np.ndarray

    def mean(self, name):
        return float(self.runs[name].mean())

    def std(self, name):
        return float(self.runs[name].std())

    nmi = property(lambda self: self.mean("nmi"))
    acc = property(lambda self: self.mean("acc"))
    purity = property(lambda self: self.mean("purity"))

    def to_dict(self):
        doc = {name: {"mean": self.mean(name), "std": self.std(name),
                      "runs": runs.tolist()}
               for name, runs in self.runs.items()}
        doc["best_assignment"] = self.best_assignment.tolist()
        return doc


def metric_cells(report=None):
    """The `name_mean`, `name_std` cells of every METRICS name in order:
    the header's, or given a report, its means and stds as `repr`."""
    if report is None:
        return [f"{name}_{stat}" for name in METRICS
                for stat in ("mean", "std")]
    return [repr(value) for name in METRICS
            for value in (report.mean(name), report.std(name))]


def check_protocol(repeats, restarts):
    """Raise ValueError unless the protocol clusters at least once:
    `repeats` and `restarts` must both be integers >= 1."""
    _check_count("repeats", repeats)
    _check_count("restarts", restarts)


def evaluate_embedding(z, true_labels, n_clusters=None, repeats=20,
                       restarts=10, seed=0):
    """Cluster an (N, m) embedding `repeats` times with derived seeds and
    score each run; the best run (highest first METRICS score, earliest on
    ties) supplies the reported assignment. `true_labels` must hold N labels.

    Each repeat is one `kmeans` call. The calls share one `_lloyd`
    fixed-point record, which lives only for this call; every labeling
    equals that of a `kmeans` call made on its own."""
    check_protocol(repeats, restarts)
    z = _as_points(z)
    true_labels = np.asarray(true_labels)
    if true_labels.size != z.shape[0]:
        raise ValueError(f"true_labels holds {true_labels.size} labels for "
                         f"{z.shape[0]} points")
    if n_clusters is None:
        n_clusters = int(np.unique(true_labels).size)
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    fixed_points = {}
    return _clustering_report(
        (kmeans(z, n_clusters, restarts=restarts, seed=ss,
                _fixed_points=fixed_points)
         for ss in seed.spawn(repeats)), true_labels)


def _clustering_report(labelings, true_labels):
    """Score each predicted labeling as it arrives, on one contingency
    table per labeling, looking each METRICS function up by name at call
    time so that a rebound module attribute (a tracer's) sees the call;
    the best one (highest first metric, earliest on ties) supplies the
    reported assignment."""
    scores, assignments = {name: [] for name in METRICS}, []
    for pred in labelings:
        table = _contingency(pred, true_labels)
        for name, values in scores.items():
            values.append(globals()[name](pred, true_labels, _table=table))
        assignments.append(pred)
    runs = {name: np.array(values) for name, values in scores.items()}
    best = int(runs[next(iter(METRICS))].argmax())
    return ClusteringReport(runs=runs, best_assignment=assignments[best])


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
        """One row per point. A failed point's message is its last cell,
        quoted by the csv module when it holds a comma, a quote or a line
        break."""
        metric_header = metric_cells()
        header = ["index", "alpha", "beta", "gamma", "delta", "n_rules",
                  "embed_dim", *metric_header, "error"]
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            for p in self.points:
                hp = p.hp
                cells = [str(p.index), repr(hp.alpha), repr(hp.beta),
                         repr(hp.gamma), repr(hp.delta), str(hp.n_rules),
                         str(hp.embed_dim)]
                if p.report is not None:
                    cells += metric_cells(p.report) + [""]
                else:
                    cells += [""] * len(metric_header) + [p.error or "failed"]
                writer.writerow(cells)


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
    check_protocol(repeats, restarts)
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
    for metric in METRICS:
        scored = [(p.report.mean(metric), p.index)
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
