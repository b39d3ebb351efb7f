"""Independent reference implementations used to freeze expected values.

Everything here is deliberately written with scalar loops, stdlib math or
dense textbook linear algebra so it shares no code path with the library
being tested.
"""

import itertools
import math

import numpy as np


def scalar_objective(p_common, p_specific, consistency, weights, design,
                     laplacians, alpha, beta, gamma, delta,
                     include_consistency=True):
    """Joint objective via plain index loops; returns a dict of terms."""
    n_views = len(design)
    m = consistency.shape[0]

    def matmul(x, p):
        n, dg = len(x), len(x[0])
        cols = len(p[0])
        out = [[0.0] * cols for _ in range(n)]
        for i in range(n):
            for t in range(cols):
                s = 0.0
                for a in range(dg):
                    s += x[i][a] * p[a][t]
                out[i][t] = s
        return out

    graph = 0.0
    orth = 0.0
    consist = 0.0
    pc_sp = 0.0
    ps_sp = 0.0
    for v in range(n_views):
        x = design[v].tolist()
        lap = laplacians[v].tolist()
        zc = matmul(x, p_common[v].tolist())
        zs = matmul(x, p_specific[v].tolist())
        n = len(x)

        tr = 0.0
        for t in range(m):
            for i in range(n):
                for j in range(n):
                    tr += ((zc[i][t] + zs[i][t]) * lap[i][j]
                           * (zc[j][t] + zs[j][t]))
        graph += weights[v] * tr

        for t in range(m):
            for u in range(m):
                c = 0.0
                for i in range(n):
                    c += zc[i][t] * zs[i][u]
                orth += c * c

        if include_consistency:
            b = consistency.tolist()
            for r in range(m):
                for t in range(m):
                    s = 0.0
                    for i in range(n):
                        s += b[r][i] * zc[i][t]
                    s -= 1.0 if r == t else 0.0
                    consist += s * s

        for row in p_common[v].tolist():
            pc_sp += math.sqrt(sum(c * c for c in row))
        for row in p_specific[v].tolist():
            ps_sp += math.sqrt(sum(c * c for c in row))

    b_sp = 0.0
    if include_consistency:
        for row in consistency.tolist():
            b_sp += math.sqrt(sum(c * c for c in row))

    entropy = 0.0
    for w in weights:
        if w > 0:
            entropy += w * math.log(w)

    terms = {
        "graph": graph,
        "orthogonality": alpha * orth,
        "consistency": beta * consist if include_consistency else 0.0,
        "b_sparsity": gamma * b_sp if include_consistency else 0.0,
        "pc_sparsity": gamma * pc_sp,
        "ps_sparsity": gamma * ps_sp,
        "entropy": delta * entropy,
    }
    terms["total"] = sum(terms.values())
    return terms


def pairwise_smoothness(similarity, z):
    """Brute-force 0.5 * sum_ij s_ij ||z_i - z_j||^2."""
    n = similarity.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(n):
            diff = z[i] - z[j]
            total += similarity[i, j] * float(diff @ diff)
    return 0.5 * total


def dense_knn_similarity(x, n_neighbors, bandwidth="auto"):
    """kNN Gaussian similarity from the full N x N distance matrix and a
    stable argsort of each row (ties go to the lower index), returned
    dense."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    sq = (x * x).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * (x @ x.T)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, np.inf)
    order = np.argsort(d2, axis=1, kind="stable")[:, :n_neighbors]
    rows = np.repeat(np.arange(n), n_neighbors)
    cols = order.ravel()
    neigh_d2 = d2[rows, cols]
    if bandwidth == "auto":
        dists = np.sqrt(neigh_d2)
        nonzero = dists[dists > 0]
        sigma = float(np.median(nonzero)) if nonzero.size else 1.0
    else:
        sigma = float(bandwidth)
    s = np.zeros((n, n))
    s[rows, cols] = np.exp(-neigh_d2 / (2.0 * sigma * sigma))
    s = 0.5 * (s + s.T)
    np.fill_diagonal(s, 0.0)
    return s


def fd_gradient(fn, point, step=1e-6):
    """Central-difference gradient of a scalar function of a matrix."""
    point = np.array(point, dtype=float)
    grad = np.zeros_like(point)
    it = np.nditer(point, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        plus = point.copy()
        minus = point.copy()
        plus[idx] += step
        minus[idx] -= step
        grad[idx] = (fn(plus) - fn(minus)) / (2.0 * step)
        it.iternext()
    return grad


def dense_exact_consistency(zcs, f_diag, gamma):
    """Exact consistency-map update by m dense N x N solves.

    Row i solves b_i (sum_v Zc_v Zc_v^T + gamma f_i I) = sum_v Zc_v[:, i];
    a singular system (gamma f_i = 0) takes the minimum-norm least-squares
    solution.
    """
    gram = sum(z @ z.T for z in zcs)
    stacked = sum(z.T for z in zcs)
    eye = np.eye(gram.shape[0])
    b = np.empty_like(stacked)
    for i, rhs in enumerate(stacked):
        shift = gamma * f_diag[i]
        if shift > 0:
            b[i] = np.linalg.solve(gram + shift * eye, rhs)
        else:
            b[i] = np.linalg.lstsq(gram, rhs, rcond=None)[0]
    return b


def contingency_table(pred, true):
    pred = list(pred)
    true = list(true)
    pvals = sorted(set(pred))
    tvals = sorted(set(true))
    table = [[0] * len(tvals) for _ in pvals]
    for p, t in zip(pred, true):
        table[pvals.index(p)][tvals.index(t)] += 1
    return table


def nmi_oracle(pred, true):
    table = contingency_table(pred, true)
    n = sum(sum(row) for row in table)
    row_sums = [sum(row) for row in table]
    col_sums = [sum(col) for col in zip(*table)]
    h_p = -sum((r / n) * math.log(r / n) for r in row_sums if r)
    h_t = -sum((c / n) * math.log(c / n) for c in col_sums if c)
    if h_p == 0.0 and h_t == 0.0:
        return 1.0
    if h_p == 0.0 or h_t == 0.0:
        return 0.0
    mi = 0.0
    for i, row in enumerate(table):
        for j, nij in enumerate(row):
            if nij:
                mi += (nij / n) * math.log(
                    (nij * n) / (row_sums[i] * col_sums[j]))
    return max(mi, 0.0) / math.sqrt(h_p * h_t)


def acc_oracle(pred, true):
    """Exhaustive best cluster-to-class matching; use only for <= 5 ids."""
    table = contingency_table(pred, true)
    size = max(len(table), len(table[0]))
    padded = [[0] * size for _ in range(size)]
    for i, row in enumerate(table):
        for j, v in enumerate(row):
            padded[i][j] = v
    n = sum(sum(row) for row in table)
    best = 0
    for perm in itertools.permutations(range(size)):
        best = max(best, sum(padded[i][perm[i]] for i in range(size)))
    return best / n


def purity_oracle(pred, true):
    table = contingency_table(pred, true)
    n = sum(sum(row) for row in table)
    return sum(max(row) for row in table) / n


def kmeans_best_sse(points, k):
    """Optimal within-cluster SSE by enumerating every assignment."""
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    best = math.inf
    for assign in itertools.product(range(k), repeat=n):
        if len(set(assign)) != k:
            continue
        sse = 0.0
        for c in range(k):
            member = points[[i for i in range(n) if assign[i] == c]]
            center = member.mean(axis=0)
            sse += float(((member - center) ** 2).sum())
        best = min(best, sse)
    return best


def lloyd_oracle(points, centers, max_iter=300):
    """Lloyd iterations by the direct N x k x m distance broadcast and
    masked means; each emptied cluster, lowest index first, is re-seeded
    at the point farthest from its assigned center. It stops when the
    labels repeat, or when they return to those of two steps before (a
    two-cycle), with the centers at the masked means of those labels."""
    n, k = points.shape[0], centers.shape[0]
    labels = older = np.full(n, -1)
    for _ in range(max_iter):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = d2.argmin(axis=1)
        own = d2[np.arange(n), new_labels]
        empty = [c for c in range(k) if not np.any(new_labels == c)]
        while empty:
            far = int(own.argmax())
            centers[empty[0]] = points[far]
            new_labels[far] = empty[0]
            own[far] = -np.inf
            empty = [c for c in range(k) if not np.any(new_labels == c)]
        if np.array_equal(new_labels, labels):
            break
        cycled = np.array_equal(new_labels, older)
        older, labels = labels, new_labels
        for c in range(k):
            centers[c] = points[labels == c].mean(axis=0)
        if cycled:
            break
    d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    labels = d2.argmin(axis=1)
    sse = float(d2[np.arange(n), labels].sum())
    return labels, sse


def kmeanspp_oracle(points, k, rng):
    """k-means++ seeding that updates the least squared distance after
    every pick, the last one included (k distance passes); duplicate
    points with no distance left fall back to the lowest unchosen
    index."""
    n = points.shape[0]
    chosen = [int(rng.integers(n))]
    d2 = ((points - points[chosen[0]]) ** 2).sum(axis=1)
    for _ in range(1, k):
        total = d2.sum()
        if total > 0:
            idx = int(rng.choice(n, p=d2 / total))
        else:
            idx = min(set(range(n)) - set(chosen))
        chosen.append(idx)
        d2 = np.minimum(d2, ((points - points[idx]) ** 2).sum(axis=1))
    return points[chosen].copy()


def kmeans_oracle(points, k, restarts, seed):
    """Best of `restarts` sequential runs of `kmeanspp_oracle` then
    `lloyd_oracle` on one generator: the lowest SSE wins, the earliest
    run on ties."""
    rng = np.random.default_rng(seed)
    best_labels, best_sse = None, math.inf
    for _ in range(restarts):
        labels, sse = lloyd_oracle(points, kmeanspp_oracle(points, k, rng))
        if sse < best_sse:
            best_labels, best_sse = labels, sse
    return best_labels
