"""kNN similarity graphs and Laplacians in the fuzzy feature space.

A graph is held as neighbour lists: row i of the directed kNN weights W
holds weights[i] at the columns cols[i], both (N, k), and S = (W + W^T)/2
and L = D - S are never formed, so memory is O(N*k). Gram products are
formed one row block at a time, so no N x N array is ever allocated, and
the kNN pass takes O(N*k) plus one Gram block plus the (N, D + 1)
augmented columns [x, -||x_j||^2 / 2] (16 MB at N = 50000 and D = 39).
A block holds at most 256 rows and 16 MB: below N = 8192 the row cap
binds (8 MB at N = 4000, 2 MB at N = 1000), and from there on the byte
budget. One product of the block's rows of [x, 1] with the augmented
columns gives t_ij = x_i . x_j - ||x_j||^2 / 2, which orders each row
as its negated squared distances do. Each row's k nearest are selected
exactly, but only among the columns that can pass a bound on its k-th
distance, taken from strided column-group maxima of t, reduced straight
from the block, with a rounding margin: about k*N/256 candidates per row
for N >= 1024, and only theirs are turned into squared distances.
"""

from dataclasses import dataclass

import numpy as np

from .data import _is_int, _is_real

# Bytes of squared distances held per row block; the block's temporaries
# take a small multiple of this.
_BLOCK_BYTES = 16 * 2 ** 20

# Most rows per block. It binds for N < 8192, where a 16 MB block would
# hold more rows and so more per-row temporaries; from N = 8192 on the
# byte budget gives at most 256 rows and this cap changes nothing.
_BLOCK_ROWS = 256

# Most column groups `_nearest` bounds each row's k-th distance with.
_GROUPS = 256


@dataclass
class GraphLaplacian:
    """A kNN graph as neighbour lists. Row i of the directed weights W
    holds weights[i] at the columns cols[i] (both (N, k)); the similarity
    is S = (W + W^T)/2, degree (N,) holds S's row sums, and the Laplacian
    is L = diag(degree) - S."""

    cols: np.ndarray
    weights: np.ndarray
    degree: np.ndarray

    def quadratic(self, x):
        """X^T L X for X (N, D), as the symmetric part of
        A = X^T (diag(degree) X - W X), which equals X^T L X since
        X^T W X and X^T W^T X are transposes. W X is gathered one
        neighbour slot and one block of _BLOCK_ROWS rows at a time, and A
        is symmetrized in place one pair of _BLOCK_ROWS-square tiles at a
        time, so besides X it holds one (N, D) array, then one (D, D).
        Every entry takes the operations of 0.5 * (A + A^T) in the same
        order, so the result equals that formula's bit for bit."""
        y = x * self.degree[:, None]
        for lo in range(0, len(y), _BLOCK_ROWS):
            block = y[lo:lo + _BLOCK_ROWS]
            for cols, weights in zip(self.cols[lo:lo + _BLOCK_ROWS].T,
                                     self.weights[lo:lo + _BLOCK_ROWS].T):
                neigh = x[cols]
                neigh *= weights[:, None]
                block -= neigh
        a = x.T @ y
        del y
        for i in range(0, len(a), _BLOCK_ROWS):
            si = slice(i, i + _BLOCK_ROWS)
            for j in range(i, len(a), _BLOCK_ROWS):
                sj = slice(j, j + _BLOCK_ROWS)
                tile = a[si, sj] + a[sj, si].T
                tile *= 0.5
                a[si, sj] = tile
                a[sj, si] = tile.T
        return a

    def dense(self):
        """(S, L) as dense (N, N) arrays, for tests and small N."""
        n = len(self.degree)
        w = np.zeros((n, n))
        np.add.at(w, (np.arange(n)[:, None], self.cols), self.weights)
        s = 0.5 * (w + w.T)
        return s, np.diag(self.degree) - s


def _row_blocks(n):
    """Bounds of near-equal row blocks, each within the byte budget and
    the row cap."""
    n_blocks = -(-n // max(1, min(_BLOCK_ROWS, _BLOCK_BYTES // (8 * n))))
    return [n * i // n_blocks for i in range(n_blocks + 1)]


def _select(d2, k):
    """Positions (ascending) and values of each row's k smallest entries,
    for k < d2.shape[1]; ties at the k-th value go to the lowest
    positions, the set a stable sort of the row would pick.

    Partitioning at k puts the k smallest values first and the (k+1)-th
    at k, so a row holds more than k entries within its k-th value
    exactly when its (k+1)-th value equals its k-th; only those rows take
    the tie path."""
    part = np.partition(d2, k, axis=1)
    kth = part[:, :k].max(axis=1)
    chosen = d2 <= kth[:, None]
    tied = np.flatnonzero(part[:, k] == kth)
    if tied.size:
        # Drop the highest positions at the k-th value, as many as the
        # row selected beyond k.
        extra = np.count_nonzero(chosen[tied], axis=1) - k
        at_kth = d2[tied] == kth[tied, None]
        rank_from_end = np.cumsum(at_kth[:, ::-1], axis=1)[:, ::-1]
        chosen[tied] &= ~(at_kth & (rank_from_end <= extra[:, None]))
    pos = (np.flatnonzero(chosen) % d2.shape[1]).reshape(-1, k)
    return pos, np.take_along_axis(d2, pos, axis=1)


def _group_minima(t, groups):
    """Each row's minima of h = -t over its column groups j = c, c + G,
    c + 2G, ... (c < G = groups), for a block t of the augmented Gram
    product whose own columns hold -inf, so h = +inf there. The group
    maxima of t are reduced straight from the block, with no copy of it,
    and negated in place."""
    rows, n = t.shape
    maxima = np.empty((rows, groups))
    full = n // groups * groups
    # Elementwise maxima over the G-wide column slices give every group's
    # maximum in one pass; the last column slice, shorter than G when G
    # does not divide N, holds the first N - full groups.
    slices = np.lib.stride_tricks.as_strided(
        t, (rows, n // groups, groups),
        (t.strides[0], groups * t.strides[1], t.strides[1]), writeable=False)
    np.maximum.reduce(slices, axis=1, out=maxima)
    np.maximum(maxima[:, :n - full], t[:, full:], out=maxima[:, :n - full])
    return np.negative(maxima, out=maxima)


def _nearest(t, sq, lo, k, margin):
    """Columns (ascending) and squared distances of each row's k nearest
    among the N columns, for the block of rows lo, lo + 1, ... of x; k < N.
    Ties at the k-th distance go to the lowest column indices, as in
    `_select`. t is the block's rows t_ij = g_ij - sq_j / 2 of the
    augmented Gram product (see `knn_similarity`), with g = x x^T and sq
    the squared row norms of x; the rows' own columns are set to -inf.

    A row's squared distances are d2_ij = sq_i + sq_j - 2 g_ij
    = sq_i - 2 t_ij, so d2 orders the row as h_ij = -t_ij does. Group c
    holds columns c, c + G, c + 2G, ... with G = min(_GROUPS, N // 4), and
    `_group_minima` gives every group's minimum of h, with +inf at the
    row's own column. Call the min(k, G)-th smallest of them tau. For
    G >= k, the columns of the min(k, G) smallest minima bound the row's
    k-th distance; for G < k tau is the largest minimum and admits every
    group. Every column within the k-th distance then has
    h <= max(tau, -sq_i / 2) + margin, where margin covers the rounding of
    d2 and the -sq_i / 2 term its clamp at 0 (see `knn_similarity`). The
    columns of the groups whose minimum passes that bound, gathered slice
    by slice (ascending column order), hold the row's k nearest and every
    tie at the k-th. Their d2 = max(sq_i - 2 t_ij, 0) is formed from the
    same entries of t in the same operations as for a whole row, so
    `_select` on them picks the same set as on the whole row; the own
    column's t = -inf gives it d2 = inf.

    Per block this costs one pass over t, a partition of rows x G minima,
    and the exact selection on about k*N/G candidates per row."""
    rows, n = t.shape
    groups = max(1, min(_GROUPS, n // 4))
    t[np.arange(rows), np.arange(lo, lo + rows)] = -np.inf
    minima = _group_minima(t, groups)
    ranked = minima.copy()
    rank = min(k, groups) - 1
    ranked.partition(rank, axis=1)
    sq_rows = sq[lo:lo + rows]
    bound = np.maximum(ranked[:, rank], -0.5 * sq_rows)
    bound += margin
    inside = minima <= bound[:, None]
    counts = np.count_nonzero(inside, axis=1)
    width = counts.max()
    short = np.flatnonzero(counts < width)
    if short.size:
        # Rows whose bound admits fewer groups than the widest row take
        # their lowest-index other groups too: more candidates, same
        # selection.
        outside = ~inside[short]
        fill = np.cumsum(outside, axis=1) <= (width - counts[short])[:, None]
        inside[short] |= outside & fill
    picked = (np.flatnonzero(inside) % groups).reshape(rows, width)
    cand = np.arange(0, n, groups)[:, None] + picked[:, None, :]
    cand = cand.reshape(rows, -1)
    # The last column slice may be shorter than G: its missing columns,
    # which come last in each row, read column N - 1 and are then set to
    # inf.
    past = cand >= n
    np.minimum(cand, n - 1, out=cand)
    d2 = np.take_along_axis(t, cand, axis=1)
    d2 *= -2.0
    d2 += sq_rows[:, None]
    np.maximum(d2, 0.0, out=d2)
    d2[past] = np.inf
    pos, near = _select(d2, k)
    return np.take_along_axis(cand, pos, axis=1), near


def _check_bandwidth(bandwidth):
    """Raise ValueError unless bandwidth is "auto" or a finite positive
    real number (not a bool)."""
    if not (isinstance(bandwidth, str) and bandwidth == "auto"
            or _is_real(bandwidth) and 0 < bandwidth < np.inf):
        raise ValueError("bandwidth must be 'auto' or finite and "
                         f"positive, got {bandwidth!r}")


def knn_similarity(x, n_neighbors=5, bandwidth="auto"):
    """Gaussian-kernel weights of each row's k nearest neighbors, as the
    lists (cols, weights) that `laplacian` symmetrizes.

    bandwidth="auto" sets the kernel scale to the median of the nonzero
    selected neighbor distances, which keeps the weights away from the
    degenerate all-0 / all-1 regimes whatever the data scale. Distance
    ties resolve to the lower index. n_neighbors must be an integer in
    [1, N - 1], bandwidth "auto" or a finite positive real (a bool or any
    other string is not one), and x finite with 4 max ||x||^2 finite, so
    that no squared distance overflows; ValueError otherwise.

    Returns cols (N, k), each row's neighbors in ascending column order
    (never the row itself), and weights (N, k), their kernel weights.
    Gram products are formed in row blocks of at most _BLOCK_ROWS rows
    and _BLOCK_BYTES bytes, each from one product of the block's rows of
    [x, 1] with the (N, D + 1) augmented columns [x, -sq / 2], so memory
    is O(N*k) plus one Gram block plus those columns (16 MB at N = 50000
    and D = 39).
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if not (_is_int(n_neighbors) and 1 <= n_neighbors < n):
        raise ValueError(f"n_neighbors must be an integer in [1, {n - 1}], "
                         f"got {n_neighbors!r}")
    _check_bandwidth(bandwidth)
    with np.errstate(over="ignore", invalid="ignore"):
        sq = (x * x).sum(axis=1)
        # Every squared distance, and every sum the blocks form on the
        # way to it, is at most 4 max ||x||^2.
        bound = 4.0 * sq.max()
    if not np.all(np.isfinite(sq)):
        raise ValueError("x must be finite, with finite squared row norms")
    if not np.isfinite(bound):
        raise ValueError("x is too large: squared distances overflow")

    # The rounding that `_nearest`'s group bound allows for. In a row,
    # the computed d2_ij = fl(sq_i - 2 t_ij) takes one rounding and is
    # monotone in the computed t_ij, the very values the group minima of
    # h = -t come from; so however t itself is rounded, the bound need
    # cover only that rounding, and the -sq_i / 2 term the clamp of d2 at
    # 0. With M the largest squared row norm and u = eps / 2, every
    # |sq_i - 2 t_ij| is at most about 4 M, so a column whose d2 rounds to
    # at most another's has h at most 4 M u above the other's, and the
    # bound's own sum adds at most 2 M u. 16 M eps = 32 M u holds that
    # five times over. The tiny term covers the absolute error of halving
    # a subnormal sq.
    margin = 4.0 * np.finfo(float).eps * bound + np.finfo(float).tiny

    cols = np.empty((n, n_neighbors), dtype=np.intp)
    neigh_d2 = np.empty((n, n_neighbors))
    bounds = _row_blocks(n)
    # One Gram buffer serves every block, since fresh multi-MB temporaries
    # per block cost page faults until malloc reuses them. It is allocated
    # before the augmented columns and apart from them. Allocated after
    # them, the columns split the heap hole that the previous call's block
    # left; in one allocation with them, its size follows D and the views'
    # calls alternate between two sizes. Either way the large_n benchmark's
    # peak RSS rose by 5-8 MB. The cost: at N = 1000 glibc gives this 2 MB
    # buffer back between fits, and a fit's first call pays about 1250
    # minor page faults for it.
    gram_buf = np.empty((max(np.diff(bounds)), n))
    # t = [x_blk, 1] [x, -sq / 2]^T is each block's Gram rows less
    # sq_j / 2, formed by the product itself.
    aug = np.empty((n, x.shape[1] + 1))
    aug[:, :-1] = x
    np.multiply(sq, -0.5, out=aug[:, -1])
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        left = np.ones((hi - lo, aug.shape[1]))
        left[:, :-1] = x[lo:hi]
        t = gram_buf[:hi - lo]
        np.matmul(left, aug.T, out=t)
        cols[lo:hi], neigh_d2[lo:hi] = _nearest(t, sq, lo, n_neighbors,
                                                margin)

    if bandwidth == "auto":
        dists = np.sqrt(neigh_d2)
        nonzero = dists[dists > 0]
        sigma = float(np.median(nonzero)) if nonzero.size else 1.0
    else:
        sigma = float(bandwidth)

    return cols, np.exp(-neigh_d2 / (2.0 * sigma * sigma))


def laplacian(cols, weights):
    """The GraphLaplacian of the directed weights W whose row i holds
    weights[i] at the columns cols[i], symmetrized as S = (W + W^T)/2; a
    column repeated in a row adds its weights. ValueError unless cols and
    weights are 2-D of one shape (N, k), cols integers in [0, N) and
    weights finite and non-negative."""
    cols = np.asarray(cols)
    weights = np.asarray(weights, dtype=float)
    if cols.ndim != 2 or cols.shape != weights.shape:
        raise ValueError("cols and weights must be 2-D arrays of one shape, "
                         f"got {cols.shape} and {weights.shape}")
    n = len(cols)
    if not (cols.dtype.kind in "iu"
            and np.all((0 <= cols) & (cols < n))):
        raise ValueError(f"cols must be integers in [0, {n})")
    if not np.all(np.isfinite(weights) & (weights >= 0)):
        raise ValueError("weights must be finite and non-negative")
    cols = cols.astype(np.intp, copy=False)
    degree = 0.5 * (weights.sum(axis=1)
                    + np.bincount(cols.ravel(), weights.ravel(),
                                  minlength=n))
    return GraphLaplacian(cols=cols, weights=weights, degree=degree)


def build_graph(x, n_neighbors=5, bandwidth="auto"):
    """Neighbour lists plus Laplacian in one call."""
    return laplacian(*knn_similarity(x, n_neighbors, bandwidth))
