"""kNN similarity graphs and Laplacians in the fuzzy feature space.

A graph is held as neighbour lists: row i of the directed kNN weights W
holds weights[i] at the columns cols[i], both (N, k), and S = (W + W^T)/2
and L = D - S are never formed, so memory is O(N*k). Gram products are
formed one row block at a time, so no N x N array is ever allocated, and
the kNN pass takes O(N*k) plus one Gram block and one h slice. A block
holds at most 256 rows and 16 MB: below N = 8192 the row cap binds (8 MB
at N = 4000, 2 MB at N = 1000), and from there on the byte budget. Each
row's k nearest are selected exactly, but only among the columns that
can pass a bound on its k-th distance, taken from strided column-group
minima of a monotone form h of the distances with a rounding margin:
about k*N/256 candidates per row for N >= 1024, and only theirs are
turned into squared distances. h is formed a slice of rows at a time and
reduced to the group minima while it is in cache.
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

# Bytes of h formed at a time: a slice of a block's rows small enough to
# stay in a core's L2 cache until it is reduced to its group minima.
_SLICE_BYTES = 2 ** 20

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
        neighbour slot at a time, so every temporary is (N, D)."""
        y = x * self.degree[:, None]
        for cols, weights in zip(self.cols.T, self.weights.T):
            neigh = x[cols]
            neigh *= weights[:, None]
            y -= neigh
        a = x.T @ y
        return 0.5 * (a + a.T)

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


def _slice_rows(n):
    """Rows of an N-wide h slice within the slice budget."""
    return max(1, _SLICE_BYTES // (8 * n))


def _group_minima(gram, half_sq, lo, groups, h_buf):
    """Each row's minima of h_ij = sq_j / 2 - g_ij over its column groups
    j = c, c + G, c + 2G, ... (c < G = groups), with h = +inf at the row's
    own column, for the Gram rows g = x[lo:hi] x^T of a block and
    half_sq = sq / 2. h is formed in h_buf, len(h_buf) rows at a time, and
    each slice is reduced before the next overwrites it."""
    rows, n = gram.shape
    minima = np.empty((rows, groups))
    full = n // groups * groups
    for start in range(0, rows, len(h_buf)):
        stop = min(start + len(h_buf), rows)
        h, low = h_buf[:stop - start], minima[start:stop]
        np.subtract(half_sq[None, :], gram[start:stop], out=h)
        h[np.arange(stop - start), np.arange(lo + start, lo + stop)] = np.inf
        # Elementwise minima over the G-wide column slices give every
        # group's minimum in one pass; the last column slice, shorter than
        # G when G does not divide N, holds the first N - full groups.
        np.minimum.reduce(h[:, :full].reshape(stop - start, -1, groups),
                          axis=1, out=low)
        np.minimum(low[:, :n - full], h[:, full:], out=low[:, :n - full])
    return minima


def _nearest(gram, half_sq, sq, lo, k, margin, h_buf):
    """Columns (ascending) and squared distances of each row's k nearest
    among the N columns, for the block of rows lo, lo + 1, ... of x; k < N.
    Ties at the k-th distance go to the lowest column indices, as in
    `_select`. gram is the block's Gram rows g = x[lo:hi] x^T, sq the
    squared row norms of x and half_sq = sq / 2; h_buf is scratch for
    `_group_minima`, and gram is only read.

    A row's squared distances are d2_ij = sq_i + sq_j - 2 g_ij, so in exact
    arithmetic d2_ij = 2 h_ij + sq_i orders the row as
    h_ij = sq_j / 2 - g_ij does. Group c holds columns c, c + G, c + 2G,
    ... with G = min(_GROUPS, N // 4), and `_group_minima` gives every
    group's minimum of h, with +inf at the row's own column. Call the
    min(k, G)-th smallest of them tau. For G >= k, the columns of the
    min(k, G) smallest minima bound the row's k-th distance; for G < k tau
    is the largest minimum and admits every group. Every column within
    the k-th distance then has h <= max(tau, -sq_i / 2) + margin, where
    margin covers the rounding of h and of d2 and the -sq_i / 2 term the
    clamp of d2 at 0 (see `knn_similarity`). The columns of the groups
    whose minimum passes that bound, gathered slice by slice (ascending
    column order), hold the row's k nearest and every tie at the k-th.
    Their d2 is formed from the same Gram entries in the same operations
    as for a whole row, so `_select` on them picks the same set as on the
    whole row.

    Per block this costs one pass over h, slice by slice, a partition of
    rows x G minima, and the exact selection on about k*N/G candidates
    per row."""
    rows, n = gram.shape
    groups = max(1, min(_GROUPS, n // 4))
    minima = _group_minima(gram, half_sq, lo, groups, h_buf)
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
    g = np.take_along_axis(gram, cand, axis=1)
    g *= 2.0
    d2 = sq_rows[:, None] + sq[cand]
    d2 -= g
    np.maximum(d2, 0.0, out=d2)
    d2[past | (cand == np.arange(lo, lo + rows)[:, None])] = np.inf
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
    and _BLOCK_BYTES bytes, and h in slices of at most _SLICE_BYTES, so
    memory is O(N*k) plus one Gram block and one h slice.
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

    # The rounding that `_nearest`'s group bound allows for. With M the
    # largest squared row norm, every Gram entry has |g| <= 2M (it is M
    # to within the rounding of the products). With u = eps / 2, the
    # computed h and the computed d2 before its clamp each lie within
    # 2.5 M u and 8 M u of their exact values from sq and g, so
    # 2 h + sq_i lies within 13 M u of d2; the bound's own sum adds at
    # most 3 M u in h units. 16 M eps = 32 M u holds twice that. The tiny
    # term covers the absolute error of halving a subnormal sq.
    margin = 4.0 * np.finfo(float).eps * bound + np.finfo(float).tiny
    half_sq = 0.5 * sq

    cols = np.empty((n, n_neighbors), dtype=np.intp)
    neigh_d2 = np.empty((n, n_neighbors))
    bounds = _row_blocks(n)
    # One Gram buffer serves every block, since fresh multi-MB temporaries
    # per block cost page faults until malloc reuses them, and one h slice
    # serves every slice of every block. Both share one allocation, the
    # largest the call frees: glibc's dynamic mmap and trim thresholds
    # follow the largest block freed, and then keep the call's memory for
    # the next call. As two buffers, at N = 1000 that memory went back to
    # the system after every call and came back as about 1350 minor page
    # faults per call (10 -> 14 ms for two 1000-row views).
    rows = max(np.diff(bounds))
    h_rows = min(rows, _slice_rows(n))
    buf = np.empty((rows + h_rows, n))
    gram_buf, h_buf = buf[:rows], buf[rows:]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        gram = gram_buf[:hi - lo]
        np.matmul(x[lo:hi], x.T, out=gram)
        cols[lo:hi], neigh_d2[lo:hi] = _nearest(gram, half_sq, sq, lo,
                                                n_neighbors, margin, h_buf)

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
