"""kNN similarity graphs and Laplacians in the fuzzy feature space.

The graphs are sparse: S holds about N*k edges, so S and L = D - S are
scipy.sparse CSR arrays and graph memory is O(N*k). Gram products are
formed one row block at a time, so no N x N array is ever allocated. Each
row's k nearest are selected exactly, but only among the columns that can
pass a bound on its k-th distance, taken from strided column-group minima
of a monotone form of the distances with a rounding margin: about
k*N/256 candidates per row for N >= 1024, and only theirs are turned into
squared distances.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

# Bytes of squared distances held per row block; the block's temporaries
# take a small multiple of this.
_BLOCK_BYTES = 16 * 2 ** 20

# Most column groups `_nearest` bounds each row's k-th distance with.
_GROUPS = 256


@dataclass
class GraphLaplacian:
    """Symmetric similarity S (CSR) and the Laplacian L = D - S (CSR),
    where D is the diagonal of S's row sums."""

    similarity: sp.csr_array
    laplacian: sp.csr_array


def _row_blocks(n):
    """Bounds of near-equal row blocks, each within the byte budget."""
    n_blocks = -(-n // max(1, _BLOCK_BYTES // (8 * n)))
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


def _nearest(h, gram, sq, lo, k, margin):
    """Columns (ascending) and squared distances of each row's k nearest
    among the N columns, for the block of rows lo, lo + 1, ... of x; k < N.
    Ties at the k-th distance go to the lowest column indices, as in
    `_select`. gram is the block's Gram rows g = x[lo:hi] x^T, sq the
    squared row norms of x, and h holds h_ij = sq_j / 2 - g_ij with +inf at
    each row's own column; h is overwritten.

    A row's squared distances are d2_ij = sq_i + sq_j - 2 g_ij, so in exact
    arithmetic d2_ij = 2 h_ij + sq_i orders the row as h does. Group g
    holds columns g, g + G, g + 2G, ... with G = min(_GROUPS, N // 4).
    Elementwise minima of h over the G-wide column slices give every
    group's minimum in one pass. Call the min(k, G)-th smallest of them
    tau. For G >= k, the columns of the min(k, G) smallest minima bound
    the row's k-th distance; for G < k tau is the largest minimum and
    admits every group. Every column within the k-th distance then has
    h <= max(tau, -sq_i / 2) + margin, where margin covers the rounding of
    h and of d2 and the -sq_i / 2 term the clamp of d2 at 0 (see
    `knn_similarity`). The columns of the groups whose minimum passes that
    bound, gathered slice by slice (ascending column order), hold the
    row's k nearest and every tie at the k-th. Their d2 is formed from the
    same Gram entries in the same operations as for a whole row, so
    `_select` on them picks the same set as on the whole row.

    Per block this costs one minimum pass over h, a partition of
    rows x G minima, and the exact selection on about k*N/G candidates
    per row."""
    rows, n = gram.shape
    groups = max(1, min(_GROUPS, n // 4))
    minima = np.empty((rows, groups))
    slices = n // groups
    np.minimum.reduce(h[:, :slices * groups].reshape(rows, slices, groups),
                      axis=1, out=minima)
    rest = n - slices * groups
    np.minimum(minima[:, :rest], h[:, slices * groups:],
               out=minima[:, :rest])
    # h is not read again: its first G columns take the copy to partition.
    ranked = h[:, :groups]
    np.copyto(ranked, minima)
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
    # The last slice may be shorter than G: its missing columns, which
    # come last in each row, read column N - 1 and are then set to inf.
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


def knn_similarity(x, n_neighbors=5, bandwidth="auto"):
    """Gaussian-kernel similarity restricted to each row's k nearest
    neighbors, then symmetrized as (S + S^T)/2 with a zero diagonal.

    bandwidth="auto" sets the kernel scale to the median of the nonzero
    selected neighbor distances, which keeps the weights away from the
    degenerate all-0 / all-1 regimes whatever the data scale. Distance
    ties resolve to the lower index. A numeric bandwidth must be finite
    and positive, and x finite with 4 max ||x||^2 finite, so that no
    squared distance overflows; ValueError otherwise.

    Returns S as an (N, N) scipy.sparse CSR array with at most 2*N*k
    entries; squared distances are computed in row blocks, so memory is
    O(N*k) plus one block.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if not 1 <= n_neighbors < n:
        raise ValueError(f"n_neighbors must be in [1, {n - 1}]")
    if bandwidth != "auto" and not 0 < float(bandwidth) < np.inf:
        raise ValueError("bandwidth must be finite and positive")
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
    # One Gram and one h buffer serve every block: fresh 16 MB
    # temporaries per block cost page faults until malloc reuses them.
    rows = max(np.diff(bounds))
    gram_buf = np.empty((rows, n))
    h_buf = np.empty((rows, n))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        gram, h = gram_buf[:hi - lo], h_buf[:hi - lo]
        np.matmul(x[lo:hi], x.T, out=gram)
        np.subtract(half_sq[None, :], gram, out=h)
        h[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
        cols[lo:hi], neigh_d2[lo:hi] = _nearest(h, gram, sq, lo, n_neighbors,
                                                margin)

    if bandwidth == "auto":
        dists = np.sqrt(neigh_d2)
        nonzero = dists[dists > 0]
        sigma = float(np.median(nonzero)) if nonzero.size else 1.0
    else:
        sigma = float(bandwidth)

    weights = np.exp(-neigh_d2 / (2.0 * sigma * sigma))
    s = sp.csr_array(
        (weights.ravel(), cols.ravel(),
         np.arange(0, n * n_neighbors + 1, n_neighbors)), shape=(n, n))
    return 0.5 * (s + s.T)


def laplacian(similarity):
    """Unnormalized graph Laplacian L = D - S of a symmetric similarity,
    given dense or sparse; S and L are returned as CSR arrays."""
    s = sp.csr_array(similarity, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError("similarity must be square")
    if abs(s - s.T).max() > 1e-10:
        raise ValueError("similarity must be symmetric")
    if np.any(s.data < 0):
        raise ValueError("similarity must be non-negative")
    degree = s.sum(axis=1)
    lap = (sp.diags_array(degree) - s).tocsr()
    return GraphLaplacian(similarity=s, laplacian=lap)


def build_graph(x, n_neighbors=5, bandwidth="auto"):
    """Similarity plus Laplacian in one call."""
    return laplacian(knn_similarity(x, n_neighbors, bandwidth))
