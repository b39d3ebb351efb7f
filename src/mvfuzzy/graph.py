"""kNN similarity graphs and Laplacians in the fuzzy feature space.

The graphs are sparse: S holds about N*k edges, so S and L = D - S are
scipy.sparse CSR arrays and graph memory is O(N*k). Distances are formed
one row block at a time, so no N x N array is ever allocated. Each row's
k nearest are selected exactly, but only among the columns that can pass
a bound on its k-th distance taken from strided column-group minima:
about k*N/256 candidates per row for N >= 1024.
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


def _nearest(d2, k, scratch):
    """Columns (ascending) and squared distances of each row's k nearest
    among the first N columns of `d2`, whose last column is padding that
    holds inf; k < N. Ties at the k-th distance go to the lowest column
    indices, as in `_select`. `scratch` holds at least 2 * rows * G
    floats, G as below.

    Group g holds columns g, g + G, g + 2G, ... with G = min(_GROUPS,
    N // 4). Elementwise minima over the G-wide column slices give every
    group's minimum in one pass. Call the min(k, G)-th smallest of them
    tau. For G >= k it bounds the row's k-th distance from above; for
    G < k it is the largest minimum and admits every group. A column
    within tau lies in a group whose minimum is within tau, so the
    columns of those groups, gathered slice by slice (ascending column
    order), hold the row's k nearest and every tie at the k-th, and
    `_select` on them picks the same set as on the whole row.

    Per block this costs one minimum pass over d2, a partition of
    rows x G minima, and the exact selection on about k*N/G candidates
    per row."""
    rows, n = d2.shape[0], d2.shape[1] - 1
    groups = max(1, min(_GROUPS, n // 4))
    flat = scratch.reshape(-1)
    minima = flat[:rows * groups].reshape(rows, groups)
    ranked = flat[rows * groups:2 * rows * groups].reshape(rows, groups)
    slices = n // groups
    np.minimum.reduce(d2[:, :slices * groups].reshape(rows, slices, groups),
                      axis=1, out=minima)
    rest = n - slices * groups
    np.minimum(minima[:, :rest], d2[:, slices * groups:n],
               out=minima[:, :rest])
    np.copyto(ranked, minima)
    rank = min(k, groups) - 1
    ranked.partition(rank, axis=1)
    inside = minima <= ranked[:, rank:rank + 1]
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
    # The last slice may be shorter than G: its missing columns read the
    # inf padding.
    np.minimum(cand, n, out=cand)
    pos, near = _select(np.take_along_axis(d2, cand, axis=1), k)
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

    cols = np.empty((n, n_neighbors), dtype=np.intp)
    neigh_d2 = np.empty((n, n_neighbors))
    bounds = _row_blocks(n)
    # One Gram and one distance buffer serve every block, the Gram one
    # again as `_nearest`'s scratch: fresh 16 MB temporaries per block
    # cost page faults until malloc reuses them. The distance buffer
    # carries `_nearest`'s inf padding column.
    rows = max(np.diff(bounds))
    gram_buf = np.empty((rows, n))
    padded_buf = np.empty((rows, n + 1))
    padded_buf[:, n] = np.inf
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        gram, padded = gram_buf[:hi - lo], padded_buf[:hi - lo]
        d2 = padded[:, :n]
        np.matmul(x[lo:hi], x.T, out=gram)
        gram *= 2.0
        np.add(sq[lo:hi, None], sq[None, :], out=d2)
        d2 -= gram
        np.maximum(d2, 0.0, out=d2)
        d2[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
        cols[lo:hi], neigh_d2[lo:hi] = _nearest(padded, n_neighbors, gram)

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
