"""kNN similarity graphs and Laplacians in the fuzzy feature space.

The graphs are sparse: S holds about N*k edges, so S and L = D - S are
scipy.sparse CSR arrays and graph memory is O(N*k). Distances are formed
one row block at a time, so no N x N array is ever allocated.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

# Bytes of squared distances held per row block; the block's temporaries
# take a small multiple of this.
_BLOCK_BYTES = 16 * 2 ** 20


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


def _nearest(d2, k, scratch):
    """Columns (ascending) and squared distances of each row's k nearest
    columns, for k < d2.shape[1]. Ties at the k-th distance go to the
    lowest column indices, the set a stable sort of the row would pick.
    `scratch`, an array of d2's shape, holds the partitioned copy.

    Per block this costs one partition, one comparison and one flat index
    scan. Partitioning at k puts the k smallest distances first and the
    (k+1)-th at k, so a row selects more than k columns exactly when its
    (k+1)-th distance equals its k-th; only those rows take the tie path."""
    np.copyto(scratch, d2)
    scratch.partition(k, axis=1)
    kth = scratch[:, :k].max(axis=1)
    chosen = d2 <= kth[:, None]
    tied = np.flatnonzero(scratch[:, k] == kth)
    if tied.size:
        # Drop the highest-index columns at the k-th distance, as many
        # as the row selected beyond k.
        extra = np.count_nonzero(chosen[tied], axis=1) - k
        at_kth = d2[tied] == kth[tied, None]
        rank_from_end = np.cumsum(at_kth[:, ::-1], axis=1)[:, ::-1]
        chosen[tied] &= ~(at_kth & (rank_from_end <= extra[:, None]))
    cols = (np.flatnonzero(chosen) % d2.shape[1]).reshape(-1, k)
    return cols, np.take_along_axis(d2, cols, axis=1)


def knn_similarity(x, n_neighbors=5, bandwidth="auto"):
    """Gaussian-kernel similarity restricted to each row's k nearest
    neighbors, then symmetrized as (S + S^T)/2 with a zero diagonal.

    bandwidth="auto" sets the kernel scale to the median of the nonzero
    selected neighbor distances, which keeps the weights away from the
    degenerate all-0 / all-1 regimes whatever the data scale. Distance
    ties resolve to the lower index.

    Returns S as an (N, N) scipy.sparse CSR array with at most 2*N*k
    entries; squared distances are computed in row blocks, so memory is
    O(N*k) plus one block.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if not 1 <= n_neighbors < n:
        raise ValueError(f"n_neighbors must be in [1, {n - 1}]")
    if bandwidth != "auto" and float(bandwidth) <= 0:
        raise ValueError("bandwidth must be positive")
    sq = (x * x).sum(axis=1)
    if not np.all(np.isfinite(sq)):
        raise ValueError("x must be finite, with finite squared row norms")

    cols = np.empty((n, n_neighbors), dtype=np.intp)
    neigh_d2 = np.empty((n, n_neighbors))
    bounds = _row_blocks(n)
    # One Gram and one distance buffer serve every block, the Gram one
    # again as the partition scratch: fresh 16 MB temporaries per block
    # cost page faults until malloc reuses them.
    rows = max(np.diff(bounds))
    gram_buf = np.empty((rows, n))
    d2_buf = np.empty((rows, n))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        gram, d2 = gram_buf[:hi - lo], d2_buf[:hi - lo]
        np.matmul(x[lo:hi], x.T, out=gram)
        gram *= 2.0
        np.add(sq[lo:hi, None], sq[None, :], out=d2)
        d2 -= gram
        np.maximum(d2, 0.0, out=d2)
        d2[np.arange(hi - lo), np.arange(lo, hi)] = np.inf
        cols[lo:hi], neigh_d2[lo:hi] = _nearest(d2, n_neighbors, gram)

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
