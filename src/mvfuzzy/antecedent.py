"""Antecedent estimation and fuzzy feature mapping for one view.

The IF-part of every rule is a product of per-feature Gaussians. Centers
come from a deterministic variance-partitioning split of the data, widths
from the normalized per-rule scatter, and inputs are mapped into the
rule-weighted affine feature space where all downstream learning is linear.
"""

import warnings
from dataclasses import dataclass

import numpy as np

EPS_WIDTH = 1e-8


@dataclass
class Standardizer:
    """Per-feature zero-mean unit-variance scaling fitted on training data.

    Constant features (min == max) get the value as mean and a scale of
    1, so they map to exactly zero and a new value v maps to v - mean.
    """

    mean: np.ndarray
    scale: np.ndarray

    @classmethod
    def fit(cls, x):
        x = np.asarray(x, dtype=float)
        constant = x.min(axis=0) == x.max(axis=0)
        mean = np.where(constant, x[0], x.mean(axis=0))
        std = x.std(axis=0)
        scale = np.where((std > 0) & ~constant, std, 1.0)
        return cls(mean=mean, scale=scale)

    def transform(self, x):
        return (np.asarray(x, dtype=float) - self.mean) / self.scale


@dataclass
class AntecedentBank:
    """Gaussian IF-part parameters of all rules for one view.

    centers -- (K, d) rule centers
    widths  -- (K, d) strictly positive rule widths; each feature's widths
               sum to 1 across rules up to the EPS_WIDTH floor
    """

    centers: np.ndarray
    widths: np.ndarray

    def __post_init__(self):
        self.centers = np.asarray(self.centers, dtype=float)
        self.widths = np.asarray(self.widths, dtype=float)
        if self.centers.shape != self.widths.shape:
            raise ValueError("centers and widths must have the same shape")
        if np.any(self.widths <= 0):
            raise ValueError("widths must be strictly positive")

    @property
    def n_rules(self):
        return self.centers.shape[0]

    @property
    def n_features(self):
        return self.centers.shape[1]


def _check_matrix(x):
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError("expected a 2-D instance matrix")
    if not np.all(np.isfinite(x)):
        raise ValueError("input contains non-finite values")
    return x


def varpart_centers(x, n_rules):
    """Deterministic cluster centers by recursive variance partitioning.

    Starts from one cluster holding every row and performs n_rules - 1
    binary splits: pick the cluster with the largest within-cluster SSE,
    pick its highest-variance feature, and split the members at that
    feature's cluster mean (strictly below goes left, the rest right).
    Ties resolve to the lowest feature index, then the lowest cluster
    index. Identical inputs always produce identical centers.
    """
    x = _check_matrix(x)
    n = x.shape[0]
    if n_rules < 1:
        raise ValueError("n_rules must be >= 1")
    if n_rules > n:
        raise ValueError(f"n_rules={n_rules} exceeds instance count {n}")

    clusters = [np.arange(n)]
    duplicates = []
    for _ in range(n_rules - 1):
        sse = np.array([_cluster_sse(x[idx]) for idx in clusters])
        # Stable descending order: ties fall to the lowest cluster index.
        order = np.argsort(-sse, kind="stable")
        split_done = False
        for ci in order:
            idx = clusters[ci]
            if idx.size < 2:
                continue
            member = x[idx]
            var = member.var(axis=0)
            j = int(np.argmax(var))
            if var[j] <= 0:
                continue  # all members identical, unsplittable
            mean_j = member[:, j].mean()
            left = idx[member[:, j] < mean_j]
            right = idx[member[:, j] >= mean_j]
            if left.size == 0 or right.size == 0:
                continue
            clusters[ci] = left
            clusters.append(right)
            split_done = True
            break
        if not split_done:
            dup = x[clusters[int(order[0])]].mean(axis=0)
            duplicates.append(dup)
            warnings.warn(
                "no splittable cluster left; duplicating an existing center",
                RuntimeWarning,
            )
    centers = [x[idx].mean(axis=0) for idx in clusters] + duplicates
    return np.vstack(centers)


def _cluster_sse(member):
    return float(((member - member.mean(axis=0)) ** 2).sum())


def estimate_widths(x, centers):
    """Normalized per-rule widths: each rule's scatter around its center
    divided by the total scatter over all rules, feature by feature.

    Every feature's widths sum to 1 across rules by construction. Columns
    whose total scatter is zero (constant feature sitting exactly on all
    centers) fall back to the EPS_WIDTH floor with a warning, and all
    entries are floored at EPS_WIDTH.
    """
    x = _check_matrix(x)
    centers = np.asarray(centers, dtype=float)
    if centers.ndim != 2 or centers.shape[1] != x.shape[1]:
        raise ValueError("centers are not dimensioned for this data")
    scatter = np.stack([((x - c) ** 2).sum(axis=0) for c in centers])
    total = scatter.sum(axis=0)
    degenerate = total <= 0
    if np.any(degenerate):
        warnings.warn(
            "zero total scatter for some feature(s); widths floored",
            RuntimeWarning,
        )
    safe_total = np.where(degenerate, 1.0, total)
    widths = scatter / safe_total
    widths[:, degenerate] = EPS_WIDTH
    return np.maximum(widths, EPS_WIDTH)


def fit_antecedents(x, n_rules):
    """Estimate centers then widths on one (already standardized) view."""
    centers = varpart_centers(x, n_rules)
    widths = estimate_widths(x, centers)
    return AntecedentBank(centers=centers, widths=widths)


def log_firing_levels(x, bank):
    """Unnormalized log firing level of every rule for every row.

    Returns (N, K); entries are <= 0 with equality only when the row sits
    exactly on the rule's center in every feature.
    """
    x = _check_matrix(np.atleast_2d(x))
    if x.shape[1] != bank.n_features:
        raise ValueError("input dimension does not match the rule bank")
    logs = np.empty((x.shape[0], bank.n_rules))
    for k in range(bank.n_rules):
        diff = x - bank.centers[k]
        logs[:, k] = -(diff * diff / (2.0 * bank.widths[k])).sum(axis=1)
    return logs


def firing_levels(x, bank):
    """Normalized firing levels, computed entirely in the log domain.

    Subtracting the row-wise max before exponentiating keeps the result
    free of underflow even for hundreds of features with floor-level
    widths: the output always sums to 1 per row.
    """
    logs = log_firing_levels(x, bank)
    logs = logs - logs.max(axis=1, keepdims=True)
    levels = np.exp(logs)
    levels /= levels.sum(axis=1, keepdims=True)
    if np.asarray(x).ndim == 1:
        return levels[0]
    return levels


def fuzzy_map(x, bank):
    """Map rows into the K*(d+1)-dimensional fuzzy feature space.

    Row i is the concatenation over rules k of mu_k(x_i) * [1, x_i], so the
    constant slots of the K blocks carry the normalized firing levels and
    sum to exactly 1 for every row.
    """
    x = _check_matrix(x)
    if x.shape[1] != bank.n_features:
        raise ValueError("input dimension does not match the rule bank")
    n, d = x.shape
    levels = firing_levels(x, bank)
    affine = np.concatenate([np.ones((n, 1)), x], axis=1)
    out = np.empty((n, bank.n_rules * (d + 1)))
    for k in range(bank.n_rules):
        out[:, k * (d + 1):(k + 1) * (d + 1)] = levels[:, [k]] * affine
    return out
