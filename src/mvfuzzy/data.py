"""Multi-view dataset container, CSV ingestion and synthetic data generation."""

import json
import numbers
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np


class DataError(ValueError):
    """Raised when input files are missing, malformed or inconsistent."""


@dataclass
class MultiViewDataset:
    """Per-view instance matrices sharing one instance axis.

    views   -- list of (N, d_v) float arrays, one per view
    labels  -- optional (N,) integer class labels
    """

    views: list = field(default_factory=list)
    labels: np.ndarray | None = None

    def __post_init__(self):
        if not self.views:
            raise DataError("dataset needs at least one view")
        self.views = [np.asarray(v, dtype=float) for v in self.views]
        n = self.views[0].shape[0]
        for i, v in enumerate(self.views):
            if v.ndim != 2:
                raise DataError(f"view {i} is not a 2-D matrix")
            if v.shape[0] != n:
                raise DataError(
                    f"view {i} has {v.shape[0]} rows but view 0 has {n}"
                )
            if not np.all(np.isfinite(v)):
                raise DataError(f"view {i} contains non-finite values")
        if n < 2:
            raise DataError("dataset needs at least 2 instances")
        if self.labels is not None:
            self.labels = np.asarray(self.labels)
            if self.labels.shape != (n,):
                raise DataError(
                    f"labels have shape {self.labels.shape}, expected ({n},)"
                )

    @property
    def n_instances(self):
        return self.views[0].shape[0]

    @property
    def n_views(self):
        return len(self.views)

    @property
    def view_dims(self):
        return [v.shape[1] for v in self.views]

    @property
    def n_classes(self):
        if self.labels is None:
            return None
        return int(np.unique(self.labels).size)


def _read_numeric_csv(path, header=False):
    """Parse a numeric CSV into a 2-D float array.

    Blank lines are skipped, and a byte-order mark at the start of the
    file is dropped. Every cell is converted by `float()` in one
    `np.fromiter` pass over the rows, split one row at a time. Only when
    a cell fails are the rows scanned again, to report the row and column
    (1-based, after any skipped header) of the first non-numeric cell
    instead of a bare float() error. Errors come in file order: a row of
    the wrong width is reported only if no cell before it is non-numeric.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"file not found: {path}")
    with open(path, "r", encoding="utf-8-sig") as fh:
        lines = fh.read().splitlines()
    if header:
        lines = lines[1:]
    numbered = []
    width = short = None
    for r, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        n_cells = line.count(",") + 1
        if width is None:
            width = n_cells
        elif n_cells != width:
            short = DataError(
                f"{path}: row {r} has {n_cells} columns, expected {width}"
            )
            break
        numbered.append((r, line))
    if not numbered:
        raise DataError(f"{path}: no data rows")
    cells = chain.from_iterable(line.split(",") for _, line in numbered)
    try:
        values = np.fromiter(map(float, cells), dtype=float,
                             count=len(numbered) * width)
    except ValueError:
        raise _first_bad_cell(path, numbered) from None
    if short is not None:
        raise short
    return values.reshape(len(numbered), width)


def _first_bad_cell(path, numbered):
    """The DataError naming the first cell of the (row number, line)
    pairs that `float()` rejects."""
    for r, line in numbered:
        for c, cell in enumerate(line.split(","), start=1):
            try:
                float(cell)
            except ValueError:
                return DataError(
                    f"{path}: non-numeric cell at row {r}, column {c}: {cell!r}"
                )


def load_labels(path, header=False):
    """Read a single-column CSV of class identifiers (numeric or strings)
    as dense integer codes; a byte-order mark before the first label is
    dropped. When every label is an integer literal the codes follow the
    labels' numeric order, so labels 0..K-1 load back as themselves;
    otherwise they follow the labels' string order."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"file not found: {path}")
    with open(path, "r", encoding="utf-8-sig") as fh:
        lines = [ln.strip() for ln in fh.read().splitlines()]
    if header:
        lines = lines[1:]
    values = [ln for ln in lines if ln]
    if not values:
        raise DataError(f"{path}: no labels")
    names, codes = np.unique(values, return_inverse=True)
    try:
        # Stable, so labels of one value ("1", "01") keep string order.
        order = sorted(range(len(names)), key=lambda i: int(names[i]))
    except ValueError:
        return codes.astype(np.int64)
    return np.argsort(order)[codes].astype(np.int64)


def load_dataset(view_paths, label_path=None, header=False):
    """Load per-view CSVs (rows = instances) plus an optional label column.

    Raises DataError naming the offending file when row counts disagree
    across views or a cell fails to parse.
    """
    views = []
    for p in view_paths:
        views.append(_read_numeric_csv(p, header=header))
    n = views[0].shape[0]
    for p, v in zip(view_paths, views):
        if v.shape[0] != n:
            raise DataError(
                f"view row counts disagree: {view_paths[0]} has {n} rows, "
                f"{p} has {v.shape[0]}"
            )
    labels = None
    if label_path is not None:
        labels = load_labels(label_path, header=header)
        if labels.shape[0] != n:
            raise DataError(
                f"labels file {label_path} has {labels.shape[0]} rows, "
                f"views have {n}"
            )
    return MultiViewDataset(views=views, labels=labels)


def _is_int(value):
    """True for an integer that is not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value):
    """True for a real number that is not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _is_count(value):
    """True for an integer (not a bool) >= 1."""
    return _is_int(value) and value >= 1


def make_synthetic(n_instances=200, n_views=2, n_clusters=4, noise=0.1,
                   seed=7, dims=None, separation=4.0):
    """Generate a multi-view blob dataset with shared cluster structure.

    One latent cluster assignment is drawn; each view is a distinct random
    linear map of the cluster centers plus per-view Gaussian noise, so the
    views agree on the clustering but differ in realization. noise=0 makes
    all points of a cluster coincide within each view.
    """
    for name, value in (("n_instances", n_instances), ("n_views", n_views),
                        ("n_clusters", n_clusters)):
        if not _is_count(value):
            raise DataError(f"{name} must be an integer >= 1, got {value!r}")
    for name, value in (("noise", noise), ("separation", separation)):
        if not (_is_real(value) and np.isfinite(value) and value >= 0):
            raise DataError(f"{name} must be a finite real number >= 0, "
                            f"got {value!r}")
    if not (_is_int(seed) and seed >= 0):
        raise DataError(f"seed must be an integer >= 0, got {seed!r}")
    if n_clusters > n_instances:
        raise DataError("more clusters than instances")
    rng = np.random.default_rng(seed)
    if dims is None:
        dims = [8 + 4 * v for v in range(n_views)]
    if len(dims) != n_views:
        raise DataError("dims must list one dimension per view")
    if not all(_is_count(d) for d in dims):
        raise DataError("every view needs an integer dimension >= 1, "
                        f"got dims {list(dims)}")
    # Round-robin assignment keeps every cluster populated.
    labels = rng.permutation(np.arange(n_instances) % n_clusters)
    latent_dim = max(2, n_clusters)
    centers = rng.normal(size=(n_clusters, latent_dim)) * separation
    views = []
    for d in dims:
        basis = rng.normal(size=(latent_dim, d)) / np.sqrt(latent_dim)
        x = centers[labels] @ basis
        x = x + noise * rng.normal(size=(n_instances, d))
        views.append(x)
    return MultiViewDataset(views=views, labels=labels)


def write_matrix_csv(matrix, path):
    """Write a 2-D array as a headerless CSV at full round-trip precision:
    each cell is `repr(float(x))`, and the rows go to one `writelines`
    call, converted to Python floats one row at a time."""
    matrix = np.asarray(matrix, dtype=float)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(",".join(map(repr, row.tolist())) + "\n"
                      for row in matrix)


def write_json(doc, path):
    """Write doc as a JSON artifact people read (reports, manifests,
    rules.json): sorted keys, indent 2, final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_dataset(dataset, out_dir, seed=None):
    """Write per-view CSVs, a labels CSV and a manifest; returns the
    manifest with the paths of the files written.

    The manifest file names each file relative to its own directory, so
    the same data saved into two directories gives the same bytes.
    Integer labels are written as they are, so `load_labels` gives back
    labels 0..K-1 unchanged; any others as their `np.unique` codes, so
    `load_labels` gives back the same partition.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    view_names = []
    for i, v in enumerate(dataset.views):
        name = f"view_{i}.csv"
        write_matrix_csv(v, out_dir / name)
        view_names.append(name)
    label_name = None
    if dataset.labels is not None:
        labels = dataset.labels
        if not np.issubdtype(labels.dtype, np.integer):
            labels = np.unique(labels, return_inverse=True)[1]
        label_name = "labels.csv"
        with open(out_dir / label_name, "w", encoding="utf-8") as fh:
            for y in labels:
                fh.write(f"{int(y)}\n")
    manifest = {
        "n_instances": dataset.n_instances,
        "n_views": dataset.n_views,
        "view_dims": dataset.view_dims,
        "views": view_names,
        "labels": label_name,
        "seed": seed,
    }
    write_json(manifest, out_dir / "dataset_manifest.json")
    return dict(manifest,
                views=[str(out_dir / name) for name in view_names],
                labels=label_name and str(out_dir / label_name))
