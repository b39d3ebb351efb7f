"""Versioned JSON persistence of fitted models."""

import json
from dataclasses import asdict

import numpy as np

from .antecedent import AntecedentBank, Standardizer
from .data import _is_int
from .solver import Hyperparams, ModelState

FORMAT_VERSION = 3

WEIGHT_SUM_TOL = 1e-9  # the rounding of a softmax, not another weighting


def _consequent_rows(block):
    """The rows of a consequent block as lists of floats, except that a
    row whose entries are all +0.0 is the integer 0 (format 3). The L2,1
    terms leave most rows exactly 0; a row that holds a -0.0 stays a list,
    so the loaded block keeps every bit."""
    live = (np.signbit(block) | (block != 0)).any(axis=1).tolist()
    return [row if keep else 0 for row, keep in zip(block.tolist(), live)]


def model_to_dict(state):
    """JSON-ready snapshot; floats keep full round-trip precision."""
    views = []
    for v in range(state.n_views):
        views.append({
            "mean": state.standardizers[v].mean.tolist(),
            "scale": state.standardizers[v].scale.tolist(),
            "centers": state.banks[v].centers.tolist(),
            "widths": state.banks[v].widths.tolist(),
            "p_common": _consequent_rows(state.p_common[v]),
            "p_specific": _consequent_rows(state.p_specific[v]),
        })
    return {
        "format_version": FORMAT_VERSION,
        "hyperparams": asdict(state.hp),
        "view_weights": state.view_weights.tolist(),
        "views": views,
    }


def save_model(state, path):
    """Write the model document as one compact JSON line with sorted keys
    and a final newline. `json.dumps` without an indent runs CPython's C
    encoder; `json.dump` and any indent fall back to the Python one.
    `load_model` reads indented files as well."""
    text = json.dumps(model_to_dict(state), sort_keys=True,
                      separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _field(doc, key, where="model document"):
    """doc[key]; a ValueError naming the field if doc has none."""
    if key not in doc:
        raise ValueError(f"{where} has no {key!r} field")
    return doc[key]


def _array(doc, key, where="model document", value=None):
    """doc[key], or value when given, as a float array; a ValueError
    naming the field if doc has none, or it is not numeric, has an entry
    that is not a JSON number (`np.asarray` takes bools and numeric
    strings) or is not finite (`json.load` reads NaN). A scalar, as None
    gives, is left to the callers' shape checks."""
    if value is None:
        value = _field(doc, key, where)
    try:
        array = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(
            f"{where} field {key!r} is not a numeric array") from None
    if isinstance(value, list):
        kinds = set(map(type, np.asarray(value, dtype=object).flat))
        other = sorted(kind.__name__ for kind in kinds - {int, float})
        if other:
            raise ValueError(
                f"{where} field {key!r} holds a {other[0]}, not a number")
    if array.ndim and not np.isfinite(array).all():
        raise ValueError(f"{where} field {key!r} holds a non-finite value")
    return array


def _zero_rows_expanded(doc, key, where, m, n_rows, embed_dim):
    """doc[key] with each entry that is the integer 0 (not a bool, not
    0.0) replaced by a row of zeros, for `_array`. The zeros take the
    width of the block's first list row, else the width m of view 0's
    p_common, so an embed_dim at odds with the rows reaches the embed_dim
    check. View 0's p_common, when it is all 0 rows, takes embed_dim,
    which must be an integer from 1 to n_rows = n_rules (d_0 + 1), the
    widest embedding a fit makes (`_resolve_embed_dim`)."""
    value = _field(doc, key, where)
    if not isinstance(value, list):
        return value
    zero = [type(row) is int and row == 0 for row in value]
    if not any(zero):
        return value
    width = next((len(row) for row in value if isinstance(row, list)), m)
    if width is None:
        if not (_is_int(embed_dim) and 1 <= embed_dim <= n_rows):
            raise ValueError(
                f"model hyperparams field 'embed_dim' is {embed_dim!r}, "
                f"not a width from 1 to {n_rows} for the 0 rows of {where} "
                f"field {key!r}")
        width = embed_dim
    return [[0.0] * width if z else row for row, z in zip(value, zero)]


def _check_shapes(where, keys, arrays, shapes, context):
    for key, array, shape in zip(keys, arrays, shapes):
        if array.shape != shape:
            raise ValueError(f"{where} field {key!r} has shape "
                             f"{array.shape}, not {shape} ({context})")


def model_from_dict(doc):
    """The ModelState of a model document; ValueError if it is not a
    JSON object, lacks a field, or its version (an integer from 1 to
    FORMAT_VERSION), hyperparams or views are not a model's. A view's mean
    and scale must hold d_v entries, its centers and widths be (R, d_v)
    and its p_common and p_specific (R (d_v + 1), m), with R = n_rules
    and m = embed_dim >= 1 for every view; a p_common or p_specific row
    given as the integer 0 is a row of zeros, whatever the version (see
    `_zero_rows_expanded`). The view weights must be non-negative and sum
    to 1 within WEIGHT_SUM_TOL."""
    if not isinstance(doc, dict):
        raise ValueError("a model document must be a JSON object, not "
                         f"{type(doc).__name__}")
    version = doc.get("format_version")
    # Version 1 also held the training-set consistency map, ignored here;
    # version 3 added the 0 rows.
    if not _is_int(version) or not 1 <= version <= FORMAT_VERSION:
        raise ValueError(
            f"unsupported model field 'format_version': {version!r}")
    try:
        hp = Hyperparams(**_field(doc, "hyperparams"))
    except TypeError as err:
        raise ValueError(f"bad model hyperparams: {err}") from None
    views = _field(doc, "views")
    if not (isinstance(views, list) and views
            and all(isinstance(vd, dict) for vd in views)):
        raise ValueError("model field 'views' must be a non-empty list of "
                         f"objects, got {views!r:.60}")
    standardizers, banks, p_common, p_specific = [], [], [], []
    keys = ("mean", "scale", "centers", "widths", "p_common", "p_specific")
    r, m = hp.n_rules, None
    for v, vd in enumerate(views):
        where = f"model view {v}"
        arrays = [_array(vd, key, where) for key in keys[:4]]
        mean = arrays[0]
        if mean.ndim != 1:
            raise ValueError(f"{where} field 'mean' must be a list of "
                             f"numbers, got shape {mean.shape}")
        d = mean.size
        _check_shapes(where, keys[:4], arrays,
                      [(d,), (d,), (r, d), (r, d)], f"n_rules {r}, {d} "
                      "features")
        # Checked centers bound r (d + 1), the widest block a 0 row fills.
        for key in keys[4:]:
            arrays.append(_array(vd, key, where, _zero_rows_expanded(
                vd, key, where, m, r * (d + 1), hp.embed_dim)))
            if m is None:
                m = arrays[4].shape[-1] if arrays[4].ndim else 0
        mean, scale, centers, widths, pc, ps = arrays
        _check_shapes(where, keys[4:], arrays[4:], [(r * (d + 1), m)] * 2,
                      f"n_rules {r}, {d} features, embedding width {m}")
        if m == 0:
            raise ValueError(f"{where} field 'p_common' has no columns: the "
                             "embedding width must be at least 1")
        standardizers.append(Standardizer(mean=mean, scale=scale))
        banks.append(AntecedentBank(centers=centers, widths=widths))
        p_common.append(pc)
        p_specific.append(ps)
    if hp.embed_dim != m:
        raise ValueError(f"model hyperparams field 'embed_dim' is "
                         f"{hp.embed_dim!r}, not the width {m} of p_common")
    weights = _array(doc, "view_weights")
    if (weights.shape != (len(views),) or weights.min() < 0
            or abs(weights.sum() - 1.0) > WEIGHT_SUM_TOL):
        raise ValueError(
            "model field 'view_weights' must hold one weight per view, "
            f"non-negative and summing to 1 (within {WEIGHT_SUM_TOL:g}), "
            f"got {doc['view_weights']!r:.60}")
    return ModelState(
        hp=hp,
        standardizers=standardizers,
        banks=banks,
        p_common=p_common,
        p_specific=p_specific,
        view_weights=weights,
    )


def load_model(path):
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))
