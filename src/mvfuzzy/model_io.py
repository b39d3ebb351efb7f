"""Versioned JSON persistence of fitted models."""

import json
from dataclasses import asdict

import numpy as np

from .antecedent import AntecedentBank, Standardizer
from .solver import Hyperparams, ModelState

FORMAT_VERSION = 2


def model_to_dict(state):
    """JSON-ready snapshot; floats keep full round-trip precision."""
    views = []
    for v in range(state.n_views):
        views.append({
            "mean": state.standardizers[v].mean.tolist(),
            "scale": state.standardizers[v].scale.tolist(),
            "centers": state.banks[v].centers.tolist(),
            "widths": state.banks[v].widths.tolist(),
            "p_common": state.p_common[v].tolist(),
            "p_specific": state.p_specific[v].tolist(),
        })
    return {
        "format_version": FORMAT_VERSION,
        "hyperparams": asdict(state.hp),
        "view_weights": state.view_weights.tolist(),
        "views": views,
    }


def save_model(state, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(state), fh, indent=2, sort_keys=True)
        fh.write("\n")


def model_from_dict(doc):
    """The ModelState of a model document; ValueError if it is not a
    JSON object or its version or hyperparams are not a model's."""
    if not isinstance(doc, dict):
        raise ValueError("a model document must be a JSON object, not "
                         f"{type(doc).__name__}")
    version = doc.get("format_version")
    # Version 1 also held the training-set consistency map, ignored here.
    if version not in (1, FORMAT_VERSION):
        raise ValueError(f"unsupported model format version: {version}")
    try:
        hp = Hyperparams(**doc["hyperparams"])
    except TypeError as err:
        raise ValueError(f"bad model hyperparams: {err}") from None
    standardizers, banks, p_common, p_specific = [], [], [], []
    for vd in doc["views"]:
        standardizers.append(Standardizer(
            mean=np.asarray(vd["mean"], dtype=float),
            scale=np.asarray(vd["scale"], dtype=float),
        ))
        banks.append(AntecedentBank(
            centers=np.asarray(vd["centers"], dtype=float),
            widths=np.asarray(vd["widths"], dtype=float),
        ))
        p_common.append(np.asarray(vd["p_common"], dtype=float))
        p_specific.append(np.asarray(vd["p_specific"], dtype=float))
    return ModelState(
        hp=hp,
        standardizers=standardizers,
        banks=banks,
        p_common=p_common,
        p_specific=p_specific,
        view_weights=np.asarray(doc["view_weights"], dtype=float),
    )


def load_model(path):
    with open(path, "r", encoding="utf-8") as fh:
        return model_from_dict(json.load(fh))
