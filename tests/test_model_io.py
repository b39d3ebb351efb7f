import json

import numpy as np
import pytest

from mvfuzzy.model_io import (FORMAT_VERSION, load_model, model_from_dict,
                              model_to_dict, save_model)
from mvfuzzy.representation import embed


def test_save_load_reproduces_embedding(blob_dataset, fitted_blob, tmp_path):
    state, _ = fitted_blob
    path = tmp_path / "model.json"
    save_model(state, path)
    assert json.loads(path.read_text())["format_version"] == FORMAT_VERSION
    assert np.array_equal(embed(blob_dataset, load_model(path)).data,
                          embed(blob_dataset, state).data)


def test_version_1_document_loads(blob_dataset, fitted_blob):
    state, _ = fitted_blob
    doc = model_to_dict(state)
    doc["format_version"] = 1
    doc["consistency"] = np.ones((state.embed_dim,
                                  blob_dataset.n_instances)).tolist()
    assert np.array_equal(embed(blob_dataset, model_from_dict(doc)).data,
                          embed(blob_dataset, state).data)


def test_unknown_version_rejected(fitted_blob):
    doc = model_to_dict(fitted_blob[0])
    doc["format_version"] = 99
    with pytest.raises(ValueError, match="version"):
        model_from_dict(doc)


# Malformed documents made by setting one top-level field.
SET_FIELD = {
    "views_of_lists": ("views", [[1], [2]]), "views_number": ("views", 5),
    "views_null": ("views", None), "views_empty": ("views", []),
    "weights_null": ("view_weights", None),
    "weights_short": ("view_weights", [1.0]),
    # json.load reads NaN, and True == 1.0 == 1 in Python.
    "weights_nan": ("view_weights", [float("nan"), 0.5]),
    "version_true": ("format_version", True),
    "version_float": ("format_version", 1.0)}


@pytest.mark.parametrize("malformed, words", [
    ("extra_key", "foo"), ("hyperparams_list", "list"),
    ("array", "JSON object"), ("views_of_lists", "'views'"),
    ("views_number", "'views'"), ("views_null", "'views'"),
    ("views_empty", "'views'"), ("no_views", "no 'views' field"),
    ("no_view_weights", "no 'view_weights' field"),
    ("weights_null", "one weight per view"),
    ("weights_short", "one weight per view"),
    ("view_without_widths", "view 1 has no 'widths' field"),
    ("view_field_object", "view 0 field 'mean'"),
    ("p_common_one_by_one", r"view 0 field 'p_common' has shape \(1, 1\)"),
    ("mean_matrix", "view 0 field 'mean' must be a list"),
    ("scale_short", "view 1 field 'scale'"),
    ("centers_short", "view 0 field 'centers'"),
    ("widths_narrow", "view 1 field 'widths'"),
    ("p_specific_narrow", "view 0 field 'p_specific'"),
    ("p_common_wider_than_view_0", "view 1 field 'p_common'"),
    ("zero_width", "view 0 field 'p_common' has no columns"),
    ("n_rules_off_by_one", "view 0 field 'centers'"),
    ("weights_nan", "field 'view_weights' holds a non-finite value"),
    ("p_specific_inf", "view 1 field 'p_specific' holds a non-finite"),
    ("version_true", "'format_version': True"),
    ("version_float", "'format_version': 1.0"),
    ("embed_dim_narrow", r"'embed_dim' is \d+, not the width \d+ of p_com")])
def test_malformed_document_rejected(fitted_blob, malformed, words):
    doc = model_to_dict(fitted_blob[0])
    views = doc["views"]
    if malformed in SET_FIELD:
        key, value = SET_FIELD[malformed]
        doc[key] = value
    elif malformed == "p_common_one_by_one":
        views[0]["p_common"] = [[1.0]]
    elif malformed == "mean_matrix":
        views[0]["mean"] = [views[0]["mean"]]
    elif malformed == "scale_short":
        views[1]["scale"] = views[1]["scale"][1:]
    elif malformed == "centers_short":
        views[0]["centers"] = views[0]["centers"][1:]
    elif malformed == "widths_narrow":
        views[1]["widths"] = [row[1:] for row in views[1]["widths"]]
    elif malformed == "p_specific_narrow":
        views[0]["p_specific"] = [row[1:] for row in views[0]["p_specific"]]
    elif malformed == "p_common_wider_than_view_0":
        views[1]["p_common"] = [row + [0.0] for row in views[1]["p_common"]]
    elif malformed == "zero_width":
        for vd in views:
            for key in ("p_common", "p_specific"):
                vd[key] = [[] for _ in vd[key]]
    elif malformed == "p_specific_inf":
        views[1]["p_specific"][0][0] = float("inf")
    elif malformed == "embed_dim_narrow":
        doc["hyperparams"]["embed_dim"] -= 1
    elif malformed == "n_rules_off_by_one":
        doc["hyperparams"]["n_rules"] += 1
    elif malformed == "extra_key":
        doc["hyperparams"]["foo"] = 1
    elif malformed == "hyperparams_list":
        doc["hyperparams"] = list(doc["hyperparams"].values())
    elif malformed == "array":
        doc = [doc]
    elif malformed in ("no_views", "no_view_weights"):
        del doc[malformed[3:]]
    elif malformed == "view_without_widths":
        del doc["views"][1]["widths"]
    else:
        doc["views"][0]["mean"] = {"a": 1}
    with pytest.raises(ValueError, match=words):
        model_from_dict(doc)
