import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvfuzzy.model_io import (FORMAT_VERSION, load_model, model_from_dict,
                              model_to_dict, save_model)
from mvfuzzy.representation import embed
from mvfuzzy.solver import update_view_weights


def test_save_load_reproduces_embedding(blob_dataset, fitted_blob, tmp_path):
    state, _ = fitted_blob
    path = tmp_path / "model.json"
    save_model(state, path)
    assert json.loads(path.read_text())["format_version"] == FORMAT_VERSION
    assert np.array_equal(embed(blob_dataset, load_model(path)).data,
                          embed(blob_dataset, state).data)


def test_model_file_is_one_compact_line(fitted_blob, tmp_path):
    state, _ = fitted_blob
    path = tmp_path / "model.json"
    save_model(state, path)
    text = path.read_text(encoding="utf-8")
    assert text.count("\n") == 1 and text.endswith("}\n")
    assert ": " not in text and ", " not in text
    assert json.loads(text) == model_to_dict(state)


def test_save_load_save_is_byte_identical(fitted_blob, tmp_path):
    save_model(fitted_blob[0], tmp_path / "one.json")
    save_model(load_model(tmp_path / "one.json"), tmp_path / "two.json")
    assert ((tmp_path / "one.json").read_bytes()
            == (tmp_path / "two.json").read_bytes())


def test_indented_file_loads(blob_dataset, fitted_blob, tmp_path):
    # Model files were written indented before they became one line.
    state, _ = fitted_blob
    path = tmp_path / "model.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(state), fh, indent=2, sort_keys=True)
        fh.write("\n")
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
    "weights_strings": ("view_weights", ["0.5", "0.5"]),
    "weights_bools": ("view_weights", [True, False]),
    "weights_negative": ("view_weights", [-3.0, 4.0]),
    "weights_sum_low": ("view_weights", [0.1, 0.1]),
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
    ("weights_strings", "field 'view_weights' holds a str, not a number"),
    ("weights_bools", "field 'view_weights' holds a bool, not a number"),
    ("weights_negative", "per view, non-negative and summing to 1"),
    ("weights_sum_low", "per view, non-negative and summing to 1"),
    ("mean_strings", "view 0 field 'mean' holds a str, not a number"),
    ("p_common_string", "view 1 field 'p_common' holds a str, not a number"),
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
    elif malformed == "mean_strings":
        views[0]["mean"] = [repr(x) for x in views[0]["mean"]]
    elif malformed == "p_common_string":
        views[1]["p_common"][2][0] = "1"
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


# delta = 1e-3 with traces 1e6 apart drives weights to exactly 0.
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(traces=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=8),
       delta=st.one_of(st.just(1e-3), st.floats(1e-3, 1e3)))
@example(traces=[0.0, 5.0, 1e6], delta=1e-3)
def test_fitted_view_weights_load_back(fitted_blob, traces, delta):
    # Any weights the fit's update returns pass the load check, and come
    # back bit for bit through a JSON round trip.
    weights = update_view_weights(np.array(traces), delta)
    doc = model_to_dict(fitted_blob[0])
    doc["views"] = [doc["views"][v % 2] for v in range(len(traces))]
    doc["view_weights"] = weights.tolist()
    loaded = model_from_dict(json.loads(json.dumps(doc)))
    assert loaded.view_weights.tolist() == weights.tolist()
