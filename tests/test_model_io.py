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
    "weights_short": ("view_weights", [1.0])}


@pytest.mark.parametrize("malformed, words", [
    ("extra_key", "foo"), ("hyperparams_list", "list"),
    ("array", "JSON object"), ("views_of_lists", "'views'"),
    ("views_number", "'views'"), ("views_null", "'views'"),
    ("views_empty", "'views'"), ("no_views", "no 'views' field"),
    ("no_view_weights", "no 'view_weights' field"),
    ("weights_null", "one weight per view"),
    ("weights_short", "one weight per view"),
    ("view_without_widths", "view 1 has no 'widths' field"),
    ("view_field_object", "view 0 field 'mean'")])
def test_malformed_document_rejected(fitted_blob, malformed, words):
    doc = model_to_dict(fitted_blob[0])
    if malformed in SET_FIELD:
        key, value = SET_FIELD[malformed]
        doc[key] = value
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
