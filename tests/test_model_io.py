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


@pytest.mark.parametrize("malformed, words", [
    ("extra_key", "foo"), ("hyperparams_list", "list"),
    ("array", "JSON object")])
def test_malformed_document_rejected(fitted_blob, malformed, words):
    doc = model_to_dict(fitted_blob[0])
    if malformed == "extra_key":
        doc["hyperparams"]["foo"] = 1
    elif malformed == "hyperparams_list":
        doc["hyperparams"] = list(doc["hyperparams"].values())
    else:
        doc = [doc]
    with pytest.raises(ValueError, match=words):
        model_from_dict(doc)
