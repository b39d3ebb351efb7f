import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mvfuzzy.antecedent import AntecedentBank, Standardizer
from mvfuzzy.model_io import (FORMAT_VERSION, load_model, model_from_dict,
                              model_to_dict, save_model)
from mvfuzzy.representation import embed
from mvfuzzy.solver import Hyperparams, ModelState, update_view_weights


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


def dense_document(state, version):
    """The document the format 1 and 2 writers gave: every p row a list."""
    doc = model_to_dict(state)
    doc["format_version"] = version
    for vd, pc, ps in zip(doc["views"], state.p_common, state.p_specific):
        vd["p_common"], vd["p_specific"] = pc.tolist(), ps.tolist()
    return doc


def model_arrays(state):
    arrays = [state.view_weights]
    for v in range(state.n_views):
        arrays += [state.standardizers[v].mean, state.standardizers[v].scale,
                   state.banks[v].centers, state.banks[v].widths,
                   state.p_common[v], state.p_specific[v]]
    return arrays


def assert_same_model(loaded, state):
    """Same hyperparameters, and every array the same bits."""
    assert loaded.hp == state.hp and loaded.n_views == state.n_views
    for a, b in zip(model_arrays(loaded), model_arrays(state)):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("version", [1, 2])
@pytest.mark.parametrize("indent", [None, 2])
def test_format_1_and_2_documents_load(fitted_blob, tmp_path, version,
                                       indent):
    state, _ = fitted_blob
    doc = dense_document(state, version)
    if version == 1:
        doc["consistency"] = [[0.5, -0.5]] * state.embed_dim
    separators = None if indent else (",", ":")
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc, indent=indent, separators=separators,
                               sort_keys=True) + "\n", encoding="utf-8")
    assert_same_model(load_model(path), state)


# Each p row is drawn live, +0.0 only (written as 0) or zero with a -0.0
# (written as a list); "none" draws no +0.0 row, "all" only those.
ROW_KINDS = {"none": ("live", "negative_zero"), "all": ("zero",),
             "some": ("live", "zero", "negative_zero")}


@st.composite
def model_states(draw):
    n_views, r, m = (draw(st.integers(1, 3)), draw(st.integers(1, 4)),
                     draw(st.integers(1, 5)))
    kinds = ROW_KINDS[draw(st.sampled_from(sorted(ROW_KINDS)))]
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))

    def values(*shape):
        return rng.normal(size=shape) * 10.0 ** rng.uniform(-300, 300, shape)

    def block(rows):
        out = values(rows, m)
        for i in range(rows):
            kind = draw(st.sampled_from(kinds))
            if kind != "live":
                out[i] = 0.0
            if kind == "negative_zero":
                out[i, draw(st.integers(0, m - 1))] = -0.0
        return out

    standardizers, banks, p_common, p_specific = [], [], [], []
    for _ in range(n_views):
        d = draw(st.integers(1, 6))
        standardizers.append(Standardizer(mean=values(d),
                                          scale=np.abs(values(d))))
        banks.append(AntecedentBank(centers=values(r, d),
                                    widths=rng.uniform(0.01, 1.0, (r, d))))
        p_common.append(block(r * (d + 1)))
        p_specific.append(block(r * (d + 1)))
    weights = update_view_weights(rng.uniform(0, 10, n_views), 1.0)
    return ModelState(hp=Hyperparams(n_rules=r, embed_dim=m),
                      standardizers=standardizers, banks=banks,
                      p_common=p_common, p_specific=p_specific,
                      view_weights=weights)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(model_states())
def test_round_trip_is_bit_for_bit(state):
    text = json.dumps(model_to_dict(state), sort_keys=True,
                      separators=(",", ":"))
    loaded = model_from_dict(json.loads(text))
    assert_same_model(loaded, state)
    assert json.dumps(model_to_dict(loaded), sort_keys=True,
                      separators=(",", ":")) == text
    # Exactly the rows whose every bit is 0 are written as 0.
    for vd, pc, ps in zip(json.loads(text)["views"], state.p_common,
                          state.p_specific):
        for rows, block in ((vd["p_common"], pc), (vd["p_specific"], ps)):
            assert ([row == 0 for row in rows]
                    == [not row.view(np.int64).any() for row in block])


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
    "version_float": ("format_version", 1.0),
    "version_zero": ("format_version", 0),
    "version_next": ("format_version", FORMAT_VERSION + 1)}

DENSE_BLOCKS = {"p_common_string", "p_specific_narrow",
                "p_common_wider_than_view_0", "p_specific_inf"}

P_ROWS = {"p_row_one": 1, "p_row_true": True, "p_row_false": False,
          "p_row_float_zero": 0.0, "p_row_string_zero": "0",
          "p_row_empty": []}


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
    ("version_zero", "'format_version': 0"),
    ("version_next", f"'format_version': {FORMAT_VERSION + 1}"),
    ("embed_dim_narrow", r"'embed_dim' is \d+, not the width \d+ of p_com"),
    # A p row is a list of numbers or the integer 0, nothing else.
    ("p_row_one", "view 1 field 'p_common' is not a numeric array"),
    ("p_row_true", "view 1 field 'p_common' is not a numeric array"),
    ("p_row_false", "view 1 field 'p_common' is not a numeric array"),
    ("p_row_float_zero", "view 1 field 'p_common' is not a numeric array"),
    ("p_row_string_zero", "view 1 field 'p_common' is not a numeric array"),
    ("p_row_empty", "view 1 field 'p_common' is not a numeric array")])
def test_malformed_document_rejected(fitted_blob, malformed, words):
    state, _ = fitted_blob
    doc = model_to_dict(state)
    views = doc["views"]
    if malformed in DENSE_BLOCKS:
        # These edit p rows that the writer may put as 0.
        for vd, pc, ps in zip(views, state.p_common, state.p_specific):
            vd["p_common"], vd["p_specific"] = pc.tolist(), ps.tolist()
    if malformed in SET_FIELD:
        key, value = SET_FIELD[malformed]
        doc[key] = value
    elif malformed == "p_common_one_by_one":
        views[0]["p_common"] = [[1.0]]
    elif malformed == "mean_strings":
        views[0]["mean"] = [repr(x) for x in views[0]["mean"]]
    elif malformed in P_ROWS:
        views[1]["p_common"][0] = P_ROWS[malformed]
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
        assert 0 in views[0]["p_common"]  # the 0 rows take the rows' width
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


def zero_block_document(embed_dim):
    """A format 3 document with 1 rule, one 1-feature view and p blocks
    of 0 rows only, with embed_dim set as given."""
    zeros = np.zeros((2, 1))
    state = ModelState(
        hp=Hyperparams(n_rules=1, embed_dim=1),
        standardizers=[Standardizer(mean=np.zeros(1), scale=np.ones(1))],
        banks=[AntecedentBank(centers=np.zeros((1, 1)),
                              widths=np.ones((1, 1)))],
        p_common=[zeros], p_specific=[zeros], view_weights=np.ones(1))
    doc = json.loads(json.dumps(model_to_dict(state)))
    assert doc["views"][0]["p_common"] == [0, 0]
    doc["hyperparams"]["embed_dim"] = embed_dim
    return doc


# A block of 0 rows is embed_dim wide, which a fit keeps at most
# n_rules (d_v + 1) = 2 here; a wider one is refused before any zeros
# are made.
@pytest.mark.parametrize("embed_dim", [3, 100000, 10**12, None])
def test_zero_rows_wider_than_a_fit_rejected(embed_dim):
    doc = zero_block_document(embed_dim)
    assert len(json.dumps(doc, separators=(",", ":"))) < 400
    with pytest.raises(ValueError, match=f"'embed_dim' is {embed_dim!r}, "
                       "not a width from 1 to 2 for the 0 rows of model "
                       "view 0 field 'p_common'"):
        model_from_dict(doc)


@pytest.mark.parametrize("embed_dim", [1, 2])
def test_zero_rows_take_embed_dim(embed_dim):
    state = model_from_dict(zero_block_document(embed_dim))
    for block in state.p_common + state.p_specific:
        assert block.shape == (2, embed_dim) and not block.view(np.int64).any()


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
