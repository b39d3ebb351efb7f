"""Embedding assembly and interpretable rule export of a fitted model."""

from dataclasses import dataclass

import numpy as np

from .antecedent import AntecedentBank, firing_levels, fuzzy_map

LEVEL_NAMES_3 = ("Low", "Middle", "High")


@dataclass
class Embedding:
    """Stacked representation: one weighted common block followed by one
    weighted specific block per view, each embed_dim columns wide."""

    data: np.ndarray
    block_layout: list


def _check_fitted(state, dataset=None):
    if not state.p_common:
        raise ValueError("model state holds no fitted parameters")
    if dataset is not None:
        if dataset.n_views != state.n_views:
            raise ValueError(
                f"dataset has {dataset.n_views} views, model expects "
                f"{state.n_views}")
        for v, bank in enumerate(state.banks):
            if dataset.views[v].shape[1] != bank.n_features:
                raise ValueError(f"view {v}: feature count mismatch")


def view_design_matrices(dataset, state):
    """Standardize each view with the training statistics and map it into
    the fuzzy feature space of the fitted rule banks."""
    _check_fitted(state, dataset)
    out = []
    for v in range(state.n_views):
        x = state.standardizers[v].transform(dataset.views[v])
        out.append(fuzzy_map(x, state.banks[v]))
    return out


def embed(dataset, state):
    """Assemble the final representation.

    Column blocks: the view-weight-averaged common representation, then
    each view's weighted specific representation.
    """
    design = view_design_matrices(dataset, state)
    w = state.view_weights
    common = sum(w[v] * (design[v] @ state.p_common[v])
                 for v in range(state.n_views))
    blocks = [common]
    layout = ["common"]
    for v in range(state.n_views):
        blocks.append(w[v] * (design[v] @ state.p_specific[v]))
        layout.append(f"specific_{v + 1}")
    return Embedding(data=np.hstack(blocks), block_layout=layout)


def _linguistic_labels(centers_column):
    """Label each rule's fuzzy set on one feature by its center's rank.

    Three rules get Low/Middle/High in ascending center order; any other
    rule count gets ordinal "Level k" names. Equal centers rank by rule
    index, so the labels always form a permutation.
    """
    k = len(centers_column)
    if k == 3:
        names = LEVEL_NAMES_3
    else:
        names = tuple(f"Level {i + 1}" for i in range(k))
    order = np.argsort(centers_column, kind="stable")
    labels = [""] * k
    for rank, rule in enumerate(order):
        labels[int(rule)] = names[rank]
    return labels


def export_rules(state):
    """The fitted model as per-view fuzzy rule bases, in one JSON-ready
    document of plain dicts, lists, floats and ints; rules.json holds it
    as it is, and `rules_predict` replays it, also after `json.load`.

    Keys: "n_rules", "embed_dim" and "views", one entry per view with
    "view" (0-based index), "weight", "mean" and "scale" (the training
    standardization, one value per feature) and "rules". Each rule holds
    "antecedent", one clause per feature with "feature", "label",
    "center" and "width", and the affine consequent tables "common" and
    "specific", each embed_dim rows of n_features + 1 coefficients,
    column 0 the intercept. The consequent matrices are re-blocked rule
    by rule and nothing is rounded, so the document reproduces the model
    exactly.
    """
    _check_fitted(state)
    views = []
    for v in range(state.n_views):
        bank = state.banks[v]
        k, d = bank.centers.shape
        labels = np.empty((k, d), dtype=object)
        for j in range(d):
            labels[:, j] = _linguistic_labels(bank.centers[:, j])
        rules = []
        for r in range(k):
            clauses = [
                {
                    "feature": j,
                    "label": labels[r, j],
                    "center": float(bank.centers[r, j]),
                    "width": float(bank.widths[r, j]),
                }
                for j in range(d)
            ]
            block = slice(r * (d + 1), (r + 1) * (d + 1))
            rules.append({
                "antecedent": clauses,
                "common": state.p_common[v][block].T.tolist(),
                "specific": state.p_specific[v][block].T.tolist(),
            })
        views.append({
            "view": v,
            "weight": float(state.view_weights[v]),
            "mean": state.standardizers[v].mean.tolist(),
            "scale": state.standardizers[v].scale.tolist(),
            "rules": rules,
        })
    return {"n_rules": state.hp.n_rules, "embed_dim": state.embed_dim,
            "views": views}


def _affine_text(coefs):
    """Render an affine form with 4-decimal coefficients: c0+c1*x_1+..."""
    parts = [f"{coefs[0]:.4f}"]
    for j, c in enumerate(coefs[1:], start=1):
        parts.append(f"{c:+.4f}x_{j}")
    return "".join(parts)


def _rule_section(rule, table, indent="    "):
    lines = []
    clauses = rule["antecedent"]
    for i, c in enumerate(clauses):
        tail = " and" if i < len(clauses) - 1 else "."
        lead = "IF: " if i == 0 else indent
        lines.append(f"{lead}the {c['feature'] + 1}th feature is "
                     f"{c['label']}{tail}")
    for t, coefs in enumerate(table):
        tail = " and" if t < len(table) - 1 else ""
        lead = "Then: " if t == 0 else indent
        lines.append(f"{lead}the {t + 1}th output is "
                     f"{_affine_text(coefs)}{tail}")
    return lines


def rules_to_text(export):
    """Human-readable listing of an `export_rules` document, one common
    and one specific rule base per view, coefficients rounded to 4
    decimals."""
    lines = []
    for vr in export["views"]:
        header = f"View {vr['view'] + 1} (weight {vr['weight']:.4f})"
        lines += [header, "=" * len(header), ""]
        for part in ("common", "specific"):
            title = (f"The rule base of the TSK fuzzy system for the "
                     f"{part} representation")
            lines += [title, "-" * len(title), ""]
            for r, rule in enumerate(vr["rules"]):
                lines.append(f"Rule {r + 1}:")
                lines += _rule_section(rule, rule[part])
                lines.append("")
    return "\n".join(lines) + "\n"


def rules_predict(export, views):
    """Run an `export_rules` document as a multi-output fuzzy system.

    Each view standardizes its input with the exported statistics, fires
    every rule, evaluates the per-rule affine consequents and combines
    them by the normalized firing levels, then the blocks are assembled
    exactly like embed. Agreement with embed certifies that the export is
    a faithful serialization rather than a summary.

    Each view must be a 2-D matrix with one column per exported feature
    and view 0's row count; a ValueError names the first view that is not.
    """
    if len(views) != len(export["views"]):
        raise ValueError("view count does not match the exported rule base")
    views = [np.asarray(raw, dtype=float) for raw in views]
    for v, (vr, raw) in enumerate(zip(export["views"], views)):
        if raw.ndim != 2:
            raise ValueError(f"view {v} is not a 2-D matrix")
        if raw.shape[1] != len(vr["mean"]):
            raise ValueError(
                f"view {v}: feature count mismatch ({raw.shape[1]} columns, "
                f"the rule base has {len(vr['mean'])} features)")
        if raw.shape[0] != views[0].shape[0]:
            raise ValueError(f"view {v} has {raw.shape[0]} rows but view 0 "
                             f"has {views[0].shape[0]}")
    common_total = None
    specific_blocks = []
    for vr, raw in zip(export["views"], views):
        x = (raw - np.asarray(vr["mean"])) / np.asarray(vr["scale"])
        centers = np.array([[c["center"] for c in rule["antecedent"]]
                            for rule in vr["rules"]])
        widths = np.array([[c["width"] for c in rule["antecedent"]]
                           for rule in vr["rules"]])
        bank = AntecedentBank(centers=centers, widths=widths)
        levels = firing_levels(x, bank)
        affine = np.concatenate([np.ones((x.shape[0], 1)), x], axis=1)
        y_common = np.zeros((x.shape[0], export["embed_dim"]))
        y_specific = np.zeros_like(y_common)
        for k, rule in enumerate(vr["rules"]):
            mu = levels[:, [k]]
            y_common += mu * (affine @ np.asarray(rule["common"]).T)
            y_specific += mu * (affine @ np.asarray(rule["specific"]).T)
        weighted_common = vr["weight"] * y_common
        common_total = (weighted_common if common_total is None
                        else common_total + weighted_common)
        specific_blocks.append(vr["weight"] * y_specific)
    layout = ["common"] + [f"specific_{v + 1}" for v in range(len(views))]
    return Embedding(data=np.hstack([common_total] + specific_blocks),
                     block_layout=layout)
