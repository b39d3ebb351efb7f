"""Unsupervised multi-view representation learning with a multi-output
TSK fuzzy system: fuzzy feature mapping, common/specific consequent
decomposition, graph-Laplacian structure preservation, a row-sparse
consistency map, entropy-weighted views, and a clustering evaluation
harness with interpretable rule export."""

from .antecedent import (AntecedentBank, Standardizer, estimate_widths,
                         firing_levels, fit_antecedents, fuzzy_map,
                         log_firing_levels, varpart_centers)
from .data import (DataError, MultiViewDataset, load_dataset,
                   make_synthetic, save_dataset)
from .evaluation import (METRICS, ClusteringReport, acc, evaluate_embedding,
                         grid_search, kmeans, nmi, purity)
from .graph import GraphLaplacian, build_graph, knn_similarity, laplacian
from .model_io import load_model, save_model
from .representation import (Embedding, embed, export_rules, rules_predict,
                             rules_to_text)
from .solver import (FitTrace, Hyperparams, ModelState, NumericFailure,
                     ObjectiveTerms, Problem, fit, irls_diag, objective,
                     update_common, update_consistency, update_specific,
                     update_view_weights)

__version__ = "0.1.0"

__all__ = [
    "AntecedentBank", "ClusteringReport", "DataError", "Embedding",
    "FitTrace", "GraphLaplacian", "Hyperparams", "METRICS", "ModelState",
    "MultiViewDataset", "NumericFailure", "ObjectiveTerms", "Problem",
    "Standardizer", "acc", "build_graph", "embed", "estimate_widths",
    "evaluate_embedding", "export_rules", "firing_levels", "fit",
    "fit_antecedents", "fuzzy_map", "grid_search", "irls_diag", "kmeans",
    "knn_similarity", "laplacian", "load_dataset", "load_model",
    "log_firing_levels", "make_synthetic", "nmi", "objective", "purity",
    "rules_predict", "rules_to_text", "save_dataset", "save_model",
    "update_common", "update_consistency", "update_specific",
    "update_view_weights", "varpart_centers",
]
