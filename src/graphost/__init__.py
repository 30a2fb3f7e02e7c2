"""Test-time graph structural transformation guided by edge-homophily
confidence, plus a CSBM numerical laboratory for the underlying theory."""

from .csbm import (
    CsbmParams,
    generate_csbm,
    perturb_features,
    symmetric_binary_params,
)
from .experiments import (
    ExperimentReport,
    run_ablation,
    run_delta_sweep,
    run_noise_robustness,
    run_random_drop_comparison,
    run_study,
)
from .graphs import (
    GraphFormatError,
    LabeledGraph,
    WeightedGraph,
    edge_homophily_degree,
    inject_structural_noise,
    load_graph,
    load_weighted_graph,
    random_edge_drop,
    save_graph,
)
from .metrics import accuracy, f1_macro, hd_delta_report, roc_auc
from .models import (
    ArchitectureSpec,
    Checkpoint,
    EdgeScoreTable,
    OptimizerConfig,
    build_edge_training_set,
    classifier_logits,
    edge_homophily_scores,
    load_checkpoint,
    predict_labels,
    save_checkpoint,
    train_classifier,
    train_homophily_predictor,
)
from .transform import (
    TransformConfig,
    filter_edges,
    graphost_transform,
    resolve_mode,
)

__version__ = "0.1.0"
