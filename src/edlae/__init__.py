"""Closed-form low-rank denoising linear autoencoders for implicit feedback.

Training never touches raw interactions past the item-item Gram matrix: a
full-rank zero-diagonal teacher is solved in closed form, then projected to
rank k through the top eigenvectors of the regularized Gram of its
predictions.  The package also ships the unconstrained ridge baseline, a
strong-generalization evaluation harness (nDCG/Recall with standard
errors), and an empirical verifier that deep nonlinear autoencoders cannot
out-fit the rank-k linear optimum on training error.
"""

from .baselines import ridge_low_rank
from .closed_form import (
    EdlaeConfig,
    LowRankModel,
    StudentGram,
    edlae_objective,
    full_rank_teacher,
    objective_from_gram,
    regularizer,
    student_gram,
    student_projection,
    train_closed_form,
    train_grid,
    train_regularized,
)
from .dataset import (
    EvalSplit,
    InteractionMatrix,
    SplitSpec,
    gram,
    load_interactions,
    split_strong_generalization,
)
from .deepae import (
    ArchSpec,
    BoundReport,
    deep_ae_forward,
    linear_ae_optimum,
    squared_error,
    train_deep_ae,
    verify_linear_bound,
)
from .evaluate import (
    MetricResult,
    model_metrics,
    ndcg_at_k,
    ranking_metrics,
    recall_at_k,
    score_users,
)
from .linalg import SvdResult, SymEigResult, dense_svd, sym_inverse, top_k_eig, truncate_svd
from .serialize import load_model, save_model

__version__ = "0.1.0"

__all__ = [
    "ArchSpec",
    "BoundReport",
    "EdlaeConfig",
    "EvalSplit",
    "InteractionMatrix",
    "LowRankModel",
    "MetricResult",
    "SplitSpec",
    "StudentGram",
    "SvdResult",
    "SymEigResult",
    "deep_ae_forward",
    "dense_svd",
    "edlae_objective",
    "full_rank_teacher",
    "gram",
    "linear_ae_optimum",
    "load_interactions",
    "load_model",
    "model_metrics",
    "ndcg_at_k",
    "objective_from_gram",
    "ranking_metrics",
    "recall_at_k",
    "regularizer",
    "ridge_low_rank",
    "save_model",
    "score_users",
    "split_strong_generalization",
    "squared_error",
    "student_gram",
    "student_projection",
    "sym_inverse",
    "top_k_eig",
    "train_closed_form",
    "train_deep_ae",
    "train_grid",
    "train_regularized",
    "truncate_svd",
    "verify_linear_bound",
]
