"""Closed-form unconstrained linear-AE baseline (plain ridge, no diagonal
constraint): the ridge row of the closed-form pipeline in ``closed_form``.

The teacher is the full-rank ridge optimum B = (G + Lambda)^-1 G, computed
as I - C Lambda with C = (G + Lambda)^-1; the rank-k model takes V as the
top-k eigenvectors of the student Gram B^T (G + Lambda) B, evaluated in
closed form as G - Lambda + Lambda C Lambda, and U = B V.  Unlike the
denoising model this projection is exact (no diagonal is removed from the
fit), which the tests verify against a gradient-descent oracle rather than
assume.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .closed_form import (
    EdlaeConfig,
    LowRankModel,
    edlae_objective,
    full_rank_teacher,
    student_gram,
    student_projection,
)

# The objective keeps or removes the diagonal by the model's family, so the
# ridge objective || X - X B ||_F^2 + || Lambda^(1/2) B ||_F^2 is the same
# function applied to a ridge model.
ridge_objective = edlae_objective


def ridge_full_rank(g: np.ndarray, lam_diag: np.ndarray) -> np.ndarray:
    """Full-rank ridge optimum (G + Lambda)^-1 G."""
    return full_rank_teacher(g, lam_diag, "ridge").b


def ridge_low_rank(g: np.ndarray, lam_diag: np.ndarray, k: int,
                   config: EdlaeConfig | None = None) -> LowRankModel:
    """Rank-k ridge model: V = top-k eigenvectors of B^T (G + Lambda) B,
    U = B V, for the ridge teacher B."""
    teacher = full_rank_teacher(g, lam_diag, "ridge")
    model = student_projection(teacher, student_gram(teacher, g, lam_diag), k)
    return replace(model, config=config)
