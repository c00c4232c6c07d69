"""Closed-form unconstrained linear-AE baseline (plain ridge, no diagonal
constraint): the ridge row of the closed-form pipeline in ``closed_form``.

The teacher is the full-rank ridge optimum B = (G + Lambda)^-1 G = I - C
Lambda (``full_rank_teacher(g, lam_diag, "ridge")``); the rank-k model takes
V as the top-k eigenvectors of the student Gram B^T (G + Lambda) B =
G - Lambda + Lambda C Lambda, and U = B V.  ``ridge_low_rank`` is that chain
through ``closed_form.train_regularized``.  Its objective is
``edlae_objective``, which keeps the diagonal of a ridge model.  Unlike the
denoising model this projection is exact (no diagonal is removed from the
fit), which the tests verify against a gradient-descent oracle rather than
assume.
"""

from __future__ import annotations

import numpy as np

from .closed_form import LowRankModel, train_regularized


def ridge_low_rank(g: np.ndarray, lam_diag: np.ndarray, k: int) -> LowRankModel:
    """Rank-k ridge model, with no config, for an explicit regularizer
    diagonal: ``train_regularized(g, lam_diag, ["ridge"], k)``'s one model.
    It stays a function of its own because it is public API and the
    benchmark's per-layer metrics read its calls and peak memory by this
    name (``baselines.ridge_low_rank``)."""
    (model,) = train_regularized(g, lam_diag, ["ridge"], k)
    return model
