"""Closed-form unconstrained linear-AE baseline (plain ridge, no diagonal
constraint): the ridge row of the closed-form pipeline in ``closed_form``.

The teacher is the full-rank ridge optimum B = (G + Lambda)^-1 G = I - C
Lambda (``full_rank_teacher(g, lam_diag, "ridge")``); the rank-k model takes
V as the top-k eigenvectors of the student Gram B^T (G + Lambda) B =
G - Lambda + Lambda C Lambda, and U = B V.  Its objective is
``edlae_objective``, which keeps the diagonal of a ridge model.  Unlike the
denoising model this projection is exact (no diagonal is removed from the
fit), which the tests verify against a gradient-descent oracle rather than
assume.
"""

from __future__ import annotations

import numpy as np

from .closed_form import LowRankModel, _projected, _regularized_inverse


def ridge_low_rank(g: np.ndarray, lam_diag: np.ndarray, k: int) -> LowRankModel:
    """Rank-k ridge model, with no config: the chain of ``train_closed_form``
    with the ridge teacher, for an explicit regularizer diagonal."""
    return _projected(_regularized_inverse(g, lam_diag), g, lam_diag, "ridge", k,
                      overwrite_c=True)
