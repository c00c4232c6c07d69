"""Numerical self-checks over random instances, run by the `verify` command.

Each check exercises an identity the closed-form trainer relies on: the
teacher's zero diagonal, the vanishing cross-term and additive objective
decomposition, optimality of the eigenvector projection against the
truncated SVD, and the closed-form student Grams of both families against
the direct triple product.  The teacher B is ``full_rank_teacher``'s ndarray,
and the student Gram is built from its own, bit-equal, inverse.  Each check
takes only a seed; its trials, sizes and ranks are fixed.  Checks return
results; they never raise on a failed bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closed_form import (
    ZERO_DIAGONAL,
    edlae_objective,
    full_rank_teacher,
    regularizer,
    student_gram,
    student_projection,
)
from .linalg import _mirror_lower, sym_inverse


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float
    bound: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}: worst {self.worst:.3e} (bound {self.bound:.3e})"


def _random_instance(rng, m, n, lam=1.0, p=0.25):
    x = (rng.random((m, n)) < 0.3).astype(np.float64)
    g = x.T @ x
    _mirror_lower(g.T)  # exactly symmetric, as dataset.gram makes G
    lam_diag = regularizer(np.diag(g), lam, p)
    return x, g, lam_diag


def _stacked(x, lam_diag):
    """Y = [X; 0] and Z = [X; Lambda^(1/2)] stacked over users and items."""
    n = lam_diag.size
    y = np.vstack([x, np.zeros((n, n))])
    z = np.vstack([x, np.diag(np.sqrt(lam_diag))])
    return y, z


def teacher_and_student(g, lam_diag, kind="edlae"):
    """The teacher B of family ``kind`` and its student Gram, each from its
    own (bit-equal) C = (G + Lambda)^-1."""
    return (full_rank_teacher(g, lam_diag, kind),
            student_gram(sym_inverse(g + np.diag(lam_diag)), g, lam_diag, kind,
                         overwrite_c=True))


def check_zero_diagonal(seed: int) -> CheckResult:
    """diag(teacher) must vanish for random Gram matrices and ridge levels."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for trial in range(50):
        n = (10, 50, 200)[trial % 3]
        lam = (0.1, 1.0, 10.0)[trial // 3 % 3]
        _, g, lam_diag = _random_instance(rng, 2 * n, n, lam=lam, p=0.0)
        b = full_rank_teacher(g, lam_diag)
        worst = max(worst, float(np.abs(np.diag(b)).max()))
    return CheckResult("zero-diagonal teacher", worst <= 1e-12, worst, 1e-12)


def check_efficiency_identity(seed: int) -> CheckResult:
    """Closed-form student Grams of both families vs the direct triple product."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        _, g, lam_diag = _random_instance(rng, 3 * 30, 30)
        for kind in ZERO_DIAGONAL:
            b, student = teacher_and_student(g, lam_diag, kind)
            fast = student.m
            direct = b.T @ (g + np.diag(lam_diag)) @ b
            rel = float(np.linalg.norm(fast - direct) / max(np.linalg.norm(direct), 1e-300))
            worst = max(worst, rel)
    return CheckResult("student-gram identities", worst <= 1e-10, worst, 1e-10)


def check_projection_optimality(seed: int) -> CheckResult:
    """Z B Q_k Q_k^T must match the rank-k truncated SVD of Z B."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        x, g, lam_diag = _random_instance(rng, 3 * 24, 24)
        b, student = teacher_and_student(g, lam_diag)
        _, z = _stacked(x, lam_diag)
        zb = z @ b
        left, s, right_t = np.linalg.svd(zb, full_matrices=False)
        scale = float(np.linalg.norm(zb))
        for k in (1, 6, 12):
            model = student_projection(student, k)
            diff = np.linalg.norm(z @ model.matrix() - (left[:, :k] * s[:k]) @ right_t[:k])
            worst = max(worst, float(diff / scale))
    return CheckResult("projection optimality", worst <= 1e-8, worst, 1e-8)


def check_cross_term(seed: int) -> CheckResult:
    """Residuals of the teacher are orthogonal to corrections toward the
    student, so the objective splits additively."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(20):
        x, g, lam_diag = _random_instance(rng, 3 * 24, 24)
        b, student = teacher_and_student(g, lam_diag)
        model = student_projection(student, 6)
        y, z = _stacked(x, lam_diag)
        uv = model.matrix()
        d_uv = uv - np.diag(np.diag(uv))
        cross = float(np.trace((y - z @ b).T @ z @ (b - d_uv)))
        y_norm2 = float(np.sum(y * y))
        worst = max(worst, abs(cross) / y_norm2)
    return CheckResult("cross-term elimination", worst <= 1e-8, worst, 1e-8)


def check_objective_decomposition(seed: int) -> CheckResult:
    """Full objective == teacher residual + projection residual."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(10):
        x, g, lam_diag = _random_instance(rng, 3 * 20, 20)
        b, student = teacher_and_student(g, lam_diag)
        model = student_projection(student, 5)
        y, z = _stacked(x, lam_diag)
        uv = model.matrix()
        d_uv = uv - np.diag(np.diag(uv))
        teacher_resid = float(np.sum((y - z @ b) ** 2))
        projection_resid = float(np.sum((z @ b - z @ d_uv) ** 2))
        objective = edlae_objective(x, lam_diag, model)
        rel = abs(objective - (teacher_resid + projection_resid)) / objective
        worst = max(worst, rel)
    return CheckResult("objective decomposition", worst <= 1e-6, worst, 1e-6)


def run_invariant_checks(seed: int) -> list[CheckResult]:
    return [
        check_zero_diagonal(seed=seed),
        check_efficiency_identity(seed=seed + 1),
        check_projection_optimality(seed=seed + 2),
        check_cross_term(seed=seed + 3),
        check_objective_decomposition(seed=seed + 4),
    ]
