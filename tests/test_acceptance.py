"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS line (run with ``pytest tests/test_acceptance.py -v -s`` to see
them; a failed assertion is the FAIL case).
"""

import time

import numpy as np

from edlae.checks import teacher_and_student
from edlae.closed_form import (
    EdlaeConfig,
    edlae_objective,
    full_rank_teacher,
    regularizer,
    student_projection,
    train_closed_form,
    train_grid,
)
from edlae.dataset import SplitSpec, gram, split_strong_generalization
from edlae.deepae import DEFAULT_ARCHS, init_params, se_and_gradients, verify_linear_bound
from edlae.evaluate import ndcg_at_k, recall_at_k, score_users

from oracles import (
    binary_instance,
    brute_ndcg,
    brute_recall,
    exact_gram,
    fd_gradient,
    gd_min_uv,
    holdout_sets,
    synthetic_cluster_noise,
    truncated_svd,
)


def report(name):
    print(f"ACCEPTANCE {name}: PASS")


def stacked(x, lam_diag):
    n = lam_diag.size
    y = np.vstack([x, np.zeros((n, n))])
    z = np.vstack([x, np.diag(np.sqrt(lam_diag))])
    return y, z


def teacher_instances(count=20, seed=0):
    """Random implicit-feedback instances with their trained teachers and
    student Grams."""
    rng = np.random.default_rng(seed)
    sizes = (8, 16, 32, 50)
    out = []
    for trial in range(count):
        n = sizes[trial % len(sizes)]
        x = (rng.random((3 * n, n)) < 0.3).astype(np.float64)
        g = exact_gram(x)
        lam_diag = regularizer(np.diag(g), 1.0, 0.25)
        out.append((x, g, lam_diag, *teacher_and_student(g, lam_diag)))
    return out


def test_zero_diagonal_teacher():
    start = time.perf_counter()
    rng = np.random.default_rng(100)
    worst = 0.0
    for trial in range(50):
        n = (10, 50, 200)[trial % 3]
        lam = (0.1, 1.0, 10.0)[(trial // 3) % 3]
        x = (rng.random((2 * n, n)) < 0.2).astype(np.float64)
        g = exact_gram(x)
        teacher = full_rank_teacher(g, regularizer(np.diag(g), lam, 0.0))
        worst = max(worst, float(np.abs(np.diag(teacher)).max()))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert elapsed < 10.0
    report(f"zero-diagonal teacher (worst {worst:.1e}, {elapsed:.1f}s)")


def test_hand_derived_2x2_teacher():
    g = np.array([[2.0, 1.0], [1.0, 2.0]])
    teacher = full_rank_teacher(g, np.ones(2))
    expected = np.array([[0.0, 1.0 / 3.0], [1.0 / 3.0, 0.0]])
    worst = np.abs(teacher - expected).max()
    assert worst <= 1e-12
    report(f"hand-derived 2x2 teacher (worst {worst:.1e})")


def test_projection_optimality():
    worst = 0.0
    for x, g, lam_diag, teacher, student in teacher_instances(20, seed=200):
        n = g.shape[0]
        _, z = stacked(x, lam_diag)
        zb = z @ teacher
        scale = np.linalg.norm(zb)
        for k in sorted({1, n // 4, n // 2}):
            model = student_projection(student, k)
            diff = np.linalg.norm(z @ model.matrix() - truncated_svd(zb, k))
            worst = max(worst, float(diff / scale))
    assert worst <= 1e-8
    report(f"rank-k projection optimality vs SVD oracle (worst {worst:.1e})")


def test_cross_term_and_decomposition():
    worst_cross = 0.0
    worst_decomp = 0.0
    for x, g, lam_diag, teacher, student in teacher_instances(20, seed=300):
        n = g.shape[0]
        model = student_projection(student, max(1, n // 4))
        y, z = stacked(x, lam_diag)
        uv = model.matrix()
        d_uv = uv - np.diag(np.diag(uv))
        cross = float(np.trace((y - z @ teacher).T @ z @ (teacher - d_uv)))
        worst_cross = max(worst_cross, abs(cross) / float(np.sum(y * y)))
        teacher_resid = float(np.sum((y - z @ teacher) ** 2))
        projection_resid = float(np.sum((z @ (teacher - d_uv)) ** 2))
        obj = edlae_objective(x, lam_diag, model)
        worst_decomp = max(worst_decomp, abs(obj - (teacher_resid + projection_resid)) / obj)
    assert worst_cross <= 1e-8
    assert worst_decomp <= 1e-6
    report(f"cross-term vanishes (worst {worst_cross:.1e}), objective splits (worst {worst_decomp:.1e})")


def test_efficiency_identity():
    # edlae: B^T (G + Lambda) B = (G + Lambda) - diagM(1 / diag C) (I + B);
    # ridge: B^T (G + Lambda) B = G - Lambda + Lambda C Lambda
    worst = {"edlae": 0.0, "ridge": 0.0}
    for x, g, lam_diag, teacher, student in teacher_instances(20, seed=400):
        zz = g + np.diag(lam_diag)
        ridge = teacher_and_student(g, lam_diag, "ridge")[1]
        ridge_b = np.linalg.solve(zz, g)  # (G + Lambda)^-1 G, formed independently
        for kind, fast, b in (("edlae", student.m, teacher), ("ridge", ridge.m, ridge_b)):
            direct = b.T @ zz @ b
            rel = float(np.linalg.norm(fast - direct) / np.linalg.norm(direct))
            worst[kind] = max(worst[kind], rel)
    assert worst["edlae"] <= 1e-10
    assert worst["ridge"] <= 1e-10
    report(
        f"student-gram identities vs direct product "
        f"(edlae worst {worst['edlae']:.1e}, ridge worst {worst['ridge']:.1e})"
    )


def test_near_optimality_vs_gradient_descent():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        x = binary_instance(seed, m=40, n=8, density=0.3)
        g = exact_gram(x)
        for k in (2, 4):
            cfg = EdlaeConfig(lam=5.0, dropout_p=0.5)
            lam_diag = regularizer(np.diag(g), cfg.lam, cfg.dropout_p)
            obj_cf = edlae_objective(x, lam_diag, train_closed_form(g, cfg, k))
            obj_gd = gd_min_uv(x, lam_diag, k, restarts=50, steps=2500, seed=seed * 97 + k)
            worst = max(worst, abs(obj_cf - obj_gd) / obj_gd)
    elapsed = time.perf_counter() - start
    assert worst <= 0.02
    assert elapsed < 300.0
    report(f"closed form within 2% of 50-restart GD (worst {worst:.2%}, {elapsed:.0f}s)")


def test_deep_vs_linear_bound():
    start = time.perf_counter()
    report_obj = verify_linear_bound(
        m=30, n=20, ks=(2, 5, 10), trials=81, restarts=5, steps=400, lr=5e-4, seed=0
    )
    elapsed = time.perf_counter() - start
    assert len(report_obj.trials) >= 60
    assert len({t.arch for t in report_obj.trials}) == 3
    assert report_obj.passed, [t for t in report_obj.failures()]
    min_gap = min(t.gap for t in report_obj.trials)
    assert elapsed < 600.0
    report(
        f"deep AE never out-fits the linear optimum "
        f"({len(report_obj.trials)} trials, min gap {min_gap:.2e}, {elapsed:.0f}s)"
    )


def test_svd_projection_identities():
    rng = np.random.default_rng(500)
    worst_project = 0.0
    worst_error = 0.0
    for trial in range(20):
        m = int(rng.integers(6, 15))
        n = int(rng.integers(5, m + 1))
        x = rng.standard_normal((m, n))
        _, singular, right_t = np.linalg.svd(x, full_matrices=False)
        k = int(rng.integers(1, n))
        v_k = right_t[:k].T
        lhs = x @ v_k @ v_k.T
        rhs = truncated_svd(x, k)
        worst_project = max(worst_project, float(np.linalg.norm(lhs - rhs) / np.linalg.norm(x)))
        se = float(np.linalg.norm(x - lhs) ** 2)
        discarded = float(np.sum(singular[k:] ** 2))
        scale = max(discarded, 1e-12)
        worst_error = max(worst_error, abs(se - discarded) / scale)
    assert worst_project <= 1e-9
    assert worst_error <= 1e-9
    report(
        f"right-vector projection identities (projection {worst_project:.1e}, error {worst_error:.1e})"
    )


def test_gradient_correctness():
    worst = 0.0
    for arch_index, arch in enumerate(DEFAULT_ARCHS):
        rng = np.random.default_rng(700 + arch_index)
        for point in range(10):
            x = rng.standard_normal((6, 10))
            params = init_params(10, 3, arch, seed=point)
            params.w_out[...] = rng.standard_normal(params.w_out.shape)
            _, (gw, gb, gout) = se_and_gradients(params, x)
            analytic = np.concatenate(
                [g.ravel() for g in gw] + [g.ravel() for g in gb] + [gout.ravel()]
            )
            numeric = fd_gradient(params, x, step=1e-6)
            scale = max(1.0, np.abs(analytic).max(), np.abs(numeric).max())
            worst = max(worst, float(np.abs(analytic - numeric).max() / scale))
    assert worst <= 1e-5
    report(f"analytic gradients match central differences (worst {worst:.1e})")


def test_metric_oracle_equivalence():
    from edlae.dataset import InteractionMatrix

    rng = np.random.default_rng(600)
    checked = 0
    for trial in range(10):
        num_users = int(rng.integers(2, 7))
        num_items = int(rng.integers(3, 13))  # at most 12 items
        scores = rng.standard_normal((num_users, num_items))
        triples = []
        for u in range(num_users):
            count = int(rng.integers(1, min(4, num_items)))
            for i in rng.choice(num_items, size=count, replace=False):
                triples.append((u, int(i)))
        holdout = InteractionMatrix.from_triples(
            num_users, num_items,
            [t[0] for t in triples], [t[1] for t in triples], np.ones(len(triples)),
        )
        sets = holdout_sets(holdout)
        for cutoff in (1, 3, num_items):
            # identical rankings; values agree to summation-order rounding
            np.testing.assert_allclose(
                ndcg_at_k(scores, holdout, cutoff).per_user,
                brute_ndcg(scores, sets, cutoff), rtol=0, atol=1e-12,
            )
            np.testing.assert_allclose(
                recall_at_k(scores, holdout, cutoff).per_user,
                brute_recall(scores, sets, cutoff), rtol=0, atol=1e-12,
            )
            checked += 1
    # hand-derived two-item case: hits at ranks 1 and 3
    scores = np.array([[5.0, 4.0, 3.0, 2.0]])
    holdout = InteractionMatrix.from_triples(1, 4, [0, 0], [0, 2], np.ones(2))
    value = ndcg_at_k(scores, holdout, 100).mean
    expected = (1.0 + 1.0 / np.log2(4)) / (1.0 + 1.0 / np.log2(3))
    assert abs(value - expected) <= 1e-12
    assert abs(value - 0.9197) <= 5e-5
    report(f"metrics match brute-force ranking oracle ({checked} cases, nDCG {value:.4f})")


def test_large_rank_ordering_on_synthetic_data():
    # Desk-scale stand-in for the full-dataset figure: on low-rank-plus-noise
    # data the denoising model must rank at least as well as the tuned
    # unconstrained ridge baseline at every tested rank >= n/2.  Ranks close
    # to full are excluded: with fold-in masking the two full-rank models
    # differ only by a per-item score scaling and the ordering degenerates to
    # a coin flip at this scale.
    start = time.perf_counter()
    matrix = synthetic_cluster_noise(seed=0)
    split = split_strong_generalization(matrix, SplitSpec(0.05, 0.05, 0.8, seed=10))
    g = gram(split.train)
    lambdas = (1.0, 5.0, 25.0, 125.0, 625.0, 3125.0)
    ks = (150, 200, 250)
    # One grid, as `edlae train --family both` trains it: the models come
    # as one group of len(lambdas) per (family, k).
    models = train_grid(g, ["edlae", "ridge"], ks, lambdas, [0.5])
    results = {k: {} for k in ks}
    for first in range(0, len(models), len(lambdas)):
        best = None
        for model in models[first:first + len(lambdas)]:
            val = ndcg_at_k(
                score_users(model, split.validation_foldin), split.validation_holdout, 100
            )
            if best is None or val.mean > best[0]:
                best = (val.mean, model)
        model = best[1]
        test = ndcg_at_k(score_users(model, split.test_foldin), split.test_holdout, 100)
        results[model.rank][model.kind] = test.mean
    for k, scores in results.items():
        assert scores["edlae"] >= scores["ridge"], (k, scores)
    elapsed = time.perf_counter() - start
    margins = ", ".join(
        f"k={k}: +{v['edlae'] - v['ridge']:.4f}" for k, v in results.items()
    )
    report(f"denoising model >= ridge baseline at large ranks ({margins}, {elapsed:.0f}s)")
