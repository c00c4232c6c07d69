"""Command-line entry point: ingest, train, eval, verify, bench.

Every command records its resolved configuration into the output directory
once its artifacts are written, and refuses to silently overwrite a previous
run (pass --force); a failed run leaves no record and can be rerun.  Options
may come from a `key = value` config file (--config) with command-line flags
taking precedence.  Exit codes: 0 success, 1 validation error, 2 numerical
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import checks, closed_form, dataset, deepae, evaluate, serialize
from .errors import (
    ConfigError,
    Divergence,
    EdlaeError,
    NoConvergence,
    NotPositiveDefinite,
)
from .linalg import sym_inverse, top_k_eig

_VALIDATION_ERRORS = (ConfigError, ValueError, OSError)
_NUMERICAL_ERRORS = (NotPositiveDefinite, NoConvergence, Divergence)

RESOLVED_CONFIG = "config.resolved.txt"


def _load_config_file(path):
    values = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _resolve(args, key, default=None, cast=str):
    """Flag value if given, else config-file value, else default."""
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    config = getattr(args, "_config_values", {})
    if key in config:
        raw = config[key]
        try:
            return cast(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config key {key!r}: cannot parse {raw!r}") from exc
    return default


def _int_list(text):
    try:
        return [int(part) for part in str(text).split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from exc


def _float_list(text):
    try:
        return [float(part) for part in str(text).split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}") from exc


def _require_values(**lists):
    """Reject an empty list option, naming it."""
    for option, values in lists.items():
        if not values:
            raise ConfigError(f"--{option} must list at least one value")


def _bool(text):
    if isinstance(text, bool):
        return text
    lowered = str(text).strip().lower()
    if lowered in ("1", "true", "yes"):
        return True
    if lowered in ("0", "false", "no"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _prepare_out_dir(out, force):
    if out is None:
        raise ConfigError("an output directory is required (--out)")
    if os.path.exists(os.path.join(out, RESOLVED_CONFIG)) and not force:
        raise ConfigError(
            f"{out} already holds a run ({RESOLVED_CONFIG} present); rerun with --force to overwrite"
        )
    os.makedirs(out, exist_ok=True)
    return out


def _record_run(out, resolved_pairs):
    """Mark ``out`` as holding a finished run; written after its artifacts."""
    lines = [f"{key} = {value}" for key, value in resolved_pairs]
    text = "\n".join(lines) + "\n"
    serialize.write_atomic(os.path.join(out, RESOLVED_CONFIG), text.encode("utf-8"))


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, (list, tuple)):
        return ",".join(_fmt(v) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def cmd_ingest(args):
    data = _resolve(args, "data")
    if data is None:
        raise ConfigError("ingest requires --data")
    fmt = _resolve(args, "format", "csv")
    binarize = _bool(_resolve(args, "binarize", True, _bool))
    spec = dataset.SplitSpec(
        validation_fraction=float(_resolve(args, "validation_fraction", 0.1, float)),
        test_fraction=float(_resolve(args, "test_fraction", 0.1, float)),
        foldin_fraction=float(_resolve(args, "foldin_fraction", 0.8, float)),
        seed=int(_resolve(args, "seed", 0, int)),
    )
    out = _prepare_out_dir(_resolve(args, "out"), args.force)
    matrix, user_ids, item_ids = dataset.load_interactions(data, fmt=fmt, binarize=binarize)
    split = dataset.split_strong_generalization(matrix, spec)
    dataset.save_split_artifacts(out, split, user_ids, item_ids, spec)
    _record_run(out, [
        ("command", "ingest"),
        ("data", data),
        ("format", fmt),
        ("binarize", _fmt(binarize)),
        ("validation_fraction", _fmt(spec.validation_fraction)),
        ("test_fraction", _fmt(spec.test_fraction)),
        ("foldin_fraction", _fmt(spec.foldin_fraction)),
        ("seed", spec.seed),
    ])
    print(
        f"ingest: wrote split for {matrix.num_users} users x {matrix.num_items} items "
        f"({matrix.nnz} interactions) to {out}"
    )
    return 0


def _require_trained_items(train, item_ids):
    """At lambda = 0, diag(G) + Lambda is 0 for an item no training user
    touched, so G + Lambda cannot be factorized: name those items up front."""
    unseen = np.setdiff1d(np.arange(len(item_ids)), train.items)
    if unseen.size:
        names = ", ".join(item_ids[i] for i in unseen[:10])
        more = ", ..." if unseen.size > 10 else ""
        raise NotPositiveDefinite(
            f"diag(G) + Lambda is 0 at lambda = 0 for {unseen.size} item(s) that no "
            f"training user touched: {names}{more}; use lambda > 0"
        )


def cmd_train(args):
    split_dir = _resolve(args, "split")
    if split_dir is None:
        raise ConfigError("train requires --split")
    family = _resolve(args, "family", "edlae")
    if family not in ("edlae", "ridge", "both"):
        raise ConfigError(f"family must be edlae, ridge, or both, got {family!r}")
    ks = _resolve(args, "ks", [8], _int_list)
    lambdas = _resolve(args, "lambdas", [1.0], _float_list)
    ps = _resolve(args, "ps", [0.5], _float_list)
    _require_values(ks=ks, lambdas=lambdas, ps=ps)
    # Training needs scipy (the sparse Gram and LAPACK).  Importing it here,
    # before any library call, keeps its import time and allocations out of
    # the traced library calls (perfbench/tracer.py).
    import scipy.linalg  # noqa: F401
    import scipy.sparse  # noqa: F401

    split, _, item_ids = dataset.load_split_artifacts(split_dir, ("train", "validation"))
    n = len(item_ids)
    for k in ks:
        if not 1 <= k <= n:
            raise ConfigError(f"rank {k} outside [1, {n}] for this split")
    for lam in lambdas:  # reject a bad lambda or p before --out is touched
        for p in ps:
            closed_form.EdlaeConfig(lam=lam, dropout_p=p, rank=ks[0])
    if 0.0 in lambdas:
        _require_trained_items(split.train, item_ids)
    out = _prepare_out_dir(_resolve(args, "out"), args.force)
    g = dataset.gram(split.train)
    families = ["edlae", "ridge"] if family == "both" else [family]
    rows, best = {}, {}
    for position, model in closed_form.train_grid(g, families, ks, lambdas, ps):
        cfg = model.config
        scores = evaluate.score_users(model, split.validation_foldin)
        ndcg = evaluate.ndcg_at_k(scores, split.validation_holdout, 100).mean
        lam_diag = closed_form.regularizer(np.diag(g), cfg.lam, cfg.dropout_p)
        rows[position] = {
            "family": model.kind,
            "k": cfg.rank,
            "lambda": cfg.lam,
            "p": cfg.dropout_p,
            "objective": closed_form.objective_from_gram(g, lam_diag, model),
            "val_ndcg100": ndcg,
        }
        # Per (family, k) the grid is visited in (lambda, p) order, so a
        # strict improvement keeps the first of equal scores.
        group = position[:2]
        if group not in best or ndcg > best[group][0]:
            best[group] = (ndcg, position, model)
    for group in sorted(best):
        ndcg, position, model = best[group]
        row = rows[position]
        row["selected"] = True
        path = os.path.join(out, f"{row['family']}_k{row['k']}.model")
        serialize.save_model(path, model)
        print(
            f"train: {row['family']} k={row['k']} -> lambda={row['lambda']:g} p={row['p']:g} "
            f"val nDCG@100={ndcg:.4f} ({os.path.basename(path)})"
        )
    log = ["family\tk\tlambda\tp\tobjective\tval_ndcg100\tselected\n"]
    for position in sorted(rows):
        row = rows[position]
        log.append(
            f"{row['family']}\t{row['k']}\t{_fmt(row['lambda'])}\t{_fmt(row['p'])}\t"
            f"{_fmt(row['objective'])}\t{_fmt(row['val_ndcg100'])}\t"
            f"{'yes' if row.get('selected') else 'no'}\n"
        )
    serialize.write_atomic(os.path.join(out, "train_log.tsv"), "".join(log).encode("utf-8"))
    _record_run(out, [
        ("command", "train"),
        ("split", split_dir),
        ("family", family),
        ("ks", _fmt(ks)),
        ("lambdas", _fmt(lambdas)),
        ("ps", _fmt(ps)),
    ])
    return 0


def cmd_eval(args):
    split_dir = _resolve(args, "split")
    models = getattr(args, "models", None) or []
    if split_dir is None or not models:
        raise ConfigError("eval requires --split and at least one --models file")
    out = _prepare_out_dir(_resolve(args, "out"), args.force)
    split, _, _ = dataset.load_split_artifacts(split_dir, ("test",))
    rows = []
    for path in models:
        model = serialize.load_model(path)
        model_id = os.path.splitext(os.path.basename(path))[0]
        scores = evaluate.score_users(model, split.test_foldin)
        results = [
            evaluate.ndcg_at_k(scores, split.test_holdout, 100),
            evaluate.recall_at_k(scores, split.test_holdout, 20),
            evaluate.recall_at_k(scores, split.test_holdout, 50),
        ]
        for res in results:
            rows.append(
                {
                    "model_id": model_id,
                    "metric": res.metric,
                    "cutoff": res.cutoff,
                    "mean": res.mean,
                    "stderr": res.stderr,
                }
            )
    header = f"{'model':24s} {'metric':8s} {'cutoff':>6s} {'mean':>10s} {'stderr':>10s}"
    table = [header, "-" * len(header)]
    for row in rows:
        table.append(
            f"{row['model_id']:24s} {row['metric']:8s} {row['cutoff']:6d} "
            f"{row['mean']:10.4f} {row['stderr']:10.4f}"
        )
    text = "\n".join(table)
    print(text)
    serialize.write_atomic(os.path.join(out, "metrics.txt"), (text + "\n").encode("utf-8"))
    jsonl = "".join(json.dumps(row) + "\n" for row in rows)
    serialize.write_atomic(os.path.join(out, "metrics.jsonl"), jsonl.encode("utf-8"))
    _record_run(out, [("command", "eval"), ("split", split_dir), ("models", ",".join(models))])
    return 0


def cmd_verify(args):
    m = int(_resolve(args, "m", 30, int))
    n = int(_resolve(args, "n", 20, int))
    ks = _resolve(args, "ks", [2, 5, 10], _int_list)
    trials = int(_resolve(args, "trials", 81, int))
    steps = int(_resolve(args, "steps", 400, int))
    restarts = int(_resolve(args, "restarts", 5, int))
    lr = float(_resolve(args, "lr", 5e-4, float))
    seed = int(_resolve(args, "seed", 0, int))
    _require_values(ks=ks)
    for k in ks:
        if k >= min(m, n):
            raise ConfigError(f"k={k} must be below min(m, n)={min(m, n)}")
    out = _resolve(args, "out")
    if out is not None:
        out = _prepare_out_dir(out, args.force)

    suite = checks.run_invariant_checks(seed=seed)
    for result in suite:
        print(result.line())
    report = deepae.verify_linear_bound(
        m=m, n=n, ks=ks, trials=trials, restarts=restarts, steps=steps, lr=lr, seed=seed
    )
    gaps = [t.gap for t in report.trials]
    status = "PASS" if report.passed else "FAIL"
    print(
        f"{status}  deep-vs-linear bound: {len(report.trials)} trials, "
        f"min gap {min(gaps):.3e}, failures {len(report.failures())}"
    )
    if out is not None:
        with open(os.path.join(out, "bound_report.jsonl"), "w", encoding="utf-8") as handle:
            report.write_jsonl(handle)
        with open(os.path.join(out, "invariant_checks.txt"), "w", encoding="utf-8") as handle:
            for result in suite:
                handle.write(result.line() + "\n")
        _record_run(out, [
            ("command", "verify"),
            ("m", m), ("n", n), ("ks", _fmt(ks)), ("trials", trials),
            ("steps", steps), ("restarts", restarts), ("lr", _fmt(lr)), ("seed", seed),
        ])
    all_passed = report.passed and all(r.passed for r in suite)
    return 0 if all_passed else 2


def cmd_bench(args):
    n = int(_resolve(args, "n", 1000, int))
    ks = _resolve(args, "ks", [10, 100, 500], _int_list)
    repeats = int(_resolve(args, "repeats", 3, int))
    seed = int(_resolve(args, "seed", 0, int))
    _require_values(ks=ks)
    for k in ks:
        if not 1 <= k <= n:
            raise ConfigError(f"rank {k} outside [1, {n}]")
    out = _resolve(args, "out")
    if out is not None:
        out = _prepare_out_dir(out, args.force)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((2 * n, n))
    raw = a.T @ a
    upper = np.triu(raw, 1)
    g = upper + upper.T + np.diag(np.diag(raw))
    lam_diag = closed_form.regularizer(np.diag(g), 1.0, 0.0)

    # LAPACK runs through scipy.linalg; importing it before the timing loop
    # keeps its import time out of the first inverse sample.
    import scipy.linalg  # noqa: F401

    timings = {}

    def timed(stage, fn):
        t0 = time.perf_counter()
        result = fn()
        timings.setdefault(stage, []).append(time.perf_counter() - t0)
        return result

    # The stages of one (lambda, p, family) of `train`: one inverse, the
    # teacher in its storage, the student Gram, one top-max(ks)
    # eigendecomposition with U = B V, and a column slice per rank.
    top = max(ks)
    for _ in range(repeats):
        c = timed("inverse", lambda: sym_inverse(g + np.diag(lam_diag), overwrite_a=True))
        teacher = timed("teacher", lambda: closed_form.teacher_from_inverse(
            c, lam_diag, overwrite_c=True))
        del c
        m_student = timed("student gram", lambda: closed_form.student_gram(teacher, g, lam_diag))
        v = timed(f"top-{top} eig", lambda: top_k_eig(m_student, top).eigenvectors)
        u = timed(f"rank-{top} projection U = B V", lambda: teacher.b @ v)
        del teacher, m_student
        for k in ks:
            timed(f"slice top-{k} eig, rank-{k} projection",
                  lambda: (u[:, :k].copy(), v[:, :k].copy()))

    width = max(len(stage) for stage in timings)
    header = f"{'stage':{width}s} {'mean (s)':>10s} {'std (s)':>10s} {'runs':>5s}"
    lines = [f"bench: n={n}, repeats={repeats}", header, "-" * len(header)]
    for stage, values in timings.items():
        arr = np.asarray(values)
        std = arr.std(ddof=1) if arr.size > 1 else 0.0
        lines.append(f"{stage:{width}s} {arr.mean():10.3f} {std:10.3f} {arr.size:5d}")
    text = "\n".join(lines)
    print(text)
    if out is not None:
        with open(os.path.join(out, "bench.txt"), "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
        _record_run(out, [("command", "bench"), ("n", n), ("ks", _fmt(ks)), ("repeats", repeats),
                          ("seed", seed)])
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="edlae",
        description="Closed-form low-rank denoising linear autoencoders: "
        "data splits, training, ranking evaluation, numerical verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key = value config file; flags override")
        p.add_argument("--out", help="output directory for artifacts")
        p.add_argument("--force", action="store_true", help="allow overwriting a previous run")

    p_ingest = sub.add_parser("ingest", help="load interactions and write a split")
    common(p_ingest)
    p_ingest.add_argument("--data", help="input interactions file (user,item[,count])")
    p_ingest.add_argument("--format", choices=("csv", "tsv"))
    p_ingest.add_argument("--binarize", type=_bool)
    p_ingest.add_argument("--validation-fraction", dest="validation_fraction", type=float)
    p_ingest.add_argument("--test-fraction", dest="test_fraction", type=float)
    p_ingest.add_argument("--foldin-fraction", dest="foldin_fraction", type=float)
    p_ingest.add_argument("--seed", type=int)
    p_ingest.set_defaults(func=cmd_ingest)

    p_train = sub.add_parser("train", help="closed-form training over a hyperparameter grid")
    common(p_train)
    p_train.add_argument("--split", help="directory written by ingest")
    p_train.add_argument("--family", choices=("edlae", "ridge", "both"))
    p_train.add_argument("--ks", type=_int_list)
    p_train.add_argument("--lambdas", type=_float_list)
    p_train.add_argument("--ps", type=_float_list)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="ranking metrics of serialized models on the test split")
    common(p_eval)
    p_eval.add_argument("--split")
    p_eval.add_argument("--models", nargs="+", help="serialized model files")
    p_eval.set_defaults(func=cmd_eval)

    p_verify = sub.add_parser("verify", help="numerical invariants and the deep-vs-linear bound")
    common(p_verify)
    p_verify.add_argument("--m", type=int)
    p_verify.add_argument("--n", type=int)
    p_verify.add_argument("--ks", type=_int_list)
    p_verify.add_argument("--trials", type=int)
    p_verify.add_argument("--steps", type=int)
    p_verify.add_argument("--restarts", type=int)
    p_verify.add_argument("--lr", type=float)
    p_verify.add_argument("--seed", type=int)
    p_verify.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", help="wall-clock timings of the training stages")
    common(p_bench)
    p_bench.add_argument("--n", type=int)
    p_bench.add_argument("--ks", type=_int_list)
    p_bench.add_argument("--repeats", type=int)
    p_bench.add_argument("--seed", type=int)
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; keep 2 for numerical failures
        return 0 if exc.code == 0 else 1
    try:
        args._config_values = _load_config_file(args.config) if args.config else {}
        return args.func(args)
    except _NUMERICAL_ERRORS as exc:
        print(f"error (numerical): {exc}", file=sys.stderr)
        return 2
    except (EdlaeError,) + _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
