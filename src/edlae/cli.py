"""Command-line entry point: ingest, train, eval, verify, bench.

Every command records its resolved configuration into the output directory
once its artifacts are written, and refuses to silently overwrite a previous
run (pass --force); a failed run leaves no record and can be rerun.  A
command's options are one table, ``OPTIONS``, from which its flags, its
config-file keys and its record are all read.  An option may come from a
`key = value` config file (--config), keyed by its flag's name with ``_`` for
``-``; a flag takes precedence over the file, and the file over the default.
One parser reads the flag's text and the file's, and a key that is not an
option of the command is an error.  The file and the record are read and
written by ``serialize``'s record codec, so a record without its ``command``
line is a config file of the same run.  Exit codes: 0 success, 1 validation
error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import io
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
from .linalg import SVD_ORACLE_CAP, _mirror_lower

_VALIDATION_ERRORS = (ConfigError, ValueError, OSError)
_NUMERICAL_ERRORS = (NotPositiveDefinite, NoConvergence, Divergence)

RESOLVED_CONFIG = "config.resolved.txt"


# An option's parser reads its text, from a flag or the config file, and
# raises ValueError, naming the text, when it cannot or when the value is
# outside the option's range.


def _list(parse, text):
    values = [parse(part) for part in text.split(",") if part.strip()]
    if not values:
        raise ValueError(f"expected a comma-separated list, got {text!r}")
    return values


_int_list = functools.partial(_list, int)


def _ranks(text):
    """Ranks to train, none repeated: each (family, k) selects and saves one
    model."""
    ranks = _int_list(text)
    for k in ranks:
        if ranks.count(k) > 1:
            raise ValueError(f"rank {k} is given more than once")
    return ranks


def _floats_in(low, high):
    """A parser of float lists that rejects a value outside [low, high), NaN
    included."""

    def parse(text):
        values = _list(float, text)
        for value in values:
            if not low <= value < high:
                raise ValueError(f"expected numbers in [{low:g}, {high:g}), got {value!r}")
        return values

    return parse


def _at_least(low):
    """A parser of integers that rejects one below ``low``: counts of runs,
    trials and steps start at 1, numpy's seeds at 0."""

    def parse(text):
        value = int(text)
        if value < low:
            raise ValueError(f"expected an integer >= {low}, got {text!r}")
        return value

    return parse


def _step_size(text):
    """A finite step size above 0: with a NaN one every step fails, and the
    untrained model is reported."""
    value = float(text)
    if not 0.0 < value < float("inf"):
        raise ValueError(f"expected a finite number > 0, got {text!r}")
    return value


def _paths(value):
    """``--models a b`` gives a list, ``models = a,b`` a string.  The record
    joins the list with commas, so no path may hold one."""
    paths = value if isinstance(value, list) else _list(str.strip, value)
    for path in paths:
        if "," in path:
            raise ValueError(f"a path may not hold a comma, got {path!r}")
    return paths


def _bool(text):
    lowered = text.strip().lower()
    if lowered not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"expected a boolean, got {text!r}")
    return lowered in ("1", "true", "yes")


def _choice(*names):
    def parse(text):
        if text not in names:
            raise ValueError(f"expected one of {', '.join(names)}, got {text!r}")
        return text

    return parse


_REQUIRED = object()  # the default of an option the command cannot run without

# Every command also takes --config, --force (a bare switch, never read from
# the config file) and --out; neither --out nor --force is recorded.
_OUT = ("out", str, None)
# Each command's options as (name, parse, default), in the order --help lists
# them and config.resolved.txt records them.
OPTIONS = {
    "ingest": (
        ("data", str, _REQUIRED),
        ("format", _choice("csv", "tsv"), "csv"),
        ("binarize", _bool, True),
        ("validation_fraction", float, 0.1),
        ("test_fraction", float, 0.1),
        ("foldin_fraction", float, 0.8),
        ("seed", _at_least(0), 0),
    ),
    "train": (
        ("split", str, _REQUIRED),
        ("family", _choice("edlae", "ridge", "both"), "edlae"),
        ("ks", _ranks, [8]),
        ("lambdas", _floats_in(0.0, float("inf")), [1.0]),
        ("ps", _floats_in(0.0, 1.0), [0.5]),
    ),
    "eval": (
        ("split", str, _REQUIRED),
        ("models", _paths, _REQUIRED),
    ),
    "verify": (
        ("m", int, 30),
        ("n", int, 20),
        ("ks", _int_list, [2, 5, 10]),
        ("trials", _at_least(1), 81),
        ("steps", _at_least(1), 400),
        ("restarts", _at_least(1), 5),
        ("lr", _step_size, 5e-4),
        ("seed", _at_least(0), 0),
    ),
    "bench": (
        ("n", int, 1000),
        ("ks", _int_list, [10, 100, 500]),
        ("repeats", _at_least(1), 3),
        ("seed", _at_least(0), 0),
    ),
}


def _flag(name):
    return "--" + name.replace("_", "-")


def _options(args):
    """The options of ``args.command``: each is its flag's value if given,
    else the config file's, else the default; the row's parser reads the
    flag's text and the file's alike.  A config key that is no option of the
    command, a value that does not parse and a missing required option are
    ConfigErrors."""
    rows = (_OUT, *OPTIONS[args.command])
    config = serialize.read_record(args.config) if args.config else {}
    unknown = [key for key in config if key not in {name for name, _, _ in rows}]
    if unknown:
        raise ConfigError(
            f"{args.config}: unknown key(s) {', '.join(map(repr, unknown))}; {args.command} "
            f"takes {', '.join(name for name, _, _ in rows)}"
        )
    opts = argparse.Namespace(command=args.command, force=args.force)
    for name, parse, default in rows:
        raw, source = getattr(args, name), _flag(name)
        if raw is None and name in config:
            raw, source = config[name], f"{args.config}: {name}"
        try:
            setattr(opts, name, default if raw is None else parse(raw))
        except ValueError as exc:
            raise ConfigError(f"{source}: {exc}") from None
    missing = [_flag(name) for name, _, _ in rows if getattr(opts, name) is _REQUIRED]
    if missing:
        raise ConfigError(f"{args.command} requires {' and '.join(missing)}")
    return opts


def _prepare_out_dir(out, force):
    if out is None:
        raise ConfigError("an output directory is required (--out)")
    if os.path.exists(os.path.join(out, RESOLVED_CONFIG)) and not force:
        raise ConfigError(
            f"{out} already holds a run ({RESOLVED_CONFIG} present); rerun with --force to overwrite"
        )
    os.makedirs(out, exist_ok=True)
    return out


def _record_run(out, opts):
    """Mark ``out`` as holding a finished run; written after its artifacts."""
    fields = [(name, getattr(opts, name)) for name, _, _ in OPTIONS[opts.command]]
    serialize.write_record(os.path.join(out, RESOLVED_CONFIG),
                           [("command", opts.command), *fields])


def cmd_ingest(opts):
    spec = dataset.SplitSpec(
        validation_fraction=opts.validation_fraction,
        test_fraction=opts.test_fraction,
        foldin_fraction=opts.foldin_fraction,
        seed=opts.seed,
    )
    out = _prepare_out_dir(opts.out, opts.force)
    matrix, user_ids, item_ids = dataset.load_interactions(opts.data, fmt=opts.format,
                                                           binarize=opts.binarize)
    split = dataset.split_strong_generalization(matrix, spec)
    num_users, num_items, nnz = matrix.num_users, matrix.num_items, matrix.nnz
    del matrix  # the split holds its own triples; free these before writing
    dataset.save_split_artifacts(out, split, user_ids, item_ids, spec)
    _record_run(out, opts)
    print(
        f"ingest: wrote split for {num_users} users x {num_items} items "
        f"({nnz} interactions) to {out}"
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


def cmd_train(opts):
    ks, lambdas, ps = opts.ks, opts.lambdas, opts.ps
    # Training needs scipy (the sparse Gram and LAPACK).  Importing it here,
    # before any library call, keeps its import time and allocations out of
    # the traced library calls (perfbench/tracer.py).
    import scipy.linalg  # noqa: F401
    import scipy.sparse  # noqa: F401

    split, _, item_ids = dataset.load_split_artifacts(opts.split, ("train", "validation"))
    n = len(item_ids)
    for k in ks:
        if not 1 <= k <= n:
            raise ConfigError(f"rank {k} outside [1, {n}] for this split")
    if 0.0 in lambdas:
        _require_trained_items(split.train, item_ids)
    out = _prepare_out_dir(opts.out, opts.force)
    g = dataset.gram(split.train)
    # Past G only the validation users are needed: free the training triples.
    foldin, holdout = split.validation_foldin, split.validation_holdout
    del split
    families = ["edlae", "ridge"] if opts.family == "both" else [opts.family]
    # The whole grid is trained before any model is ranked: the chain runs in
    # scipy's BLAS runtime and scoring in numpy's, so the two thread pools
    # take turns once instead of slowing each other at every (lambda, p).
    models = closed_form.train_grid(g, families, ks, lambdas, ps)
    fmt = serialize.format_value
    log = ["family\tk\tlambda\tp\tobjective\tval_ndcg100\tselected\n"]
    # One (family, k) per group of (lambda, p) models, in the log's order.
    per_group = len(lambdas) * len(ps)
    for start in range(0, len(models), per_group):
        group = models[start:start + per_group]
        # Each score matrix is freed once it is ranked.
        ndcgs = [evaluate.ndcg_at_k(evaluate.score_users(model, foldin), holdout, 100).mean
                 for model in group]
        best = ndcgs.index(max(ndcgs))  # the first of equal scores
        for i, (model, ndcg) in enumerate(zip(group, ndcgs)):
            cfg = model.config
            lam_diag = closed_form.regularizer(np.diag(g), cfg.lam, cfg.dropout_p)
            objective = closed_form.objective_from_gram(g, lam_diag, model)
            log.append(f"{model.kind}\t{model.rank}\t{fmt(cfg.lam)}\t{fmt(cfg.dropout_p)}\t"
                       f"{fmt(objective)}\t{fmt(ndcg)}\t{'yes' if i == best else 'no'}\n")
        model, cfg = group[best], group[best].config
        path = os.path.join(out, f"{model.kind}_k{model.rank}.model")
        serialize.save_model(path, model)
        print(
            f"train: {model.kind} k={model.rank} -> lambda={cfg.lam:g} p={cfg.dropout_p:g} "
            f"val nDCG@100={ndcgs[best]:.4f} ({os.path.basename(path)})"
        )
    serialize.write_atomic(os.path.join(out, "train_log.tsv"), "".join(log).encode("utf-8"))
    _record_run(out, opts)
    return 0


def cmd_eval(opts):
    out = _prepare_out_dir(opts.out, opts.force)
    split, _, _ = dataset.load_split_artifacts(opts.split, ("test",))
    rows = []
    for path in opts.models:
        model = serialize.load_model(path)
        model_id = os.path.splitext(os.path.basename(path))[0]
        for res in evaluate.model_metrics(model, split.test_foldin, split.test_holdout):
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
    _record_run(out, opts)
    return 0


def cmd_verify(opts):
    m, n = opts.m, opts.n
    if min(m, n) > SVD_ORACLE_CAP:
        raise ConfigError(f"min(--m, --n) = {min(m, n)} exceeds the dense SVD oracle's cap "
                          f"{SVD_ORACLE_CAP}")
    for k in opts.ks:
        if not 1 <= k < min(m, n):
            raise ConfigError(f"--ks: k={k} must be in [1, min(m, n)={min(m, n)})")
    out = opts.out
    if out is not None:
        out = _prepare_out_dir(out, opts.force)

    suite = checks.run_invariant_checks(seed=opts.seed)
    for result in suite:
        print(result.line())
    report = deepae.verify_linear_bound(
        m=m, n=n, ks=opts.ks, trials=opts.trials, restarts=opts.restarts, steps=opts.steps,
        lr=opts.lr, seed=opts.seed,
    )
    status = "PASS" if report.passed else "FAIL"
    print(
        f"{status}  deep-vs-linear bound: {len(report.trials)} trials, "
        f"min gap {report.min_gap:.3e}, failures {len(report.failures())}"
    )
    if out is not None:
        jsonl = io.StringIO()
        report.write_jsonl(jsonl)
        serialize.write_atomic(os.path.join(out, "bound_report.jsonl"),
                               jsonl.getvalue().encode("utf-8"))
        lines = "".join(result.line() + "\n" for result in suite)
        serialize.write_atomic(os.path.join(out, "invariant_checks.txt"), lines.encode("utf-8"))
        _record_run(out, opts)
    all_passed = report.passed and all(r.passed for r in suite)
    return 0 if all_passed else 2


def cmd_bench(opts):
    n, ks, repeats = opts.n, opts.ks, opts.repeats
    for k in ks:
        if not 1 <= k <= n:
            raise ConfigError(f"rank {k} outside [1, {n}]")
    out = opts.out
    if out is not None:
        out = _prepare_out_dir(out, opts.force)
    rng = np.random.default_rng(opts.seed)
    a = rng.standard_normal((2 * n, n))
    g = a.T @ a
    _mirror_lower(g.T)  # exactly symmetric, as dataset.gram makes G
    lam_diag = closed_form.regularizer(np.diag(g), 1.0, 0.0)

    # LAPACK runs through scipy.linalg; importing it before the timing loop
    # keeps its import time out of the first chain sample.
    import scipy.linalg  # noqa: F401

    timings = {}

    def timed(stage, fn):
        t0 = time.perf_counter()
        result = fn()
        timings.setdefault(stage, []).append(time.perf_counter() - t0)
        return result

    # One (lambda, p) of an edlae `train`, as train_grid runs it: the chain
    # at rank max(ks), then a column slice per rank.
    top = max(ks)
    for _ in range(repeats):
        (model,) = timed(f"rank-{top} edlae chain (train_regularized)",
                         lambda: closed_form.train_regularized(g, lam_diag, ["edlae"], top))
        for k in ks:
            timed(f"rank-{k} slice", lambda: (model.u[:, :k].copy(), model.v[:, :k].copy()))
        del model

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
        serialize.write_atomic(os.path.join(out, "bench.txt"), (text + "\n").encode("utf-8"))
        _record_run(out, opts)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="edlae",
        description="Closed-form low-rank denoising linear autoencoders: "
        "data splits, training, ranking evaluation, numerical verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "ingest": (cmd_ingest, "load interactions and write a split"),
        "train": (cmd_train, "closed-form training over a hyperparameter grid"),
        "eval": (cmd_eval, "ranking metrics of serialized models on the test split"),
        "verify": (cmd_verify, "numerical invariants and the deep-vs-linear bound"),
        "bench": (cmd_bench, "wall-clock timings of the training chain"),
    }
    for command, (func, help_text) in commands.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="key = value config file; flags override")
        p.add_argument("--force", action="store_true", help="allow overwriting a previous run")
        for name, parse, _ in (_OUT, *OPTIONS[command]):
            p.add_argument(_flag(name), nargs="+" if parse is _paths else None)
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; keep 2 for numerical failures
        return 0 if exc.code == 0 else 1
    try:
        return args.func(_options(args))
    except _NUMERICAL_ERRORS as exc:
        print(f"error (numerical): {exc}", file=sys.stderr)
        return 2
    except (EdlaeError,) + _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
