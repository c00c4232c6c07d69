"""End-to-end CLI tests (in-process via main)."""

import ast
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import edlae
from edlae import checks, dataset, serialize
from edlae.cli import build_parser, main
from edlae.closed_form import EdlaeConfig, LowRankModel
from edlae.dataset import (
    SPLIT_FILES,
    SplitSpec,
    load_interactions,
    load_split_artifacts,
    split_strong_generalization,
)


@pytest.fixture
def data_csv(tmp_path):
    rng = np.random.default_rng(0)
    lines = []
    for u in range(24):
        items = rng.choice(8, size=int(rng.integers(3, 7)), replace=False)
        for i in items:
            lines.append(f"user{u},item{i}")
    path = tmp_path / "interactions.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def ingest(tmp_path, data_csv, name="split", seed=3, binarize=True):
    out = tmp_path / name
    code = main([
        "ingest", "--data", str(data_csv), "--out", str(out),
        "--validation-fraction", "0.2", "--test-fraction", "0.2", "--seed", str(seed),
        "--binarize", "true" if binarize else "false",
    ])
    assert code == 0
    return out


def twins_csv(tmp_path, num_users, every, twins_first):
    """An interactions file in which every ``every``-th user holds the items
    twin_a and twin_b, listed before (``twins_first``) or after 3 to 6 of
    item0..item7, so twin_a and twin_b are identical columns of X."""
    rng = np.random.default_rng(0)
    lines = []
    for u in range(num_users):
        twins = [f"user{u},twin_a", f"user{u},twin_b"] if u % every == 0 else []
        others = [f"user{u},item{i}"
                  for i in rng.choice(8, size=int(rng.integers(3, 7)), replace=False)]
        lines += twins + others if twins_first else others + twins
    path = tmp_path / "twins.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def fail_replace_onto(monkeypatch, name):
    """Make os.replace fail when its target is ``name``; return the real one."""
    replace = os.replace

    def fail(src, dst):
        if os.path.basename(dst) == name:
            raise OSError("disk full")
        replace(src, dst)

    monkeypatch.setattr(os, "replace", fail)
    return replace


class TestIngest:
    def test_writes_artifacts(self, tmp_path, data_csv, capsys):
        out = ingest(tmp_path, data_csv)
        expected = {
            "manifest.txt", "users.tsv", "items.tsv", "train.csv",
            "validation_foldin.csv", "validation_holdout.csv",
            "test_foldin.csv", "test_holdout.csv", "config.resolved.txt",
            "train.npy", "validation_foldin.npy", "validation_holdout.npy",
            "test_foldin.npy", "test_holdout.npy",
        }
        assert expected <= {p.name for p in out.iterdir()}
        assert "wrote split" in capsys.readouterr().out

    def test_rerun_is_byte_identical(self, tmp_path, data_csv):
        a = ingest(tmp_path, data_csv, "a")
        b = ingest(tmp_path, data_csv, "b")
        for name in ("manifest.txt", "train.csv", "users.tsv", "config.resolved.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_missing_file(self, tmp_path, capsys):
        code = main(["ingest", "--data", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_refuses_overwrite(self, tmp_path, data_csv, capsys):
        out = ingest(tmp_path, data_csv)
        code = main([
            "ingest", "--data", str(data_csv), "--out", str(out),
            "--validation-fraction", "0.2", "--test-fraction", "0.2",
        ])
        assert code == 1
        assert "--force" in capsys.readouterr().err

    def test_rejects_separator_in_id(self, tmp_path, capsys):
        data = tmp_path / "interactions.tsv"
        data.write_text("u0\ti1\nu0\titem,3\n", encoding="utf-8")
        out = tmp_path / "s"
        assert main(["ingest", "--data", str(data), "--format", "tsv", "--out", str(out)]) == 1
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("text, error", [
        ("u1,i1\nu2\n", "error: line 2: expected user,item[,count], got 'u2'"),
        (None, "No such file or directory"),
        ("u1,i1\nu1,i2\nu2,i1\nu2,i3\n", "error: validation fraction 0.1 of 2 users rounds to "
         "0 validation users; each held-out part needs at least 1"),
    ], ids=["bad-line", "missing", "two-users"])
    def test_failed_ingest_leaves_no_out(self, tmp_path, capsys, text, error):
        data = tmp_path / "interactions.csv"
        if text is not None:
            data.write_text(text, encoding="utf-8")
        out = tmp_path / "split"
        assert main(["ingest", "--data", str(data), "--out", str(out)]) == 1
        assert error in capsys.readouterr().err
        assert not out.exists()

    def test_failed_split_write_leaves_whole_files(self, tmp_path, data_csv, monkeypatch):
        reference = ingest(tmp_path, data_csv, "reference")
        old = ingest(tmp_path, data_csv, "old", seed=4)
        before = (old / SPLIT_FILES[2]).read_bytes()
        replace = os.replace

        def fail_on_third_split_file(src, dst):
            if os.path.basename(dst) == SPLIT_FILES[2]:
                raise OSError("disk full")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", fail_on_third_split_file)
        out = tmp_path / "split"
        args = ["ingest", "--data", str(data_csv), "--out", str(out),
                "--validation-fraction", "0.2", "--test-fraction", "0.2", "--seed", "3"]
        assert main(args) == 1
        written = {p.name for p in out.iterdir()}
        assert written == {"users.tsv", "items.tsv", *SPLIT_FILES[:2]}  # no .tmp, no marker
        for name in written:
            assert (out / name).read_bytes() == (reference / name).read_bytes()
        # over an earlier split, a failed --force run keeps that file whole
        assert main([*args[:4], str(old), "--force", *args[5:]]) == 1
        assert (old / SPLIT_FILES[2]).read_bytes() == before
        assert not [p.name for p in old.iterdir() if p.name.endswith(".tmp")]
        monkeypatch.setattr(os, "replace", replace)
        assert main(args) == 0  # no marker, so no --force needed
        for name in os.listdir(reference):
            assert (out / name).read_bytes() == (reference / name).read_bytes()

    def test_force_overwrites(self, tmp_path, data_csv):
        out = ingest(tmp_path, data_csv)
        code = main([
            "ingest", "--data", str(data_csv), "--out", str(out), "--force",
            "--validation-fraction", "0.2", "--test-fraction", "0.2", "--seed", "3",
        ])
        assert code == 0


class TestTrain:
    def test_grid_selects_and_saves(self, tmp_path, data_csv):
        split = ingest(tmp_path, data_csv)
        out = tmp_path / "run"
        code = main([
            "train", "--split", str(split), "--out", str(out),
            "--family", "both", "--ks", "2", "--lambdas", "0.5,2.0", "--ps", "0.25",
        ])
        assert code == 0
        assert (out / "edlae_k2.model").exists()
        assert (out / "ridge_k2.model").exists()
        log = (out / "train_log.tsv").read_text().strip().split("\n")
        assert log[0].startswith("family\tk\tlambda")
        assert len(log) == 1 + 2 * 2  # header + 2 grid points per family
        assert sum(1 for line in log[1:] if line.endswith("yes")) == 2

    def test_ranks_after_the_whole_grid(self, tmp_path, data_csv, monkeypatch):
        # the chain's LAPACK and BLAS calls run in scipy's OpenBLAS and
        # validation scoring in numpy's: no model is scored before the grid
        # is trained, and every objective, G's last read, comes before the
        # first score matrix, by which time G is freed
        split = ingest(tmp_path, data_csv)
        calls, grams, gram_alive_at_score = [], [], []
        eig, scored = edlae.closed_form.top_k_eig, edlae.evaluate.score_users
        objective, gram = edlae.closed_form.objective_from_gram, edlae.dataset.gram

        def spy_gram(*args):
            result = gram(*args)
            grams.append(weakref.ref(result))
            return result

        def spy_score(*args):
            gram_alive_at_score.append(grams[0]() is not None)
            calls.append("score")
            return scored(*args)

        monkeypatch.setattr(edlae.dataset, "gram", spy_gram)
        monkeypatch.setattr(edlae.closed_form, "top_k_eig",
                            lambda *args, **kwargs: calls.append("eig") or eig(*args, **kwargs))
        monkeypatch.setattr(edlae.closed_form, "objective_from_gram",
                            lambda *args: calls.append("objective") or objective(*args))
        monkeypatch.setattr(edlae.evaluate, "score_users", spy_score)
        assert main([
            "train", "--split", str(split), "--out", str(tmp_path / "run"), "--family", "both",
            "--ks", "1,2", "--lambdas", "0.5,2.0", "--ps", "0.25,0.5",
        ]) == 0
        assert calls.count("eig") == 2 * 2 * 2  # one per (lambda, p, family)
        assert calls.count("objective") == calls.count("score") == 2 * 2 * 2 * 2  # per model
        last_eig = len(calls) - 1 - calls[::-1].index("eig")
        assert "score" not in calls[:last_eig]
        first_score = calls.index("score")
        assert "objective" not in calls[first_score:]
        assert len(grams) == 1 and gram_alive_at_score[0] is False

    def test_failed_ranking_leaves_no_out(self, tmp_path, data_csv, monkeypatch, capsys):
        # every model is ranked before --out is made, so a failure while
        # ranking the second (family, k) leaves nothing, not the first's model
        split = ingest(tmp_path, data_csv)
        calls = []
        ndcg = edlae.evaluate.ndcg_at_k

        def fail_third(*args):
            calls.append(None)
            if len(calls) == 3:
                raise ValueError("ranking failed")
            return ndcg(*args)

        monkeypatch.setattr(edlae.evaluate, "ndcg_at_k", fail_third)
        out = tmp_path / "run"
        assert main(["train", "--split", str(split), "--out", str(out), "--family", "both",
                     "--ks", "2", "--lambdas", "0.5,2", "--ps", "0.25"]) == 1
        assert capsys.readouterr().err == "error: ranking failed\n"
        assert not out.exists()

    def test_rank_validated_before_compute(self, tmp_path, data_csv, capsys):
        split = ingest(tmp_path, data_csv)
        code = main(["train", "--split", str(split), "--out", str(tmp_path / "r"), "--ks", "99"])
        assert code == 1
        assert "rank" in capsys.readouterr().err

    def test_non_finite_lambda_rejected_then_rerun(self, tmp_path, data_csv, capsys):
        split = ingest(tmp_path, data_csv)
        args = ["train", "--split", str(split), "--out", str(tmp_path / "r"), "--ks", "2"]
        assert main([*args, "--lambdas", "nan"]) == 1
        assert "lam" in capsys.readouterr().err
        # the failed run left no record, so the same --out needs no --force
        assert main([*args, "--lambdas", "1.0"]) == 0
        assert (tmp_path / "r" / "edlae_k2.model").exists()

    def test_zero_lambda_names_untrained_items(self, tmp_path, data_csv, capsys):
        # give one held-out user an item nobody else has: no training user
        # touches it, so diag(G) + Lambda is 0 there at lambda = 0
        first = ingest(tmp_path, data_csv, "first")
        held_user = (first / "test_holdout.csv").read_text().split(",", 1)[0]
        data = tmp_path / "with_lonely.csv"
        data.write_text(data_csv.read_text() + f"{held_user},lonely\n", encoding="utf-8")
        split = ingest(tmp_path, data, "split")
        assert "lonely" not in (split / "train.csv").read_text()
        out = tmp_path / "r"
        args = ["train", "--split", str(split), "--out", str(out), "--ks", "2", "--ps", "0.25"]
        assert main([*args, "--lambdas", "0,1"]) == 2
        err = capsys.readouterr().err
        assert "lonely" in err and "lambda = 0" in err
        assert not out.exists()  # failed before touching --out
        assert main([*args, "--lambdas", "1"]) == 0

    def test_failed_factorization_leaves_no_out(self, tmp_path, capsys):
        # two items, listed first, that every user holds: at lambda = p = 0,
        # G + Lambda is singular, and with 16 training users the factorization
        # meets an exact 0 pivot (16 - (16 / 4)^2) in any rounding
        split = ingest(tmp_path, twins_csv(tmp_path, 26, 1, twins_first=True))
        assert load_split_artifacts(split, ("train",))[0].train.num_users == 16
        out = tmp_path / "r"
        assert main(["train", "--split", str(split), "--out", str(out), "--ks", "2",
                     "--lambdas", "0", "--ps", "0"]) == 2
        assert "not positive definite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("num_users, every, twins_first, twin_count", [
        (22, 1, True, 14), (22, 1, False, 14), (28, 1, True, 16), (28, 1, False, 16),
        (24, 2, False, 8),
    ], ids=["14-first", "14-last", "16-first", "16-last", "every-other-user-last"])
    def test_twin_items_fail_in_any_order(self, tmp_path, capsys, num_users, every,
                                          twins_first, twin_count):
        # G + Lambda is singular at lambda = p = 0 whatever the order of the
        # twin items; where they sit decides only whether rounding leaves
        # Cholesky an exact 0 pivot or a tiny positive one, which the
        # reciprocal condition number bound rejects as well
        split = ingest(tmp_path, twins_csv(tmp_path, num_users, every, twins_first))
        item_ids = [line.split("\t")[0] for line in (split / "items.tsv").read_text().splitlines()]
        train = load_split_artifacts(split, ("train",))[0].train
        assert (train.items == item_ids.index("twin_a")).sum() == twin_count
        out = tmp_path / "r"
        assert main(["train", "--split", str(split), "--out", str(out), "--ks", "2",
                     "--lambdas", "0", "--ps", "0"]) == 2
        err = capsys.readouterr().err
        assert "not positive definite" in err and "reciprocal condition number" in err
        assert not out.exists()

    @pytest.mark.parametrize("option", ["--ks", "--lambdas", "--ps"])
    def test_empty_grid_list_rejected(self, tmp_path, data_csv, capsys, option):
        split = ingest(tmp_path, data_csv)
        out = tmp_path / "r"
        code = main(["train", "--split", str(split), "--out", str(out), option, ""])
        assert code == 1
        assert option in capsys.readouterr().err
        assert not out.exists()  # failed before touching --out

    def test_repeated_rank_rejected_before_out(self, tmp_path, data_csv, capsys):
        # each (family, k) selects and saves one model
        split = ingest(tmp_path, data_csv)
        out = tmp_path / "r"
        assert main(["train", "--split", str(split), "--out", str(out), "--ks", "2,3,3"]) == 1
        err = capsys.readouterr().err
        assert "--ks" in err and "rank 3" in err
        assert not out.exists()

    def test_log_order_and_selection(self, tmp_path, data_csv):
        split = ingest(tmp_path, data_csv)
        out = tmp_path / "run"
        code = main([
            "train", "--split", str(split), "--out", str(out), "--family", "both",
            "--ks", "3,2", "--lambdas", "2.0,0.5", "--ps", "0.5,0.25",
        ])
        assert code == 0
        rows = [line.split("\t") for line in (out / "train_log.tsv").read_text().splitlines()[1:]]
        assert [(r[0], int(r[1]), float(r[2]), float(r[3])) for r in rows] == [
            (f, k, lam, p) for f in ("edlae", "ridge") for k in (3, 2)
            for lam in (2.0, 0.5) for p in (0.5, 0.25)]
        for start in range(0, 16, 4):
            group = rows[start:start + 4]
            ndcg = [float(r[5]) for r in group]
            assert [r[6] for r in group] == [
                "yes" if i == ndcg.index(max(ndcg)) else "no" for i in range(4)]

    def test_first_of_equal_scores_is_selected(self, tmp_path, data_csv):
        # lambda 2 twice: the second half of each (family, k) group repeats
        # the first, score for score
        split = ingest(tmp_path, data_csv)
        out = tmp_path / "run"
        assert main([
            "train", "--split", str(split), "--out", str(out), "--family", "both",
            "--ks", "2,3", "--lambdas", "2,2", "--ps", "0.25,0.5",
        ]) == 0
        rows = [line.split("\t") for line in (out / "train_log.tsv").read_text().splitlines()[1:]]
        assert len(rows) == 2 * 2 * 4
        for start in range(0, len(rows), 4):
            group = rows[start:start + 4]
            assert [r[:6] for r in group[:2]] == [r[:6] for r in group[2:]]
            ndcg = [float(r[5]) for r in group]
            first = ndcg.index(max(ndcg))
            assert first < 2
            assert [r[6] for r in group] == ["yes" if i == first else "no" for i in range(4)]
            family, k, p = group[first][0], group[first][1], float(group[first][3])
            model = serialize.load_model(out / f"{family}_k{k}.model")
            assert (model.config.lam, model.config.dropout_p) == (2.0, p)

    def test_failed_marker_write_leaves_nothing(self, tmp_path, data_csv, monkeypatch):
        split = ingest(tmp_path, data_csv)
        out = tmp_path / "r"
        replace = fail_replace_onto(monkeypatch, "config.resolved.txt")
        args = ["train", "--split", str(split), "--out", str(out), "--ks", "2"]
        assert main(args) == 1
        assert not (out / "config.resolved.txt").exists()
        assert not [p.name for p in out.iterdir() if p.name.endswith(".tmp")]
        monkeypatch.setattr(os, "replace", replace)
        assert main(args) == 0  # no marker, so no --force needed
        assert (out / "config.resolved.txt").exists()

    def test_rerun_identical_model_bytes(self, tmp_path, data_csv):
        split = ingest(tmp_path, data_csv)
        args = ["--split", str(split), "--family", "edlae", "--ks", "2", "--lambdas", "1.0"]
        assert main(["train", "--out", str(tmp_path / "r1"), *args]) == 0
        assert main(["train", "--out", str(tmp_path / "r2"), *args]) == 0
        a = (tmp_path / "r1" / "edlae_k2.model").read_bytes()
        b = (tmp_path / "r2" / "edlae_k2.model").read_bytes()
        assert a == b

    def test_blas_thread_count_moves_objectives_only_in_their_last_bits(self, tmp_path):
        # A grid of 16 models on 300 items, trained at 1 and at 2 BLAS threads:
        # every model's bytes differ, but the selections and validation nDCG
        # are equal.  Objectives differed by at most 3.6e-16 relative here
        # and by at most 7.1e-16 over eight such inputs; the bound is 4e-15.
        rng = np.random.default_rng(0)
        pop = rng.permutation(1.0 / np.arange(1, 301))
        lines = [f"u{u},i{i}" for u in range(1500)
                 for i in rng.choice(300, size=int(rng.integers(5, 30)), replace=False,
                                     p=pop / pop.sum())]
        data = tmp_path / "grid.csv"
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        split = ingest(tmp_path, data)
        src = os.path.dirname(os.path.dirname(edlae.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        logs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads)
            subprocess.run([sys.executable, "-m", "edlae.cli", "train", "--split", str(split),
                            "--out", str(out), "--family", "both", "--ks", "8,32",
                            "--lambdas", "2,32", "--ps", "0.25,0.5"],
                           env=env, check=True, capture_output=True, timeout=300)
            logs.append([line.split("\t") for line in
                         (out / "train_log.tsv").read_text().splitlines()[1:]])
        one, two = logs
        assert len(one) == 16 and [r[:4] + r[5:] for r in one] == [r[:4] + r[5:] for r in two]
        for a, b in zip(one, two):
            assert abs(float(a[4]) - float(b[4])) <= 4e-15 * float(a[4])

    def test_scipy_imported_before_the_split_is_read(self, tmp_path, data_csv):
        # In a fresh process: the first library call already finds scipy
        # loaded, so a tracer does not count its import in a layer's span.
        split, out = str(ingest(tmp_path, data_csv)), str(tmp_path / "run")
        code = f"""
import sys
from edlae import dataset
from edlae.cli import main
seen, load = [], dataset.load_split_artifacts
def probe(*args, **kwargs):
    seen.append([m for m in ("scipy.linalg", "scipy.sparse") if m in sys.modules])
    return load(*args, **kwargs)
dataset.load_split_artifacts = probe
assert main(["train", "--split", {split!r}, "--out", {out!r}, "--ks", "2"]) == 0
print(seen)
"""
        assert TestNoScipy.run_python(code) == "[['scipy.linalg', 'scipy.sparse']]"

    def test_train_and_eval_open_no_csv_or_user_map(self, tmp_path, data_csv):
        # In a fresh process, an audit hook sees every file train and eval open.
        split, run, metrics = str(ingest(tmp_path, data_csv)), str(tmp_path / "run"), str(tmp_path / "m")
        code = f"""
import os, sys
from edlae.cli import main
opened = set()
def hook(event, args):
    if event == "open" and isinstance(args[0], str) and os.path.dirname(args[0]) == {split!r}:
        opened.add(os.path.basename(args[0]))
sys.addaudithook(hook)
assert main(["train", "--split", {split!r}, "--out", {run!r}, "--ks", "2"]) == 0
assert main(["eval", "--split", {split!r}, "--out", {metrics!r},
             "--models", os.path.join({run!r}, "edlae_k2.model")]) == 0
print(sorted(opened))
"""
        assert TestNoScipy.run_python(code) == str([
            "items.tsv", "manifest.txt", "test_foldin.npy", "test_holdout.npy", "train.npy",
            "validation_foldin.npy", "validation_holdout.npy"])

    def test_config_file_with_flag_override(self, tmp_path, data_csv):
        split = ingest(tmp_path, data_csv)
        config = tmp_path / "job.cfg"
        config.write_text(
            f"split = {split}\nfamily = edlae\nks = 2\nlambdas = 0.5,2.0\nps = 0.25\n",
            encoding="utf-8",
        )
        out = tmp_path / "cfgrun"
        code = main(["train", "--config", str(config), "--out", str(out), "--ks", "3"])
        assert code == 0
        assert (out / "edlae_k3.model").exists()  # flag overrode ks = 2
        resolved = (out / "config.resolved.txt").read_text()
        assert "ks = 3" in resolved


class TestOptions:
    @pytest.mark.parametrize("argv, flag", [
        (["train", "--ks", "a,b"], "--ks"),
        (["train", "--lambdas", "1,x"], "--lambdas"),
        (["ingest", "--binarize", "maybe"], "--binarize"),
        (["verify", "--ks", "x"], "--ks"),
        # the record joins --models with commas, so it could not repeat this run
        (["eval", "--models", "a.model", "a,b.model"], "--models"),
        # numpy's generators take no negative seed
        (["ingest", "--seed", "-1"], "--seed"),
        # lambda is finite and >= 0, and p in [0, 1), checked before the split is read
        (["train", "--lambdas", "1,nan"], "--lambdas"),
        (["train", "--lambdas", "-1"], "--lambdas"),
        (["train", "--ps", "0.5,1"], "--ps"),
    ])
    def test_malformed_flag_value_is_an_error_line(self, argv, flag, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag}: ")
        assert "Traceback" not in err and err.count("\n") == 1

    @pytest.mark.parametrize("key, value", [("lambdas", "inf"), ("ps", "-0.25")])
    def test_out_of_range_config_value_names_file_and_key(self, tmp_path, key, value, capsys):
        config = tmp_path / "job.cfg"
        config.write_text(f"split = {tmp_path / 'absent'}\n{key} = {value}\n", encoding="utf-8")
        out = tmp_path / "run"
        assert main(["train", "--config", str(config), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {config}: {key}: expected ")
        assert not out.exists()

    def test_unknown_config_key_rejected_before_out(self, tmp_path, data_csv, capsys):
        split = ingest(tmp_path, data_csv)
        config = tmp_path / "job.cfg"
        config.write_text(f"split = {split}\nlambda = 50\nk = 3\n", encoding="utf-8")
        out = tmp_path / "run"
        assert main(["train", "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert str(config) in err and "'lambda'" in err and "'k'" in err
        assert not out.exists()

    def test_repeated_config_key_rejected_before_out(self, tmp_path, data_csv, capsys):
        split = ingest(tmp_path, data_csv)
        config = tmp_path / "dup.cfg"
        config.write_text(f"split = {split}\nks = 2\nks = 3\n", encoding="utf-8")
        out = tmp_path / "run"
        assert main(["train", "--config", str(config), "--out", str(out)]) == 1
        assert f"error: {config}, line 3: repeated key 'ks'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name, ks", [
        ("sp#x", "ks = 2"),  # a '#' inside a value is part of it
        ("split", "ks = 2  # rank"),  # a '#' after whitespace starts a comment
        ("split", "# rank\n\tks = 2\t# rank"),
    ])
    def test_hash_starts_a_comment_only_after_whitespace(self, tmp_path, data_csv, name, ks):
        split = ingest(tmp_path, data_csv, name=name)
        config = tmp_path / "job.cfg"
        config.write_text(f"split = {split}\n{ks}\n", encoding="utf-8")
        out = tmp_path / "run"
        assert main(["train", "--config", str(config), "--out", str(out)]) == 0
        assert [p.name for p in out.glob("*.model")] == ["edlae_k2.model"]
        resolved = (out / "config.resolved.txt").read_text(encoding="utf-8")
        assert f"split = {split}\n" in resolved and "ks = 2\n" in resolved

    def test_record_reads_back_as_config(self, tmp_path, data_csv):
        """A run's config.resolved.txt without its command line, given back as
        --config, makes the same run: the record's writer and the config
        file's reader agree."""
        split, trained = ingest(tmp_path, data_csv), tmp_path / "train_flags"
        flags = {
            "ingest": ["--data", str(data_csv), "--format", "csv", "--binarize", "yes",
                       "--validation-fraction", "0.2", "--test-fraction", "0.2",
                       "--foldin-fraction", "0.7", "--seed", "5"],
            "train": ["--split", str(split), "--family", "both", "--ks", "3,2",
                      "--lambdas", "0.5,2", "--ps", "0.25,0.5"],
            "eval": ["--split", str(split), "--models", str(trained / "edlae_k2.model"),
                     str(trained / "ridge_k3.model")],
        }
        for command, argv in flags.items():
            first, again = tmp_path / f"{command}_flags", tmp_path / f"{command}_config"
            assert main([command, "--out", str(first), *argv]) == 0
            record = (first / "config.resolved.txt").read_text(encoding="utf-8").splitlines()
            assert record[0] == f"command = {command}"
            config = tmp_path / f"{command}.cfg"
            config.write_text("".join(line + "\n" for line in record[1:]), encoding="utf-8")
            assert main([command, "--config", str(config), "--out", str(again)]) == 0
            names = sorted(p.name for p in first.iterdir())
            assert names == sorted(p.name for p in again.iterdir())
            for name in names:
                assert (first / name).read_bytes() == (again / name).read_bytes(), (command, name)

    def test_train_config_equals_flags(self, tmp_path, data_csv):
        split = ingest(tmp_path, data_csv)
        options = {"family": "both", "ks": "3,2", "lambdas": "0.5,2", "ps": "0.25,0.5"}
        flags = [f"--{key}={value}" for key, value in options.items()]
        assert main(["train", "--split", str(split), "--out", str(tmp_path / "flags"),
                     *flags]) == 0
        config = tmp_path / "job.cfg"
        config.write_text(
            f"out = {tmp_path / 'config'}\nsplit = {split}\n"
            + "".join(f"{key} = {value}\n" for key, value in options.items()),
            encoding="utf-8",
        )
        assert main(["train", "--config", str(config)]) == 0
        names = sorted(p.name for p in (tmp_path / "flags").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "config").iterdir())
        assert "config.resolved.txt" in names and "ridge_k2.model" in names
        for name in names:
            assert ((tmp_path / "flags" / name).read_bytes()
                    == (tmp_path / "config" / name).read_bytes()), name

    def test_eval_models_from_config(self, tmp_path, data_csv):
        split = ingest(tmp_path, data_csv)
        run = tmp_path / "run"
        assert main(["train", "--split", str(split), "--out", str(run), "--family", "both",
                     "--ks", "2"]) == 0
        models = [str(run / "edlae_k2.model"), str(run / "ridge_k2.model")]
        assert main(["eval", "--split", str(split), "--out", str(tmp_path / "flags"),
                     "--models", *models]) == 0
        config = tmp_path / "eval.cfg"
        config.write_text(f"split = {split}\nmodels = {','.join(models)}\n", encoding="utf-8")
        assert main(["eval", "--config", str(config), "--out", str(tmp_path / "config")]) == 0
        for name in ("metrics.jsonl", "config.resolved.txt"):
            assert ((tmp_path / "flags" / name).read_bytes()
                    == (tmp_path / "config" / name).read_bytes())


class TestEval:
    def test_metrics_emitted(self, tmp_path, data_csv, capsys):
        split = ingest(tmp_path, data_csv)
        run = tmp_path / "run"
        main([
            "train", "--split", str(split), "--out", str(run),
            "--family", "both", "--ks", "2", "--lambdas", "1.0", "--ps", "0.25",
        ])
        out = tmp_path / "metrics"
        code = main([
            "eval", "--split", str(split), "--out", str(out),
            "--models", str(run / "edlae_k2.model"), str(run / "ridge_k2.model"),
        ])
        assert code == 0
        rows = [json.loads(line) for line in (out / "metrics.jsonl").read_text().strip().split("\n")]
        assert len(rows) == 6  # 2 models x (ndcg@100, recall@20, recall@50)
        ids = {r["model_id"] for r in rows}
        assert ids == {"edlae_k2", "ridge_k2"}
        for row in rows:
            assert 0.0 <= row["mean"] <= 1.0 and row["stderr"] >= 0.0
        table = (out / "metrics.txt").read_text()
        assert "ndcg" in table and "recall" in table

    def test_corrupt_model_is_named(self, tmp_path, data_csv, capsys):
        split = ingest(tmp_path, data_csv)
        run = tmp_path / "run"
        assert main(["train", "--split", str(split), "--out", str(run), "--family", "both",
                     "--ks", "2"]) == 0
        bad = run / "ridge_k2.model"
        bad.write_bytes(b"XXXX" + bad.read_bytes()[4:])
        capsys.readouterr()
        out = tmp_path / "m"
        assert main(["eval", "--split", str(split), "--out", str(out), "--models",
                     str(run / "edlae_k2.model"), str(bad)]) == 1
        assert capsys.readouterr().err == f"error: {bad}: bad magic b'XXXX'\n"
        assert not (out / "config.resolved.txt").exists()

    def test_model_that_does_not_fit_the_split_is_named(self, tmp_path, data_csv, capsys,
                                                         monkeypatch):
        split = ingest(tmp_path, data_csv)
        run = tmp_path / "run"
        assert main(["train", "--split", str(split), "--out", str(run), "--ks", "2"]) == 0
        wide = tmp_path / "wide.model"  # 9 items against the split's 8
        serialize.save_model(wide, LowRankModel(u=np.ones((9, 2)), v=np.ones((9, 2)),
                                                config=EdlaeConfig(lam=1.0, dropout_p=0.25)))
        scored = []
        score_blocks = edlae.evaluate._score_blocks
        monkeypatch.setattr(edlae.evaluate, "_score_blocks",
                            lambda model, *args: scored.append(model.u.shape[0])
                            or score_blocks(model, *args))
        capsys.readouterr()
        out = tmp_path / "m"
        assert main(["eval", "--split", str(split), "--out", str(out), "--models",
                     str(run / "edlae_k2.model"), str(wide)]) == 1
        assert capsys.readouterr().err == (
            f"error: {wide}: model covers 9 items, split {split} has 8\n")
        assert scored == []  # every model is loaded and checked before any is scored
        assert not out.exists()

    def test_each_user_ranked_once_per_model(self, tmp_path, data_csv, monkeypatch):
        split = ingest(tmp_path, data_csv)
        run = tmp_path / "run"
        assert main(["train", "--split", str(split), "--out", str(run), "--family", "both",
                     "--ks", "2"]) == 0
        test_users = len(load_split_artifacts(split, ("test",))[0].test_users)
        monkeypatch.setattr(edlae.evaluate, "_BLOCK_ROWS", 2)
        calls = []
        ranked = edlae.evaluate._top_lists
        monkeypatch.setattr(edlae.evaluate, "_top_lists", lambda scores, cutoff: calls.append(
            (scores.shape[0], cutoff)) or ranked(scores, cutoff))
        assert main(["eval", "--split", str(split), "--out", str(tmp_path / "m"), "--models",
                     str(run / "edlae_k2.model"), str(run / "ridge_k2.model")]) == 0
        # every test user's list is formed once per model, 8 (all) items long
        assert sum(rows for rows, _ in calls) == 2 * test_users
        assert {width for _, width in calls} == {8}

    def test_eval_holds_no_score_matrix(self, tmp_path, data_csv, monkeypatch):
        split = ingest(tmp_path, data_csv)
        run = tmp_path / "run"
        assert main(["train", "--split", str(split), "--out", str(run), "--ks", "2"]) == 0
        calls = []
        scored = edlae.evaluate.score_users
        monkeypatch.setattr(edlae.evaluate, "score_users",
                            lambda *args: calls.append(args) or scored(*args))
        assert main(["eval", "--split", str(split), "--out", str(tmp_path / "m"), "--models",
                     str(run / "edlae_k2.model")]) == 0
        # eval scores and ranks block by block (model_metrics), never users x items at once
        assert calls == []

    def test_nan_scores_name_the_model_and_leave_no_out(self, tmp_path, data_csv, capsys):
        # finite factors whose scores are inf - inf: a fold-in user with two
        # or more items has an X U row of (inf, inf), as 2e308 overflows,
        # and every item's V row is (1, -1)
        split = ingest(tmp_path, data_csv)
        run = tmp_path / "run"
        assert main(["train", "--split", str(split), "--out", str(run), "--ks", "2"]) == 0
        nan = tmp_path / "nan.model"
        serialize.save_model(nan, LowRankModel(
            u=np.full((8, 2), 1e308), v=np.tile([1.0, -1.0], (8, 1)),
            config=EdlaeConfig(lam=1.0, dropout_p=0.25)))
        capsys.readouterr()
        out = tmp_path / "m"
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["eval", "--split", str(split), "--out", str(out), "--models",
                         str(run / "edlae_k2.model"), str(nan)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {nan}: scores contain NaN")
        assert captured.out == ""
        assert not out.exists()

    def test_infinite_scores_name_the_model_and_leave_no_out(self, tmp_path, data_csv, capsys):
        # finite factors and a finite X U whose scores overflow: each product
        # c 1e300 * 1e300 - c 1e300 * 1e300 is +inf, -inf or inf - inf,
        # depending on how the BLAS fuses it; before the check ran ahead of
        # the fold-in mask, an infinity was ranked as a score or a mask
        split = ingest(tmp_path, data_csv)
        run = tmp_path / "run"
        assert main(["train", "--split", str(split), "--out", str(run), "--ks", "2"]) == 0
        huge = tmp_path / "huge.model"
        serialize.save_model(huge, LowRankModel(
            u=np.full((8, 2), 1e300), v=np.tile([1e300, -1e300], (8, 1)),
            config=EdlaeConfig(lam=1.0, dropout_p=0.25)))
        capsys.readouterr()
        out = tmp_path / "m"
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["eval", "--split", str(split), "--out", str(out), "--models",
                         str(run / "edlae_k2.model"), str(huge)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {huge}: scores contain NaN or an infinity")
        assert "non-finite" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_corrupt_model(self, tmp_path, data_csv, capsys):
        split = ingest(tmp_path, data_csv)
        bad = tmp_path / "bad.model"
        bad.write_bytes(b"JUNKJUNKJUNK")
        code = main(["eval", "--split", str(split), "--out", str(tmp_path / "m"),
                     "--models", str(bad)])
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [b"EDLR\x01", None], ids=["5-bytes", "missing"])
    def test_unreadable_model_leaves_no_out(self, tmp_path, data_csv, capsys, content):
        split = ingest(tmp_path, data_csv)
        run = tmp_path / "run"
        assert main(["train", "--split", str(split), "--out", str(run), "--ks", "2"]) == 0
        bad = tmp_path / "bad.model"
        if content is not None:
            bad.write_bytes(content)
        capsys.readouterr()
        out = tmp_path / "m"
        assert main(["eval", "--split", str(split), "--out", str(out), "--models",
                     str(run / "edlae_k2.model"), str(bad)]) == 1
        assert str(bad) in capsys.readouterr().err
        assert not out.exists()

    def test_failed_run_does_not_block_rerun(self, tmp_path, data_csv):
        split = ingest(tmp_path, data_csv)
        run = tmp_path / "run"
        main(["train", "--split", str(split), "--out", str(run), "--ks", "2"])
        bad = tmp_path / "bad.model"
        bad.write_bytes(b"JUNKJUNKJUNK")
        out = tmp_path / "m"
        args = ["eval", "--split", str(split), "--out", str(out), "--models"]
        assert main([*args, str(bad)]) == 1
        assert not (out / "config.resolved.txt").exists()
        assert main([*args, str(run / "edlae_k2.model")]) == 0
        assert (out / "config.resolved.txt").exists()

    def test_repeated_model_id_rejected_before_out(self, tmp_path, data_csv, capsys):
        # rows name a model by its file name without the extension, so two
        # runs' edlae_k2.model would give two edlae_k2 rows
        split = ingest(tmp_path, data_csv)
        for run, lam in (("run1", "0.5"), ("run2", "2.0")):
            assert main(["train", "--split", str(split), "--out", str(tmp_path / run),
                         "--ks", "2", "--lambdas", lam]) == 0
        capsys.readouterr()
        out = tmp_path / "m"
        assert main(["eval", "--split", str(split), "--out", str(out), "--models",
                     str(tmp_path / "run1" / "edlae_k2.model"),
                     str(tmp_path / "run2" / "edlae_k2.model")]) == 1
        err = capsys.readouterr().err
        assert "--models" in err and "'edlae_k2'" in err
        assert not out.exists()

    def test_missing_split_fails_before_out(self, tmp_path, data_csv, capsys):
        split = ingest(tmp_path, data_csv)
        run = tmp_path / "run"
        assert main(["train", "--split", str(split), "--out", str(run), "--ks", "2"]) == 0
        capsys.readouterr()
        out = tmp_path / "m"
        assert main(["eval", "--split", str(tmp_path / "absent"), "--out", str(out), "--models",
                     str(run / "edlae_k2.model")]) == 1
        assert "absent" in capsys.readouterr().err
        assert not out.exists()  # as train, eval reads its split before touching --out


def rewrite(split, name, edit):
    """Save ``edit`` of the array in the .npy file ``name`` of ``split``, C-ordered,
    in its place."""
    path = split / name
    np.save(path, np.ascontiguousarray(edit(np.load(path))))


def set_at(index, value):
    """An edit that sets ``array[index] = value`` in a copy."""
    def edit(array):
        array = array.copy()
        array[index] = value
        return array
    return edit


def drop_last_user(pairs):
    return pairs[:, pairs[0] != pairs[0, -1]]


def truncate(path):
    path.write_bytes(path.read_bytes()[:-3])


def npz_bytes(array):
    buffer = io.BytesIO()
    np.savez(buffer, array=array)
    return buffer.getvalue()


def npy_header(descr, shape):
    """A .npy header that claims a C-ordered ``descr`` array of ``shape``."""
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(
        header, {"descr": descr, "fortran_order": False, "shape": shape})
    return header.getvalue()


# (binarize, edit of the split directory, error): each fault of a part's
# arrays that ``train`` must reject, naming the file.
ARRAY_FAULTS = {
    "truncated": (True, lambda d: truncate(d / "train.npy"),
                  "train.npy: not a readable .npy array: Failed to read all data"),
    "empty": (True, lambda d: (d / "validation_foldin.npy").write_bytes(b""),
              "validation_foldin.npy: not a readable .npy array"),
    "huge-header": (True, lambda d: (d / "train.npy").write_bytes(
        npy_header("<i8", (2, 10**15)) + bytes(64)),
                    "train.npy: not a readable .npy array: Unable to allocate"),
    "pickled": (True, lambda d: np.save(d / "train.npy", np.array([1, "a"], dtype=object)),
                "train.npy: not a readable .npy array: Object arrays cannot be loaded"),
    "archive": (True, lambda d: (d / "train.npy").write_bytes(npz_bytes(np.zeros((2, 1), "<i8"))),
                "train.npy: not a readable .npy array: an .npz archive, not an array"),
    "int32": (True, lambda d: rewrite(d, "train.npy", lambda pairs: pairs.astype("<i4")),
              "train.npy: expected a C-ordered <i8 array of shape (2, -1), "
              "got a C-ordered <i4 array"),
    "transposed": (True, lambda d: rewrite(d, "validation_holdout.npy", np.transpose),
                   "validation_holdout.npy: expected a C-ordered <i8 array of shape (2, -1), "
                   "got a C-ordered <i8 array of shape ("),
    "fortran": (True, lambda d: np.save(d / "train.npy",
                                        np.asfortranarray(np.load(d / "train.npy"))),
                "train.npy: expected a C-ordered <i8 array of shape (2, -1), "
                "got a Fortran-ordered <i8 array"),
    "fewer-users": (True, lambda d: rewrite(d, "validation_foldin.npy", drop_last_user),
                    "manifest.txt: validation_foldin.npy holds 4 users, "
                    "manifest says validation_users = 5"),
    "user-out-of-range": (True, lambda d: rewrite(d, "train.npy", set_at((0, -1), 24)),
                          "train.npy: user index outside [0, 24)"),
    "user-decreases": (True, lambda d: rewrite(d, "train.npy", set_at((0, 0), 23)),
                       "train.npy: user indices decrease"),
    "item-out-of-range": (True, lambda d: rewrite(d, "train.npy", set_at((1, 0), 8)),
                          "train.npy: item index out of range"),
    "repeated-pair": (True, lambda d: rewrite(d, "validation_foldin.npy", lambda pairs: np.insert(
        pairs, 1, pairs[:, 0], axis=1)), "validation_foldin.npy: duplicate (user, item) pair"),
    "values-in-binarized-split": (True, lambda d: np.save(d / "validation_holdout.values.npy",
                                                          np.full(3, 2.0)),
                                  "validation_holdout.values.npy: a binarized split has no "
                                  "values file"),
    "values-missing": (False, lambda d: os.remove(d / "train.values.npy"),
                       "train.values.npy: not a readable .npy array: [Errno 2]"),
    "values-wrong-length": (False, lambda d: rewrite(d, "train.values.npy", lambda v: v[1:]),
                            "train.values.npy: expected a C-ordered <f8 array of shape ("),
    "non-positive-value": (False, lambda d: rewrite(d, "validation_holdout.values.npy",
                                                    set_at(0, 0.0)),
                           "validation_holdout.values.npy: values must be positive and finite"),
    "non-finite-value": (False, lambda d: rewrite(d, "validation_holdout.values.npy",
                                                  set_at(-1, np.nan)),
                         "validation_holdout.values.npy: values must be positive and finite"),
}


class TestSplitFiles:
    def trained(self, tmp_path, data_csv):
        split = ingest(tmp_path, data_csv)
        run = tmp_path / "run"
        args = ["--family", "both", "--ks", "2", "--lambdas", "0.5,2.0", "--ps", "0.25"]
        assert main(["train", "--split", str(split), "--out", str(run), *args]) == 0
        return split, run, args

    def test_eval_reads_only_test_files(self, tmp_path, data_csv):
        split, run, _ = self.trained(tmp_path, data_csv)
        models = [str(run / "edlae_k2.model"), str(run / "ridge_k2.model")]
        assert main(["eval", "--split", str(split), "--out", str(tmp_path / "m1"),
                     "--models", *models]) == 0
        for part in ("train", "validation_foldin", "validation_holdout"):
            os.remove(split / f"{part}.csv")
            os.remove(split / f"{part}.npy")
        assert main(["eval", "--split", str(split), "--out", str(tmp_path / "m2"),
                     "--models", *models]) == 0
        assert ((tmp_path / "m1" / "metrics.jsonl").read_bytes()
                == (tmp_path / "m2" / "metrics.jsonl").read_bytes())

    def test_train_reads_only_train_and_validation_files(self, tmp_path, data_csv):
        split, run, args = self.trained(tmp_path, data_csv)
        for name in ("test_foldin.csv", "test_holdout.csv", "test_foldin.npy", "test_holdout.npy"):
            os.remove(split / name)
        again = tmp_path / "again"
        assert main(["train", "--split", str(split), "--out", str(again), *args]) == 0
        assert (again / "train_log.tsv").read_bytes() == (run / "train_log.tsv").read_bytes()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_edited_text_files_change_nothing(self, tmp_path, data_csv, command):
        # train and eval read the arrays; the CSVs and users.tsv are for other tools.
        split, run, args = self.trained(tmp_path, data_csv)
        models = ["edlae_k2.model", "ridge_k2.model"]
        assert main(["eval", "--split", str(split), "--out", str(tmp_path / "m1"),
                     "--models", *(str(run / m) for m in models)]) == 0
        (split / "train.csv").write_text("nobody,nothing,abc\n", encoding="utf-8")
        (split / "test_foldin.csv").write_text("", encoding="utf-8")
        lines = (split / "users.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
        lines[2] = lines[2].replace("\t", " ")
        (split / "users.tsv").write_text("".join(lines[1:]), encoding="utf-8")
        if command == "train":
            again = tmp_path / "again"
            assert main(["train", "--split", str(split), "--out", str(again), *args]) == 0
            for name in ("train_log.tsv", *models):
                assert (again / name).read_bytes() == (run / name).read_bytes()
        else:
            assert main(["eval", "--split", str(split), "--out", str(tmp_path / "m2"),
                         "--models", *(str(run / m) for m in models)]) == 0
            assert ((tmp_path / "m2" / "metrics.jsonl").read_bytes()
                    == (tmp_path / "m1" / "metrics.jsonl").read_bytes())

    def test_truncated_item_map_fails_train(self, tmp_path, data_csv, capsys):
        split = ingest(tmp_path, data_csv)
        lines = (split / "items.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
        (split / "items.tsv").write_text("".join(lines[:-1]), encoding="utf-8")
        out = tmp_path / "run"
        assert main(["train", "--split", str(split), "--out", str(out), "--ks", "2"]) == 1
        assert (f"error: manifest.txt: items.tsv holds {len(lines) - 1} ids, "
                f"manifest says num_items = {len(lines)}" in capsys.readouterr().err)
        assert not out.exists()

    def test_truncated_holdout_fails_eval_only(self, tmp_path, data_csv, capsys):
        split, run, _ = self.trained(tmp_path, data_csv)
        test_users = len(load_split_artifacts(split, ("test",))[0].test_users)
        rewrite(split, "test_holdout.npy", drop_last_user)
        code = main(["eval", "--split", str(split), "--out", str(tmp_path / "m"),
                     "--models", str(run / "edlae_k2.model")])
        assert code == 1
        assert (f"error: manifest.txt: test_holdout.npy holds {test_users - 1} users, "
                f"manifest says test_users = {test_users}" in capsys.readouterr().err)
        assert main(["train", "--split", str(split), "--out", str(tmp_path / "r2"),
                     "--ks", "2"]) == 0

    @pytest.mark.parametrize("edit, error", [
        # a stale count before the true one: neither may win silently
        (lambda lines: lines[:6] + ["num_items = 5\n"] + lines[6:],
         "error: manifest.txt, line 8: repeated key 'num_items'"),
        (lambda lines: lines[1:],
         "error: manifest.txt, line 1: expected 'edlae split manifest v2', got 'seed = 3'"),
        (lambda lines: lines[:7] + ["binarized = yes\n"] + lines[8:],
         "error: manifest.txt: binarized must be true or false, got 'yes'"),
        (lambda lines: lines[:7] + lines[8:],
         "error: manifest.txt: binarized must be true or false, got None"),
    ], ids=["repeated-key", "no-header", "binarized-yes", "no-binarized"])
    def test_bad_manifest_names_file_and_line(self, tmp_path, data_csv, capsys, edit, error):
        split = ingest(tmp_path, data_csv)
        path = split / "manifest.txt"
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        assert lines[6].startswith("num_items = ") and lines[7] == "binarized = true\n"
        path.write_text("".join(edit(lines)), encoding="utf-8")
        out = tmp_path / "run"
        assert main(["train", "--split", str(split), "--out", str(out), "--ks", "2"]) == 1
        assert error in capsys.readouterr().err
        assert not out.exists()

    def test_split_of_the_old_format_fails_early(self, tmp_path, data_csv, capsys):
        # A split written before the index arrays: a v1 manifest and no .npy files.
        split, run, _ = self.trained(tmp_path, data_csv)
        path = split / "manifest.txt"
        path.write_text(path.read_text(encoding="utf-8").replace(" v2\n", " v1\n", 1),
                        encoding="utf-8")
        for name in os.listdir(split):
            if name.endswith(".npy"):
                os.remove(split / name)
        capsys.readouterr()
        error = ("error: manifest.txt, line 1: expected 'edlae split manifest v2', "
                 "got 'edlae split manifest v1'")
        assert main(["train", "--split", str(split), "--out", str(tmp_path / "r"),
                     "--ks", "2"]) == 1
        assert error in capsys.readouterr().err
        assert main(["eval", "--split", str(split), "--out", str(tmp_path / "m"),
                     "--models", str(run / "edlae_k2.model")]) == 1
        assert error in capsys.readouterr().err

    @pytest.mark.parametrize("fault", ARRAY_FAULTS)
    def test_array_fault_names_the_file(self, tmp_path, data_csv, capsys, fault):
        binarize, edit, error = ARRAY_FAULTS[fault]
        split = ingest(tmp_path, data_csv, binarize=binarize)
        edit(split)
        capsys.readouterr()
        out = tmp_path / "run"
        assert main(["train", "--split", str(split), "--out", str(out), "--ks", "2"]) == 1
        assert f"error: {error}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name, edit, error", [
        # swapped lines would move every interaction of two items
        ("items.tsv", lambda lines: [lines[1], lines[0], *lines[2:]],
         "error: items.tsv, line 1: expected index 0, got '1'"),
        ("items.tsv", lambda lines: [lines[0], lines[0].replace("\t0", "\t1"), *lines[2:]],
         "error: items.tsv, line 2: id '{first}' repeats index 0"),
    ], ids=["swapped-items", "repeated-item"])
    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_id_map_index_and_repeats_checked(self, tmp_path, data_csv, capsys, command,
                                              name, edit, error):
        split, run, _ = self.trained(tmp_path, data_csv)
        path = split / name
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text("".join(edit(lines)), encoding="utf-8")
        capsys.readouterr()
        options = {"train": ["--ks", "2"], "eval": ["--models", str(run / "edlae_k2.model")]}
        out = tmp_path / "out"
        assert main([command, "--split", str(split), "--out", str(out), *options[command]]) == 1
        assert error.format(first=lines[0].split("\t")[0]) in capsys.readouterr().err
        assert not (out / "config.resolved.txt").exists()

    def test_foldin_and_holdout_users_differ(self, tmp_path, data_csv, capsys):
        split, run, _ = self.trained(tmp_path, data_csv)
        last_user = int(np.load(split / "test_holdout.npy")[0, -1])
        train_user = int(np.load(split / "train.npy")[0, 0])

        def swap(pairs):
            # same user count as the manifest says, but one user swapped for a train user
            pairs = pairs.copy()
            pairs[0][pairs[0] == last_user] = train_user
            return pairs[:, np.lexsort(pairs[::-1])]

        rewrite(split, "test_holdout.npy", swap)
        capsys.readouterr()
        code = main(["eval", "--split", str(split), "--out", str(tmp_path / "m"),
                     "--models", str(run / "edlae_k2.model")])
        assert code == 1
        assert ("error: test_foldin.npy and test_holdout.npy hold different users"
                in capsys.readouterr().err)

    # Ids as ingest accepts them: no comma, tab or line break, and no
    # surrounding whitespace (ingest strips it).
    _ID = st.text(
        alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters=",\t\n\r"),
        min_size=1, max_size=6,
    ).map(str.strip).filter(bool)

    @settings(max_examples=25, deadline=None)
    @given(users=st.lists(_ID, min_size=12, max_size=12, unique=True),
           items=st.lists(_ID, min_size=5, max_size=5, unique=True),
           seed=st.integers(0, 2**16))
    def test_accepted_ids_round_trip(self, users, items, seed):
        rng = np.random.default_rng(seed)
        # A first line that is not a header; uid0 also touches every item, so
        # each one is written whichever items the users below draw.
        lines = ["uid0,iid0", *(f"uid0,{item}" for item in items)]
        for user in users:
            # choose indices: a numpy string array would drop trailing NULs
            for item in map(items.__getitem__, rng.choice(len(items), size=3, replace=False)):
                lines.append(f"{user},{item}")
        with tempfile.TemporaryDirectory() as tmp:
            data = os.path.join(tmp, "data.csv")
            with open(data, "w", encoding="utf-8", newline="") as handle:
                handle.write("\n".join(lines) + "\n")
            split = os.path.join(tmp, "split")
            assert main(["ingest", "--data", data, "--out", split, "--validation-fraction",
                         "0.2", "--test-fraction", "0.2", "--seed", "1"]) == 0
            run = os.path.join(tmp, "run")
            assert main(["train", "--split", split, "--out", run, "--ks", "2"]) == 0
            assert main(["eval", "--split", split, "--out", os.path.join(tmp, "m"),
                         "--models", os.path.join(run, "edlae_k2.model")]) == 0
            matrix, user_ids, item_ids = load_interactions(data)
            assert dataset._read_id_map(os.path.join(split, "users.tsv")) == user_ids
            want = split_strong_generalization(matrix, SplitSpec(0.2, 0.2, seed=1))
            for groups, parts in ((("train", "validation"),
                                   ("train", "validation_foldin", "validation_holdout")),
                                  (("test",), ("test_foldin", "test_holdout"))):
                got, got_items = load_split_artifacts(split, groups)
                assert got_items == item_ids
                for name in parts:
                    a, b = getattr(got, name), getattr(want, name)
                    np.testing.assert_array_equal(a.users, b.users)
                    np.testing.assert_array_equal(a.items, b.items)
        assert set(user_ids) == set(users) | {"uid0"}
        assert set(item_ids) == set(items) | {"iid0"}


class TestNoScipy:
    """ingest and eval run on numpy alone: they must not load any scipy module."""

    @staticmethod
    def run_python(code):
        src = os.path.dirname(os.path.dirname(edlae.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        return done.stdout.strip().splitlines()[-1]

    _SCIPY_MODULES = "sorted(m for m in sys.modules if m.startswith('scipy'))"

    def test_import_loads_no_scipy(self):
        assert self.run_python(f"import sys, edlae, edlae.cli; print({self._SCIPY_MODULES})") == "[]"

    def test_ingest_and_eval_load_no_scipy(self, tmp_path, data_csv):
        split = ingest(tmp_path, data_csv)
        run = tmp_path / "run"
        assert main(["train", "--split", str(split), "--out", str(run), "--ks", "2"]) == 0
        model = str(run / "edlae_k2.model")
        assert main(["eval", "--split", str(split), "--out", str(tmp_path / "m"),
                     "--models", model]) == 0
        # The same ingest again (same seed, same split) and eval, in a fresh process.
        again, metrics = str(tmp_path / "again"), str(tmp_path / "m2")
        code = f"""
import sys
from edlae.cli import main
assert main(["ingest", "--data", {str(data_csv)!r}, "--out", {again!r},
             "--validation-fraction", "0.2", "--test-fraction", "0.2", "--seed", "3"]) == 0
assert main(["eval", "--split", {again!r}, "--out", {metrics!r}, "--models", {model!r}]) == 0
print({self._SCIPY_MODULES})
"""
        assert self.run_python(code) == "[]"
        assert ((tmp_path / "m2" / "metrics.jsonl").read_bytes()
                == (tmp_path / "m" / "metrics.jsonl").read_bytes())


SMALL_VERIFY = ["verify", "--m", "12", "--n", "8", "--ks", "2", "--trials", "4",
                "--steps", "40", "--restarts", "1"]


def canned_checks(seed):
    """Stands in for the invariant suite where a test needs only the bound."""
    return [checks.CheckResult("canned", True, 0.0, 1.0)]


class TestVerify:
    def test_small_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "verify"
        code = main([*SMALL_VERIFY, "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert printed.count("PASS") >= 6  # 5 invariant checks + the bound
        lines = (out / "bound_report.jsonl").read_text().strip().split("\n")
        assert len(lines) == 5  # 4 trials + summary
        assert json.loads(lines[-1])["passed"] is True
        assert (out / "invariant_checks.txt").exists()

    def test_failed_write_leaves_whole_files_and_rerun(self, tmp_path, monkeypatch):
        # a canned invariant suite keeps the two runs fast
        monkeypatch.setattr(checks, "run_invariant_checks", canned_checks)
        out = tmp_path / "verify"
        replace = fail_replace_onto(monkeypatch, "invariant_checks.txt")
        assert main([*SMALL_VERIFY, "--out", str(out)]) == 1
        assert {p.name for p in out.iterdir()} == {"bound_report.jsonl"}  # no .tmp, no marker
        report = (out / "bound_report.jsonl").read_bytes()
        monkeypatch.setattr(os, "replace", replace)
        assert main([*SMALL_VERIFY, "--out", str(out)]) == 0  # no marker, so no --force needed
        assert (out / "bound_report.jsonl").read_bytes() == report
        assert {p.name for p in out.iterdir()} == {
            "bound_report.jsonl", "invariant_checks.txt", "config.resolved.txt"}

    def test_bad_range(self, tmp_path, capsys):
        code = main(["verify", "--m", "10", "--n", "8", "--ks", "8", "--trials", "1"])
        assert code == 1
        assert "min(m, n)" in capsys.readouterr().err

    def test_empty_ks_rejected(self, capsys):
        assert main(["verify", "--ks", "", "--trials", "1"]) == 1
        assert "--ks" in capsys.readouterr().err

    @pytest.mark.parametrize("args, flags", [
        (["--restarts", "0"], ["--restarts"]),
        (["--steps", "0"], ["--steps"]),
        (["--trials", "0"], ["--trials"]),
        (["--lr", "nan"], ["--lr"]),
        (["--lr", "inf"], ["--lr"]),
        (["--lr", "0"], ["--lr"]),
        (["--lr", "-0.5"], ["--lr"]),
        (["--ks", "0"], ["--ks"]),
        (["--ks", "2,-1"], ["--ks"]),
        (["--seed", "-1"], ["--seed"]),
        # every k must be below min(m, n) = 8, the only size rule
        (["--ks", "8"], ["--ks"]),
    ])
    def test_run_that_trains_nothing_rejected_first(self, tmp_path, capsys, args, flags):
        # rejected before the invariant suite prints and before --out exists
        out = tmp_path / "verify"
        assert main([*SMALL_VERIFY, *args, "--out", str(out)]) == 1
        printed = capsys.readouterr()
        assert printed.out == ""
        assert all(flag in printed.err for flag in flags), printed.err
        assert not out.exists()

    def test_runs_above_512(self, tmp_path, monkeypatch):
        # no SVD size cap: min(m, n) = 513 trains and writes its report
        monkeypatch.setattr(checks, "run_invariant_checks", canned_checks)
        out = tmp_path / "verify"
        assert main(["verify", "--m", "520", "--n", "513", "--ks", "2", "--trials", "1",
                     "--steps", "1", "--restarts", "1", "--out", str(out)]) == 0
        lines = (out / "bound_report.jsonl").read_text().splitlines()
        assert len(lines) == 2 and json.loads(lines[-1])["passed"] is True

    def test_bound_report_is_strict_json(self, tmp_path, monkeypatch):
        # Infinity or NaN in bound_report.jsonl is not JSON
        monkeypatch.setattr(checks, "run_invariant_checks", canned_checks)
        out = tmp_path / "verify"
        assert main([*SMALL_VERIFY, "--out", str(out)]) == 0

        def reject(constant):
            raise ValueError(f"non-finite {constant} in bound_report.jsonl")

        lines = (out / "bound_report.jsonl").read_text().splitlines()
        records = [json.loads(line, parse_constant=reject) for line in lines]
        assert len(records) == 5 and records[-1]["passed"] is True


class TestCommands:
    @pytest.mark.parametrize("command, inputs", [
        ("ingest", ["--data"]),
        ("train", ["--split"]),
        ("eval", ["--split", "--models"]),
    ])
    def test_rerun_refusal_comes_before_any_input_is_read(self, tmp_path, capsys, command,
                                                          inputs):
        out = tmp_path / "out"
        out.mkdir()
        (out / "config.resolved.txt").write_text(f"command = {command}\n", encoding="utf-8")
        argv = [command, "--out", str(out)]
        for flag in inputs:
            argv += [flag, str(tmp_path / "absent")]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: {out} already holds a run (config.resolved.txt present); "
            "rerun with --force to overwrite\n")
        assert sorted(p.name for p in out.iterdir()) == ["config.resolved.txt"]

    @pytest.mark.parametrize("command, inputs", [
        ("ingest", ["--data"]),
        ("train", ["--split"]),
        ("eval", ["--split", "--models"]),
        ("verify", []),
    ])
    def test_out_that_is_a_file_fails_before_any_input_is_read(self, tmp_path, capsys,
                                                               monkeypatch, command, inputs):
        def read(*args, **kwargs):
            raise AssertionError("input read before --out was checked")

        for module, name in ((dataset, "load_interactions"), (dataset, "load_split_artifacts"),
                             (checks, "run_invariant_checks")):
            monkeypatch.setattr(module, name, read)
        out = tmp_path / "out"
        out.write_text("not a directory\n", encoding="utf-8")
        argv = [command, "--out", str(out)]
        for flag in inputs:
            argv += [flag, str(tmp_path / "absent")]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: --out: {out} exists and is not a directory\n"
        assert out.read_text(encoding="utf-8") == "not a directory\n"

    def test_cli_composes_no_chain_stage_of_its_own(self):
        # cli reaches the chain only through closed_form's public trainers,
        # and reaches into no edlae module past its public names
        tree = ast.parse(open(edlae.cli.__file__, encoding="utf-8").read())
        stages = {"sym_inverse", "top_k_eig", "student_gram", "student_projection"}
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level
                                                     or node.module.split(".")[0] == "edlae"):
                names = {alias.name for alias in node.names}
                assert not names & stages, names
                assert not any(name.startswith("_") for name in names), (node.module, names)
                if node.module in (None, "edlae"):
                    modules |= names
        assert "closed_form" in modules
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id in modules:
                assert not node.attr.startswith("_"), f"{node.value.id}.{node.attr}"
                assert node.value.id != "closed_form" or node.attr not in stages, node.attr

    def test_readme_usage_lists_every_command(self):
        # the README's usage block shows one example per command, and no other
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        readme = open(os.path.join(root, "README.md"), encoding="utf-8").read()
        usage = readme.split("\n## CLI\n", 1)[1].split("```")[1]
        shown = set(re.findall(r"^edlae (\S+)", usage, re.MULTILINE))
        choices = re.search(r"\{(.*?)\}", build_parser().format_usage()).group(1)
        assert shown == set(choices.split(","))
