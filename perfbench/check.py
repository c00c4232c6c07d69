"""Correctness gate for one ingest -> train -> eval cycle.

Every check reads the artifacts the CLI wrote, with its own parsers and plain
numpy, sharing no code with the library.  Each function returns a list of
failure messages; an empty list is a pass.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct

import numpy as np

LOG_HEADER = "family\tk\tlambda\tp\tobjective\tval_ndcg100\tselected"
MODEL_HEADER = struct.Struct("<4sIQQdd")
MAGIC = {"edlae": b"EDLR", "ridge": b"RDGR"}
# train_log values must match the recorded reference this closely, the level
# the project keeps for train_log across refactors.
REFERENCE_RTOL = 1e-10
# The recomputed nDCG sums the same terms in another order.
NDCG_RTOL = 1e-12


def read_train_log(path):
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines or lines[0] != LOG_HEADER:
        raise ValueError(f"{path}: unexpected header {lines[:1]!r}")
    rows = []
    for line in lines[1:]:
        family, k, lam, p, objective, ndcg, selected = line.split("\t")
        rows.append([family, int(k), float(lam), float(p), float(objective), float(ndcg),
                     selected == "yes"])
    return rows


def _close(a, b, rtol):
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def check_train_log(rows, grid):
    """Grid order, finite values, and one selected row per (family, k): the
    first row with the highest validation nDCG@100."""
    failures = []
    expected = [(f, k, lam, p) for f in grid["families"] for k in grid["ks"]
                for lam in grid["lambdas"] for p in grid["ps"]]
    if [tuple(r[:4]) for r in rows] != expected:
        return [f"train_log rows {[tuple(r[:4]) for r in rows]} != grid {expected}"]
    for r in rows:
        if not (math.isfinite(r[4]) and 0.0 <= r[5] <= 1.0):
            failures.append(f"train_log row {r[:4]}: objective {r[4]}, val_ndcg100 {r[5]}")
    for f in grid["families"]:
        for k in grid["ks"]:
            group = [r for r in rows if r[0] == f and r[1] == k]
            best = max(range(len(group)), key=lambda i: (group[i][5], -i))
            chosen = [i for i, r in enumerate(group) if r[6]]
            if chosen != [best]:
                failures.append(f"train_log {f} k={k}: selected rows {chosen}, expected [{best}]")
    return failures


def check_reference(rows, reference):
    """Rows, selected flags and values equal the reference recorded for this seed."""
    if len(rows) != len(reference):
        return [f"train_log has {len(rows)} rows, reference {len(reference)}"]
    failures = []
    for got, want in zip(rows, reference):
        if got[:4] != want[:4] or got[6] != want[6]:
            failures.append(f"train_log row {got[:4]} selected={got[6]} != reference {want}")
        for col, name in ((4, "objective"), (5, "val_ndcg100")):
            if not _close(got[col], want[col], REFERENCE_RTOL):
                failures.append(f"train_log {got[:4]} {name} {got[col]!r} != reference {want[col]!r}")
    return failures


def check_reference_value(value, reference):
    if not _close(value, reference, REFERENCE_RTOL):
        return [f"{value!r} != reference {reference!r}"]
    return []


def read_model(path):
    """(family, n, k, lambda, p, U, V) from the model container."""
    with open(path, "rb") as handle:
        blob = handle.read()
    magic, version, n, k, lam, p = MODEL_HEADER.unpack_from(blob)
    family = {v: f for f, v in MAGIC.items()}.get(magic, repr(magic))
    if version != 1 or len(blob) != MODEL_HEADER.size + 16 * n * k:
        raise ValueError(f"{path}: version {version}, {len(blob)} bytes for n={n} k={k}")
    flat = np.frombuffer(blob, dtype="<f8", offset=MODEL_HEADER.size)
    return family, n, k, lam, p, flat[: n * k].reshape(n, k), flat[n * k:].reshape(n, k)


def check_models(run_dir, rows, grid, num_items):
    """Each selected model's header names its family, n, k, lambda and p."""
    failures = []
    for f in grid["families"]:
        for k in grid["ks"]:
            path = os.path.join(run_dir, f"{f}_k{k}.model")
            selected = [r for r in rows if r[0] == f and r[1] == k and r[6]]
            try:
                family, n, kk, lam, p, _, _ = read_model(path)
            except (OSError, ValueError, struct.error) as exc:
                failures.append(f"model {path}: {exc}")
                continue
            want = (f, num_items, k) + ((selected[0][2], selected[0][3]) if selected else (None, None))
            if (family, n, kk, lam, p) != want:
                failures.append(f"model {path}: header {(family, n, kk, lam, p)} != {want}")
    return failures


def read_metrics(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def check_metrics(rows, grid):
    failures = []
    want = sorted((f"{f}_k{k}", m, c) for f in grid["families"] for k in grid["ks"]
                  for m, c in (("ndcg", 100), ("recall", 20), ("recall", 50)))
    got = sorted((r["model_id"], r["metric"], r["cutoff"]) for r in rows)
    if got != want:
        failures.append(f"metrics.jsonl rows {got} != {want}")
    for r in rows:
        if not 0.0 <= r["mean"] <= 1.0:
            failures.append(f"metrics.jsonl {r['model_id']} {r['metric']}@{r['cutoff']}: mean {r['mean']}")
    return failures


def _read_ids(path):
    with open(path, encoding="utf-8") as handle:
        return {line.split("\t")[0]: i for i, line in enumerate(handle.read().splitlines()) if line}


def _read_rows(path, user_index, item_index):
    """(row, item) arrays of a split file; rows follow ascending user index."""
    users, items = [], []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            u, i, _ = line.rstrip("\n").split(",")
            users.append(user_index[u])
            items.append(item_index[i])
    users = np.asarray(users, dtype=np.int64)
    order = np.unique(users)
    return np.searchsorted(order, users), np.asarray(items, dtype=np.int64), order


def recompute_ndcg100(split_dir, model_path, batch=2048):
    """Test nDCG@100 of a model, ranked by descending score with ties broken
    by ascending item index.

    A holdout item is in the top 100 only if its score reaches the 100th
    largest score of its row; its rank is then counted exactly as (items
    scoring higher) + (items scoring equal with a lower index).
    """
    user_index = _read_ids(os.path.join(split_dir, "users.tsv"))
    item_index = _read_ids(os.path.join(split_dir, "items.tsv"))
    fu, fi, foldin_users = _read_rows(os.path.join(split_dir, "test_foldin.csv"), user_index, item_index)
    hu, hi, holdout_users = _read_rows(os.path.join(split_dir, "test_holdout.csv"), user_index, item_index)
    if not np.array_equal(foldin_users, holdout_users):
        raise ValueError("test fold-in and holdout files hold different users")
    num_users = foldin_users.size
    _, n, _, _, _, u, v = read_model(model_path)
    cutoff = min(100, n)
    discount = 1.0 / np.log2(np.arange(2, cutoff + 2))
    dcg = np.zeros(num_users)
    for lo in range(0, num_users, batch):
        hi_row = min(lo + batch, num_users)
        x = np.zeros((hi_row - lo, n))
        keep = (fu >= lo) & (fu < hi_row)
        x[fu[keep] - lo, fi[keep]] = 1.0
        scores = (x @ u) @ v.T
        scores[fu[keep] - lo, fi[keep]] = -np.inf
        threshold = -np.partition(-scores, cutoff - 1, axis=1)[:, cutoff - 1]
        sel = (hu >= lo) & (hu < hi_row)
        rows, items = hu[sel] - lo, hi[sel]
        s = scores[rows, items]
        cand = s >= threshold[rows]
        rows, items, s = rows[cand], items[cand], s[cand]
        row_scores = scores[rows]
        rank = ((row_scores > s[:, None]).sum(axis=1)
                + ((row_scores == s[:, None]) & (np.arange(n) < items[:, None])).sum(axis=1))
        hit = rank < cutoff
        np.add.at(dcg, rows[hit] + lo, discount[rank[hit]])
    counts = np.bincount(hu, minlength=num_users)
    ideal = np.concatenate([[0.0], np.cumsum(discount)])[np.minimum(counts, cutoff)]
    return float(np.mean(dcg / ideal))


def check_ndcg(value, reported):
    """The recomputed test nDCG@100 equals the one eval reported."""
    if not _close(value, reported, NDCG_RTOL):
        return [f"test nDCG@100 recomputed {value!r} != metrics.jsonl {reported!r}"]
    return []


def digest_outputs(cycle_dir, subdirs=("split", "run", "metrics")):
    """sha256 of every artifact the CLI wrote under ``subdirs``, except the
    resolved-config records, which name the output paths."""
    digests = {}
    for base, _, files in (w for d in subdirs for w in os.walk(os.path.join(cycle_dir, d))):
        for name in files:
            if name == "config.resolved.txt":
                continue
            path = os.path.join(base, name)
            with open(path, "rb") as handle:
                digests[os.path.relpath(path, cycle_dir)] = hashlib.sha256(handle.read()).hexdigest()
    return digests


def check_same_outputs(first, other):
    """A rerun with the same inputs writes byte-identical artifacts.

    ``first`` may cover more commands than ``other``; only the directories
    present in ``other`` (or, if it is empty, none) are compared."""
    tops = {name.split(os.sep)[0] for name in other}
    first = {name: d for name, d in first.items() if name.split(os.sep)[0] in tops}
    if not other:
        return ["no artifacts written"]
    if first.keys() != other.keys():
        return [f"artifact set differs: {sorted(first.keys() ^ other.keys())}"]
    return [f"{name} differs from the first cycle" for name in sorted(first) if first[name] != other[name]]


if __name__ == "__main__":
    import sys

    # ``check.py SPLIT_DIR MODEL``: print the recomputed test nDCG@100.  The
    # benchmark runs this in a child, so that its own resident set stays small.
    print(repr(recompute_ndcg100(sys.argv[1], sys.argv[2])))
