"""Run one `edlae` CLI command with every public library function traced.

    python3 tracer.py SPANS_JSON [--alloc] -- <edlae command and flags>

Wraps each public function of the layer modules in a span recorder, at every
place where an ``edlae`` module binds it, then calls ``edlae.cli.main`` inside
a root span named ``cli.<command>``.  Spans (name, parent, start, end) stay in
memory and are written to SPANS_JSON when the command returns, together with
the import time and the exit code.  The process exits with the command's code.

Functions are found by enumerating the modules, not from a list, so a function
that is renamed or deleted simply produces no span.

With ``--alloc`` each span also records its peak ``tracemalloc`` allocation
above the level at entry.  Allocation tracking slows the program, so that pass
is separate from the timing pass and its timings are not used.  Tracking is
on only inside spans of the non-``dataset`` layers: the text parsers make
many small allocations, where tracking costs most, and no memory metric is
taken from them.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import os
import sys
import time
import tracemalloc

LAYERS = ("dataset", "linalg", "closed_form", "baselines", "evaluate", "serialize")
# The root span (``cli``) is untracked as well, so the parsers stay untracked.
UNTRACKED_LAYERS = ("cli", "dataset")


class Recorder:
    """Holds the spans of one process; the stack tracks the open ones."""

    def __init__(self, alloc):
        self.alloc = alloc
        self.spans = []
        self.stack = []
        self.tracked_depth = 0

    def open(self, name, fields):
        span = {"name": name, "parent": self.stack[-1] if self.stack else None,
                "start": None, "end": None}
        span.update(fields)
        self.spans.append(span)
        index = len(self.spans) - 1
        self.stack.append(index)
        if self.alloc:
            self._alloc_open(span)
        span["start"] = time.perf_counter()
        return index

    def close(self, index):
        span = self.spans[index]
        span["end"] = time.perf_counter()
        if self.alloc:
            self._alloc_close(span)
        self.stack.pop()

    def _alloc_open(self, span):
        span["_track"] = span["name"].split(".")[0] not in UNTRACKED_LAYERS
        if not span["_track"]:
            return
        if self.tracked_depth == 0:
            tracemalloc.start()
        else:
            self._fold_peak()
        self.tracked_depth += 1
        span["_base"] = span["_high"] = tracemalloc.get_traced_memory()[0]

    def _alloc_close(self, span):
        if not span.pop("_track"):
            return
        self._fold_peak()
        span["peak_bytes"] = span.pop("_high") - span.pop("_base")
        self.tracked_depth -= 1
        if self.tracked_depth == 0:
            tracemalloc.stop()

    def _fold_peak(self):
        """Carry the peak since the last reset into every open tracked span,
        then reset it, so that each span sees the highest level during it."""
        peak = tracemalloc.get_traced_memory()[1]
        for index in self.stack:
            span = self.spans[index]
            if "_high" in span:
                span["_high"] = max(span["_high"], peak)
        tracemalloc.reset_peak()


def _square_matrix(value):
    shape = getattr(value, "shape", None)
    return shape is not None and len(shape) == 2 and shape[0] == shape[1] and shape[0] > 0


def _input_fields(args):
    """Size and digest of a square-matrix first argument.

    The digest hashes the diagonal and first row: enough to tell apart the
    regularized Grams of different (lambda, p) and the student Grams of
    different teachers, at O(n) cost.
    """
    if not args or not _square_matrix(args[0]):
        return {}
    a = args[0]
    digest = hashlib.blake2b(a.diagonal().tobytes() + a[0].tobytes(), digest_size=8)
    return {"n": int(a.shape[0]), "digest": digest.hexdigest()}


def _result_fields(name, args, result):
    """Work counters read off a call's arguments and result."""
    if name in ("evaluate.ndcg_at_k", "evaluate.recall_at_k"):
        return {"users": int(args[0].shape[0])}
    if name == "dataset.load_interactions":
        return {"rows": int(result[0].nnz)}
    if name == "dataset.load_split_artifacts":
        split = result[0]
        parts = (split.train, split.validation_foldin, split.validation_holdout,
                 split.test_foldin, split.test_holdout)
        return {"rows": sum(int(part.nnz) for part in parts)}
    if name in ("serialize.save_model", "serialize.load_model"):
        return {"bytes": os.path.getsize(args[0])}
    return {}


def _wrap(recorder, name, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = recorder.open(name, _input_fields(args))
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(index)
        recorder.spans[index].update(_result_fields(name, args, result))
        return result

    return traced


def public_functions(module):
    """Public plain functions defined in ``module`` itself."""
    return {
        attr: value for attr, value in vars(module).items()
        if not attr.startswith("_") and inspect.isfunction(value)
        and value.__module__ == module.__name__
        and not inspect.isgeneratorfunction(value)
    }


def install(recorder):
    """Replace every binding of each layer function in every edlae module;
    return the names of the wrapped functions."""
    modules = [m for key, m in sys.modules.items() if key == "edlae" or key.startswith("edlae.")]
    wrapped, names = {}, []
    for layer in LAYERS:
        module = sys.modules.get(f"edlae.{layer}")
        if module is None:
            continue
        for attr, fn in public_functions(module).items():
            names.append(f"{layer}.{attr}")
            wrapped[id(fn)] = _wrap(recorder, names[-1], fn)
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in wrapped and inspect.isfunction(value):
                setattr(module, attr, wrapped[id(value)])
    return names


def main(argv):
    if "--" not in argv or len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 1
    sep = argv.index("--")
    out_path, flags, command = argv[0], argv[1:sep], argv[sep + 1:]
    alloc = "--alloc" in flags
    start = time.perf_counter()
    import edlae.cli  # noqa: PLC0415 - the import is what cli.import_s times

    import_s = time.perf_counter() - start
    recorder = Recorder(alloc)
    functions = install(recorder)
    root = recorder.open(f"cli.{command[0]}", {})
    try:
        code = edlae.cli.main(command)
    finally:
        recorder.close(root)
        for span in recorder.spans:
            for key in [k for k in span if k.startswith("_")]:
                del span[key]
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump({"import_s": import_s, "alloc": alloc, "functions": functions,
                       "spans": recorder.spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
