"""The functions that BENCHMARK.json's per-layer metrics name still exist,
and a traced CLI cycle yields every one of those metrics.

The benchmark's tracer (perfbench/tracer.py) records a span only for the
public plain functions of each layer module.  A metric whose function was
renamed, made private or deleted, or is no longer called by the command it
is read from, is then reported as not measured, and the benchmark's result
line loses it.
"""

import importlib
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMANDS = ("ingest", "train", "eval")  # spans of a whole command, not of a function

sys.path.insert(0, os.path.join(ROOT, "perfbench"))
try:
    import layers
    import tracer
finally:
    sys.path.pop(0)


def per_layer_names():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return [metric["name"] for metric in json.load(handle)["per_layer"]]


def metric_functions():
    """The (layer, function) pairs named by `<layer>.<function>.<stat>` metrics."""
    parts = (name.split(".") for name in per_layer_names())
    return sorted({(p[0], p[1]) for p in parts if len(p) == 3 and p[1] not in COMMANDS})


@pytest.mark.parametrize("layer, function", metric_functions())
def test_metric_function_is_traced(layer, function):
    assert layer in tracer.LAYERS
    module = importlib.import_module(f"edlae.{layer}")
    assert function in tracer.public_functions(module)


def traced(command_args, spans, alloc=False):
    """Run one CLI command under the benchmark's tracer; return (spans, wall s)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), OPENBLAS_NUM_THREADS="1")
    argv = [sys.executable, os.path.join(ROOT, "perfbench", "tracer.py"), str(spans),
            *(["--alloc"] if alloc else []), "--", *command_args]
    start = time.perf_counter()
    subprocess.run(argv, check=True, env=env, cwd=ROOT, capture_output=True, timeout=60)
    wall = time.perf_counter() - start
    with open(spans, encoding="utf-8") as handle:
        return json.load(handle), wall


def test_every_per_layer_metric_is_measured(tmp_path):
    """A tiny ingest -> train -> eval cycle, traced as the benchmark traces it,
    yields every per-layer metric: a metric can also go missing when a command
    stops calling a public function (its layer's self time, or the work
    counters read off ndcg_at_k and recall_at_k)."""
    rng = np.random.default_rng(0)
    lines = [f"u{user},i{item}" for user in range(60)
             for item in rng.choice(12, size=int(rng.integers(3, 7)), replace=False)]
    data = tmp_path / "data.csv"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    split, run, out = (str(tmp_path / name) for name in ("split", "run", "metrics"))
    commands = {
        "ingest": ["ingest", "--data", str(data), "--out", split, "--validation-fraction", "0.2",
                   "--test-fraction", "0.2", "--seed", "3"],
        "train": ["train", "--split", split, "--out", run, "--family", "both", "--ks", "2",
                  "--lambdas", "1", "--ps", "0.5"],
        "eval": ["eval", "--split", split, "--out", out, "--models",
                 os.path.join(run, "edlae_k2.model"), os.path.join(run, "ridge_k2.model")],
    }
    traces, walls = {}, {}
    for command, args in commands.items():
        traces[command], walls[command] = traced(args, tmp_path / f"{command}.json")
    allocs = {}
    for command in ("train", "eval"):
        args = [*commands[command], "--force"]
        allocs[command], _ = traced(args, tmp_path / f"{command}.alloc.json", alloc=True)
    values = layers.summarize(traces, walls, walls)
    values.update(layers.peaks(allocs, 12))
    missing = [name for name in per_layer_names() if name not in values]
    assert not missing
