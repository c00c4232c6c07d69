"""The functions that BENCHMARK.json's per-layer metrics name still exist.

The benchmark's tracer (perfbench/tracer.py) records a span only for the
public plain functions of each layer module.  A metric whose function was
renamed, made private or deleted is then reported as not measured, and the
benchmark's result line loses it.
"""

import importlib
import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMMANDS = ("ingest", "train", "eval")  # spans of a whole command, not of a function

sys.path.insert(0, os.path.join(ROOT, "perfbench"))
try:
    import tracer
finally:
    sys.path.pop(0)


def metric_functions():
    """The (layer, function) pairs named by `<layer>.<function>.<stat>` metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        names = [metric["name"] for metric in json.load(handle)["per_layer"]]
    parts = (name.split(".") for name in names)
    return sorted({(p[0], p[1]) for p in parts if len(p) == 3 and p[1] not in COMMANDS})


@pytest.mark.parametrize("layer, function", metric_functions())
def test_metric_function_is_traced(layer, function):
    assert layer in tracer.LAYERS
    module = importlib.import_module(f"edlae.{layer}")
    assert function in tracer.public_functions(module)
