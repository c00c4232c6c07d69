"""Per-layer metrics from the spans written by ``tracer.py``.

A span's self time is its duration minus the durations of its child spans,
so the self times of one command's spans sum to its root span ``cli.<command>``.
With the import time they account for the command's traced wall time, up to
the interpreter's start and exit, which no span covers.
"""

from __future__ import annotations

import statistics

MIB = 1024.0 * 1024.0
# A traced command's wall time, fork to reaped exit, less its import and its
# span self times, is left to interpreter start, installing the wrappers,
# writing the spans and interpreter exit.  That rest must lie in
# [0, REST_TOL_S]; it measures 0.1-0.2 s on 2 cores.
REST_TOL_S = 0.75


def _timed(spans):
    """Per span: (name, duration, self time)."""
    child = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child[span["parent"]] += span["end"] - span["start"]
    return [(s["name"], s["end"] - s["start"], s["end"] - s["start"] - c)
            for s, c in zip(spans, child)]


def breakdown(trace):
    """{layer: self time} of one command; the root span's own time is under ``cli``."""
    out = {}
    for name, _, own in _timed(trace["spans"]):
        layer = name.split(".")[0]
        out[layer] = out.get(layer, 0.0) + own
    return out


def rest(trace, wall):
    """Wall time of a traced command not covered by its import or its spans."""
    return wall - trace["import_s"] - sum(breakdown(trace).values())


def accounting(trace, wall):
    """Failures if import and span self times do not account for ``wall``."""
    left = rest(trace, wall)
    if not 0.0 <= left <= REST_TOL_S:
        return [f"import and span self times leave {left:.3f} s of the {wall:.3f} s "
                f"wall time, outside [0, {REST_TOL_S}]"]
    return []


def summarize(traces, walls, traced_walls):
    """Metrics of one traced cycle.

    ``traces`` maps each command to its tracer output; ``walls`` and
    ``traced_walls`` are the commands' wall times in the paired untraced and
    traced cycles.
    """
    functions = sorted({f for t in traces.values() for f in t["functions"]})
    calls = {f: [] for f in functions}
    own = {f: 0.0 for f in functions}
    spans_of = {f: [] for f in functions}
    values = {}
    for command, trace in traces.items():
        for (name, duration, self_s), span in zip(_timed(trace["spans"]), trace["spans"]):
            if span["parent"] is None:
                values[f"cli.{command}.self_s"] = self_s
                values[f"cli.{command}.span_s"] = duration
                continue
            calls[name].append(duration)
            own[name] += self_s
            spans_of[name].append(span)
        for layer, self_s in breakdown(trace).items():
            if layer != "cli":
                values[f"{layer}.{command}.self_s"] = self_s
        values[f"trace.{command}.overhead_s"] = traced_walls[command] - walls[command]
        values[f"trace.{command}.wall_s"] = traced_walls[command]
        values[f"trace.{command}.rest_s"] = rest(trace, traced_walls[command])
        values[f"cli.{command}.import_s"] = trace["import_s"]
    for f in functions:
        durations = calls[f]
        values[f"{f}.calls"] = len(durations)
        values[f"{f}.total_s"] = sum(durations)
        values[f"{f}.self_s"] = own[f]
        values[f"{f}.median_s"] = statistics.median(durations) if durations else 0.0
        values[f"{f}.max_s"] = max(durations, default=0.0)

    # Derived metrics are left out when the calls they read are missing.
    for metric, f in (("linalg.lp_per_factorization", "linalg.sym_inverse"),
                      ("linalg.lpf_per_eig", "linalg.top_k_eig")):
        digests = [s.get("digest") for s in spans_of.get(f, [])]
        if digests and None not in digests:
            values[metric] = len(set(digests)) / len(digests)
    for count_metric, rate_metric, field, names in (
            ("evaluate.users_ranked", "evaluate.rank_us_per_user", "users",
             ("evaluate.ndcg_at_k", "evaluate.recall_at_k")),
            ("dataset.rows_parsed", "dataset.parse_us_per_row", "rows",
             ("dataset.load_interactions", "dataset.load_split_artifacts")),
            ("serialize.bytes", None, "bytes", ("serialize.save_model", "serialize.load_model"))):
        count = sum(s.get(field, 0) for f in names for s in spans_of.get(f, []))
        if count:
            values[count_metric] = count
            if rate_metric:
                values[rate_metric] = 1e6 * sum(values[f"{f}.total_s"] for f in names
                                                 if f in spans_of) / count
    values["cli.import_s"] = statistics.median(t["import_s"] for t in traces.values())
    return values


def peaks(traces, num_items):
    """Peak traced allocation of each function, in MiB and in n^2 float64 units,
    from an allocation-tracing pass."""
    values = {}
    for trace in traces.values():
        for f in trace["functions"]:
            values.setdefault(f"{f}.peak_mib", 0.0)
            values.setdefault(f"{f}.peak_n2", 0.0)
        for span in trace["spans"]:
            if "peak_bytes" not in span or span["parent"] is None:
                continue
            name, peak = span["name"], span["peak_bytes"]
            n = span.get("n", num_items)
            values[f"{name}.peak_mib"] = max(values.get(f"{name}.peak_mib", 0.0), peak / MIB)
            values[f"{name}.peak_n2"] = max(values.get(f"{name}.peak_n2", 0.0), peak / (8.0 * n * n))
    return values
