"""End-to-end and per-layer benchmark of the edlae CLI: ingest -> train -> eval.

    python3 perfbench/run.py --workload grid_600 --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 3      # every workload in turn

Run it from the root of a source checkout: it runs ``src/edlae`` from there
and writes only below that root (``.bench_cache``, ``.bench_work``,
``.bench_results``).  Workloads and metrics are named in BENCHMARK.json;
``design.json`` records why, and the baseline; ``compare.py`` compares two
sets of results.

For each workload a generator owned by the benchmark writes a seeded
``user,item`` CSV (cached per workload and seed, never timed).  After an
untimed import that fills the bytecode cache, and an untimed reference cycle
on seed REFERENCE_SEED's input (see below), a closed loop of one client
runs ``edlae ingest``, ``train`` and ``eval`` once, one child process per
command, then repeats single commands on that cycle's inputs, always the one
with the least time so far, until ``--seconds`` have passed and each has run
at least MIN_SAMPLES times.  Each command's wall time and its peak RSS, from
the child's ``os.wait4`` rusage, are recorded; the end-to-end metrics are
their medians.  BLAS runs with THREADS threads in every child.

With ``--trace 1`` untraced cycles alternate with traced ones (see
``tracer.py``) until ``--seconds`` have passed, followed by one
allocation-tracing pass over train and eval; the result is the per-layer
metrics.

The first cycle's artifacts are checked in full (``check.py``), and every
later command must write byte-identical ones.  The reference cycle is
checked in full too, and its train_log and test nDCG@100 must also equal
``reference.json``, whatever ``--seed`` is.  Each failed check or non-zero
exit prints a FAIL line and counts in ``failed``.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics (named
``<workload>.<metric>`` with ``--workload all``).  The exit code is 0 only
when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import check
import layers
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREADS = 2
MIN_SAMPLES = 3
# Stop starting cycles once the timed part of a run has used this long,
# whatever --seconds says, so that a run with its untimed reference cycle ends
# well inside three minutes.
HARD_LIMIT_S = 120.0
CHILD_TIMEOUT_S = 120.0
REFERENCE_SEED = 1
REFERENCE_FILE = HERE / "reference.json"

# Why each workload exists is recorded in BENCHMARK.json; the sizes live here.
WORKLOADS = {
    "grid_600": dict(users=8_000, items=600, basket=20, validation=0.1, test=0.3,
                    families=["edlae", "ridge"], ks=[16, 64], lambdas=[2.0, 32.0], ps=[0.25, 0.5]),
    "users_40k": dict(users=40_000, items=1_000, basket=12, validation=0.1, test=0.3,
                      families=["edlae"], ks=[64], lambdas=[8.0], ps=[0.5]),
    "items_1500": dict(users=10_000, items=1_500, basket=30, validation=0.1, test=0.1,
                       families=["edlae"], ks=[384], lambdas=[8.0], ps=[0.5]),
}
COMMANDS = ("ingest", "train", "eval")
OUTPUT = {"ingest": "split", "train": "run", "eval": "metrics"}
# Metric name prefix of each command: ingest is the benchmark's set-up.
PREFIX = {"ingest": "setup", "train": "train", "eval": "eval"}


def _fmt_list(values):
    return ",".join(f"{v:g}" for v in values)


class Run:
    """One benchmark run of one workload: its directories, counts and samples."""

    def __init__(self, name, seed):
        self.name, self.seed, self.spec = name, seed, WORKLOADS[name]
        self.work = ROOT / ".bench_work" / f"{name}-s{seed}-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        OPENBLAS_NUM_THREADS=str(THREADS), OMP_NUM_THREADS=str(THREADS))
        self.attempted = self.failed = 0
        self.samples = {}

    # -- bookkeeping -------------------------------------------------------
    def gate(self, label, failures):
        """Count one check and print its failures; True if it passed."""
        self.attempted += 1
        for message in failures:
            print(f"FAIL {self.name} {label}: {message}")
        self.failed += bool(failures)
        return not failures

    def sample(self, metric, value):
        self.samples.setdefault(metric, []).append(value)

    # -- inputs ------------------------------------------------------------
    def input_csv(self):
        cache = ROOT / ".bench_cache"
        cache.mkdir(exist_ok=True)
        s = self.spec
        sizes = f"{s['users']}x{s['items']}x{s['basket']}"
        path = cache / f"{self.name}-{sizes}-s{self.seed}.csv"
        if not path.exists():
            tmp = path.with_suffix(f".{os.getpid()}.tmp")
            self.helper("gen.py", tmp, self.seed, s["users"], s["items"], s["basket"])
            os.replace(tmp, path)
        return path

    def helper(self, script, *args):
        """Run a benchmark script in a child and return its output.

        Array work happens in children so that this process stays small: a
        child's peak RSS as ``wait4`` reports it starts from this process's
        resident set at the fork.
        """
        return subprocess.run([sys.executable, str(HERE / script), *map(str, args)], check=True,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S).stdout

    def argv(self, command, out_dir, src_dir, data):
        """CLI arguments of one command: inputs from ``src_dir``, output to
        its OUTPUT directory under ``out_dir``."""
        s = self.spec
        out = str(out_dir / OUTPUT[command])
        if command == "ingest":
            return ["ingest", "--data", str(data), "--out", out,
                    "--validation-fraction", f"{s['validation']:g}",
                    "--test-fraction", f"{s['test']:g}", "--seed", str(self.seed)]
        split = str(src_dir / "split")
        if command == "train":
            family = "both" if len(s["families"]) == 2 else s["families"][0]
            return ["train", "--split", split, "--out", out, "--family", family,
                    "--ks", _fmt_list(s["ks"]), "--lambdas", _fmt_list(s["lambdas"]),
                    "--ps", _fmt_list(s["ps"])]
        models = [str(src_dir / "run" / f"{f}_k{k}.model") for f in s["families"] for k in s["ks"]]
        return ["eval", "--split", split, "--out", out, "--models", *models]

    # -- children ----------------------------------------------------------
    def spawn(self, cli_args, log, spans=None, alloc=False):
        """Run one CLI command in a child; return (exit code, wall s, peak RSS MiB)."""
        if spans is None:
            argv = [sys.executable, "-m", "edlae.cli", *cli_args]
        else:
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans),
                    *(["--alloc"] if alloc else []), "--", *cli_args]
        with open(log, "ab") as out:
            start = time.perf_counter()
            child = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=self.env, cwd=ROOT)
            timer = threading.Timer(CHILD_TIMEOUT_S, child.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            except BaseException:
                child.kill()
                child.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        return child.returncode, wall, usage.ru_maxrss / 1024.0

    def command(self, command, label, out_dir, src_dir, data, spans=None, alloc=False):
        """Run one command; record its samples unless traced.
        Returns its wall time, or None if it exited non-zero."""
        out_dir.mkdir(parents=True, exist_ok=True)
        code, wall, rss = self.spawn(self.argv(command, out_dir, src_dir, data),
                                     out_dir / "log.txt", spans, alloc)
        if not self.gate(f"{label} {command} exit code", [] if code == 0 else [f"exited {code}"]):
            return None
        if spans is None:
            self.sample(f"{PREFIX[command]}_s", wall)
            self.sample(f"{PREFIX[command]}_peak_rss_mib", rss)
        return wall

    def cycle(self, label, out_dir, data, traced=False, alloc=False, commands=COMMANDS):
        """Run the commands in order on ``out_dir``; return {command: wall s}
        of those that exited 0, stopping at the first that did not."""
        walls = {}
        for command in commands:
            spans = out_dir / f"{command}{'.alloc' if alloc else ''}.spans.json" if traced else None
            wall = self.command(command, label, out_dir, out_dir, data, spans, alloc)
            if wall is None:
                break
            walls[command] = wall
        return walls

    # -- correctness -------------------------------------------------------
    def check_first(self, cycle_dir):
        """Full gate on the first cycle; returns its artifact digests."""
        s = self.spec
        grid = {k: s[k] for k in ("families", "ks", "lambdas", "ps")}
        try:
            rows = check.read_train_log(cycle_dir / "run" / "train_log.tsv")
            metrics = check.read_metrics(cycle_dir / "metrics" / "metrics.jsonl")
        except (OSError, ValueError) as exc:
            self.gate("artifacts readable", [str(exc)])
            return None
        self.gate("train_log grid and selection", check.check_train_log(rows, grid))
        self.gate("model headers", check.check_models(cycle_dir / "run", rows, grid, s["items"]))
        self.gate("metrics.jsonl", check.check_metrics(metrics, grid))
        top = f"edlae_k{max(s['ks'])}"
        ndcg = [r["mean"] for r in metrics if r["model_id"] == top and r["metric"] == "ndcg"]
        if ndcg:
            self.sample("test_ndcg100", ndcg[0])
            try:
                value = float(self.helper("check.py", cycle_dir / "split", cycle_dir / "run" / f"{top}.model"))
                failures = check.check_ndcg(value, ndcg[0])
            except subprocess.SubprocessError as exc:
                failures = [f"recomputation failed: {exc}"]
            self.gate("test nDCG@100 recomputed", failures)
        if self.seed == REFERENCE_SEED:
            want = json.loads(REFERENCE_FILE.read_text()).get(self.name)
            self.gate("train_log equals reference",
                      check.check_reference(rows, want["rows"]) if want else ["no reference recorded"])
            if want and ndcg:
                self.gate("test nDCG@100 equals reference",
                          check.check_reference_value(ndcg[0], want["test_ndcg100"]))
        return check.digest_outputs(cycle_dir)

    def check_reference(self):
        """Untimed: one cycle on the reference seed's input, gated in full and
        against reference.json, so that every run checks the training results
        whatever seed it measures."""
        reference = Run(self.name, REFERENCE_SEED)
        try:
            base = reference.work / "c0"
            walls = reference.cycle("reference cycle", base, reference.input_csv())
            if len(walls) == len(COMMANDS):
                reference.check_first(base)
        finally:
            shutil.rmtree(reference.work, ignore_errors=True)
        self.attempted += reference.attempted
        self.failed += reference.failed

    def check_rerun(self, label, first, out_dir, commands=COMMANDS):
        self.gate(f"{label} artifacts identical", check.check_same_outputs(
            first, check.digest_outputs(out_dir, [OUTPUT[c] for c in commands])))

    # -- the measured loops ------------------------------------------------
    def measure(self, seconds, trace):
        """Run the workload; returns per-layer samples (empty unless traced)."""
        data = self.input_csv()
        # An untimed import fills the bytecode cache of a fresh checkout; if it
        # fails, the commands below fail and are counted.
        subprocess.run([sys.executable, "-c", "import edlae.cli"], env=self.env, cwd=ROOT,
                       capture_output=True, timeout=CHILD_TIMEOUT_S)
        if self.seed != REFERENCE_SEED:
            self.check_reference()
        # The first cycle writes the artifacts every later command is compared with.
        start = time.perf_counter()
        base = self.work / "c0"
        walls = self.cycle("cycle 0", base, data)
        first = self.check_first(base) if len(walls) == len(COMMANDS) else None
        if first is None:
            return []
        if trace:
            return self.measure_traced(seconds, start, data, base, walls, first)
        # Every command gets an equal share of the time: the next one run is
        # the one with the least time so far, after each has MIN_SAMPLES runs.
        # Repeats read the first cycle's inputs.
        spent = dict(walls)
        index = 1
        while True:
            runs = {c: len(self.samples.get(f"{PREFIX[c]}_s", ())) for c in COMMANDS}
            count = min(runs.values())
            command = min(COMMANDS, key=lambda c: (runs[c] >= MIN_SAMPLES, spent[c]))
            expected = spent[command] / runs[command]
            elapsed = time.perf_counter() - start
            if elapsed + expected > HARD_LIMIT_S or (count >= MIN_SAMPLES and elapsed + expected > seconds):
                break
            out = self.work / f"r{index}"
            wall = self.command(command, f"repeat {index}", out, base, data)
            if wall is None:
                break
            self.check_rerun(f"repeat {index} {command}", first, out, [command])
            shutil.rmtree(out)
            spent[command] += wall
            index += 1
        return []

    def measure_traced(self, seconds, start, data, base, walls, first):
        """Pairs of an untraced and a traced cycle, then one allocation pass."""
        samples, index = [], 0
        while True:
            if index:
                walls = self.cycle(f"cycle {index}", self.work / f"c{index}", data)
            traced_dir = self.work / f"t{index}"
            traced_walls = self.cycle(f"cycle {index} traced", traced_dir, data, traced=True)
            self.check_rerun(f"cycle {index} traced", first, traced_dir)
            if len(traced_walls) == len(COMMANDS) == len(walls):
                samples.append(self.layer_sample(traced_dir, walls, traced_walls))
            index += 1
            elapsed = time.perf_counter() - start
            if elapsed * (index + 1) / index > min(seconds, HARD_LIMIT_S):
                break
        alloc_dir = self.work / "alloc"
        shutil.copytree(base / "split", alloc_dir / "split")
        walls = self.cycle("allocation pass", alloc_dir, data, traced=True, alloc=True,
                           commands=("train", "eval"))
        if len(walls) == 2:
            samples.append(self.alloc_sample(alloc_dir))
        return samples

    # -- per-layer metrics -------------------------------------------------
    def layer_sample(self, traced_dir, walls, traced_walls):
        traces = {c: json.loads((traced_dir / f"{c}.spans.json").read_text()) for c in COMMANDS}
        for command, trace in traces.items():
            self.gate(f"traced {command} import and self times account for its wall time",
                      layers.accounting(trace, traced_walls[command]))
        return layers.summarize(traces, walls, traced_walls)

    def alloc_sample(self, alloc_dir):
        traces = {c: json.loads((alloc_dir / f"{c}.alloc.spans.json").read_text())
                  for c in ("train", "eval")}
        return layers.peaks(traces, self.spec["items"])


def fingerprint():
    """What must match before two runs may be compared."""
    import scipy  # noqa: PLC0415

    def blas(package):
        libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
        return sorted(p.name for p in libs.glob("*blas*")) if libs.is_dir() else []

    return {
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "system": platform.system(),
        "blas_threads": THREADS, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "numpy_blas": blas(np), "scipy_blas": blas(scipy),
    }


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def median(values):
    return float(statistics.median(values))


def print_breakdown(name, values):
    """Per command of one traced cycle: each layer's self time; with the
    command's own time, its import and the rest (interpreter start and exit)
    they add up to the command's traced wall time."""
    for command in COMMANDS:
        parts = {layer: values[f"{layer}.{command}.self_s"] for layer in LAYERS
                 if f"{layer}.{command}.self_s" in values}
        left = values.get(f"trace.{command}.rest_s")
        if left is None:
            continue
        own = values[f"cli.{command}.self_s"]
        imported = values[f"cli.{command}.import_s"]
        cells = " ".join(f"{layer}={v:.3f}" for layer, v in sorted(parts.items(), key=lambda p: -p[1]))
        print(f"{name} {command} s: {cells} cli={own:.3f} import={imported:.3f} "
              f"rest={left:.3f} of traced wall {values[f'trace.{command}.wall_s']:.3f}")


def run_workload(name, seed, seconds, trace, spec_metrics):
    """Run one workload; return (metrics, attempted, failed count)."""
    run = Run(name, seed)
    try:
        layer_samples = run.measure(seconds, trace)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    metrics, all_layers = {}, {}
    if trace:
        merged = {}
        for values in layer_samples:
            for key, value in values.items():
                merged.setdefault(key, []).append(value)
        for metric, unit in spec_metrics:
            if metric in merged:
                metrics[metric] = {"value": median(merged[metric]), "unit": unit}
            else:
                print(f"note {name}: {metric} not measured (no call of the function it reads)")
        if layer_samples:
            print_breakdown(name, layer_samples[0])
        all_layers = {key: median(v) for key, v in merged.items()}
    else:
        for metric, unit in spec_metrics:
            if metric in run.samples:
                metrics[metric] = {"value": median(run.samples[metric]), "unit": unit}
        for command in COMMANDS:
            values = run.samples.get(f"{PREFIX[command]}_s", [])
            if values:
                print(f"{name} {command}: {len(values)} runs, wall s median {median(values):.4g}, "
                      f"min {min(values):.4g}, max {max(values):.4g}")
    attempted = max(run.attempted, 1)
    failed = run.failed
    print(f"{name} error_rate {failed / attempted:.6g} ratio ({failed} of {attempted} operations)")
    for metric, entry in metrics.items():
        print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")
    result_dir = ROOT / ".bench_results"
    result_dir.mkdir(exist_ok=True)
    (result_dir / f"{name}-s{seed}-trace{int(trace)}.json").write_text(json.dumps({
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": git_commit(), "fingerprint": fingerprint(), "metrics": metrics,
        "samples": run.samples, "layers": all_layers, "attempted": attempted, "failed": failed,
    }, indent=1) + "\n")
    return metrics, attempted, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run unwinds, so that spawn() kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "edlae" / "cli.py").is_file():
        print(f"error: {ROOT} holds no src/edlae; run from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    if any(w not in WORKLOADS or w not in names for w in workloads):
        parser.error(f"--workload must be one of {', '.join(names)} or all")
    kind = "per_layer" if args.trace else "end_to_end"
    spec_metrics = [(m["name"], m["unit"]) for m in spec[kind]]

    print(f"commit {git_commit()} fingerprint {json.dumps(fingerprint())}")
    metrics, attempted, failed = {}, 0, 0
    for name in workloads:
        values, tried, bad = run_workload(name, args.seed, args.seconds, args.trace, spec_metrics)
        attempted += tried
        failed += bad
        if len(workloads) == 1:
            metrics = values
        else:
            metrics.update({f"{name}.{k}": v for k, v in values.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
