"""End-to-end and per-layer benchmark of the ddt command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each invocation generates the workload's inputs from the seed, makes one
untimed warm-up run, then times fresh `ddt` processes (the console-script
entry point, run from this checkout's src/) for about S seconds. Every
invocation's outputs are checked, and their CSV digests must agree. With
--trace 0 it reports the end-to-end metrics; with --trace 1 it runs the
program in-process under span wrappers (spans.py) and reports per-layer
metrics. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import spans  # noqa: E402

# what the installed `ddt` console script runs
DDT_ENTRY = "import sys; from ddtnet.cli import main; sys.exit(main())"
SETUP_REPS = 3
PER_GROUP = 30                 # subjects per group in the `ddt run` cohorts
NULL_NETWORKS = 1000
RUN_BUDGET_S = 170.0           # the whole benchmark run must end within 180 s
ALPHA = 0.05
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "DDT_THREADS")

PER_LAYER = (
    "io.load_cohort_s", "io.input_bytes", "io.write_s", "io.output_bytes",
    "edgetests.edgewise_s", "edgetests.edges", "edgetests.edges_per_s",
    "hqs.generate_null_s", "hqs.null_replicates", "hqs.null_bytes",
    "hqs.nonpositive_mean",
    "thresholds.addt_s", "thresholds.addt_calls", "thresholds.mc_samples",
    "thresholds.eddt_s", "thresholds.eddt_pooled_values",
    "thresholds.baseline_s",
    "degree_test.ddt_run_self_s", "degree_test.node_tests_s",
    "degree_test.binomial_calls",
    "baselines.degree_ttest_s", "baselines.binomial_corrected_s",
    "simulate.simulate_cohort_s", "simulate.score_s",
    "simulate.run_replicate_self_s", "simulate.run_experiment_self_s",
    "simulate.replicates",
    "cli.self_s", "trace.overhead_s",
)
# The one count that may differ between traced runs of a workload: the JSON
# summaries the program writes hold its elapsed time, whose rounding can
# change their length. Every other count is fixed by the inputs.
INEXACT = ("io.output_bytes",)
SIM_METHODS = ("addt", "eddt", "binb", "binf", "t10")
SIM_EDGE_RULES = ("addt", "eddt", "hard_0.95", "hard_0.99", "bonferroni", "fdr")
METRICS_HEADER = ["method", "scope", "tpr", "fpr", "mcc", "tpr_se", "fpr_se",
                  "mcc_se", "tp", "fp", "tn", "fn", "replicates_used", "errors"]


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class RunWorkload:
    """`ddt run` on a generated on-disk cohort of 30 + 30 subjects."""

    n: int
    test: str
    threshold: str
    covariates: int = 0
    baselines: tuple[str, ...] = ()

    def prepare(self, work: Path, seed: int) -> dict:
        made = gen.write_cohort(
            work / "inputs", seed=seed, n=self.n, per_group=PER_GROUP,
            test=self.test, threshold=self.threshold,
            null_networks=NULL_NETWORKS, covariates=self.covariates,
            baselines=self.baselines)
        return {"args": ["run", "--manifest", str(made["manifest"])],
                "targets": made["targets"], "units": 1}

    def check(self, out: Path, inputs: dict) -> tuple[list[str], dict, dict]:
        problems, quality = check_nodes(out / "nodes.csv", self.n,
                                        self.baselines, self.threshold,
                                        inputs["targets"])
        return problems, quality, digests(
            out, ("nodes.csv", "difference_network.csv", "adjacency.csv"))


@dataclass(frozen=True)
class SimWorkload:
    """`ddt --threads 1 simulate` on the three-target q=7 design."""

    replicates: int

    def prepare(self, work: Path, seed: int) -> dict:
        path = gen.write_design(work / "inputs", seed=seed,
                                replicates=self.replicates)
        return {"args": ["--threads", "1", "simulate", "--design", str(path)],
                "units": self.replicates}

    def check(self, out: Path, inputs: dict) -> tuple[list[str], dict, dict]:
        problems, quality = check_metrics(out / "metrics.csv", self.replicates)
        return problems, quality, digests(
            out, ("metrics.csv", "replicates.csv.gz"))


# Why each workload exists is recorded in perfbench/README.md.
WORKLOADS = {
    "atlas400-eddt": RunWorkload(n=400, test="welch_t", threshold="eddt"),
    "power264-regress-addt": RunWorkload(
        n=264, test="regression", threshold="addt", covariates=2,
        baselines=("t10", "binb", "binf")),
    "sim-q7x3": SimWorkload(replicates=100),
}


# ---------------------------------------------------------------------------
# output checks


def digests(out: Path, names) -> dict:
    found = {}
    for name in names:
        path = out / name
        found[name] = (hashlib.sha256(path.read_bytes()).hexdigest()
                       if path.is_file() else "missing")
    return found


def mcc(tp: int, fp: int, tn: int, fn: int) -> float:
    denom = math.sqrt(float(tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
    return (tp * tn - fp * fn) / denom if denom else 0.0


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def check_nodes(path: Path, n: int, baselines, threshold: str,
                targets) -> tuple[list[str], dict]:
    """Problems found in nodes.csv, and the node-level MCC of its decisions."""
    if not path.is_file():
        return [f"{path.name} missing"], {}
    rows = _read_csv(path)
    header = ["node", "label", "degree", "p_null", "pvalue", "significant"]
    decisions = [("pvalue", "significant")]
    for name in baselines:
        if name == "t10":
            header += ["t10_pvalue", "t10_significant"]
        else:
            header += [f"{name}_degree", f"{name}_pvalue",
                       f"{name}_significant"]
        decisions.append((f"{name}_pvalue", f"{name}_significant"))
    problems = []
    if rows[0] != header:
        return [f"nodes.csv header {rows[0]} != {header}"], {}
    if len(rows) != n + 1:
        problems.append(f"nodes.csv has {len(rows) - 1} rows, expected {n}")
    col = {name: i for i, name in enumerate(header)}
    truth = set(targets)
    tp = fp = tn = fn = 0
    for k, row in enumerate(rows[1:]):
        if len(row) != len(header) or row[col["node"]] != str(k):
            problems.append(f"nodes.csv row {k} malformed")
            continue
        if not 0.0 <= float(row[col["p_null"]]) <= 1.0:
            problems.append(f"node {k}: p_null out of [0, 1]")
        for p_col, sig_col in decisions:
            p = float(row[col[p_col]])
            if not 0.0 < p <= 1.0:
                problems.append(f"node {k}: {p_col}={p} outside (0, 1]")
            if (row[col[sig_col]] == "true") != (p < ALPHA):
                problems.append(f"node {k}: {sig_col} disagrees with {p_col}")
        sig = row[col["significant"]] == "true"
        hit = k in truth
        tp += sig and hit
        fp += sig and not hit
        tn += not sig and not hit
        fn += not sig and hit
    return problems[:10], {f"node_mcc.{threshold}": mcc(tp, fp, tn, fn)}


def check_metrics(path: Path, replicates: int) -> tuple[list[str], dict]:
    """Problems found in metrics.csv, and the aDDT/eDDT node MCC and the
    share of (replicate, node method) pairs that raised."""
    if not path.is_file():
        return [f"{path.name} missing"], {}
    rows = _read_csv(path)
    if rows[0] != METRICS_HEADER:
        return [f"metrics.csv header {rows[0]} != {METRICS_HEADER}"], {}
    expected = ([(m, "node") for m in SIM_METHODS]
                + [(r, "edge") for r in SIM_EDGE_RULES])
    got = [(row[0], row[1]) for row in rows[1:]]
    if got != expected:
        return [f"metrics.csv rows {got} != {expected}"], {}
    problems, found, errors = [], {}, 0
    for row in rows[1:]:
        rec = dict(zip(METRICS_HEADER, row))
        tpr, fpr, m = float(rec["tpr"]), float(rec["fpr"]), float(rec["mcc"])
        if not (0.0 <= tpr <= 1.0 and 0.0 <= fpr <= 1.0 and -1.0 <= m <= 1.0):
            problems.append(f"{rec['method']}/{rec['scope']}: rate out of range")
        if int(rec["replicates_used"]) + int(rec["errors"]) != replicates:
            problems.append(f"{rec['method']}/{rec['scope']}: used + errors "
                            f"!= {replicates}")
        if rec["scope"] == "node":
            errors += int(rec["errors"])
            if rec["method"] in ("addt", "eddt"):
                found[f"node_mcc.{rec['method']}"] = m
    found["method_error_share"] = errors / (replicates * len(SIM_METHODS))
    return problems, found


# ---------------------------------------------------------------------------
# process control


@dataclass
class Invocation:
    args: list
    wall_s: float
    rss_mb: float
    code: int
    problems: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    quality: dict = field(default_factory=dict)


def spawn(argv: list[str], log: Path, deadline: float) -> tuple[float, float, int]:
    """Run one fresh process; return (wall s, its own peak RSS in MB, exit
    code).

    The child is killed if it outlives the run's deadline.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(log.with_suffix(".out"), "wb") as out, \
            open(log.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                cwd=ROOT)
        killer = threading.Timer(max(0.0, deadline - time.monotonic()),
                                 proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:          # interrupted: end the child, re-raise
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss * 1024 / 1e6, proc.returncode   # KiB -> MB


class BenchRun:
    """One benchmark run: a workload, its inputs and every invocation."""

    def __init__(self, name: str, seed: int, work: Path):
        self.workload = WORKLOADS[name]
        self.work = work
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.invocations: list[Invocation] = []
        self.inputs = self.workload.prepare(work, seed)

    def ddt(self, label: str, traced_to: Path | None = None) -> Invocation:
        out = self.work / label
        args = self.inputs["args"] + ["--out", str(out)]
        if traced_to is None:
            argv = [sys.executable, "-c", DDT_ENTRY, *args]
        else:
            argv = [sys.executable, str(HERE / "spans.py"), str(traced_to),
                    *args]
        wall, rss, code = spawn(argv, self.work / label, self.deadline)
        inv = Invocation(args=args, wall_s=wall, rss_mb=rss, code=code)
        if code != 0:
            err = (self.work / f"{label}.err").read_text(errors="replace")
            inv.problems.append(f"exit {code}: {err.strip()[-300:]}")
        else:
            inv.problems, inv.quality, inv.digests = self.workload.check(
                out, self.inputs)
        self.invocations.append(inv)
        return inv

    def version(self, label: str) -> Invocation:
        """One fresh `ddt --version` process: the start-up cost alone."""
        log = self.work / label
        wall, rss, code = spawn([sys.executable, "-c", DDT_ENTRY, "--version"],
                                log, self.deadline)
        inv = Invocation(args=["--version"], wall_s=wall, rss_mb=rss, code=code)
        text = log.with_suffix(".out").read_text(errors="replace")
        if code != 0 or not text.startswith("ddt "):
            inv.problems.append(f"--version: exit {code}, {text!r}")
        self.invocations.append(inv)
        return inv

    def verdict(self) -> tuple[bool, int]:
        """Mark invocations whose digests differ from the first good one."""
        reference = next((i.digests for i in self.invocations
                          if i.digests and not i.problems), None)
        for inv in self.invocations:
            if inv.digests and inv.digests != reference:
                inv.problems.append("CSV digests differ from the first run")
        failed = sum(1 for i in self.invocations if i.problems)
        return failed == 0, failed


# ---------------------------------------------------------------------------
# metrics


def timed_count(warm: Invocation, seconds: float) -> int:
    """Timed invocations that fill about `seconds`, at least one."""
    return max(1, round(seconds / warm.wall_s))


def end_to_end(bench: BenchRun, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics, and the quality figures that are only printed."""
    warm = bench.ddt("warmup")
    count = timed_count(warm, seconds)
    # start-up runs are interleaved with the timed ones, so that both sample
    # the same stretch of the host's varying speed
    setup, timed = [], []
    for k in range(max(SETUP_REPS, count)):
        if k < SETUP_REPS:
            setup.append(bench.version(f"version{k}").wall_s)
        if k < count:
            timed.append(bench.ddt(f"timed{k}"))
    walls = [i.wall_s for i in timed]
    wall = statistics.median(walls)
    rss = statistics.median(i.rss_mb for i in timed)
    quality = next((i.quality for i in timed if not i.problems), {})
    mccs = [v for k, v in quality.items() if k.startswith("node_mcc.")]
    metrics = {
        "wall_s": (wall, "s", f"median of {len(timed)} fresh processes: "
                   + ", ".join(f"{w:.3f}" for w in walls)),
        "peak_rss_mb": (rss, "MB", f"median of {len(timed)}"),
        "setup_s": (statistics.median(setup), "s",
                    f"median of {len(setup)} `ddt --version`: "
                    + ", ".join(f"{w:.3f}" for w in setup)),
        "replicates_per_s": (bench.inputs["units"] / wall, "1/s",
                             f"{bench.inputs['units']} per invocation"),
        "node_mcc": (statistics.fmean(mccs) if mccs else 0.0, "mcc",
                     "mean of " + ", ".join(sorted(
                         k for k in quality if k.startswith("node_mcc.")))),
    }
    return metrics, quality


def layer_values(trace: dict) -> dict:
    """Per-layer self times and counts of one traced run. Metrics that the
    trace marks missing are left out."""
    spans_, self_s = trace["spans"], {}
    child_s = [0.0] * len(spans_)
    for name, start, end, parent in spans_:
        if parent >= 0:
            child_s[parent] += end - start
    for (name, start, end, parent), inner in zip(spans_, child_s):
        self_s[name] = self_s.get(name, 0.0) + (end - start) - inner
    skip = set(trace["missing"]) | {"edgetests.edges_per_s", "trace.overhead_s"}
    values = {name: (self_s.get(name, 0.0) if name.endswith("_s")
                     else trace["counts"].get(name, 0))
              for name in PER_LAYER if name not in skip}
    edges, secs = values.get("edgetests.edges"), values.get("edgetests.edgewise_s")
    if edges is not None and secs is not None:
        values["edgetests.edges_per_s"] = edges / secs if secs else 0.0
    return values


def per_layer(bench: BenchRun, seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics: medians over traced in-process runs."""
    warm = bench.ddt("warmup")
    count = timed_count(warm, seconds / 2)
    plain = [bench.ddt(f"timed{k}") for k in range(count)]
    traced, runs = [], []
    for k in range(count):
        path = bench.work / f"spans{k}.json"
        inv = bench.ddt(f"traced{k}", traced_to=path)
        traced.append(inv)
        if path.is_file():
            runs.append(layer_values(json.loads(path.read_text())))
    metrics = {}
    for name in PER_LAYER:
        vals = [r[name] for r in runs if name in r]
        if name == "trace.overhead_s":
            vals = [statistics.median(i.wall_s for i in traced)
                    - statistics.median(i.wall_s for i in plain)]
        if not vals:
            print(f"warning: {name} is missing (its trace hook does not "
                  "resolve, or its count failed)", file=sys.stderr)
            continue
        if (not name.endswith("_s") and name not in INEXACT
                and len(set(vals)) > 1):
            traced[0].problems.append(f"{name} differs between traced runs: "
                                      f"{vals}")
        unit = ("1/s" if name.endswith("_per_s") else "s" if name.endswith("_s")
                else "bytes" if name.endswith("_bytes") else "count")
        metrics[name] = (statistics.median(vals), unit,
                         f"median of {len(vals)} traced runs")
    return metrics, {}


def environment() -> list[str]:
    try:
        import numpy
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError) as err:
        blas = f"unknown ({err})"
    versions = []
    for pkg in ("numpy", "scipy"):
        try:
            versions.append(f"{pkg} {metadata.version(pkg)}")
        except metadata.PackageNotFoundError:
            versions.append(f"{pkg} missing")
    threads = " ".join(f"{v}={os.environ.get(v, 'unset')}" for v in THREAD_VARS)
    return [f"nproc {os.cpu_count()}; Python {platform.python_version()}; "
            f"{', '.join(versions)}; BLAS {blas}", f"threads: {threads}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run unwinds, so spawn() ends its child and cleanup runs
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "ddtnet" / "cli.py").is_file():
        print(f"error: no program to benchmark: {SRC / 'ddtnet'} is missing",
              file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = BenchRun(args.workload, args.seed, work)
        measure = per_layer if args.trace else end_to_end
        metrics, quality = measure(bench, args.seconds)
        correct, failed = bench.verdict()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in environment():
        print(line)
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:32s} {value:14.6g} {unit:6s} {note}")
    for name, value in sorted(quality.items()):
        print(f"  {name:32s} {value:14.6g} {'1':6s} first timed run")
    attempted = len(bench.invocations)
    print(f"  {'failed_share':32s} {failed / attempted:14.6g} {'1':6s} "
          f"{failed} of {attempted} invocations")
    digest_runs = [i.digests for i in bench.invocations if i.digests]
    for name, value in (digest_runs[0] if digest_runs else {}).items():
        print(f"  digest {name:25s} {value[:16]}")
    for inv in bench.invocations:
        for problem in inv.problems:
            print(f"  FAILED {' '.join(inv.args[:2])}: {problem}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
