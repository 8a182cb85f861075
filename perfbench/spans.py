"""Traced in-process run of the ddt CLI: records layer spans and counts.

Usage: python3 perfbench/spans.py SPANS_JSON DDT_ARG...

Installs span wrappers around the public ddtnet functions at the module
attributes their callers look them up through, runs
``ddtnet.cli.main(DDT_ARGS)`` inside a root span, writes the spans, the
counts and the metrics that went missing to SPANS_JSON, and exits with
main's return code. A metric goes missing, with a warning, when its hook
no longer resolves or its count callback fails; the run itself goes on.
The program's source is never edited.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from typing import Callable, NamedTuple


def _file_bytes(path) -> int:
    return os.path.getsize(path) if path and os.path.isfile(path) else 0


# Count callbacks: counts(counts, call, result), where `call` maps the wrapped
# function's parameter names to the arguments of this call; error(counts, err)
# for a call that raised.

def _input_bytes(counts, call, result):
    manifest, base_dir = call["manifest"], call["base_dir"]
    files = list(manifest.get("group1", [])) + list(manifest.get("group2", []))
    files += [manifest[k] for k in ("covariates", "labels") if manifest.get(k)]
    counts["io.input_bytes"] += sum(_file_bytes(os.path.join(base_dir, f))
                                    for f in files)


def _output_bytes(counts, call, result):
    counts["io.output_bytes"] += _file_bytes(call["path"])


def _edges(counts, call, result):
    counts["edgetests.edges"] += result.n_edges


def _null(counts, call, result):
    """M null networks of E = n(n-1)/2 float64 entries: M x E x 8 bytes, the
    size of the largest ensemble, computed from the call's arguments."""
    size, n = call["size"], call["n"]
    counts["hqs.null_replicates"] += size
    counts["hqs.null_bytes"] = max(counts["hqs.null_bytes"],
                                   size * (n * (n - 1) // 2) * 8)


def _mc_samples(counts, call, result):
    counts["thresholds.mc_samples"] += len(result)


def _eddt(counts, call, result):
    ensemble = call["ensemble"]
    counts["thresholds.eddt_pooled_values"] += (
        ensemble.size * (ensemble.n * (ensemble.n - 1) // 2))


def _moments_error(counts, err):
    if type(err).__name__ == "NonpositiveMeanError":
        counts["hqs.nonpositive_mean"] += 1


class Hook(NamedTuple):
    """One wrapped module attribute and the metrics it feeds."""

    module: str
    attr: str
    span: str | None = None        # receives the span's self time
    calls: str | None = None       # counts the calls that returned
    counts: Callable | None = None  # counts(counts, call, result)
    error: Callable | None = None   # error(counts, err)
    feeds: tuple[str, ...] = ()    # the count metrics `counts`/`error` write

    @property
    def metrics(self) -> tuple[str, ...]:
        return tuple(m for m in (self.span, self.calls) if m) + self.feeds


_WRITE = {"span": "io.write_s", "counts": _output_bytes,
          "feeds": ("io.output_bytes",)}
_EDGES = {"span": "edgetests.edgewise_s", "counts": _edges,
          "feeds": ("edgetests.edges",)}
_NULL = {"span": "hqs.generate_null_s", "counts": _null,
         "feeds": ("hqs.null_replicates", "hqs.null_bytes")}
_MOMENTS = {"error": _moments_error, "feeds": ("hqs.nonpositive_mean",)}
_ADDT = {"span": "thresholds.addt_s", "calls": "thresholds.addt_calls"}
_EDDT = {"span": "thresholds.eddt_s", "counts": _eddt,
         "feeds": ("thresholds.eddt_pooled_values",)}
_BINOMIAL = {"calls": "degree_test.binomial_calls"}

# A name bound in several caller modules is wrapped at each binding, since
# each caller looks it up in its own namespace.
HOOKS = (
    Hook("ddtnet.cli", "load_cohort", span="io.load_cohort_s",
         counts=_input_bytes, feeds=("io.input_bytes",)),
    Hook("ddtnet.cli", "write_nodes_csv", **_WRITE),
    Hook("ddtnet.cli", "write_matrix_csv", **_WRITE),
    Hook("ddtnet.cli", "write_gamma_json", **_WRITE),
    Hook("ddtnet.cli", "write_moments_json", **_WRITE),
    Hook("ddtnet.cli", "write_json", **_WRITE),
    Hook("ddtnet.cli", "write_metrics_csv", **_WRITE),
    Hook("ddtnet.cli", "write_replicates_csv", **_WRITE),
    Hook("ddtnet.cli", "ddt_run", span="degree_test.ddt_run_self_s"),
    Hook("ddtnet.cli", "degree_ttest", span="baselines.degree_ttest_s"),
    Hook("ddtnet.cli", "binomial_corrected",
         span="baselines.binomial_corrected_s"),
    Hook("ddtnet.cli", "run_experiment",
         span="simulate.run_experiment_self_s"),
    Hook("ddtnet.degree_test", "edgewise_pvalues", **_EDGES),
    Hook("ddtnet.degree_test", "observed_moments", **_MOMENTS),
    Hook("ddtnet.degree_test", "generate_null", **_NULL),
    Hook("ddtnet.degree_test", "node_tests", span="degree_test.node_tests_s"),
    Hook("ddtnet.degree_test", "binomial_upper_tail", **_BINOMIAL),
    Hook("ddtnet.thresholds", "addt_threshold", **_ADDT),
    Hook("ddtnet.thresholds", "eddt_threshold", **_EDDT),
    Hook("ddtnet.thresholds", "mixture_sample", counts=_mc_samples,
         feeds=("thresholds.mc_samples",)),
    Hook("ddtnet.baselines", "binomial_upper_tail", **_BINOMIAL),
    Hook("ddtnet.simulate", "run_replicate",
         span="simulate.run_replicate_self_s", calls="simulate.replicates"),
    Hook("ddtnet.simulate", "simulate_cohort",
         span="simulate.simulate_cohort_s"),
    Hook("ddtnet.simulate", "edgewise_pvalues", **_EDGES),
    Hook("ddtnet.simulate", "observed_moments", **_MOMENTS),
    Hook("ddtnet.simulate", "generate_null", **_NULL),
    Hook("ddtnet.simulate", "addt_threshold", **_ADDT),
    Hook("ddtnet.simulate", "eddt_threshold", **_EDDT),
    Hook("ddtnet.simulate", "node_tests", span="degree_test.node_tests_s"),
    Hook("ddtnet.simulate", "binomial_corrected",
         span="baselines.binomial_corrected_s"),
    Hook("ddtnet.simulate", "degree_ttest", span="baselines.degree_ttest_s"),
    Hook("ddtnet.simulate", "baseline_threshold",
         span="thresholds.baseline_s"),
    Hook("ddtnet.simulate", "score", span="simulate.score_s"),
)

ROOT_METRIC = "cli.self_s"


def warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


class Tracer:
    """Spans kept in memory as [name, start, end, parent index], counts, and
    the metrics that went missing."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.missing: set[str] = set()
        self._stack: list[int] = []

    def span(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def feed(self, hook: Hook, update: Callable[[], None]) -> None:
        """Run one count callback. If it fails, because the program no longer
        has what it reads, its metrics become missing; the call goes on."""
        try:
            update()
        except Exception as err:
            if not self.missing.issuperset(hook.feeds):
                warn(f"counting {hook.module}.{hook.attr} failed ({err!r}); "
                     f"missing: {', '.join(hook.feeds)}")
            self.missing.update(hook.feeds)


def _wrap(tracer: Tracer, fn, hook: Hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            if hook.span is None:
                result = fn(*args, **kwargs)
            else:
                result = tracer.span(hook.span, fn, *args, **kwargs)
        except Exception as err:
            if hook.error is not None:
                tracer.feed(hook, lambda: hook.error(tracer.counts, err))
            raise
        if hook.calls is not None:
            tracer.counts[hook.calls] += 1
        if hook.counts is not None:
            tracer.feed(hook, lambda: hook.counts(
                tracer.counts,
                inspect.signature(fn).bind(*args, **kwargs).arguments,
                result))
        return result
    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap every hook that resolves. The metrics of one that does not are
    marked missing, with a warning."""
    for hook in HOOKS:
        try:
            module = importlib.import_module(hook.module)
            fn = getattr(module, hook.attr)
        except (ImportError, AttributeError):
            warn(f"trace hook {hook.module}.{hook.attr} does not resolve; "
                 f"missing: {', '.join(hook.metrics)}")
            tracer.missing.update(hook.metrics)
            continue
        setattr(module, hook.attr, _wrap(tracer, fn, hook))


def main(argv: list[str]) -> int:
    out_path, ddt_args = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from ddtnet import cli
    code = tracer.span(ROOT_METRIC, cli.main, ddt_args)
    with open(out_path, "w") as fh:
        json.dump({"spans": tracer.spans, "counts": tracer.counts,
                   "missing": sorted(tracer.missing)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
