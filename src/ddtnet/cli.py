"""Command-line front end.

Subcommands: run (full degree test on a cohort manifest), simulate
(synthetic benchmark from a design file), null (moment summary and null
networks from a difference network), enrich (module-pair enrichment of an
adjacency). Seeds are mandatory in manifests; nothing draws from wall-clock
entropy, so reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .baselines import (  # noqa: F401  perfbench/spans.py wraps them here
    binomial_corrected, degree_ttest)
from .core import (
    AdjacencyMatrix,
    DdtError,
    DifferenceNetwork,
    P_MIN,
    SymmetricMatrix,
    ValidationError,
)
from .degree_test import PipelineError, Reduction, ddt_run
from .enrichment import NoSelectedEdgesError, enrichment_test
from .hqs import NonpositiveMeanError, NullStream, observed_moments
from .io import (
    ManifestError,
    load_cohort,
    load_design,
    load_moments,
    load_partition,
    load_run_manifest,
    read_matrix_csv,
    write_enrichment_csv,
    write_gamma_json,
    write_json,
    write_matrix_csv,
    write_metrics_csv,
    write_moments_json,
    write_nodes_csv,
    write_null_networks,
    write_replicates_csv,
)
from .simulate import run_experiment

EXIT_OK = 0
EXIT_INPUT = 2       # missing/invalid files, manifests, usage
EXIT_PIPELINE = 3    # domain errors raised by the statistics themselves


def _error_json(kind: str, message: str, **extra) -> str:
    payload = {"error": kind, "message": message}
    payload.update(extra)
    return json.dumps(payload, sort_keys=True)


def _fail(code: int, kind: str, message: str, **extra) -> int:
    print(_error_json(kind, message, **extra), file=sys.stderr)
    return code


def _nonpositive_mean(err: NonpositiveMeanError) -> int:
    return _fail(EXIT_PIPELINE, "nonpositive-mean", str(err), stage="moments",
                 hint="the difference network's logit-scale mean must be "
                      "positive; weak or null signal cannot seed the generator")


def _threads(args) -> int:
    """Requested worker count: --threads, else DDT_THREADS, else the CPU
    count. core.pool_size caps it by the task and CPU counts."""
    if args.threads is not None:
        return _parse_threads(args.threads, "--threads")
    env = os.environ.get("DDT_THREADS")
    if env:
        return _parse_threads(env, "DDT_THREADS")
    return os.cpu_count() or 1


def _parse_threads(raw: str, source: str) -> int:
    try:
        threads = int(raw)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ValidationError(f"{source} must be a positive integer, got {raw!r}")
    return threads


def _peak_rss_mb() -> float:
    """The process's own peak resident memory so far, KiB on Linux -> MB."""
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                 * 1024 / 1e6, 1)


@contextlib.contextmanager
def _timed_stage(stages: dict, name: str):
    """Record the body's wall seconds, the peak RSS after it and what the
    body adds to the yielded dict as stages[name]."""
    start = time.perf_counter()
    extra = {}
    yield extra
    stages[name] = {"seconds": round(time.perf_counter() - start, 3),
                    "peak_rss_mb": _peak_rss_mb(), **extra}


def cmd_run(args) -> int:
    t_start = time.perf_counter()
    threads = _threads(args)
    run = load_run_manifest(args.manifest, seed=args.seed,
                            baselines=args.baselines)
    # the load reduces each group as it reads it (Welch: per-edge moments).
    # ddt_run gets the only reference to the reduced cohort, so it can free
    # the joint tests' (S x E) subject arrays before the eDDT null pass;
    # this frame keeps only what it writes, and CPython hands the popped
    # argument over to the callee.
    reduction = Reduction.of(run.test_config, run.baselines, run.density,
                             run.ranking)
    stages = {}
    with _timed_stage(stages, "load") as record:
        held = [load_cohort(run.cohort, run.base_dir, header=run.header,
                            reduction=reduction, threads=threads,
                            record=record)]
    labels, n_nodes = held[0].labels, held[0].n
    n_subjects = [held[0].n1, held[0].n2]

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    with _timed_stage(stages, "pipeline"):
        run_result = ddt_run(held.pop(), {run.threshold.kind: run.threshold},
                             run.baselines, test_cfg=run.test_config,
                             ensemble_size=run.null_networks, alpha=run.alpha,
                             seed=run.seed, inner_dim=run.inner_dim,
                             density=run.density, ranking=run.ranking,
                             correct_nodes=run.correct_nodes)
    if run_result.error is not None:
        raise run_result.error
    result = run_result.ddt[run.threshold.kind]

    with _timed_stage(stages, "write"):
        write_nodes_csv(out_dir / "nodes.csv", result, labels=labels,
                        baselines=run_result.baselines)
        write_matrix_csv(out_dir / "difference_network.csv",
                         run_result.difference.to_symmetric().to_dense())
        write_matrix_csv(out_dir / "adjacency.csv",
                         result.adjacency.to_dense())
        write_gamma_json(out_dir / "gamma.json", run.threshold, result.gamma)
        write_moments_json(out_dir / "moments.json", result.moments)
    test_cfg = run.test_config
    summary = {
        "seed": run.seed,
        "alpha": run.alpha,
        "null_networks": run.null_networks,
        "test_config": {"test": test_cfg.method, "fisher_z": test_cfg.fisher_z,
                        "permutations": test_cfg.permutations,
                        "seed": test_cfg.seed},
        "threshold": {"kind": run.threshold.kind, "level": run.threshold.level},
        "baselines": list(run.baselines),
        "n_nodes": n_nodes,
        "n_subjects": n_subjects,
        "gamma": result.gamma,
        "flags": result.flags,
        "significant_nodes": result.significant_nodes.tolist(),
        "elapsed_seconds": round(time.perf_counter() - t_start, 3),
        "peak_rss_mb": _peak_rss_mb(),
        "stages": stages,
    }
    write_json(out_dir / "run_summary.json", summary)
    if not args.quiet:
        print(f"wrote {out_dir}/nodes.csv "
              f"({len(result.significant_nodes)} significant nodes, "
              f"gamma={result.gamma:.4f})")
    return EXIT_OK


def cmd_simulate(args) -> int:
    t_start = time.perf_counter()
    threads = _threads(args)
    design = load_design(args.design)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = run_experiment(design, threads=threads)
    write_metrics_csv(out_dir / "metrics.csv", result)
    write_replicates_csv(out_dir / "replicates.csv.gz", result)
    write_json(out_dir / "design.json", {
        **dataclasses.asdict(design),
        "elapsed_seconds": round(time.perf_counter() - t_start, 3)})
    if not args.quiet:
        for row in result.metrics:
            print(f"{row.method:12s} {row.scope:4s} TPR={row.tpr:.3f} "
                  f"FPR={row.fpr:.4f} MCC={row.mcc:.3f} "
                  f"(used {row.replicates_used}, errors {row.errors})")
    return EXIT_OK


def cmd_null(args) -> int:
    n_nodes = args.nodes
    if args.moments:
        moments = load_moments(args.moments)
    elif args.difference:
        dense = read_matrix_csv(args.difference, header=args.header)
        sym = SymmetricMatrix.from_dense(dense)
        if not np.all((sym.values >= 0.0) & (sym.values <= 1.0)):
            raise ValidationError(f"{args.difference}: difference-network "
                                  "entries must be finite and in [0, 1]")
        dn = DifferenceNetwork(n=sym.n,
                               d=np.clip(sym.values, P_MIN, 1.0 - P_MIN))
        moments = observed_moments(dn, m=args.inner_dim)
        n_nodes = n_nodes or sym.n
    else:
        raise ManifestError("pass --difference (difference-network CSV) or "
                            "--moments (moment JSON)")
    if args.moments_out:
        write_moments_json(args.moments_out, moments)
    if args.out:
        if not n_nodes:
            raise ManifestError("--nodes is required when generating from "
                                "--moments")
        stream = NullStream(moments, n=n_nodes, size=args.ensemble_size,
                            seed=args.seed or 0)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_null_networks(out_dir, stream)
        if not args.quiet:
            print(f"wrote {stream.size} null networks to {out_dir}")
    elif not args.quiet:
        print(json.dumps(moments.to_dict(), sort_keys=True))
    return EXIT_OK


def cmd_enrich(args) -> int:
    try:
        adjacency = AdjacencyMatrix.from_dense(read_matrix_csv(args.adjacency))
    except ValidationError as err:
        raise ValidationError(f"{args.adjacency}: {err}") from err
    partition = load_partition(args.modules)
    results = enrichment_test(adjacency, partition, alpha=args.alpha)
    write_enrichment_csv(args.out, results, partition)
    if not args.quiet:
        flagged = [r.block for r in results if r.significant]
        print(f"wrote {args.out} ({len(flagged)} enriched blocks)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddt",
        description="Differential degree test for two-population networks")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    parser.add_argument("--threads", default=None,
                        help="worker pool size, a positive integer (default: "
                             "DDT_THREADS env or available parallelism; "
                             "capped by the CPU count and by the replicate "
                             "count for simulate, the larger group's subject "
                             "file count for run)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the manifest seed")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress output")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the degree test on a cohort")
    p_run.add_argument("--manifest", required=True, help="run manifest JSON")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--baselines",
                       help="comma list of baselines to add (t10,binb,binf)")
    p_run.set_defaults(func=cmd_run)

    p_sim = sub.add_parser("simulate", help="run a synthetic benchmark")
    p_sim.add_argument("--design", required=True, help="design JSON")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.set_defaults(func=cmd_simulate)

    p_null = sub.add_parser("null", help="moment summary and null networks")
    p_null.add_argument("--difference", help="difference-network CSV")
    p_null.add_argument("--moments", help="moment summary JSON (input)")
    p_null.add_argument("--moments-out", help="write the moment summary here")
    p_null.add_argument("--ensemble-size", type=int, default=100)
    p_null.add_argument("--nodes", type=int, default=None,
                        help="node count when generating from --moments")
    p_null.add_argument("--inner-dim", type=int, default=2)
    p_null.add_argument("--header", action="store_true",
                        help="matrix CSVs carry one header line")
    p_null.add_argument("--out", help="directory for generated null networks")
    p_null.set_defaults(func=cmd_null)

    p_enr = sub.add_parser("enrich", help="module-pair enrichment")
    p_enr.add_argument("--adjacency", required=True, help="adjacency CSV")
    p_enr.add_argument("--modules", required=True,
                       help="modules.csv: node_index,module_id[,module_name]")
    p_enr.add_argument("--out", required=True, help="output CSV")
    p_enr.add_argument("--alpha", type=float, default=0.05)
    p_enr.set_defaults(func=cmd_enrich)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ManifestError as err:
        return _fail(EXIT_INPUT, "manifest", str(err), stage="input")
    except NonpositiveMeanError as err:
        return _nonpositive_mean(err)
    except NoSelectedEdgesError as err:
        return _fail(EXIT_PIPELINE, "no-selected-edges", str(err),
                     stage="enrichment")
    except PipelineError as err:
        if isinstance(err.__cause__, NonpositiveMeanError):
            return _nonpositive_mean(err.__cause__)
        return _fail(EXIT_PIPELINE, "pipeline", str(err), stage="pipeline")
    except ValidationError as err:
        return _fail(EXIT_INPUT, "validation", str(err), stage="input")
    except DdtError as err:
        return _fail(EXIT_PIPELINE, "error", str(err), stage="pipeline")
    except OSError as err:
        return _fail(EXIT_INPUT, "io", str(err), stage="io")


if __name__ == "__main__":
    sys.exit(main())
