"""File formats: dense matrix CSV, cohort manifests, design files, reports.

Matrices are plain CSV, n rows by n columns, no header by default. Floats
are written with repr so finite values round-trip bit-identically, and all
writers are deterministic: rerunning with the same inputs and seed yields
byte-identical delimited output.
"""

from __future__ import annotations

import csv
import gzip
import json
import math
import warnings
from pathlib import Path

import numpy as np

from .core import (
    ConnectivityCohort,
    DdtError,
    DifferenceNetwork,
    SymmetricMatrix,
    ValidationError,
    inv_logit,
)
from .degree_test import DdtResult
from .edgetests import EdgeTestConfig
from .enrichment import EnrichmentResult, ModulePartition
from .hqs import MomentSummary, NullEnsemble, NullStream
from .simulate import ExperimentResult, SimDesign
from .thresholds import ThresholdRule


class ManifestError(DdtError):
    """A manifest or design file is missing, unreadable, or malformed."""


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def write_matrix_csv(path, dense: np.ndarray) -> None:
    """An integer or float matrix as CSV with CRLF line ends (the csv
    module's), floats as their repr."""
    dense = np.asarray(dense)
    conv = str if np.issubdtype(dense.dtype, np.integer) else repr
    with open(path, "w", newline="") as fh:
        for row in dense.tolist():
            fh.write(",".join(map(conv, row)) + "\r\n")


def read_matrix_csv(path, header: bool = False) -> np.ndarray:
    """Square float matrix from a CSV file, parsed by numpy's C reader.

    Fields may be quoted, blank lines are skipped, and header=True skips the
    first line. Missing, empty, non-numeric, ragged and non-square files
    raise ManifestError naming the file.
    """
    path = Path(path)
    if not path.exists():
        raise ManifestError(f"matrix file not found: {path}")
    try:
        with warnings.catch_warnings():
            # an empty input only warns; it is reported below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            arr = np.loadtxt(path, delimiter=",", comments=None, quotechar='"',
                             ndmin=2, dtype=float, skiprows=int(header))
    except ValueError as err:
        kind = ("ragged rows" if "number of columns changed" in str(err)
                else "non-numeric value")
        raise ManifestError(f"{path}: {kind}: {err}") from err
    if arr.size == 0:
        raise ManifestError(f"{path}: empty matrix file")
    if arr.shape[0] != arr.shape[1]:
        raise ManifestError(f"{path}: matrix is {arr.shape[0]}x{arr.shape[1]}, "
                            "expected square")
    return arr


def load_json(path) -> dict:
    path = Path(path)
    if not path.exists():
        raise ManifestError(f"file not found: {path}")
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as err:
        raise ManifestError(f"{path}: invalid JSON: {err}") from err


def write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_cohort(manifest: dict, base_dir: Path, header: bool = False) -> ConnectivityCohort:
    """Build a cohort from a manifest block.

    Expected keys: group1 and group2 (lists of matrix CSV paths), optional
    covariates (CSV, one row per subject ordered group1 then group2) and
    labels (one node label per line). Relative paths resolve against the
    manifest's directory.
    """
    for key in ("group1", "group2"):
        if key not in manifest or not isinstance(manifest[key], list):
            raise ManifestError(f"cohort manifest needs a {key!r} file list")

    def load_group(paths):
        mats = []
        for p in paths:
            dense = read_matrix_csv(base_dir / p, header=header)
            try:
                mats.append(SymmetricMatrix.from_dense(dense))
            except ValidationError as err:
                raise ManifestError(f"{base_dir / p}: {err}") from err
        return tuple(mats)

    group1 = load_group(manifest["group1"])
    group2 = load_group(manifest["group2"])
    covariates = None
    if manifest.get("covariates"):
        cpath = base_dir / manifest["covariates"]
        if not cpath.exists():
            raise ManifestError(f"covariate file not found: {cpath}")
        with open(cpath, newline="") as fh:
            covariates = np.array([[float(v) for v in row]
                                   for row in csv.reader(fh) if row])
    labels = None
    if manifest.get("labels"):
        lpath = base_dir / manifest["labels"]
        if not lpath.exists():
            raise ManifestError(f"label file not found: {lpath}")
        labels = tuple(line.strip() for line in lpath.read_text().splitlines()
                       if line.strip())
    return ConnectivityCohort(group1=group1, group2=group2,
                              covariates=covariates, labels=labels)


def parse_test_config(block: dict, seed: int) -> EdgeTestConfig:
    try:
        return EdgeTestConfig(
            method=block.get("test", "welch_t"),
            fisher_z=bool(block.get("fisher_z", False)),
            permutations=int(block.get("permutations", 1000)),
            seed=int(block.get("seed", seed)))
    except ValidationError as err:
        raise ManifestError(f"test config: {err}") from err


def parse_threshold_rule(block: dict) -> ThresholdRule:
    try:
        kwargs = {}
        if "seed" in block:
            kwargs["seed"] = int(block["seed"])
        return ThresholdRule(
            kind=block.get("kind", "addt"),
            level=float(block.get("level", 0.95)),
            resolution=int(block.get("resolution", 1_000_000)),
            **kwargs)
    except ValidationError as err:
        raise ManifestError(f"threshold config: {err}") from err


def load_design(path) -> tuple[SimDesign, tuple[str, ...], tuple[str, ...]]:
    """Design file -> (SimDesign, node methods, edge rules)."""
    raw = load_json(path)
    methods = tuple(raw.pop("methods", ["addt", "eddt", "binb", "binf", "t10"]))
    edge_rules = tuple(raw.pop("edge_rules", []))
    if "targets" in raw:
        raw["targets"] = tuple(raw["targets"])
    known = set(SimDesign.__dataclass_fields__)
    unknown = set(raw) - known
    if unknown:
        raise ManifestError(f"unknown design fields: {sorted(unknown)}")
    try:
        return SimDesign(**raw), methods, edge_rules
    except (ValidationError, TypeError) as err:
        raise ManifestError(f"design file: {err}") from err


def load_partition(path) -> ModulePartition:
    """modules.csv: node_index,module_id[,module_name]; 0-based nodes."""
    path = Path(path)
    if not path.exists():
        raise ManifestError(f"module file not found: {path}")
    assignment = {}
    names: dict[int, str] = {}
    with open(path, newline="") as fh:
        for idx, row in enumerate(csv.reader(fh)):
            if not row:
                continue
            if idx == 0 and not row[0].strip().lstrip("-").isdigit():
                continue    # header line
            try:
                node, module = int(row[0]), int(row[1])
            except (IndexError, ValueError) as err:
                raise ManifestError(
                    f"{path}: line {idx + 1} is not node_index,module_id") from err
            assignment[node] = module
            if len(row) > 2 and row[2].strip():
                names[module] = row[2].strip()
    if not assignment:
        raise ManifestError(f"{path}: no module assignments")
    n = max(assignment) + 1
    if sorted(assignment) != list(range(n)):
        raise ManifestError(f"{path}: node indices must cover 0..{n - 1}")
    arr = np.array([assignment[i] for i in range(n)], dtype=int)
    module_names = None
    if names:
        module_names = tuple(names.get(g, str(g))
                             for g in range(1, int(arr.max()) + 1))
    try:
        return ModulePartition(assignment=arr, module_names=module_names)
    except ValidationError as err:
        raise ManifestError(f"{path}: {err}") from err


# ---------------------------------------------------------------------------
# report writers


def write_nodes_csv(path, result: DdtResult, labels=None, baselines=None) -> None:
    """nodes.csv: node,label,degree,p_null,pvalue,significant plus one column
    block per requested baseline."""
    baselines = baselines or {}
    header = ["node", "label", "degree", "p_null", "pvalue", "significant"]
    for name in baselines:
        if name == "t10":
            header += ["t10_pvalue", "t10_significant"]
        else:
            header += [f"{name}_degree", f"{name}_pvalue", f"{name}_significant"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for r in result.nodes:
            label = labels[r.node] if labels else str(r.node)
            row = [str(r.node), label, str(r.degree), _fmt(r.p_null),
                   _fmt(r.pvalue), _fmt(r.significant)]
            for name, res in baselines.items():
                if name == "t10":
                    row += [_fmt(res.pvalues[r.node]),
                            _fmt(res.significant[r.node])]
                else:
                    node = res[r.node]
                    row += [str(node.degree), _fmt(node.pvalue),
                            _fmt(node.significant)]
            writer.writerow(row)


def write_enrichment_csv(path, results: tuple[EnrichmentResult, ...],
                         partition: ModulePartition) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["module1", "module2", "name1", "name2", "observed",
                         "expected", "statistic", "pvalue", "pvalue_adjusted",
                         "significant", "low_expectation"])
        for r in results:
            g1, g2 = r.block
            writer.writerow([
                str(g1), str(g2), partition.name(g1), partition.name(g2),
                str(r.observed), _fmt(r.expected), _fmt(r.statistic),
                _fmt(r.pvalue), _fmt(r.pvalue_adjusted),
                _fmt(r.significant), _fmt(r.low_expectation)])


def write_metrics_csv(path, result: ExperimentResult) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "scope", "tpr", "fpr", "mcc", "tpr_se",
                         "fpr_se", "mcc_se", "tp", "fp", "tn", "fn",
                         "replicates_used", "errors"])
        for row in result.metrics:
            c = row.counts
            writer.writerow([
                row.method, row.scope, _fmt(row.tpr), _fmt(row.fpr),
                _fmt(row.mcc), _fmt(row.tpr_se), _fmt(row.fpr_se),
                _fmt(row.mcc_se), str(c.tp), str(c.fp), str(c.tn), str(c.fn),
                str(row.replicates_used), str(row.errors)])


def write_replicates_csv(path, result: ExperimentResult) -> None:
    """Per-replicate confusion records, gzip-compressed.

    The gzip header is written with a zeroed mtime and no filename so the
    output is byte-identical across reruns.
    """
    lines = ["replicate,method,scope,tp,fp,tn,fn,error"]
    for o in result.outcomes:
        for scope, table in (("node", o.node_counts), ("edge", o.edge_counts)):
            for method, c in table.items():
                lines.append(f"{o.replicate},{method},{scope},{c.tp},"
                             f"{c.fp},{c.tn},{c.fn},")
        for method, msg in o.errors.items():
            clean = msg.replace(",", ";").replace("\n", " ")
            lines.append(f"{o.replicate},{method},node,,,,,{clean}")
    with open(path, "wb") as raw:
        with gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0) as gz:
            gz.write(("\n".join(lines) + "\n").encode())


def write_moments_json(path, moments: MomentSummary) -> None:
    write_json(path, moments.to_dict())


def write_gamma_json(path, rule: ThresholdRule, gamma: float) -> None:
    write_json(path, {
        "kind": rule.kind, "level": rule.level, "gamma": gamma,
        "tau": inv_logit(gamma) if math.isfinite(gamma) else 1.0})


def write_null_networks(out_dir: Path,
                        ensemble: NullStream | NullEnsemble) -> list[Path]:
    """One probability-scale CSV per null network, written block by block as
    a NullStream generates them."""
    paths = []
    width = len(str(ensemble.size - 1))
    for block in ensemble.blocks():
        for entries in block:
            net = DifferenceNetwork(n=ensemble.n, d=inv_logit(entries))
            p = out_dir / f"null_{len(paths):0{width}d}.csv"
            write_matrix_csv(p, net.to_symmetric().to_dense())
            paths.append(p)
    return paths
