"""File formats: dense matrix CSV, cohort manifests, design files, reports.

Matrices are plain CSV, n rows by n columns, no header by default. Floats
are written with repr so finite values round-trip bit-identically, and all
writers are deterministic: rerunning with the same inputs and seed yields
byte-identical delimited output.
"""

from __future__ import annotations

import csv
import dataclasses
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
    ValidationError,
    inv_logit,
    upper_triangle,
)
from .degree_test import DdtResult
from .edgetests import EdgeTestConfig
from .enrichment import EnrichmentResult, ModulePartition
from .hqs import MomentSummary, NullEnsemble, NullStream
from .simulate import NODE_METHODS, ExperimentResult, SimDesign, experiment_rules
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
        for row in dense:
            fh.write(",".join(map(conv, row.tolist())) + "\r\n")


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
            payload = json.load(fh)
    except json.JSONDecodeError as err:
        raise ManifestError(f"{path}: invalid JSON: {err}") from err
    if not isinstance(payload, dict):
        raise ManifestError(f"{path}: expected a JSON object")
    return payload


def write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_cohort(manifest: dict, base_dir: Path, header: bool = False) -> ConnectivityCohort:
    """Build a cohort from a manifest block.

    Expected keys: group1 and group2 (lists of matrix CSV paths), optional
    covariates (CSV, one row per subject ordered group1 then group2) and
    labels (one node label per line). Relative paths resolve against the
    manifest's directory. Each file fills one row of its group's array, in
    manifest order; the cohort is validated here, before any output exists.
    """
    if not isinstance(manifest, dict):
        raise ManifestError(f"cohort must be an object, got {manifest!r}")
    for key in ("group1", "group2"):
        if key not in manifest:
            raise ManifestError(f"cohort manifest needs a {key!r} file list")
        manifest_names(manifest, key)
    for key in ("covariates", "labels"):
        if not isinstance(manifest.get(key) or "", str):
            raise ManifestError(f"{key} must be a file name, got "
                                f"{manifest[key]!r}")
    n, groups = None, []
    for g, key in ((1, "group1"), (2, "group2")):
        paths = [base_dir / name for name in manifest[key]]
        x = np.empty((len(paths), 0))
        for s, path in enumerate(paths):
            dense = read_matrix_csv(path, header=header)
            n = n or len(dense)
            if len(dense) != n:
                raise ValidationError(
                    f"{path}: dimension mismatch: group {g} subject {s} has "
                    f"n={len(dense)}, expected n={n}")
            if s == 0:
                x = np.empty((len(paths), n * (n - 1) // 2))
            try:
                x[s] = upper_triangle(dense)
            except ValidationError as err:
                raise ManifestError(f"{path}: {err}") from err
        groups.append(x)
    covariates = None
    if manifest.get("covariates"):
        cpath = base_dir / manifest["covariates"]
        if not cpath.exists():
            raise ManifestError(f"covariate file not found: {cpath}")
        with open(cpath, newline="") as fh:
            try:
                covariates = np.array([[float(v) for v in row]
                                       for row in csv.reader(fh) if row])
            except ValueError as err:    # a ragged or non-numeric row
                raise ManifestError(f"{cpath}: {err}") from err
    labels = None
    if manifest.get("labels"):
        lpath = base_dir / manifest["labels"]
        if not lpath.exists():
            raise ManifestError(f"label file not found: {lpath}")
        labels = tuple(line.strip() for line in lpath.read_text().splitlines()
                       if line.strip())
    return ConnectivityCohort(*groups, covariates=covariates, labels=labels)


def parse_test_config(block: dict, seed: int) -> EdgeTestConfig:
    if not isinstance(block, dict):
        raise ManifestError(f"test_config must be an object, got {block!r}")
    test_seed = manifest_number(block, "seed", seed, int)
    if test_seed < 0:    # a value out of range, as a negative run seed is
        raise ValidationError(
            f"test_config.seed must be non-negative, got {test_seed}")
    try:
        return EdgeTestConfig(
            method=block.get("test", "welch_t"),
            fisher_z=manifest_flag(block, "fisher_z"),
            permutations=manifest_number(block, "permutations", 1000, int),
            seed=test_seed)
    except ValidationError as err:
        raise ManifestError(f"test config: {err}") from err


def manifest_number(manifest: dict, key: str, default, kind=float):
    """manifest[key] (or default) as `kind`; anything else is a ManifestError.
    An int must be a JSON integer, as in a design file; a float must be a
    JSON number, not a string or a boolean. NaN and infinities pass through
    to the caller's own range check."""
    raw = manifest.get(key, default)
    if kind is int:
        is_int, expected = _DESIGN_TYPES["int"]
        if not is_int(raw):
            raise ManifestError(f"{key} must be {expected}, got {raw!r}")
        return raw
    if type(raw) not in (int, float):
        raise ManifestError(f"{key} must be a number, got {raw!r}")
    return float(raw)


def manifest_flag(manifest: dict, key: str) -> bool:
    """manifest[key] (or false), which must be a JSON boolean."""
    raw = manifest.get(key, False)
    if type(raw) is not bool:
        raise ManifestError(f"{key} must be true or false, got {raw!r}")
    return raw


def manifest_names(manifest: dict, key: str) -> list[str]:
    """manifest[key] (or []), which must be a list of strings."""
    raw = manifest.get(key, [])
    if type(raw) is not list or not all(type(v) is str for v in raw):
        raise ManifestError(f"{key} must be a list of strings, got {raw!r}")
    return raw


def parse_threshold_rule(block: dict) -> ThresholdRule:
    """The manifest's threshold block: kind and level. The resolution and
    seed keys of the former Monte Carlo aDDT threshold are ignored."""
    if not isinstance(block, dict):
        raise ManifestError(f"threshold must be an object, got {block!r}")
    level = manifest_number(block, "level", 0.95)
    try:
        return ThresholdRule(kind=block.get("kind", "addt"), level=level)
    except ValidationError as err:
        raise ManifestError(f"threshold config: {err}") from err


# Checks of a design file value against its SimDesign annotation: the test
# and what a failing value must be instead.
_DESIGN_TYPES = {
    "int": (lambda v: type(v) is int, "an integer"),
    "float": (lambda v: type(v) in (int, float) and math.isfinite(v),
              "a finite number"),
    "bool": (lambda v: type(v) is bool, "true or false"),
    "str": (lambda v: type(v) is str, "a string"),
    "tuple[int, ...]": (lambda v: type(v) is list
                        and all(type(t) is int for t in v),
                        "a list of integers"),
}


def load_design(path) -> tuple[SimDesign, tuple[str, ...], tuple[str, ...]]:
    """Design file -> (SimDesign, node methods, edge rules).

    Every SimDesign value must have its field's annotated type (an int is
    also a float), and methods and edge_rules must be lists of strings;
    anything else is a ManifestError. experiment_rules then checks the
    methods and edge rules (ValidationError), so a bad design fails before
    any output exists.
    """
    raw = load_json(path)
    raw.setdefault("methods", list(NODE_METHODS))
    methods = tuple(manifest_names(raw, "methods"))
    edge_rules = tuple(manifest_names(raw, "edge_rules"))
    for key in ("methods", "edge_rules", "resolution"):
        # resolution: the former Monte Carlo aDDT sample count
        raw.pop(key, None)
    fields = {f.name: f.type for f in dataclasses.fields(SimDesign)}
    unknown = set(raw) - set(fields)
    if unknown:
        raise ManifestError(f"unknown design fields: {sorted(unknown)}")
    values = {}
    for name, value in raw.items():
        check, expected = _DESIGN_TYPES[fields[name]]
        if not check(value):
            raise ManifestError(
                f"design field {name!r} must be {expected}, got {value!r}")
        values[name] = tuple(value) if type(value) is list else value
    try:
        design = SimDesign(**values)
    except ValidationError as err:
        raise ManifestError(f"design file: {err}") from err
    experiment_rules(design, methods, edge_rules)
    return design, methods, edge_rules


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
    """nodes.csv: node,label,degree,p_null,pvalue,significant plus, per
    requested baseline, its degree, pvalue and significant columns (t10 has
    no degree). Labels are written as given; a node without one is labelled
    by its index."""
    n = len(result.nodes.pvalue)
    header, columns = ["node", "label"], [range(n), labels or range(n)]
    blocks = [("", result.nodes, ("degree", "p_null", "pvalue", "significant"))]
    blocks += [(f"{name}_", tests, ("degree", "pvalue", "significant"))
               for name, tests in (baselines or {}).items()]
    for prefix, tests, fields in blocks:
        for f in fields:
            if getattr(tests, f) is not None:
                header.append(prefix + f)
                columns.append(map(_fmt, getattr(tests, f).tolist()))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(*columns))


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
