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
from itertools import repeat
from pathlib import Path

import numpy as np

from .core import (
    DdtError,
    DifferenceNetwork,
    ValidationError,
    check_group,
    inv_logit,
    pool_size,
    upper_triangle,
    worker_map,
)
from .baselines import check_baselines
from .degree_test import DdtResult, ReducedCohort, Reduction, check_run_settings
from .edgetests import EdgeTestConfig
from .enrichment import EnrichmentResult, ModulePartition
from .hqs import MomentSummary, NullStream
from .simulate import ExperimentResult, SimDesign, experiment_rules
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
                             ndmin=2, dtype=float, skiprows=int(header),
                             encoding="utf-8-sig")
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


def load_cohort(manifest: dict, base_dir: Path, header: bool = False,
                reduction: Reduction = Reduction(EdgeTestConfig()),
                threads: int = 1, record: dict | None = None) -> ReducedCohort:
    """Build a reduced cohort from a manifest block, one group at a time.

    Expected keys: group1 and group2 (lists of matrix CSV paths), optional
    covariates (CSV, one row per subject ordered group1 then group2) and
    labels (one node label per line); any other key is a ManifestError.
    Relative paths resolve against the manifest's directory. Each file
    fills one row of its group's (subjects x edges) array, in manifest
    order. The files are parsed (read_subject) on pool_size(threads, larger
    group's file count) worker processes, made before the first file is
    read and ended before the load returns; the results are the same for
    any count, and `record`, when given, gets the count as "workers". Group
    1 is read, checked as every cohort group is (core.check_group) and
    reduced by `reduction` (by default the Welch moments of its edges)
    before group 2's first file is handed to a worker, so under welch_t the
    load never holds both groups' subject arrays. Both groups are read into
    one (max(S1, S2) x edges) buffer, made when group 1's first file is
    read and freed when the load returns: a second array of that size,
    allocated after the first is freed, would come from a heap the
    allocator does not hand back, and stay resident through the eDDT null
    pass. Only when group 1's reduction keeps its values (the joint tests
    without fisher_z) does group 2 get an array of its own.
    The covariates and labels are read last and checked as
    ConnectivityCohort checks them; all of it before any output exists.
    """
    _json_value("cohort", manifest, "dict")
    _reject_unknown(manifest, _COHORT_KEYS, "cohort keys")
    for key in ("group1", "group2"):
        if key not in manifest:
            raise ManifestError(f"cohort manifest needs a {key!r} file list")
        _json_value(key, manifest[key], "tuple[str, ...]")
    for key in ("covariates", "labels"):
        if not isinstance(manifest.get(key) or "", str):
            raise ManifestError(f"{key} must be a file name, got "
                                f"{manifest[key]!r}")
    sizes = len(manifest["group1"]), len(manifest["group2"])
    workers = pool_size(threads, max(sizes))
    if record is not None:
        record["workers"] = workers
    n, buffer, groups = None, None, []
    with worker_map(workers, "cohort load") as pmap:
        for g, key in ((1, "group1"), (2, "group2")):
            paths = [base_dir / name for name in manifest[key]]
            x, n = _read_group(g, paths, pmap(read_subject, paths,
                                              repeat(header)),
                               n, buffer, max(sizes))
            groups.append(reduction(check_group(x, g, sizes)))
            kept = groups[-1].values
            shared = kept is not None and np.may_share_memory(kept, x)
            buffer = None if shared else x.base
            del x
    covariates = None
    if manifest.get("covariates"):
        cpath = base_dir / manifest["covariates"]
        if not cpath.exists():
            raise ManifestError(f"covariate file not found: {cpath}")
        with open(cpath, newline="", encoding="utf-8-sig") as fh:
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
        lines = lpath.read_text(encoding="utf-8-sig").splitlines()
        labels = tuple(line.strip() for line in lines if line.strip())
    return ReducedCohort(n, *groups, reduction, covariates=covariates,
                         labels=labels)


def read_subject(path: Path, header: bool = False) -> tuple[int, np.ndarray]:
    """One subject file's node count and its values in canonical i<j order
    (core.upper_triangle): the per-file work of load_cohort, which a worker
    process runs when the load has a pool. A file upper_triangle rejects is
    a ManifestError naming it."""
    dense = read_matrix_csv(path, header=header)
    try:
        return len(dense), upper_triangle(dense)
    except ValidationError as err:
        raise ManifestError(f"{path}: {err}") from err


def _read_group(g: int, paths: list[Path], subjects, n: int | None,
                buffer: np.ndarray | None,
                rows: int) -> tuple[np.ndarray, int | None]:
    """Group g's (subjects x edges) array, one row per file from the
    read_subject results `subjects` (in manifest order), and the node
    count: n, or the first file's when n is None. A file of another n is a
    dimension mismatch. The array is a view of the first len(paths) rows
    of `buffer`, or, when buffer is None, of a new (rows x edges) buffer
    made once the first file gives n; its .base is the buffer."""
    x = np.empty((len(paths), 0))
    for s, (path, (size, values)) in enumerate(zip(paths, subjects)):
        n = n or size
        if size != n:
            raise ValidationError(
                f"{path}: dimension mismatch: group {g} subject {s} has "
                f"n={size}, expected n={n}")
        if s == 0:
            if buffer is None:
                buffer = np.empty((rows, len(values)))
            x = buffer[:len(paths)]
        x[s] = values
    return x, n


# What a config field's annotation asks of a JSON value: the test, and what
# a failing value must be instead. A float is any JSON number; whether it is
# finite and in range is the config's own check.
_JSON_TYPES = {
    "int": (lambda v: type(v) is int, "an integer"),
    "float": (lambda v: type(v) in (int, float), "a number"),
    "bool": (lambda v: type(v) is bool, "true or false"),
    "str": (lambda v: type(v) is str, "a string"),
    "dict": (lambda v: type(v) is dict, "an object"),
    "tuple[int, ...]": (lambda v: type(v) is list
                        and all(type(t) is int for t in v),
                        "a list of integers"),
    "tuple[str, ...]": (lambda v: type(v) is list
                        and all(type(t) is str for t in v),
                        "a list of strings"),
}


def _json_value(key: str, value, annotation: str):
    """value, if it has the annotated type (a JSON list as a tuple)."""
    check, expected = _JSON_TYPES[annotation]
    if not check(value):
        raise ManifestError(f"{key} must be {expected}, got {value!r}")
    return tuple(value) if type(value) is list else value


def _json_fields(raw: dict, cls, keys, prefix: str = "") -> dict:
    """The keyword arguments of dataclass cls that raw holds, type-checked;
    keys maps JSON keys to fields, or lists fields named as in the JSON."""
    keys = keys if isinstance(keys, dict) else dict(zip(keys, keys))
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    return {name: _json_value(prefix + key, raw[key], types[name])
            for key, name in keys.items() if key in raw}


def _reject_unknown(raw: dict, allowed, what: str) -> None:
    unknown = set(raw) - set(allowed)
    if unknown:
        raise ManifestError(f"unknown {what}: {sorted(unknown)}")


def _block_config(cls, raw: dict, name: str, keys, ignored=(), **defaults):
    """cls from the manifest block raw[name] (or {}): an object holding only
    `keys` (as in _json_fields) and `ignored` keys, each value type-checked;
    a ValidationError of cls names the block."""
    block = _json_value(name, raw.get(name, {}), "dict")
    _reject_unknown(block, {*keys, *ignored}, f"{name} keys")
    try:
        return cls(**{**defaults, **_json_fields(block, cls, keys, f"{name}.")})
    except ValidationError as err:
        raise ValidationError(f"{name}: {err}") from err


@dataclasses.dataclass(frozen=True)
class RunManifest:
    """A ddt run manifest, type- and range-checked by load_run_manifest; the
    cohort block is load_cohort's, its paths relative to base_dir."""

    seed: int
    threshold: ThresholdRule = ThresholdRule()
    test_config: EdgeTestConfig = EdgeTestConfig()
    null_networks: int = 1000
    alpha: float = 0.05
    baselines: tuple[str, ...] = ()
    density: float = 0.10
    ranking: str = "signed"
    inner_dim: int = 2
    correct_nodes: bool = False
    header: bool = False
    cohort: dict = dataclasses.field(default_factory=dict)
    base_dir: Path = Path(".")

    def __post_init__(self):
        check_run_settings(self.seed, self.alpha, self.null_networks)
        check_baselines(self.baselines, self.density, self.ranking)


# the edge test and the cohort, each given at the top level of a run
# manifest or as a block (test_config, cohort)
_TEST_KEYS = {"test": "method", "fisher_z": "fisher_z",
              "permutations": "permutations"}
_COHORT_KEYS = ("group1", "group2", "covariates", "labels")


def load_run_manifest(path, seed: int | None = None,
                      baselines: str | None = None) -> RunManifest:
    """Run manifest file -> RunManifest, with --seed and the --baselines
    comma list, when given, in place of the manifest's.

    An unknown key, a setting given both at the top level and in its block
    (test_config or cohort), or a value without the annotated type of its
    config field, is a ManifestError; a value out of range is a
    ValidationError (RunManifest, ThresholdRule and EdgeTestConfig check
    their own). Either comes before any subject file is read.
    """
    path = Path(path)
    raw = load_json(path)
    flat = [f.name for f in dataclasses.fields(RunManifest)
            if f.type in _JSON_TYPES]
    _reject_unknown(raw, {*flat, *_TEST_KEYS, *_COHORT_KEYS, "threshold",
                          "test_config"}, "run manifest keys")
    values = _json_fields(raw, RunManifest, flat)
    for block, keys in (("test_config", _TEST_KEYS), ("cohort", _COHORT_KEYS)):
        twice = [key for key in keys if key in raw]
        if block in raw and twice:
            raise ManifestError(f"{', '.join(twice)} given both at the top "
                                f"level and in the {block} block")
    if seed is not None:
        values["seed"] = seed
    if "seed" not in values:
        raise ManifestError("manifest must carry a seed (or pass --seed); "
                            "runs never draw implicit entropy")
    if baselines:
        values["baselines"] = tuple(b.strip() for b in baselines.split(",")
                                    if b.strip())
    if "cohort" not in values:
        values["cohort"] = {k: raw[k] for k in _COHORT_KEYS if k in raw}
    # the run's own checks come first, so a bad seed is reported as the
    # run's, not as that of the edge test that inherits it
    run = RunManifest(**values, base_dir=path.parent)
    if "test_config" in raw:
        test_config = _block_config(EdgeTestConfig, raw, "test_config",
                                    {**_TEST_KEYS, "seed": "seed"},
                                    seed=run.seed)
    else:
        test_config = EdgeTestConfig(
            **_json_fields(raw, EdgeTestConfig, _TEST_KEYS), seed=run.seed)
    # resolution and seed: the retired Monte Carlo aDDT threshold's, ignored
    threshold = _block_config(ThresholdRule, raw, "threshold",
                              ("kind", "level"),
                              ignored=("resolution", "seed"))
    return dataclasses.replace(run, threshold=threshold, test_config=test_config)


def load_moments(path) -> MomentSummary:
    """Moment JSON (ebar, vbar, optional m; a moments.json's derived values
    are ignored) -> MomentSummary. A missing or non-numeric moment is a
    ManifestError; MomentSummary.from_moments checks the values."""
    # a missing moment reads as null, which its type check rejects
    raw = {"ebar": None, "vbar": None, **load_json(path)}
    return MomentSummary.from_moments(
        **_json_fields(raw, MomentSummary, ("ebar", "vbar", "m")))


def load_design(path) -> SimDesign:
    """Design file -> SimDesign, its methods and edge rules included.

    Every value must have its SimDesign field's annotated type (an int is
    also a float; methods and edge_rules are lists of strings); anything
    else, an unknown key, and a value SimDesign rejects, is a ManifestError.
    experiment_rules then checks the methods and edge rules
    (ValidationError), so a bad design fails before any output exists.
    """
    raw = load_json(path)
    raw.pop("resolution", None)    # the former Monte Carlo aDDT sample count
    names = [f.name for f in dataclasses.fields(SimDesign)]
    _reject_unknown(raw, names, "design fields")
    try:
        design = SimDesign(**_json_fields(raw, SimDesign, names, "design field "))
    except ValidationError as err:
        raise ManifestError(f"design file: {err}") from err
    experiment_rules(design)
    return design


def load_partition(path) -> ModulePartition:
    """modules.csv: node_index,module_id[,module_name]; 0-based nodes."""
    path = Path(path)
    if not path.exists():
        raise ManifestError(f"module file not found: {path}")
    assignment = {}
    names: dict[int, str] = {}
    with open(path, newline="", encoding="utf-8-sig") as fh:
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
            if node in assignment:
                raise ManifestError(f"{path}: line {idx + 1} repeats node {node}")
            assignment[node] = module
            name = row[2].strip() if len(row) > 2 else ""
            if name and names.setdefault(module, name) != name:
                raise ManifestError(
                    f"{path}: line {idx + 1} names module {module} {name!r}, "
                    f"already named {names[module]!r}")
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


def write_null_networks(out_dir: Path, stream: NullStream) -> list[Path]:
    """One probability-scale CSV per null network, written block by block as
    the stream generates them."""
    paths = []
    width = len(str(stream.size - 1))
    for block in stream.blocks():
        for entries in block:
            net = DifferenceNetwork(n=stream.n, d=inv_logit(entries))
            p = out_dir / f"null_{len(paths):0{width}d}.csv"
            write_matrix_csv(p, net.to_symmetric().to_dense())
            paths.append(p)
    return paths
