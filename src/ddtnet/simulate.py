"""Synthetic cohort benchmarks: base networks, perturbation, injected
differential edges, method execution and TPR/FPR/MCC scoring.

All subjects share a base network B per design. Group 1 subjects are
B + W with iid N(0, noise_sd^2) upper-triangle perturbations; group 2 is
identical except that, per target node, q incident edges (fixed per
replicate, non-overlapping across targets) draw their perturbation from
N(dwe_mean, noise_sd^2) instead. Replicates run from per-replicate
substreams, so results are identical under any scheduling.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .baselines import binomial_corrected, degree_ttest
from .core import (
    ConnectivityCohort,
    DdtError,
    SymmetricMatrix,
    ValidationError,
    substream,
    triu_index_pairs,
)
# perfbench/spans.py wraps node_tests, generate_null, observed_moments,
# addt_threshold and eddt_threshold here, so they stay bound in this module
from .degree_test import degree_tests, node_tests  # noqa: F401
from .edgetests import EdgeTestConfig, edgewise_pvalues
from .hqs import generate_null, observed_moments  # noqa: F401
from .thresholds import (  # noqa: F401
    ThresholdRule,
    addt_threshold,
    baseline_threshold,
    eddt_threshold,
)

STRUCTURES = ("random", "smallworld", "hybrid")
NODE_METHODS = ("addt", "eddt", "binb", "binf", "t10")
EDGE_RULES = ("addt", "eddt", "hard_0.95", "hard_0.99", "bonferroni", "fdr")


@dataclass(frozen=True)
class SimDesign:
    """One benchmark configuration.

    targets are 1-based node indices (the differentially connected nodes);
    q is the number of injected edges per target. null_networks and
    resolution size the adaptive-threshold machinery per replicate.
    """

    structure: str = "random"
    n_nodes: int = 35
    n1: int = 20
    n2: int = 20
    q: int = 4
    targets: tuple[int, ...] = (1,)
    subject_noise_sd: float = math.sqrt(0.02)
    base_edge_sd: float = math.sqrt(0.04)
    dwe_mean: float = 0.1
    replicates: int = 500
    seed: int = 0
    alpha: float = 0.05
    level: float = 0.95
    null_networks: int = 100
    resolution: int = 200_000
    density: float = 0.10
    ranking: str = "signed"
    edge_test: str = "welch_t"
    # small-world / hybrid structure knobs
    sw_neighbors: int = 4
    sw_rewire: float = 0.1
    sw_weight_mean: float = 0.2
    sw_weight_sd: float = 0.04
    sw_signed: bool = False
    n_modules: int = 4
    between_density: float = 0.1

    def __post_init__(self):
        if self.structure not in STRUCTURES:
            raise ValidationError(
                f"unknown structure {self.structure!r}; expected one of "
                f"{', '.join(STRUCTURES)}")
        if self.n_nodes < 4:
            raise ValidationError("need at least 4 nodes")
        if not 1 <= self.q <= self.n_nodes - 1:
            raise ValidationError(f"q must be in [1, n_nodes-1], got {self.q}")
        bad = [t for t in self.targets if not 1 <= t <= self.n_nodes]
        if bad:
            raise ValidationError(
                f"target nodes must be 1-based indices in 1..{self.n_nodes}, got {bad}")
        if len(set(self.targets)) != len(self.targets):
            raise ValidationError("duplicate target nodes")
        for name in ("subject_noise_sd", "base_edge_sd"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")
        if self.replicates < 1:
            raise ValidationError("need at least one replicate")
        object.__setattr__(self, "targets", tuple(int(t) for t in self.targets))


@dataclass(frozen=True)
class SimulatedCohort:
    cohort: ConnectivityCohort
    dwe_edges: np.ndarray        # bool, canonical upper-triangle order
    target_nodes: np.ndarray     # bool per node (0-based)

    @property
    def incident_nodes(self) -> np.ndarray:
        """Nodes touching an injected edge but not targets themselves."""
        n = self.cohort.n
        iu, ju = triu_index_pairs(n)
        inc = np.zeros(n, dtype=bool)
        inc[iu[self.dwe_edges]] = True
        inc[ju[self.dwe_edges]] = True
        return inc & ~self.target_nodes


def _ring_lattice_edges(n: int, k: int) -> list[tuple[int, int]]:
    half = max(1, k // 2)
    edges = []
    for i in range(n):
        for step in range(1, half + 1):
            j = (i + step) % n
            if i != j:
                edges.append((min(i, j), max(i, j)))
    return sorted(set(edges))


def _watts_strogatz_edges(n: int, k: int, rewire: float,
                          rng: np.random.Generator) -> set[tuple[int, int]]:
    """Ring lattice with each edge rewired to a random target w.p. rewire."""
    edges = set(_ring_lattice_edges(n, min(k, n - 1)))
    for i, j in sorted(edges):
        if rng.random() < rewire:
            neighbors = {a if b == i else b for a, b in edges if i in (a, b)}
            candidates = [t for t in range(n) if t != i and t not in neighbors]
            if not candidates:
                continue
            new = int(rng.choice(candidates))
            edges.discard((i, j))
            edges.add((min(i, new), max(i, new)))
    return edges


def base_network(structure: str, n_nodes: int, base_edge_sd: float,
                 seed: int, *, sw_neighbors: int = 4, sw_rewire: float = 0.1,
                 sw_weight_mean: float = 0.2, sw_weight_sd: float = 0.04,
                 sw_signed: bool = False, n_modules: int = 4,
                 between_density: float = 0.1) -> SymmetricMatrix:
    """Base correlation-like network with unit diagonal.

    random: dense iid N(0, base_edge_sd^2) weights. smallworld: Watts-
    Strogatz lattice (k neighbors, given rewiring probability) whose edges
    carry N(sw_weight_mean, sw_weight_sd^2) weights, unsigned by default.
    hybrid: small-world blocks joined by sparse random between-block edges.
    Off-diagonal entries are clamped to [-0.9, 0.9].
    """
    if structure not in STRUCTURES:
        raise ValidationError(f"unknown structure {structure!r}")
    rng = np.random.default_rng(seed)
    dense = np.zeros((n_nodes, n_nodes))
    if structure == "random":
        iu, ju = triu_index_pairs(n_nodes)
        dense[iu, ju] = rng.normal(0.0, base_edge_sd, size=len(iu))
    elif structure == "smallworld":
        for i, j in sorted(_watts_strogatz_edges(n_nodes, sw_neighbors,
                                                 sw_rewire, rng)):
            w = rng.normal(sw_weight_mean, sw_weight_sd)
            dense[i, j] = w if sw_signed else abs(w)
    else:
        bounds = np.linspace(0, n_nodes, n_modules + 1).astype(int)
        for b in range(n_modules):
            lo, hi = bounds[b], bounds[b + 1]
            size = hi - lo
            if size < 2:
                continue
            for i, j in sorted(_watts_strogatz_edges(size, sw_neighbors,
                                                     sw_rewire, rng)):
                w = rng.normal(sw_weight_mean, sw_weight_sd)
                dense[lo + i, lo + j] = w if sw_signed else abs(w)
        iu, ju = triu_index_pairs(n_nodes)
        module_of = np.searchsorted(bounds, np.arange(n_nodes), side="right")
        cross = module_of[iu] != module_of[ju]
        present = cross & (rng.random(len(iu)) < between_density)
        dense[iu[present], ju[present]] = rng.normal(
            0.0, base_edge_sd, size=int(present.sum()))
    dense = dense + dense.T
    dense = np.clip(dense, -0.9, 0.9)
    np.fill_diagonal(dense, 1.0)
    return SymmetricMatrix.from_dense(dense)


def base_network_for(design: SimDesign) -> SymmetricMatrix:
    return base_network(
        design.structure, design.n_nodes, design.base_edge_sd, design.seed,
        sw_neighbors=design.sw_neighbors, sw_rewire=design.sw_rewire,
        sw_weight_mean=design.sw_weight_mean, sw_weight_sd=design.sw_weight_sd,
        sw_signed=design.sw_signed, n_modules=design.n_modules,
        between_density=design.between_density)


def simulate_cohort(design: SimDesign, base: SymmetricMatrix,
                    replicate_seed: int) -> SimulatedCohort:
    """One synthetic two-group cohort plus its injected edge set.

    Injected edge sets are drawn without overlap across targets, so each
    target is incident to exactly q ground-truth edges.
    """
    if base.n != design.n_nodes:
        raise ValidationError("base network size does not match the design")
    rng = np.random.default_rng(replicate_seed)
    n = design.n_nodes
    iu, ju = triu_index_pairs(n)
    n_edges = len(iu)
    targets0 = np.array([t - 1 for t in design.targets], dtype=int)

    # partners come from non-target nodes only, so every injected edge is
    # incident to exactly one target and each target ends with exactly q
    taken = np.zeros((n, n), dtype=bool)
    target_set = set(targets0.tolist())
    available = [j for j in range(n) if j not in target_set]
    if len(available) < design.q:
        raise ValidationError(
            f"cannot place {design.q} non-overlapping edges per target; only "
            f"{len(available)} non-target partners exist")
    for t in targets0:
        partners = rng.choice(available, size=design.q, replace=False)
        taken[t, partners] = True
        taken[partners, t] = True
    dwe = taken[iu, ju]

    def build_group(n_subj: int, inject: bool) -> tuple[SymmetricMatrix, ...]:
        mats = []
        for _ in range(n_subj):
            w = rng.normal(0.0, design.subject_noise_sd, size=n_edges)
            if inject:
                w[dwe] = rng.normal(design.dwe_mean, design.subject_noise_sd,
                                    size=int(dwe.sum()))
            vals = np.clip(base.values + w, -1.0, 1.0)
            mats.append(SymmetricMatrix.from_upper(n, vals, diagonal=base.diagonal))
        return tuple(mats)

    group1 = build_group(design.n1, inject=False)
    group2 = build_group(design.n2, inject=True)
    truth_nodes = np.zeros(n, dtype=bool)
    truth_nodes[targets0] = True
    return SimulatedCohort(
        cohort=ConnectivityCohort(group1=group1, group2=group2),
        dwe_edges=dwe, target_nodes=truth_nodes)


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    tn: int = 0
    fp: int = 0
    fn: int = 0

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(self.tp + other.tp, self.tn + other.tn,
                               self.fp + other.fp, self.fn + other.fn)

    @property
    def tpr(self) -> float:
        pos = self.tp + self.fn
        return self.tp / pos if pos else 0.0

    @property
    def fpr(self) -> float:
        neg = self.fp + self.tn
        return self.fp / neg if neg else 0.0

    @property
    def mcc(self) -> float:
        return matthews_corrcoef(self.tp, self.fp, self.tn, self.fn)


def matthews_corrcoef(tp: int, fp: int, tn: int, fn: int) -> float:
    """MCC with the zero-denominator-gives-zero convention."""
    denom = math.sqrt(float(tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
    if denom == 0.0:
        return 0.0
    return (tp * tn - fp * fn) / denom


def score(predicted, truth, exclude=None) -> ConfusionCounts:
    """Confusion counts of predicted vs true labels (1-d or stacked 2-d).

    exclude marks entries left out of scoring entirely (used for nodes that
    touch injected edges without being targets).
    """
    pred = np.asarray(predicted, dtype=bool)
    true = np.asarray(truth, dtype=bool)
    if pred.shape != true.shape:
        raise ValidationError(
            f"prediction shape {pred.shape} != truth shape {true.shape}")
    keep = np.ones_like(pred, dtype=bool)
    if exclude is not None:
        excl = np.asarray(exclude, dtype=bool)
        if excl.shape != pred.shape:
            raise ValidationError("exclude mask shape mismatch")
        keep = ~excl
    return ConfusionCounts(
        tp=int(np.count_nonzero(pred & true & keep)),
        tn=int(np.count_nonzero(~pred & ~true & keep)),
        fp=int(np.count_nonzero(pred & ~true & keep)),
        fn=int(np.count_nonzero(~pred & true & keep)))


@dataclass(frozen=True)
class ReplicateOutcome:
    """Per-replicate confusion counts per method, plus any method errors."""

    replicate: int
    node_counts: dict
    edge_counts: dict
    errors: dict


@dataclass(frozen=True)
class MetricRow:
    method: str
    scope: str                 # "node" or "edge"
    tpr: float
    fpr: float
    mcc: float
    tpr_se: float
    fpr_se: float
    mcc_se: float
    replicates_used: int
    errors: int
    counts: ConfusionCounts


@dataclass(frozen=True)
class ExperimentResult:
    design: SimDesign
    metrics: tuple[MetricRow, ...]
    outcomes: tuple[ReplicateOutcome, ...]

    def metric(self, method: str, scope: str = "node") -> MetricRow:
        for row in self.metrics:
            if row.method == method and row.scope == scope:
                return row
        raise KeyError(f"no {scope} metrics for {method!r}")


def _edge_rule(name: str, design: SimDesign) -> ThresholdRule:
    if name.startswith("hard_"):
        return ThresholdRule(kind="hard", level=float(name.split("_", 1)[1]))
    if name in ("bonferroni", "fdr"):
        return ThresholdRule(kind=name, level=design.alpha)
    raise ValidationError(f"unknown edge rule {name!r}")


def run_replicate(design: SimDesign, base: SymmetricMatrix, rep: int,
                  node_methods: tuple[str, ...],
                  edge_rules: tuple[str, ...],
                  rules: dict[str, ThresholdRule]) -> ReplicateOutcome:
    """Simulate one cohort and evaluate every requested method on it;
    rules are the aDDT/eDDT rules the methods need, in output order."""
    rep_rng = substream(design.seed, 1, rep)
    sim = simulate_cohort(design, base,
                          replicate_seed=int(rep_rng.integers(2 ** 63)))
    cohort = sim.cohort
    truth_nodes = sim.target_nodes
    exclude = sim.incident_nodes

    cfg = EdgeTestConfig(method=design.edge_test,
                         seed=int(rep_rng.integers(2 ** 63)))
    pmat = edgewise_pvalues(cohort, cfg)

    node_decisions: dict[str, np.ndarray] = {}
    edge_detections: dict[str, np.ndarray] = {}
    errors: dict[str, str] = {}

    if rules:
        try:
            results = degree_tests(pmat, rules, design.null_networks,
                                   design.alpha,
                                   seed=int(rep_rng.integers(2 ** 63)))
        except DdtError as err:
            # the stage's own message, without the PipelineError label
            errors.update((name, str(err.__cause__ or err)) for name in rules)
        else:
            for name, result in results.items():
                edge_detections[name] = result.adjacency.selected
                node_decisions[name] = np.array(
                    [r.significant for r in result.nodes])

    for name, correction in (("binb", "bonferroni"), ("binf", "fdr")):
        if name in node_methods:
            results = binomial_corrected(pmat, correction, design.alpha)
            node_decisions[name] = np.array([r.significant for r in results])
    if "t10" in node_methods:
        t10 = degree_ttest(cohort, design.density, design.alpha, design.ranking)
        node_decisions["t10"] = t10.significant
    for name in edge_rules:
        if name in ("addt", "eddt"):
            continue
        edge_detections[name] = baseline_threshold(
            pmat, _edge_rule(name, design)).selected

    node_counts = {
        name: score(dec, truth_nodes, exclude=exclude)
        for name, dec in node_decisions.items() if name in node_methods
    }
    edge_counts = {
        name: score(det, sim.dwe_edges)
        for name, det in edge_detections.items() if name in edge_rules
    }
    return ReplicateOutcome(replicate=rep, node_counts=node_counts,
                            edge_counts=edge_counts, errors=errors)


def _jackknife_mcc(counts: list[ConfusionCounts]) -> float:
    total = ConfusionCounts()
    for c in counts:
        total = total + c
    r = len(counts)
    if r < 2:
        return 0.0
    vals = []
    for c in counts:
        rest = ConfusionCounts(total.tp - c.tp, total.tn - c.tn,
                               total.fp - c.fp, total.fn - c.fn)
        vals.append(rest.mcc)
    vals = np.array(vals)
    return float(np.sqrt((r - 1) / r * ((vals - vals.mean()) ** 2).sum()))


def _aggregate(method: str, scope: str, counts: list[ConfusionCounts],
               n_errors: int) -> MetricRow:
    total = ConfusionCounts()
    for c in counts:
        total = total + c
    tprs = np.array([c.tpr for c in counts if (c.tp + c.fn) > 0])
    fprs = np.array([c.fpr for c in counts if (c.fp + c.tn) > 0])
    def se(x):
        return float(x.std(ddof=1) / math.sqrt(len(x))) if len(x) > 1 else 0.0
    return MetricRow(method=method, scope=scope, tpr=total.tpr, fpr=total.fpr,
                     mcc=total.mcc, tpr_se=se(tprs), fpr_se=se(fprs),
                     mcc_se=_jackknife_mcc(counts),
                     replicates_used=len(counts), errors=n_errors, counts=total)


def pool_size(threads: int, replicates: int) -> int:
    """Worker processes for a run: the requested count, capped by the
    replicate count and the CPU count."""
    if threads < 1:
        raise ValidationError(f"threads must be >= 1, got {threads}")
    return max(1, min(threads, replicates, os.cpu_count() or 1))


def run_experiment(design: SimDesign,
                   methods: tuple[str, ...] = NODE_METHODS,
                   edge_rules: tuple[str, ...] = (),
                   threads: int = 1) -> ExperimentResult:
    """Run the full benchmark: replicate loop, method execution, scoring.

    Per-replicate method failures (e.g. a nonpositive logit-scale mean under
    weak signal) are recorded and the affected method simply contributes no
    decisions for that replicate; aggregates are over the replicates where
    the method ran. The design's level and resolution are validated, as
    the aDDT/eDDT rules, before any replicate runs. Replicates run on
    pool_size(threads, replicates) processes; the results are the same for
    any count.
    """
    for m in methods:
        if m not in NODE_METHODS:
            raise ValidationError(
                f"unknown method {m!r}; expected one of {', '.join(NODE_METHODS)}")
    for r in edge_rules:
        if r not in ("addt", "eddt"):
            _edge_rule(r, design)
    rules = {"addt": ThresholdRule("addt", design.level, design.resolution),
             "eddt": ThresholdRule("eddt", design.level)}
    rules = {name: rule for name, rule in rules.items()
             if name in methods or name in edge_rules}
    workers = pool_size(threads, design.replicates)
    base = base_network_for(design)
    reps = range(design.replicates)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(
                run_replicate, [design] * design.replicates,
                [base] * design.replicates, reps,
                [tuple(methods)] * design.replicates,
                [tuple(edge_rules)] * design.replicates,
                [rules] * design.replicates,
                chunksize=max(1, design.replicates // (8 * workers))))
    else:
        outcomes = [run_replicate(design, base, rep, tuple(methods),
                                  tuple(edge_rules), rules) for rep in reps]

    rows = []
    for method in methods:
        counts = [o.node_counts[method] for o in outcomes
                  if method in o.node_counts]
        n_err = sum(1 for o in outcomes if method in o.errors)
        rows.append(_aggregate(method, "node", counts, n_err))
    for rule in edge_rules:
        counts = [o.edge_counts[rule] for o in outcomes if rule in o.edge_counts]
        n_err = sum(1 for o in outcomes if rule in o.errors)
        rows.append(_aggregate(rule, "edge", counts, n_err))
    return ExperimentResult(design=design, metrics=tuple(rows),
                            outcomes=tuple(outcomes))
