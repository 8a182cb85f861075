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
from dataclasses import dataclass, fields
from itertools import repeat

import numpy as np

# perfbench/spans.py wraps these names here, so they stay bound in this
# module: binomial_corrected, degree_ttest, node_tests, edgewise_pvalues,
# generate_null, observed_moments, addt_threshold and eddt_threshold
from .baselines import (  # noqa: F401
    BASELINES, binomial_corrected, check_baselines, degree_ttest)
from .core import (
    ConnectivityCohort,
    SymmetricMatrix,
    ValidationError,
    node_sums,
    pool_size,
    substream,
    triu_index_pairs,
    worker_map,
)
from .degree_test import check_run_settings, ddt_run, node_tests  # noqa: F401
from .edgetests import EdgeTestConfig, edgewise_pvalues  # noqa: F401
from .hqs import generate_null, observed_moments  # noqa: F401
from .thresholds import (  # noqa: F401
    ThresholdRule,
    addt_threshold,
    baseline_threshold,
    eddt_threshold,
)

STRUCTURES = ("random", "smallworld", "hybrid")
NODE_METHODS = ("addt", "eddt", *BASELINES)


@dataclass(frozen=True)
class SimDesign:
    """One benchmark configuration: the cohorts, the base network's
    structure, and the node methods and edge rules scored on them.

    targets are 1-based node indices (the differentially connected nodes);
    q is the number of injected edges per target, each to a different
    non-target node, so at most n_nodes - len(targets). null_networks is
    the eDDT null ensemble size per replicate. methods are NODE_METHODS
    names and edge_rules are threshold rules (addt, eddt, hard_<level>,
    bonferroni, fdr) scored at edge level; experiment_rules checks both
    names. The other fields are range-checked here.
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
    methods: tuple[str, ...] = NODE_METHODS
    edge_rules: tuple[str, ...] = ()

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValidationError(f"{f.name} must be finite, got {value}")
        if self.structure not in STRUCTURES:
            raise ValidationError(
                f"unknown structure {self.structure!r}; expected one of "
                f"{', '.join(STRUCTURES)}")
        for name, low in (("n_nodes", 4), ("n1", 2), ("n2", 2),
                          ("replicates", 1), ("sw_neighbors", 1),
                          ("n_modules", 1), ("sw_weight_sd", 0)):
            if getattr(self, name) < low:
                raise ValidationError(
                    f"{name} must be at least {low}, got {getattr(self, name)}")
        for name in ("sw_rewire", "between_density"):
            if not 0 <= getattr(self, name) <= 1:
                raise ValidationError(
                    f"{name} must be in [0, 1], got {getattr(self, name)}")
        if not 1 <= self.q <= self.n_nodes - 1:
            raise ValidationError(f"q must be in [1, n_nodes-1], got {self.q}")
        bad = [t for t in self.targets if not 1 <= t <= self.n_nodes]
        if bad:
            raise ValidationError(
                f"target nodes must be 1-based indices in 1..{self.n_nodes}, got {bad}")
        if len(set(self.targets)) != len(self.targets):
            raise ValidationError("duplicate target nodes")
        if self.q > self.n_nodes - len(self.targets):
            raise ValidationError(
                f"cannot place {self.q} non-overlapping edges per target; only "
                f"{self.n_nodes - len(self.targets)} non-target partners exist")
        for name in ("subject_noise_sd", "base_edge_sd"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"{name} must be positive")
        check_run_settings(self.seed, self.alpha, self.null_networks)
        object.__setattr__(self, "targets", tuple(int(t) for t in self.targets))
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "edge_rules", tuple(self.edge_rules))


@dataclass(frozen=True)
class SimulatedCohort:
    cohort: ConnectivityCohort
    dwe_edges: np.ndarray        # bool, canonical upper-triangle order
    target_nodes: np.ndarray     # bool per node (0-based)

    @property
    def incident_nodes(self) -> np.ndarray:
        """Nodes touching an injected edge but not targets themselves."""
        return (node_sums(self.cohort.n, self.dwe_edges) > 0) & ~self.target_nodes


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


def base_network(design: SimDesign) -> SymmetricMatrix:
    """The design's base correlation-like network, drawn from its seed.

    random: dense iid N(0, base_edge_sd^2) weights. smallworld: a Watts-
    Strogatz lattice (sw_neighbors neighbors, each edge rewired with
    probability sw_rewire) whose edges carry N(sw_weight_mean,
    sw_weight_sd^2) weights, unsigned unless sw_signed. hybrid: n_modules
    small-world blocks joined by between-block edges, each present with
    probability between_density and weighted N(0, base_edge_sd^2).
    Edge weights are clamped to [-0.9, 0.9].
    """
    n = design.n_nodes
    rng = np.random.default_rng(design.seed)
    iu, ju = triu_index_pairs(n)
    dense = np.zeros((n, n))
    if design.structure == "random":
        dense[iu, ju] = rng.normal(0.0, design.base_edge_sd, size=len(iu))
    else:
        # smallworld is hybrid with one block: no pair crosses blocks, so
        # the between-block draws add no edge
        blocks = design.n_modules if design.structure == "hybrid" else 1
        bounds = np.linspace(0, n, blocks + 1).astype(int)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            if hi - lo < 2:
                continue
            for i, j in sorted(_watts_strogatz_edges(
                    hi - lo, design.sw_neighbors, design.sw_rewire, rng)):
                w = rng.normal(design.sw_weight_mean, design.sw_weight_sd)
                dense[lo + i, lo + j] = w if design.sw_signed else abs(w)
        module_of = np.searchsorted(bounds, np.arange(n), side="right")
        cross = module_of[iu] != module_of[ju]
        present = cross & (rng.random(len(iu)) < design.between_density)
        dense[iu[present], ju[present]] = rng.normal(
            0.0, design.base_edge_sd, size=int(present.sum()))
    # every pair above was written as (i, j) with i < j
    return SymmetricMatrix(n, np.clip(dense[iu, ju], -0.9, 0.9))


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
    for t in targets0:
        partners = rng.choice(available, size=design.q, replace=False)
        taken[t, partners] = True
        taken[partners, t] = True
    dwe = taken[iu, ju]

    # group 1 in one draw, the same doubles as one size-E draw per subject;
    # group 2 too: normal(loc, sd) is loc + sd * z, so one (n2, E + k) draw
    # holds each subject's E noise doubles, then its k injected ones
    w1 = rng.normal(0.0, design.subject_noise_sd, size=(design.n1, n_edges))
    z = rng.standard_normal((design.n2, n_edges + int(dwe.sum())))
    w2 = 0.0 + design.subject_noise_sd * z[:, :n_edges]
    w2[:, dwe] = design.dwe_mean + design.subject_noise_sd * z[:, n_edges:]
    truth_nodes = np.zeros(n, dtype=bool)
    truth_nodes[targets0] = True
    return SimulatedCohort(
        cohort=ConnectivityCohort(np.clip(base.values + w1, -1.0, 1.0),
                                  np.clip(base.values + w2, -1.0, 1.0)),
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
    if name in ("addt", "eddt"):
        return ThresholdRule(kind=name, level=design.level)
    if name in ("bonferroni", "fdr"):
        return ThresholdRule(kind=name, level=design.alpha)
    if name.startswith("hard_"):
        try:
            return ThresholdRule(kind="hard", level=float(name.split("_", 1)[1]))
        except ValueError:    # not a number; a bad level is a ValidationError
            pass
    raise ValidationError(f"unknown edge rule {name!r}")


def experiment_rules(design: SimDesign) -> dict[str, ThresholdRule]:
    """Check the design's node methods and edge rules against the rest of
    it, and return the threshold rule of each: the aDDT/eDDT rules the
    methods and edge rules need, then the fixed edge rules, in output order.

    Unknown or repeated names, a bad hard level and bad t10 settings raise
    ValidationError, so a bad request fails before any replicate runs.
    """
    methods, edge_rules = design.methods, design.edge_rules
    for kind, names in (("method", methods), ("edge rule", edge_rules)):
        if len(set(names)) != len(names):
            raise ValidationError(f"repeated {kind} in {list(names)}")
    check_baselines([m for m in methods if m not in ("addt", "eddt")],
                    design.density, design.ranking)
    ddt = [name for name in ("addt", "eddt")
           if name in methods or name in edge_rules]
    fixed = [name for name in edge_rules if name not in ddt]
    return {name: _edge_rule(name, design) for name in ddt + fixed}


def run_replicate(design: SimDesign, base: SymmetricMatrix, rep: int,
                  rules: dict[str, ThresholdRule]) -> ReplicateOutcome:
    """Simulate replicate rep's cohort on base (base_network(design)), run
    the design's node methods on it through ddt_run, and score them and the
    design's edge rules; rules are experiment_rules(design). The fixed edge
    rules select from ddt_run's difference network."""
    rep_rng = substream(design.seed, 1, rep)
    sim = simulate_cohort(design, base,
                          replicate_seed=int(rep_rng.integers(2 ** 63)))
    cfg = EdgeTestConfig(method=design.edge_test,
                         seed=int(rep_rng.integers(2 ** 63)))
    ddt_rules = {name: rule for name, rule in rules.items()
                 if rule.kind in ("addt", "eddt")}
    result = ddt_run(sim.cohort, ddt_rules,
                     tuple(name for name in BASELINES if name in design.methods),
                     test_cfg=cfg, ensemble_size=design.null_networks,
                     alpha=design.alpha, seed=int(rep_rng.integers(2 ** 63)),
                     density=design.density, ranking=design.ranking)

    # the stage's own message, without the PipelineError label
    errors = (dict.fromkeys(ddt_rules, str(result.error.__cause__))
              if result.error else {})
    nodes = {name: r.nodes for name, r in result.ddt.items()} | result.baselines
    edges = {name: r.adjacency for name, r in result.ddt.items()}
    edges.update((name, baseline_threshold(result.pvalues, rule, result.difference))
                 for name, rule in rules.items() if name not in ddt_rules)

    exclude = sim.incident_nodes
    node_counts = {
        name: score(tests.significant, sim.target_nodes, exclude=exclude)
        for name, tests in nodes.items() if name in design.methods
    }
    edge_counts = {
        name: score(adjacency.values, sim.dwe_edges)
        for name, adjacency in edges.items() if name in design.edge_rules
    }
    return ReplicateOutcome(replicate=rep, node_counts=node_counts,
                            edge_counts=edge_counts, errors=errors)


def _jackknife_mcc(counts: list[ConfusionCounts],
                   total: ConfusionCounts) -> float:
    """Jackknife standard error of the pooled MCC; total is counts' sum."""
    r = len(counts)
    if r < 2:
        return 0.0
    vals = np.array([
        ConfusionCounts(total.tp - c.tp, total.tn - c.tn,
                        total.fp - c.fp, total.fn - c.fn).mcc
        for c in counts])
    return float(np.sqrt((r - 1) / r * ((vals - vals.mean()) ** 2).sum()))


def _aggregate(method: str, scope: str, counts: list[ConfusionCounts],
               n_errors: int) -> MetricRow:
    total = sum(counts, ConfusionCounts())
    tprs = np.array([c.tpr for c in counts if (c.tp + c.fn) > 0])
    fprs = np.array([c.fpr for c in counts if (c.fp + c.tn) > 0])
    def se(x):
        return float(x.std(ddof=1) / math.sqrt(len(x))) if len(x) > 1 else 0.0
    return MetricRow(method=method, scope=scope, tpr=total.tpr, fpr=total.fpr,
                     mcc=total.mcc, tpr_se=se(tprs), fpr_se=se(fprs),
                     mcc_se=_jackknife_mcc(counts, total),
                     replicates_used=len(counts), errors=n_errors, counts=total)


def run_experiment(design: SimDesign, threads: int = 1) -> ExperimentResult:
    """Run the full benchmark: replicate loop, method execution, scoring of
    the design's methods (node level) and edge rules (edge level).

    Per-replicate method failures (e.g. a nonpositive logit-scale mean under
    weak signal) are recorded and the affected method simply contributes no
    decisions for that replicate; aggregates are over the replicates where
    the method ran. The methods, edge rules and the design's level are
    checked by experiment_rules before any replicate runs. Replicates run on
    pool_size(threads, replicates) processes; the results are the same for
    any count.
    """
    rules = experiment_rules(design)
    workers = pool_size(threads, design.replicates)
    base = base_network(design)
    # every replicate calls scipy.special; loaded here, before the pool
    # forks, it is inherited instead of imported by each worker
    import scipy.special  # noqa: F401
    with worker_map(workers, "simulate replicates",
                    chunksize=max(1, design.replicates // (8 * workers))
                    ) as pmap:
        outcomes = list(pmap(run_replicate, repeat(design), repeat(base),
                             range(design.replicates), repeat(rules)))

    rows = []
    for method in design.methods:
        counts = [o.node_counts[method] for o in outcomes
                  if method in o.node_counts]
        n_err = sum(1 for o in outcomes if method in o.errors)
        rows.append(_aggregate(method, "node", counts, n_err))
    for rule in design.edge_rules:
        counts = [o.edge_counts[rule] for o in outcomes if rule in o.edge_counts]
        n_err = sum(1 for o in outcomes if rule in o.errors)
        rows.append(_aggregate(rule, "edge", counts, n_err))
    return ExperimentResult(design=design, metrics=tuple(rows),
                            outcomes=tuple(outcomes))
