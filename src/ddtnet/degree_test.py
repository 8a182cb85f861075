"""The differential degree test, and ddt_run: the one pipeline that runs
every node method on a cohort, for `ddt run` and `ddt simulate` alike.

Pipeline: each subject group reduced to what the edge test and t10 read
of it (Reduction) -> edge-wise p-values -> difference network ->
baselines (t10, binb, binf) -> per threshold rule: observed moments ->
gamma -> observed adjacency and differential degrees -> per-node null
probability -> exact binomial upper-tail p-values (one
scipy.special.bdtrc call, baselines.binomial_tails) -> optionally BH
across nodes.

Every null edge follows one law F (hqs.mixture_cdf), so a gamma known in
advance (aDDT, baselines) gives each node the exact null probability
1 - F(gamma); only eDDT streams its null ensemble, for its gamma and counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .baselines import (  # noqa: F401  binomial_upper_tail: perfbench/spans.py wraps it here
    NodeTests, binomial_corrected, binomial_tails, binomial_upper_tail,
    check_baselines, degree_moments, t10_tests)
from .core import (
    AdjacencyMatrix,
    ConnectivityCohort,
    DdtError,
    DifferenceNetwork,
    ValidationError,
    check_labels_and_covariates,
    node_sums,
    nodes_for_edges,
    pvalue_clamp_count,
)
from .edgetests import (  # noqa: F401  edgewise_pvalues: perfbench/spans.py wraps it here
    EdgeTestConfig, GroupSummary, PValueMatrix, edgewise_pvalues,
    group_pvalues, summarize_group)
from .hqs import (  # noqa: F401  generate_null: perfbench/spans.py wraps it here
    MomentSummary,
    NullStream,
    generate_null,
    mixture_cdf,
    null_exceedances,
    observed_moments,
)
from .thresholds import (ThresholdRule, apply_threshold, benjamini_hochberg,
                         select_gamma)

# reported in place of an exact-zero binomial p-value when the null
# probability estimate is degenerate (undersized ensemble)
DEGENERATE_P_FLOOR = 1e-300


class PipelineError(DdtError):
    """A pipeline stage failed; the message carries the stage label."""


@dataclass(frozen=True)
class DdtResult:
    """One threshold rule's degree test: the node tests, one NodeTests of
    per-node arrays, plus the artifacts they came from."""

    nodes: NodeTests
    moments: MomentSummary
    gamma: float
    adjacency: AdjacencyMatrix
    flags: dict = field(default_factory=dict)

    @property
    def significant_nodes(self) -> np.ndarray:
        return np.flatnonzero(self.nodes.significant)


def null_probability_from_counts(counts: np.ndarray, size: int,
                                 n: int) -> np.ndarray:
    """Per-node probability that a null edge survives the threshold.

    counts holds, per edge, how many of the `size` null networks select it
    (what hqs.null_exceedances returns); p_hat_i is the selected share of
    the size * (n - 1) null edges incident to node i.
    """
    if size < 1:
        raise ValidationError("need at least one thresholded null network")
    if len(counts) != n * (n - 1) // 2:
        raise ValidationError(
            f"expected {n * (n - 1) // 2} per-edge counts for n={n}, "
            f"got {len(counts)}")
    return node_sums(n, counts) / (size * (n - 1))


def node_tests(degrees: np.ndarray, p_null: np.ndarray,
               alpha: float = 0.05) -> NodeTests:
    """Upper-tail exact binomial test of each node's differential degree
    against Binomial(N - 1, p_null).

    A node whose tail is an exact 0 (a positive degree but a zero
    null-probability estimate) gets DEGENERATE_P_FLOOR and the degenerate
    flag instead.
    """
    tails = binomial_tails(degrees, len(degrees) - 1, p_null)
    degenerate = tails == 0.0
    pvalue = np.where(degenerate, DEGENERATE_P_FLOOR, tails)
    return NodeTests(pvalue=pvalue, significant=pvalue < alpha,
                     degree=degrees, p_null=p_null, degenerate=degenerate)


def check_run_settings(seed: int, alpha: float, null_networks: int) -> None:
    """The range checks of a run manifest's and a simulate design's shared
    settings: seed >= 0, 0 < alpha < 1 and null_networks >= 1."""
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must be in (0, 1), got {alpha}")
    if null_networks < 1:
        raise ValidationError(f"null_networks must be >= 1, got {null_networks}")


def _stage(label: str, fn, *args, **kwargs):
    """fn(*args, **kwargs), with a toolkit error re-raised as a
    PipelineError naming the stage."""
    try:
        return fn(*args, **kwargs)
    except DdtError as err:
        raise PipelineError(f"{label}: {err}") from err


def degree_tests(pmat: PValueMatrix, dn: DifferenceNetwork,
                 rules: dict[str, ThresholdRule], ensemble_size: int,
                 alpha: float, seed: int,
                 inner_dim: int = 2) -> dict[str, DdtResult]:
    """The degree test after the edge tests, for several rules at once.

    dn is pmat's difference network (DifferenceNetwork.from_pvalues). One
    set of moments serves every rule; each rule then gets its own
    adjacency, null probabilities and node tests. A gamma known in advance
    gives p_null = max(0, 1 - F(gamma)) on the null edge law F; each eDDT
    rule makes its own streamed pass over the null ensemble from `seed`
    (hqs.null_exceedances), and no other rule streams. Results follow the
    order of `rules`. A failing moment or threshold stage raises
    PipelineError naming the stage, with the stage's error as __cause__.
    """
    n = pmat.n
    moments = _stage("moments", observed_moments, dn, m=inner_dim)
    if ensemble_size < 1:
        raise ValidationError(f"ensemble size must be >= 1, got {ensemble_size}")
    pvalues_clamped = pvalue_clamp_count(pmat.values)

    results = {}
    for name, rule in rules.items():
        if rule.kind == "eddt":
            null = null_exceedances(
                NullStream(moments, n, ensemble_size, seed=seed), rule.level)
            gamma, fraction = null.gamma, null.edge_fraction
            p_null = null_probability_from_counts(null.counts, null.size, n)
        else:
            gamma = _stage("threshold", select_gamma, rule, moments=moments,
                           pmat=pmat)
            fraction = max(0.0, 1.0 - mixture_cdf(moments, gamma))
            p_null = np.full(n, fraction)
        adjacency = apply_threshold(dn, gamma)
        nodes = node_tests(adjacency.degrees(), p_null, alpha=alpha)
        flags = {
            "degenerate_nodes": np.flatnonzero(nodes.degenerate).tolist(),
            "null_edge_fraction": fraction,
            "fisher_z_clamped": pmat.fisher_z_clamped,
            "pvalues_clamped": pvalues_clamped,
            "node_correction": "none",
        }
        results[name] = DdtResult(nodes=nodes, moments=moments, gamma=gamma,
                                  adjacency=adjacency, flags=flags)
    return results


@dataclass(frozen=True)
class Reduction:
    """What the pipeline keeps of each subject group, which follows from the
    run's settings: the edge test's summary (edgetests.summarize_group:
    Welch moments under welch_t, else the values) and, when t10 is asked
    for, the Welch moments of the group's t10 degrees at (density,
    ranking). Calling it on a group's (subjects x edges) values reduces
    them; ddt_run reads nothing else of the subjects."""

    test_cfg: EdgeTestConfig
    t10: tuple[float, str] | None = None

    @classmethod
    def of(cls, test_cfg: EdgeTestConfig, baselines: tuple[str, ...],
           density: float, ranking: str) -> "Reduction":
        """The reduction a run with these settings reads."""
        return cls(test_cfg, (density, ranking) if "t10" in baselines else None)

    def __call__(self, values: np.ndarray) -> GroupSummary:
        summary = summarize_group(values, self.test_cfg)
        if self.t10 is None:
            return summary
        n = nodes_for_edges(values.shape[1])
        return replace(summary, degrees=degree_moments(values, n, *self.t10))

    def cohort(self, cohort: ConnectivityCohort) -> "ReducedCohort":
        """An in-memory cohort, each group reduced."""
        return ReducedCohort(cohort.n, self(cohort.x1), self(cohort.x2), self,
                             covariates=cohort.covariates, labels=cohort.labels)


@dataclass(frozen=True)
class ReducedCohort:
    """A cohort as ddt_run reads it: the node count, each group reduced by
    `reduction`, and the covariates and node labels, checked as
    ConnectivityCohort checks them (core.check_labels_and_covariates).
    `ddt run` builds one group at a time (io.load_cohort), so it never holds
    both groups' subject arrays."""

    n: int
    group1: GroupSummary
    group2: GroupSummary
    reduction: Reduction
    covariates: np.ndarray | None = None
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        labels, covariates = check_labels_and_covariates(
            self.n, self.n1 + self.n2, self.labels, self.covariates)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "covariates", covariates)

    @property
    def n1(self) -> int:
        return self.group1.subjects

    @property
    def n2(self) -> int:
        return self.group2.subjects


@dataclass(frozen=True)
class RunResult:
    """ddt_run's result: the edge tests' p-values and difference network,
    one DdtResult per rule and one NodeTests per baseline, in the order
    asked for. `error` is the degree-test stage's PipelineError; when it is
    set, `ddt` is empty and the baselines are still there."""

    pvalues: PValueMatrix
    difference: DifferenceNetwork
    ddt: dict[str, DdtResult]
    baselines: dict[str, NodeTests]
    error: PipelineError | None = None


def ddt_run(cohort: ConnectivityCohort | ReducedCohort,
            rules: dict[str, ThresholdRule],
            baselines: tuple[str, ...] = (), *, test_cfg: EdgeTestConfig | None = None,
            ensemble_size: int = 1000, alpha: float = 0.05, seed: int = 0,
            inner_dim: int = 2, density: float = 0.10, ranking: str = "signed",
            correct_nodes: bool = False) -> RunResult:
    """Run every node method on a cohort: the edge tests (by default Welch,
    seeded by `seed`); the baselines, t10 at `density` and `ranking`, binb
    and binf from the p-values; degree_tests for every rule; and, when
    `correct_nodes` is set, BH across each rule's node p-values before
    declaring significance.

    Deterministic given the seeds: of the node methods only eDDT draws,
    `ensemble_size` null networks from one generator keyed by `seed`
    (hqs.NullStream).
    The first step reduces each group (Reduction.of these settings): an
    in-memory ConnectivityCohort is reduced here, and a ReducedCohort, as
    `ddt run` loads one, must have been reduced under the same settings.
    The edge tests and t10 read only the two reductions. Under welch_t
    these hold per-edge moments, not subject arrays; the joint tests keep
    both groups' values, and ddt_run drops its reference to them before
    degree_tests, so when the caller holds none (as `ddt run` does) they
    are freed before the eDDT null pass. A caller's own cohort is left
    intact.
    A failing edge-test stage raises PipelineError; a failing degree-test
    stage is returned as RunResult.error.
    """
    check_baselines(baselines, density, ranking)
    test_cfg = test_cfg or EdgeTestConfig(seed=seed)
    reduction = Reduction.of(test_cfg, baselines, density, ranking)
    if isinstance(cohort, ConnectivityCohort):
        cohort = reduction.cohort(cohort)
    elif cohort.reduction != reduction:
        raise ValidationError(
            f"the cohort was reduced for {cohort.reduction}, not {reduction}")
    g1, g2 = cohort.group1, cohort.group2
    pmat = _stage("edge tests", group_pvalues, g1, g2, test_cfg, cohort.n,
                  cohort.covariates)
    dn = DifferenceNetwork.from_pvalues(pmat)
    tests = {name: t10_tests(g1.degrees, g2.degrees, alpha)
             if name == "t10" else binomial_corrected(
                 pmat, "bonferroni" if name == "binb" else "fdr", alpha)
             for name in baselines}
    del cohort, g1, g2    # the reductions' last readers have run
    try:
        ddt = degree_tests(pmat, dn, rules, ensemble_size, alpha, seed,
                           inner_dim)
    except PipelineError as err:
        return RunResult(pmat, dn, {}, tests, error=err)
    if correct_nodes:
        for name, result in ddt.items():
            nodes = replace(result.nodes, significant=benjamini_hochberg(
                result.nodes.pvalue, alpha))
            ddt[name] = replace(result, nodes=nodes,
                                flags={**result.flags, "node_correction": "bh"})
    return RunResult(pmat, dn, ddt, tests)
