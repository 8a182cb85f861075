"""The differential degree test.

Pipeline: edge-wise p-values -> difference network (probability and logit
scale) -> observed moments -> one streamed pass over the null ensemble
(threshold gamma and per-edge null exceedance counts) -> observed adjacency
and differential degrees -> per-node null probability -> exact binomial
upper-tail p-values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import (
    AdjacencyMatrix,
    ConnectivityCohort,
    DdtError,
    DifferenceNetwork,
    ValidationError,
    pvalue_clamp_count,
    triu_index_pairs,
    validate_cohort,
)
from .edgetests import EdgeTestConfig, PValueMatrix, edgewise_pvalues
from .hqs import (  # noqa: F401  generate_null: perfbench/spans.py wraps it here
    MomentSummary,
    NullStream,
    generate_null,
    null_exceedances,
    observed_moments,
)
from .thresholds import ThresholdRule, apply_threshold, select_gamma

# reported in place of an exact-zero binomial p-value when the null
# probability estimate is degenerate (undersized ensemble)
DEGENERATE_P_FLOOR = 1e-300


class PipelineError(DdtError):
    """A pipeline stage failed; the message carries the stage label."""


@dataclass(frozen=True)
class NodeTestResult:
    """Differential-degree test outcome for one node."""

    node: int
    degree: int
    p_null: float
    pvalue: float
    significant: bool
    degenerate: bool = False


@dataclass(frozen=True)
class DdtResult:
    """Everything a run produces: per-node results plus the artifacts."""

    nodes: tuple[NodeTestResult, ...]
    pvalues: PValueMatrix
    difference: DifferenceNetwork
    moments: MomentSummary
    gamma: float
    adjacency: AdjacencyMatrix
    ensemble_size: int
    alpha: float
    seed: int
    flags: dict = field(default_factory=dict)

    @property
    def degrees(self) -> np.ndarray:
        return np.array([r.degree for r in self.nodes])

    @property
    def significant_nodes(self) -> np.ndarray:
        return np.array([r.node for r in self.nodes if r.significant])


def differential_degree(adjacency: AdjacencyMatrix) -> np.ndarray:
    """Number of selected edges incident to each node."""
    return adjacency.degrees()


def null_probability(null_adjacencies: Sequence[AdjacencyMatrix]) -> np.ndarray:
    """Per-node probability that a null edge survives the threshold.

    p_hat_i = (1 / (M (N-1))) * sum over networks and partners of the
    selected-edge indicators incident to node i.
    """
    if len(null_adjacencies) == 0:
        raise ValidationError("need at least one thresholded null network")
    mask = np.vstack([a.selected for a in null_adjacencies])
    return null_probability_from_counts(mask.sum(axis=0), len(null_adjacencies),
                                        null_adjacencies[0].n)


def null_probability_from_counts(counts: np.ndarray, size: int,
                                 n: int) -> np.ndarray:
    """p_hat from per-edge counts of the `size` null networks selecting each
    edge (the counts hqs.null_exceedances returns)."""
    iu, ju = triu_index_pairs(n)
    per_edge = np.asarray(counts).astype(float)
    totals = (np.bincount(iu, weights=per_edge, minlength=n)
              + np.bincount(ju, weights=per_edge, minlength=n))
    return totals / (size * (n - 1))


def binomial_upper_tail(k: int, n: int, p: float) -> float:
    """Exact P(X >= k) for X ~ Binomial(n, p), by log-space pmf summation."""
    if not 0 <= k <= n:
        raise ValidationError(f"need 0 <= k <= n, got k={k}, n={n}")
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"success probability must be in [0, 1], got {p}")
    if k == 0:
        return 1.0
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 1.0
    log_p = math.log(p)
    log_q = math.log1p(-p)
    terms = []
    for i in range(k, n + 1):
        log_c = (math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1))
        terms.append(log_c + i * log_p + (n - i) * log_q)
    m = max(terms)
    total = m + math.log(math.fsum(math.exp(t - m) for t in terms))
    return float(min(1.0, math.exp(total)))


def node_tests(degrees: np.ndarray, p_null: np.ndarray,
               alpha: float = 0.05) -> tuple[NodeTestResult, ...]:
    """Upper-tail exact binomial test of each node's differential degree.

    A node with a positive degree but a zero null-probability estimate gets
    the clamped floor p-value and a degeneracy flag instead of an exact 0.
    """
    n = len(degrees)
    results = []
    for i in range(n):
        k = int(degrees[i])
        p0 = float(p_null[i])
        pv = binomial_upper_tail(k, n - 1, p0)
        degenerate = pv == 0.0
        if degenerate:
            pv = DEGENERATE_P_FLOOR
        results.append(NodeTestResult(
            node=i, degree=k, p_null=p0, pvalue=pv,
            significant=pv < alpha, degenerate=degenerate))
    return tuple(results)


def ddt_run(cohort: ConnectivityCohort,
            test_cfg: EdgeTestConfig | None = None,
            rule: ThresholdRule | None = None,
            ensemble_size: int = 1000,
            alpha: float = 0.05,
            seed: int = 0,
            inner_dim: int = 2,
            correct_nodes: bool = False) -> DdtResult:
    """Run the full differential degree test on a validated cohort.

    Fully deterministic given the seed: the null ensemble streams from
    (seed, replicate) and the parametric threshold uses the rule's own
    fixed seed. `correct_nodes` applies BH across the node p-values before
    declaring significance (off by default).
    """
    test_cfg = test_cfg or EdgeTestConfig(seed=seed)
    rule = rule or ThresholdRule()
    validate_cohort(cohort)

    try:
        pmat = edgewise_pvalues(cohort, test_cfg)
    except DdtError as err:
        raise PipelineError(f"edge tests: {err}") from err

    dn = DifferenceNetwork.from_pvalues(pmat)
    try:
        moments = observed_moments(dn, m=inner_dim)
    except DdtError as err:
        raise PipelineError(f"moments: {err}") from err

    stream = NullStream(moments, cohort.n, ensemble_size, seed=seed)
    fixed, levels = {}, {}
    if rule.kind == "eddt":
        levels["gamma"] = rule.level
    else:
        try:
            fixed["gamma"] = select_gamma(rule, moments=moments, pmat=pmat)
        except DdtError as err:
            raise PipelineError(f"threshold: {err}") from err
    null = null_exceedances(stream, fixed, levels)["gamma"]

    adjacency = apply_threshold(dn, null.gamma)
    degrees = differential_degree(adjacency)
    p_null = null_probability_from_counts(null.counts, null.size, cohort.n)
    nodes = node_tests(degrees, p_null, alpha=alpha)
    if correct_nodes:
        from .thresholds import benjamini_hochberg
        reject = benjamini_hochberg(np.array([r.pvalue for r in nodes]), alpha)
        nodes = tuple(
            NodeTestResult(r.node, r.degree, r.p_null, r.pvalue,
                           bool(reject[i]), r.degenerate)
            for i, r in enumerate(nodes))

    flags = {
        "degenerate_nodes": [r.node for r in nodes if r.degenerate],
        "null_edge_fraction": null.edge_fraction,
        "fisher_z_clamped": pmat.fisher_z_clamped,
        "pvalues_clamped": pvalue_clamp_count(pmat.values),
        "node_correction": "bh" if correct_nodes else "none",
    }
    return DdtResult(nodes=nodes, pvalues=pmat, difference=dn, moments=moments,
                     gamma=null.gamma, adjacency=adjacency,
                     ensemble_size=ensemble_size, alpha=alpha, seed=seed,
                     flags=flags)
