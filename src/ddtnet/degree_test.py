"""The differential degree test.

Pipeline: edge-wise p-values -> difference network (probability and logit
scale) -> observed moments -> one streamed pass over the null ensemble
(threshold gamma and per-edge null exceedance counts) -> observed adjacency
and differential degrees -> per-node null probability -> exact binomial
upper-tail p-values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    AdjacencyMatrix,
    ConnectivityCohort,
    DdtError,
    DifferenceNetwork,
    ValidationError,
    node_sums,
    pvalue_clamp_count,
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
from .thresholds import (ThresholdRule, apply_threshold, benjamini_hochberg,
                         select_gamma)

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


def _stage(label: str, fn, *args, **kwargs):
    """fn(*args, **kwargs), with a toolkit error re-raised as a
    PipelineError naming the stage."""
    try:
        return fn(*args, **kwargs)
    except DdtError as err:
        raise PipelineError(f"{label}: {err}") from err


def degree_tests(pmat: PValueMatrix, rules: dict[str, ThresholdRule],
                 ensemble_size: int, alpha: float, seed: int,
                 inner_dim: int = 2) -> dict[str, DdtResult]:
    """The degree test after the edge tests, for several rules at once.

    One difference network, one set of moments and one streamed pass over
    the null ensemble from `seed` serve every rule; each rule then gets its
    own adjacency, null probabilities and node tests. Results follow the
    order of `rules`. A failing moment or threshold stage raises
    PipelineError naming the stage, with the stage's error as __cause__.
    """
    n = pmat.n
    dn = DifferenceNetwork.from_pvalues(pmat)
    moments = _stage("moments", observed_moments, dn, m=inner_dim)
    stream = NullStream(moments, n, ensemble_size, seed=seed)
    fixed = {name: _stage("threshold", select_gamma, rule, moments=moments,
                          pmat=pmat)
             for name, rule in rules.items() if rule.kind != "eddt"}
    levels = {name: rule.level for name, rule in rules.items()
              if rule.kind == "eddt"}
    nulls = null_exceedances(stream, fixed, levels)
    pvalues_clamped = pvalue_clamp_count(pmat.values)

    results = {}
    for name in rules:
        null = nulls[name]
        adjacency = apply_threshold(dn, null.gamma)
        p_null = null_probability_from_counts(null.counts, null.size, n)
        nodes = node_tests(adjacency.degrees(), p_null, alpha=alpha)
        flags = {
            "degenerate_nodes": [r.node for r in nodes if r.degenerate],
            "null_edge_fraction": null.edge_fraction,
            "fisher_z_clamped": pmat.fisher_z_clamped,
            "pvalues_clamped": pvalues_clamped,
            "node_correction": "none",
        }
        results[name] = DdtResult(
            nodes=nodes, pvalues=pmat, difference=dn, moments=moments,
            gamma=null.gamma, adjacency=adjacency,
            ensemble_size=ensemble_size, alpha=alpha, seed=seed, flags=flags)
    return results


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
    validate_cohort(cohort)
    pmat = _stage("edge tests", edgewise_pvalues, cohort, test_cfg)
    result = degree_tests(pmat, {"gamma": rule or ThresholdRule()},
                          ensemble_size, alpha, seed, inner_dim)["gamma"]
    if not correct_nodes:
        return result
    reject = benjamini_hochberg([r.pvalue for r in result.nodes], alpha)
    nodes = tuple(replace(r, significant=bool(reject[r.node]))
                  for r in result.nodes)
    return replace(result, nodes=nodes,
                   flags={**result.flags, "node_correction": "bh"})
