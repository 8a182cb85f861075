"""The differential degree test.

Pipeline: edge-wise p-values -> difference network (probability and logit
scale) -> observed moments -> threshold gamma -> observed adjacency and
differential degrees -> per-node null probability -> exact binomial
upper-tail p-values.

Every null edge follows one law F (hqs.mixture_cdf), so a gamma known in
advance (aDDT, baselines) gives each node the exact null probability
1 - F(gamma); only eDDT streams its null ensemble, for its gamma and counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .core import (
    AdjacencyMatrix,
    ConnectivityCohort,
    DdtError,
    DifferenceNetwork,
    ValidationError,
    _frozen,
    _FrozenArrays,
    node_sums,
    pvalue_clamp_count,
)
from .edgetests import EdgeTestConfig, PValueMatrix, edgewise_pvalues
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
class NodeTests(_FrozenArrays):
    """Per-node test outcome as read-only arrays, entry i for node i.

    Every node method fills pvalue and significant. The binomial tests
    (DDT, binb, binf) also fill degree, p_null and degenerate; the degree
    t-test (t10) leaves them None.
    """

    pvalue: np.ndarray
    significant: np.ndarray
    degree: np.ndarray | None = None
    p_null: np.ndarray | None = None
    degenerate: np.ndarray | None = None

    def __post_init__(self):
        for name, value in vars(self).items():
            if value is not None:
                object.__setattr__(self, name, _frozen(np.asarray(value)))


@dataclass(frozen=True)
class DdtResult:
    """Everything a run produces: the node tests, one NodeTests entry per
    node, plus the artifacts they came from."""

    nodes: NodeTests
    pvalues: PValueMatrix
    difference: DifferenceNetwork
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


@lru_cache(maxsize=64)
def _log_binomial_row(n: int) -> tuple[float, ...]:
    """log C(n, i) for i = 0..n, by the lgamma expression of every tail."""
    return tuple(math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
                 for i in range(n + 1))


@lru_cache(maxsize=8192)
def binomial_upper_tail(k: int, n: int, p: float) -> float:
    """Exact P(X >= k) for X ~ Binomial(n, p), by log-space pmf summation.
    Cached: binb and binf, and nodes of one degree, ask for the same tail."""
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
    log_c = _log_binomial_row(n)
    terms = [log_c[i] + i * log_p + (n - i) * log_q for i in range(k, n + 1)]
    m = max(terms)
    total = m + math.log(math.fsum(math.exp(t - m) for t in terms))
    return float(min(1.0, math.exp(total)))


def binomial_tails(degrees: np.ndarray, trials: int, p) -> np.ndarray:
    """P(X >= k) for X ~ Binomial(trials, p) at each degree k, with p one
    probability or one per degree. binomial_upper_tail runs once per
    distinct (k, p) pair, found as the distinct values of k + i p."""
    keys = np.asarray(degrees) + 1j * np.asarray(p, dtype=float)
    pairs, inverse = np.unique(keys, return_inverse=True)
    tails = np.array([binomial_upper_tail(int(pair.real), trials, pair.imag)
                      for pair in pairs.tolist()])
    return tails[inverse]


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


def degree_tests(pmat: PValueMatrix, rules: dict[str, ThresholdRule],
                 ensemble_size: int, alpha: float, seed: int,
                 inner_dim: int = 2) -> dict[str, DdtResult]:
    """The degree test after the edge tests, for several rules at once.

    One difference network and one set of moments serve every rule; each
    rule then gets its own adjacency, null probabilities and node tests.
    A gamma known in advance gives p_null = max(0, 1 - F(gamma)) on the
    null edge law F; the eDDT rules share one streamed pass over the null
    ensemble from `seed`, made only for them. Results follow the order of
    `rules`. A failing moment or threshold stage raises PipelineError
    naming the stage, with the stage's error as __cause__.
    """
    n = pmat.n
    dn = DifferenceNetwork.from_pvalues(pmat)
    moments = _stage("moments", observed_moments, dn, m=inner_dim)
    if ensemble_size < 1:
        raise ValidationError(f"ensemble size must be >= 1, got {ensemble_size}")
    gammas = {name: _stage("threshold", select_gamma, rule, moments=moments,
                           pmat=pmat)
              for name, rule in rules.items() if rule.kind != "eddt"}
    levels = {name: rule.level for name, rule in rules.items()
              if rule.kind == "eddt"}
    nulls = (null_exceedances(NullStream(moments, n, ensemble_size, seed=seed),
                              levels) if levels else {})
    pvalues_clamped = pvalue_clamp_count(pmat.values)

    results = {}
    for name in rules:
        if name in nulls:
            null = nulls[name]
            gamma, fraction = null.gamma, null.edge_fraction
            p_null = null_probability_from_counts(null.counts, null.size, n)
        else:
            gamma = gammas[name]
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
        results[name] = DdtResult(
            nodes=nodes, pvalues=pmat, difference=dn, moments=moments,
            gamma=gamma, adjacency=adjacency, flags=flags)
    return results


def ddt_run(cohort: ConnectivityCohort,
            test_cfg: EdgeTestConfig | None = None,
            rule: ThresholdRule | None = None,
            ensemble_size: int = 1000,
            alpha: float = 0.05,
            seed: int = 0,
            inner_dim: int = 2,
            correct_nodes: bool = False) -> DdtResult:
    """Run the full differential degree test on a cohort.

    Fully deterministic given the seed: aDDT takes gamma and p_null from
    the null edge law and draws nothing; only eDDT streams `ensemble_size`
    null networks, all drawn from one generator keyed by the seed (see
    hqs.NullStream). `correct_nodes` applies BH
    across the node p-values before declaring significance (off by default).
    """
    test_cfg = test_cfg or EdgeTestConfig(seed=seed)
    pmat = _stage("edge tests", edgewise_pvalues, cohort, test_cfg)
    result = degree_tests(pmat, {"gamma": rule or ThresholdRule()},
                          ensemble_size, alpha, seed, inner_dim)["gamma"]
    if not correct_nodes:
        return result
    nodes = replace(result.nodes,
                    significant=benjamini_hochberg(result.nodes.pvalue, alpha))
    return replace(result, nodes=nodes,
                   flags={**result.flags, "node_correction": "bh"})
