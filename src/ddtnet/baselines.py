"""Competing node-level tests, and the node-test primitives they share
with the DDT: NodeTests, every node method's result, and the exact
binomial upper tail that the DDT, binb and binf all read, one
scipy.special.bdtrc call over every node (binomial_tails).

The density baseline (t10) thresholds each subject's connectivity matrix
to a fixed edge density, then compares nodal degrees between groups with a
Welch t-test. The binomial baselines (binb, binf) detect edges at the
uncorrected level alpha, test each node's count of incident detections
against an exact binomial null, and correct the N node tests for
multiplicity (Bonferroni or BH across nodes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (AdjacencyMatrix, ConnectivityCohort, ValidationError,
                   _frozen, _FrozenArrays, node_sums)
from .edgetests import (PValueMatrix, WelchMoments, welch_moments,
                        welch_pvalues)
from .thresholds import bh_adjust

BASELINES = ("binb", "binf", "t10")
RANKINGS = ("signed", "absolute")
CORRECTIONS = ("bonferroni", "fdr")
# stacked_degrees ranks this many bytes of float64 values at a time (at
# least one row), which bounds its temporaries whatever the group size
_DEGREE_CHUNK_BYTES = 1 << 20


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


def binomial_tails(degrees: np.ndarray, trials: int, p) -> np.ndarray:
    """P(X >= k) for X ~ Binomial(trials, p) at each degree k, with p one
    probability or one per degree: special.bdtrc(k - 1, trials, p), which
    is 1 at k = 0."""
    k = np.asarray(degrees)
    p = np.asarray(p, dtype=float)
    bad_k = (k < 0) | (k > trials)
    if bad_k.any():
        raise ValidationError(
            f"need 0 <= k <= {trials}, got k={k[bad_k].flat[0]}")
    bad_p = ~((p >= 0.0) & (p <= 1.0))  # NaN included
    if bad_p.any():
        raise ValidationError(
            f"success probability must be in [0, 1], got {p[bad_p].flat[0]}")
    from scipy import special
    return special.bdtrc(k - 1, trials, p)


# the name perfbench/spans.py hooks here and in degree_test; nothing calls it
binomial_upper_tail = binomial_tails


def density_edge_count(n_edges: int, density: float) -> int:
    return int(round(density * n_edges))


def check_t10_settings(density: float, ranking: str) -> None:
    """Reject a t10 density outside (0, 1) or an unknown ranking."""
    if not 0.0 < density < 1.0:
        raise ValidationError(f"density must be in (0, 1), got {density}")
    if ranking not in RANKINGS:
        raise ValidationError(f"ranking must be one of {RANKINGS}")


def check_baselines(names, density: float, ranking: str) -> None:
    """Reject repeated or unknown baseline names, and bad t10 settings."""
    if len(set(names)) != len(names):
        raise ValidationError(f"repeated baselines in {list(names)}")
    unknown = [name for name in names if name not in BASELINES]
    if unknown:
        raise ValidationError(f"unknown baselines {unknown}; expected one of "
                              f"{', '.join(BASELINES)}")
    if "t10" in names:
        check_t10_settings(density, ranking)


def stacked_degrees(values: np.ndarray, n: int, density: float,
                    ranking: str) -> np.ndarray:
    """Nodal degrees of every row of a (subjects x edges) array of an
    n-node network after keeping its top round(density * E) edges (signed
    values or magnitudes): one row-wise partition finds each row's k-th
    largest value, and of the edges equal to it the lowest indices are kept
    first, as a stable sort would. The rows are ranked in chunks of about
    _DEGREE_CHUNK_BYTES of values, so no temporary grows with the subjects."""
    subjects, n_edges = values.shape
    k = density_edge_count(n_edges, density)
    degrees = np.zeros((subjects, n), dtype=np.int64)
    if k == 0:
        return degrees
    rows = max(1, _DEGREE_CHUNK_BYTES // (8 * n_edges))
    for start in range(0, subjects, rows):
        chunk = slice(start, start + rows)
        vals = values[chunk]
        vals = np.abs(vals) if ranking == "absolute" else vals
        kth = np.partition(vals, n_edges - k, axis=1)[:, n_edges - k, None]
        selected = vals > kth
        ties = vals == kth
        short = k - np.count_nonzero(selected, axis=1)
        selected |= ties & (np.cumsum(ties, axis=1) <= short[:, None])
        degrees[chunk] = node_sums(n, selected)
    return degrees


def degree_moments(values: np.ndarray, n: int, density: float,
                   ranking: str) -> WelchMoments:
    """The Welch moments of one group's t10 nodal degrees (stacked_degrees
    of its (subjects x edges) values): t10's half of the pipeline's
    per-group reduction."""
    return welch_moments(stacked_degrees(values, n, density, ranking)
                         .astype(float))[0]


def t10_tests(d1: WelchMoments, d2: WelchMoments,
              alpha: float = 0.05) -> NodeTests:
    """The t10 node tests from the two groups' degree moments
    (degree_moments): per-node Welch p-values and their decisions (p <
    alpha); degree, p_null and degenerate stay None, since the nodal
    degrees differ by subject."""
    p = welch_pvalues(d1, d2)
    return NodeTests(pvalue=p, significant=p < alpha)


def degree_ttest(cohort: ConnectivityCohort, density: float = 0.10,
                 alpha: float = 0.05, ranking: str = "signed") -> NodeTests:
    """Welch two-sample t-test of density-thresholded nodal degrees: each
    group's degree_moments, then t10_tests."""
    check_t10_settings(density, ranking)
    return t10_tests(degree_moments(cohort.x1, cohort.n, density, ranking),
                     degree_moments(cohort.x2, cohort.n, density, ranking),
                     alpha)


def binomial_corrected(pmat: PValueMatrix, correction: str = "bonferroni",
                       alpha: float = 0.05) -> NodeTests:
    """Multiplicity-corrected binomial node test.

    An edge is detected when its p-value is below alpha. Each node's count
    k of incident detections is tested against Binomial(N-1, alpha), the
    count of a node none of whose edges differ, by the exact upper tail.
    The N raw tails (binomial_tails, with no floor: a tail that underflows
    to 0 stays 0) are then corrected across nodes: Bonferroni reports
    min(1, N p), BH ("fdr") the step-up adjusted p-value. In the returned
    NodeTests `pvalue` holds the adjusted value, `p_null` is alpha at every
    node, `degenerate` is all false, and a node is significant when its
    adjusted p-value is below alpha.
    """
    if correction not in CORRECTIONS:
        raise ValidationError(f"correction must be one of {CORRECTIONS}")
    n = pmat.n
    degrees = AdjacencyMatrix(n, pmat.values < alpha).degrees()
    raw = binomial_tails(degrees, n - 1, alpha)
    if correction == "bonferroni":
        adjusted = np.minimum(1.0, n * raw)
    else:
        adjusted = bh_adjust(raw)
    return NodeTests(pvalue=adjusted, significant=adjusted < alpha,
                     degree=degrees, p_null=np.full(n, alpha),
                     degenerate=np.zeros(n, dtype=bool))
