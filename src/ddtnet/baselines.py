"""Competing node-level tests: degree t-test at fixed density and
multiplicity-corrected binomial tests.

The density baseline thresholds each subject's connectivity matrix to a
fixed edge density, then compares nodal degrees between groups with a
Welch t-test. The binomial baselines detect edges at the uncorrected level
alpha, test each node's count of incident detections against an exact
binomial null, and correct the N node tests for multiplicity (Bonferroni
or BH across nodes).
"""

from __future__ import annotations

import numpy as np

from .core import (AdjacencyMatrix, ConnectivityCohort, SymmetricMatrix,
                   ValidationError, node_sums, triu_index_pairs)
from .degree_test import NodeTests, binomial_tails
# perfbench/spans.py counts binomial calls through this binding too
from .degree_test import binomial_upper_tail  # noqa: F401
from .edgetests import PValueMatrix, _vector_welch
from .thresholds import bh_adjust

RANKINGS = ("signed", "absolute")
CORRECTIONS = ("bonferroni", "fdr")


def density_edge_count(n_edges: int, density: float) -> int:
    return int(round(density * n_edges))


def check_t10_settings(density: float, ranking: str) -> None:
    """Reject a t10 density outside (0, 1) or an unknown ranking."""
    if not 0.0 < density < 1.0:
        raise ValidationError(f"density must be in (0, 1), got {density}")
    if ranking not in RANKINGS:
        raise ValidationError(f"ranking must be one of {RANKINGS}")


def degree_at_density(g: SymmetricMatrix, density: float = 0.10,
                      ranking: str = "signed") -> np.ndarray:
    """Nodal degrees after keeping the top round(density * E) edges.

    Edges are ranked descending (signed values or magnitudes); ties are
    broken by the canonical (i, j) order, so exactly k edges survive.
    """
    if ranking not in RANKINGS:
        raise ValidationError(f"ranking must be one of {RANKINGS}")
    vals = g.values if ranking == "signed" else np.abs(g.values)
    k = density_edge_count(g.n_edges, density)
    selected = np.zeros(g.n_edges, dtype=bool)
    if k > 0:
        order = np.argsort(-vals, kind="stable")
        selected[order[:k]] = True
    return node_sums(g.n, selected).astype(np.int64)


def stacked_degrees(values: np.ndarray, n: int, density: float,
                    ranking: str) -> np.ndarray:
    """degree_at_density of every row of a (subjects x edges) array of an
    n-node network. One row-wise partition finds each row's k-th largest
    value; the edges above it are kept, and of those equal to it the
    lowest edge indices fill the rest, as the stable sort does."""
    vals = np.abs(values) if ranking == "absolute" else values
    subjects, n_edges = vals.shape
    k = density_edge_count(n_edges, density)
    if k == 0:
        return np.zeros((subjects, n), dtype=np.int64)
    kth = np.partition(vals, n_edges - k, axis=1)[:, n_edges - k, None]
    selected = vals > kth
    ties = vals == kth
    short = k - np.count_nonzero(selected, axis=1)
    selected |= ties & (np.cumsum(ties, axis=1) <= short[:, None])
    iu, ju = triu_index_pairs(n)
    rows, edges = np.nonzero(selected)
    # node index offset by n per subject, so one bincount counts every row
    offset = n * rows
    counts = (np.bincount(iu[edges] + offset, minlength=n * subjects)
              + np.bincount(ju[edges] + offset, minlength=n * subjects))
    return counts.reshape(subjects, n).astype(np.int64)


def degree_ttest(cohort: ConnectivityCohort, density: float = 0.10,
                 alpha: float = 0.05, ranking: str = "signed") -> NodeTests:
    """Welch two-sample t-test of density-thresholded nodal degrees.

    Returns the per-node Welch p-values and their decisions (p < alpha) as
    NodeTests; degree, p_null and degenerate stay None, since the nodal
    degrees differ by subject.
    """
    check_t10_settings(density, ranking)
    d1 = stacked_degrees(cohort.x1, cohort.n, density, ranking)
    d2 = stacked_degrees(cohort.x2, cohort.n, density, ranking)
    p = _vector_welch(d1.astype(float), d2.astype(float))
    return NodeTests(pvalue=p, significant=p < alpha)


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
