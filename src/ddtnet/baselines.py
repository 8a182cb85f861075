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

from dataclasses import dataclass

import numpy as np

from .core import (AdjacencyMatrix, ConnectivityCohort, SymmetricMatrix,
                   ValidationError, node_sums, validate_cohort)
from .degree_test import NodeTestResult, binomial_upper_tail
from .edgetests import PValueMatrix, _vector_welch
from .thresholds import bh_adjust

RANKINGS = ("signed", "absolute")
CORRECTIONS = ("bonferroni", "fdr")


@dataclass(frozen=True)
class DegreeTTestResult:
    """Per-node p-values and decisions of the density-degree t-test."""

    pvalues: np.ndarray
    significant: np.ndarray
    density: float
    alpha: float


def density_edge_count(n_edges: int, density: float) -> int:
    return int(round(density * n_edges))


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


def degree_ttest(cohort: ConnectivityCohort, density: float = 0.10,
                 alpha: float = 0.05, ranking: str = "signed") -> DegreeTTestResult:
    """Welch two-sample t-test of density-thresholded nodal degrees."""
    if not 0.0 < density < 1.0:
        raise ValidationError(f"density must be in (0, 1), got {density}")
    validate_cohort(cohort)
    d1 = np.vstack([degree_at_density(m, density, ranking) for m in cohort.group1])
    d2 = np.vstack([degree_at_density(m, density, ranking) for m in cohort.group2])
    p = _vector_welch(d1.astype(float), d2.astype(float))
    return DegreeTTestResult(pvalues=p, significant=p < alpha,
                             density=density, alpha=alpha)


def binomial_corrected(pmat: PValueMatrix, correction: str = "bonferroni",
                       alpha: float = 0.05) -> tuple[NodeTestResult, ...]:
    """Multiplicity-corrected binomial node test.

    An edge is detected when its p-value is below alpha. Each node's count
    k of incident detections is tested against Binomial(N-1, alpha), the
    count of a node none of whose edges differ, by the exact upper tail.
    The N node p-values are then corrected across nodes: Bonferroni reports
    min(1, N p), BH ("fdr") the step-up adjusted p-value. `pvalue` holds the
    adjusted value, `p_null` is alpha, and a node is significant when its
    adjusted p-value is below alpha.
    """
    if correction not in CORRECTIONS:
        raise ValidationError(f"correction must be one of {CORRECTIONS}")
    n = pmat.n
    degrees = AdjacencyMatrix(n, pmat.values < alpha).degrees()
    raw = np.array([binomial_upper_tail(int(k), n - 1, alpha) for k in degrees])
    if correction == "bonferroni":
        adjusted = np.minimum(1.0, n * raw)
    else:
        adjusted = bh_adjust(raw)
    return tuple(
        NodeTestResult(node=i, degree=int(degrees[i]), p_null=alpha,
                       pvalue=float(adjusted[i]),
                       significant=bool(adjusted[i] < alpha))
        for i in range(n))
