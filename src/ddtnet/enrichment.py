"""Module-pair chi-square enrichment of selected edges.

Given a partition of nodes into functional modules, counts selected edges
per unordered module block, compares against the expected count under a
uniform sprinkling of the network-wide selection rate, and flags blocks
with significantly more selected edges than chance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import AdjacencyMatrix, DdtError, ValidationError
from .thresholds import bh_adjust

# blocks with expected counts below this are reported but marked unreliable;
# the chi-square approximation is poor there
LOW_EXPECTATION = 0.5


class NoSelectedEdgesError(DdtError):
    """Enrichment is undefined when the adjacency selects no edges."""


@dataclass(frozen=True)
class ModulePartition:
    """Assignment of each node to one of G modules (ids 1..G)."""

    assignment: np.ndarray                   # shape (n,), module id per node
    module_names: tuple[str, ...] | None = None

    def __post_init__(self):
        a = np.asarray(self.assignment, dtype=int)
        if a.ndim != 1:
            raise ValidationError("module assignment must be one id per node")
        ids = np.unique(a)
        if ids.min() < 1:
            raise ValidationError("module ids must be positive integers")
        # every module in 1..G nonempty
        expected = np.arange(1, ids.max() + 1)
        if not np.array_equal(ids, expected):
            missing = sorted(set(expected.tolist()) - set(ids.tolist()))
            raise ValidationError(f"empty module id(s): {missing}")
        if self.module_names is not None and len(self.module_names) != len(ids):
            raise ValidationError("one module name per module id required")
        object.__setattr__(self, "assignment", a)

    @property
    def n_nodes(self) -> int:
        return len(self.assignment)

    @property
    def n_modules(self) -> int:
        return int(self.assignment.max())

    def module_size(self, g: int) -> int:
        return int(np.count_nonzero(self.assignment == g))

    def name(self, g: int) -> str:
        if self.module_names is not None:
            return self.module_names[g - 1]
        return str(g)


@dataclass(frozen=True)
class EnrichmentResult:
    block: tuple[int, int]       # unordered module pair, g1 <= g2
    observed: int
    expected: float
    statistic: float
    pvalue: float
    pvalue_adjusted: float
    significant: bool
    low_expectation: bool


def block_counts(adjacency: AdjacencyMatrix,
                 partition: ModulePartition) -> dict[tuple[int, int], int]:
    """Selected-edge count per unordered module pair."""
    if partition.n_nodes != adjacency.n:
        raise ValidationError(
            f"partition covers {partition.n_nodes} nodes, adjacency has "
            f"{adjacency.n}")
    iu, ju = np.triu_indices(adjacency.n, k=1)
    g = partition.assignment
    counts = {}
    for g1 in range(1, partition.n_modules + 1):
        for g2 in range(g1, partition.n_modules + 1):
            counts[(g1, g2)] = 0
    sel = adjacency.selected
    for i, j in zip(iu[sel], ju[sel]):
        a, b = sorted((int(g[i]), int(g[j])))
        counts[(a, b)] += 1
    return counts


def expected_counts(partition: ModulePartition,
                    p_star: float) -> dict[tuple[int, int], float]:
    """Expected selected edges per block under uniform sprinkling at rate p*.

    Within-module blocks hold |g|(|g|-1)/2 candidate edges, between-module
    blocks |g1||g2|; expectations sum to p* times the total edge count.
    """
    if not 0.0 <= p_star <= 1.0:
        raise ValidationError(f"p_star must be in [0, 1], got {p_star}")
    out = {}
    for g1 in range(1, partition.n_modules + 1):
        s1 = partition.module_size(g1)
        for g2 in range(g1, partition.n_modules + 1):
            if g1 == g2:
                out[(g1, g2)] = p_star * (s1 * (s1 - 1) / 2.0)
            else:
                out[(g1, g2)] = p_star * s1 * partition.module_size(g2)
    return out


def enrichment_test(adjacency: AdjacencyMatrix, partition: ModulePartition,
                    alpha: float = 0.05) -> tuple[EnrichmentResult, ...]:
    """Per-block X^2 = (Q - E)^2 / E against chi-square with 1 df.

    Upper-tail p-values are BH-corrected across the G(G+1)/2 blocks; a
    block is flagged only when Q > E (enrichment, not depletion) and the
    corrected p-value is below alpha, with 0 < alpha < 1.
    """
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must be in (0, 1), got {alpha}")
    from scipy import special
    total = adjacency.n_edges_selected
    if total == 0:
        raise NoSelectedEdgesError(
            "no selected edges; the enrichment rate p* is zero")
    p_star = total / (adjacency.n * (adjacency.n - 1) / 2.0)
    q = block_counts(adjacency, partition)
    e = expected_counts(partition, p_star)
    blocks = sorted(q)
    stats_x2 = []
    pvals = []
    for b in blocks:
        if e[b] > 0.0:
            x2 = (q[b] - e[b]) ** 2 / e[b]
            pv = float(special.chdtrc(1, x2))
        else:
            # empty block (singleton module within-block); skipped
            x2, pv = 0.0, 1.0
        stats_x2.append(x2)
        pvals.append(pv)
    adj = bh_adjust(np.array(pvals))
    results = []
    for idx, b in enumerate(blocks):
        enriched = q[b] > e[b]
        results.append(EnrichmentResult(
            block=b, observed=q[b], expected=e[b], statistic=stats_x2[idx],
            pvalue=pvals[idx], pvalue_adjusted=float(adj[idx]),
            significant=bool(adj[idx] <= alpha and enriched),
            low_expectation=e[b] < LOW_EXPECTATION))
    return tuple(results)
