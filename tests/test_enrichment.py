import itertools
import math

import numpy as np
import pytest
from scipy import integrate

from ddtnet.core import AdjacencyMatrix, ValidationError
from ddtnet.enrichment import (
    ModulePartition,
    NoSelectedEdgesError,
    block_counts,
    enrichment_test,
    expected_counts,
)


def chi2_df1_upper_tail_by_quadrature(x: float) -> float:
    """Upper tail of chi-square with 1 df by numerical integration."""
    def pdf(t):
        return math.exp(-t / 2) / math.sqrt(2 * math.pi * t)
    val, _ = integrate.quad(pdf, x, np.inf)
    return val


def _adj(n, edges):
    dense = np.zeros((n, n), dtype=int)
    for i, j in edges:
        dense[i, j] = dense[j, i] = 1
    return AdjacencyMatrix.from_dense(dense)


def _partition(ids, names=None):
    return ModulePartition(assignment=np.array(ids), module_names=names)


def test_block_counts_empty():
    part = _partition([1, 1, 2, 2, 2])
    counts = block_counts(_adj(5, []), part)
    assert all(v == 0 for v in counts.values())


def test_block_counts_complete_graph():
    part = _partition([1, 1, 2, 2, 2])
    complete = _adj(5, list(itertools.combinations(range(5), 2)))
    counts = block_counts(complete, part)
    assert counts[(1, 1)] == 1
    assert counts[(2, 2)] == 3
    assert counts[(1, 2)] == 6


def test_block_counts_partition_identity():
    rng = np.random.default_rng(0)
    part = _partition(rng.integers(1, 4, size=12) * 0 + np.repeat([1, 2, 3], 4))
    sel = rng.random(66) < 0.4
    adj = AdjacencyMatrix(n=12, values=sel)
    counts = block_counts(adj, part)
    assert sum(counts.values()) == adj.n_edges_selected


def test_expected_counts_formulas():
    part = _partition([1] * 5 + [2] * 4)
    e = expected_counts(part, p_star=0.1)
    assert e[(1, 1)] == pytest.approx(0.1 * 5 * 4 / 2)     # 1.0
    assert e[(1, 2)] == pytest.approx(0.1 * 5 * 4)         # 2.0
    assert e[(2, 2)] == pytest.approx(0.1 * 4 * 3 / 2)
    total_edges = 9 * 8 / 2
    assert sum(e.values()) == pytest.approx(0.1 * total_edges, abs=1e-9)


def test_expected_counts_degenerate_zero_rate():
    part = _partition([1, 1, 2, 2])
    e = expected_counts(part, p_star=0.0)
    assert all(v == 0.0 for v in e.values())


def test_enrichment_statistic_and_pvalue_against_quadrature():
    # a block with Q = 5, E = 1 gives X^2 = 16
    part = _partition([1] * 5 + [2] * 5)
    # choose edges so that block (1,1) holds 5 selected edges out of 10,
    # for a network-wide rate that makes E close to 1
    edges = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)]
    edges += [(5, 6)]   # one edge elsewhere keeps p* moderate
    adj = _adj(10, edges)
    results = {r.block: r for r in enrichment_test(adj, part)}
    within = results[(1, 1)]
    expected_x2 = (within.observed - within.expected) ** 2 / within.expected
    assert within.statistic == pytest.approx(expected_x2, abs=1e-12)
    oracle_p = chi2_df1_upper_tail_by_quadrature(within.statistic)
    assert within.pvalue == pytest.approx(oracle_p, rel=1e-6)
    # the frozen reference value: X^2 = 16 has upper tail ~ 6.33e-5
    assert chi2_df1_upper_tail_by_quadrature(16.0) == pytest.approx(
        6.334e-5, rel=1e-3)


def test_enrichment_exact_expectation_not_flagged():
    # Q exactly at E: statistic 0, p-value 1
    part = _partition([1] * 4 + [2] * 4)
    # all 28 edges selected: p* = 1, so Q = E in every block
    adj = _adj(8, list(itertools.combinations(range(8), 2)))
    for r in enrichment_test(adj, part):
        assert r.statistic == pytest.approx(0.0, abs=1e-12)
        assert r.pvalue == 1.0
        assert not r.significant


def test_enrichment_direction_filter():
    # a hugely depleted block never gets flagged, whatever its X^2
    part = _partition([1] * 6 + [2] * 6)
    edges = list(itertools.combinations(range(6), 2))       # all inside module 1
    adj = _adj(12, edges)
    results = {r.block: r for r in enrichment_test(adj, part)}
    depleted = results[(1, 2)]
    assert depleted.observed < depleted.expected
    assert not depleted.significant
    enriched = results[(1, 1)]
    assert enriched.observed > enriched.expected
    assert enriched.significant


def test_enrichment_relabeling_invariance():
    rng = np.random.default_rng(3)
    sel = rng.random(66) < 0.3
    adj = AdjacencyMatrix(n=12, values=sel)
    ids = np.repeat([1, 2, 3], 4)
    base = enrichment_test(adj, _partition(ids))
    swapped = enrichment_test(adj, _partition(np.where(ids == 1, 3,
                                              np.where(ids == 3, 1, ids))))
    def table(results):
        return sorted((r.observed, round(r.expected, 9), round(r.pvalue, 12))
                      for r in results)
    assert table(base) == table(swapped)


def test_enrichment_requires_selected_edges():
    part = _partition([1, 1, 2, 2])
    with pytest.raises(NoSelectedEdgesError):
        enrichment_test(_adj(4, []), part)


def test_enrichment_low_expectation_flag():
    part = _partition([1, 1, 2] + [3] * 9)
    adj = _adj(12, [(0, 1), (3, 4)])
    results = {r.block: r for r in enrichment_test(adj, part)}
    assert results[(1, 1)].low_expectation          # E = p* * 1 << 0.5


def test_enrichment_null_calibration():
    # uniformly sprinkled adjacency: flagged fraction stays near alpha
    rng = np.random.default_rng(8)
    part = _partition(np.repeat([1, 2, 3, 4], 8))
    flagged = blocks = 0
    for _ in range(150):
        sel = rng.random(32 * 31 // 2) < 0.2
        if not sel.any():
            continue
        res = enrichment_test(AdjacencyMatrix(n=32, values=sel), part)
        flagged += sum(r.significant for r in res)
        blocks += len(res)
    rate = flagged / blocks
    se = math.sqrt(0.05 * 0.95 / blocks)
    assert rate <= 0.05 + 3 * se


def test_partition_validation():
    with pytest.raises(ValidationError):
        _partition([1, 1, 3, 3])        # module 2 empty
    with pytest.raises(ValidationError):
        _partition([0, 1, 1])           # ids must be >= 1
    with pytest.raises(ValidationError):
        block_counts(_adj(4, []), _partition([1, 1, 2]))
