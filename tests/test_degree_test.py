import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from ddtnet.core import AdjacencyMatrix, ConnectivityCohort, ValidationError
from ddtnet import degree_test
from ddtnet.degree_test import (
    DEGENERATE_P_FLOOR,
    PipelineError,
    binomial_tails,
    binomial_upper_tail,
    ddt_run,
    degree_tests,
    node_tests,
    null_probability_from_counts,
)
from ddtnet.edgetests import EdgeTestConfig, PValueMatrix
from ddtnet.hqs import mixture_cdf
from ddtnet.thresholds import ThresholdRule


# ---------------------------------------------------------------------------
# oracle: P(X >= k) by enumerating all 2^n outcomes


def binomial_tail_by_enumeration(k: int, n: int, p: float) -> float:
    total = 0.0
    for outcome in range(2 ** n):
        ones = bin(outcome).count("1")
        if ones >= k:
            total += (p ** ones) * ((1 - p) ** (n - ones))
    return total


def _adj(n, edges):
    dense = np.zeros((n, n), dtype=int)
    for i, j in edges:
        dense[i, j] = dense[j, i] = 1
    return AdjacencyMatrix.from_dense(dense)


def test_differential_degree_trivial_cases():
    assert np.array_equal(_adj(4, []).degrees(), np.zeros(4))
    complete = _adj(5, list(itertools.combinations(range(5), 2)))
    assert np.array_equal(complete.degrees(), np.full(5, 4))
    single = _adj(4, [(1, 2)])
    assert list(single.degrees()) == [0, 1, 1, 0]


def test_degree_sums_to_twice_edge_count():
    rng = np.random.default_rng(1)
    for _ in range(10):
        sel = rng.random(45) < 0.3
        adj = AdjacencyMatrix(n=10, selected=sel)
        assert adj.degrees().sum() == 2 * adj.n_edges_selected


def _null_probability(adjacencies):
    """p_null of thresholded null networks, from their per-edge counts."""
    counts = np.sum([a.selected for a in adjacencies], axis=0)
    return null_probability_from_counts(counts, len(adjacencies),
                                        adjacencies[0].n)


def test_null_probability_arithmetic():
    # M = 2, N = 5; node 0 has incident-edge sums 3 and 1 across networks
    a1 = _adj(5, [(0, 1), (0, 2), (0, 3)])
    a2 = _adj(5, [(0, 4)])
    p = _null_probability([a1, a2])
    assert p[0] == pytest.approx((3 + 1) / (2 * 4))


def test_null_probability_extremes():
    empty = [_adj(4, []), _adj(4, [])]
    assert np.all(_null_probability(empty) == 0.0)
    complete = [_adj(4, list(itertools.combinations(range(4), 2)))]
    assert np.all(_null_probability(complete) == 1.0)
    with pytest.raises(ValidationError):
        null_probability_from_counts(np.zeros(6, dtype=np.int64), 0, 4)
    with pytest.raises(ValidationError):
        null_probability_from_counts(np.zeros(5, dtype=np.int64), 1, 4)


def test_null_probability_order_invariant():
    rng = np.random.default_rng(5)
    adjs = [AdjacencyMatrix(n=6, selected=rng.random(15) < 0.4)
            for _ in range(7)]
    p1 = _null_probability(adjs)
    p2 = _null_probability(adjs[::-1])
    assert np.array_equal(p1, p2)


def test_binomial_upper_tail_examples():
    assert binomial_upper_tail(0, 10, 0.3) == 1.0
    assert binomial_upper_tail(3, 4, 0.5) == pytest.approx(5 / 16, abs=1e-15)
    assert binomial_upper_tail(1, 8, 0.0) == 0.0
    assert binomial_upper_tail(0, 8, 0.0) == 1.0
    assert binomial_upper_tail(5, 5, 1.0) == 1.0


def test_binomial_upper_tail_matches_enumeration():
    ps = [0.0, 0.01, 0.1, 0.25, 0.5, 0.73, 0.9, 1.0]
    for n in range(1, 13):
        for p in ps:
            for k in range(0, n + 1):
                expected = binomial_tail_by_enumeration(k, n, p)
                got = binomial_upper_tail(k, n, p)
                assert got == pytest.approx(expected, abs=1e-12), (k, n, p)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 400), p=st.floats(0.0, 1.0))
def test_binomial_upper_tail_matches_scipy(data, n, p):
    k = data.draw(st.integers(0, n))
    # below ~1e-280 scipy's sf loses relative digits (1.8e-4 at 8.2e-297
    # against an exact sum), so tails that small only need to be tiny
    assert binomial_upper_tail(k, n, p) == pytest.approx(
        stats.binom.sf(k - 1, n, p), rel=1e-9, abs=1e-280)


def _binomial_upper_tail_per_term(k: int, n: int, p: float) -> float:
    """binomial_upper_tail with lgamma evaluated afresh for every term, as
    before the log-binomial rows were cached."""
    if k == 0 or p == 1.0:
        return 1.0
    if p == 0.0:
        return 0.0
    log_p, log_q = math.log(p), math.log1p(-p)
    terms = []
    for i in range(k, n + 1):
        log_c = (math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1))
        terms.append(log_c + i * log_p + (n - i) * log_q)
    m = max(terms)
    total = m + math.log(math.fsum(math.exp(t - m) for t in terms))
    return float(min(1.0, math.exp(total)))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 600), p=st.floats(0.0, 1.0))
def test_binomial_upper_tail_equals_per_term_lgamma(data, n, p):
    k = data.draw(st.integers(0, n))
    assert binomial_upper_tail(k, n, p) == _binomial_upper_tail_per_term(k, n, p)


def test_binomial_upper_tail_validation():
    with pytest.raises(ValidationError):
        binomial_upper_tail(5, 4, 0.5)
    with pytest.raises(ValidationError):
        binomial_upper_tail(1, 4, 1.5)


def test_node_tests_degenerate_zero_null():
    res = node_tests(np.array([2, 0, 0]), np.zeros(3), alpha=0.05)
    assert res.degenerate[0] and res.pvalue[0] == 1e-300 and res.significant[0]
    assert not res.degenerate[1] and res.pvalue[1] == 1.0


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(2, 400), alpha=st.floats(0.001, 0.5))
def test_node_tests_equal_a_per_node_binomial_loop(data, n, alpha):
    # a few distinct degrees and null probabilities, zero among them, so
    # pairs repeat and some tails are an exact 0
    ks = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))
    ps = data.draw(st.lists(st.just(0.0) | st.floats(0.0, 1.0),
                            min_size=1, max_size=3))
    degrees = np.array(data.draw(st.lists(st.sampled_from(ks), min_size=n,
                                          max_size=n)))
    p_null = np.array(data.draw(st.lists(st.sampled_from(ps), min_size=n,
                                         max_size=n)))
    calls = []

    def counted(*args):
        calls.append(args)
        return binomial_upper_tail(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(degree_test, "binomial_upper_tail", counted)
        res = node_tests(degrees, p_null, alpha)
    pairs = set(zip(degrees.tolist(), p_null.tolist()))
    assert len(calls) == len(pairs)
    for i, (k, p) in enumerate(zip(degrees.tolist(), p_null.tolist())):
        tail = binomial_upper_tail(k, n - 1, p)
        assert res.degenerate[i] == (tail == 0.0)
        assert res.pvalue[i] == (DEGENERATE_P_FLOOR if tail == 0.0 else tail)
        assert res.significant[i] == (res.pvalue[i] < alpha)
        assert res.degree[i] == k and res.p_null[i] == p
    assert not res.pvalue.flags.writeable


def test_binomial_tails_keep_an_exact_zero():
    # binomial_corrected reads the raw tail: no floor, unlike node_tests
    tails = binomial_tails(np.array([399, 0, 399]), 399, 0.05)
    assert tails.tolist() == [binomial_upper_tail(399, 399, 0.05), 1.0,
                              binomial_upper_tail(399, 399, 0.05)]
    assert tails[0] == 0.0


# ---------------------------------------------------------------------------
# full pipeline


def _random_cohort(n_nodes, n1, n2, seed, shift_edges=(), shift=0.0):
    rng = np.random.default_rng(seed)
    edges = n_nodes * (n_nodes - 1) // 2

    def mats(k, shifted):
        vals = rng.normal(0, 0.2, size=(k, edges))
        if shifted and len(shift_edges):
            vals[:, list(shift_edges)] += shift
        return vals

    return ConnectivityCohort(mats(n1, False), mats(n2, True))


def test_ddt_run_deterministic_end_to_end():
    cohort = _random_cohort(12, 8, 8, seed=3, shift_edges=range(11), shift=0.4)
    kwargs = dict(test_cfg=EdgeTestConfig(), rule=ThresholdRule(),
                  ensemble_size=50, alpha=0.05, seed=99)
    r1 = ddt_run(cohort, **kwargs)
    r2 = ddt_run(cohort, **kwargs)
    assert r1.gamma == r2.gamma
    assert np.array_equal(r1.adjacency.selected, r2.adjacency.selected)
    assert r1.nodes.pvalue.tolist() == r2.nodes.pvalue.tolist()


def test_ddt_run_detects_planted_node():
    # edges 0..10 in canonical order are exactly node 0's incident edges
    # for n = 12
    cohort = _random_cohort(12, 14, 14, seed=8, shift_edges=range(11), shift=0.5)
    result = ddt_run(cohort, rule=ThresholdRule(),
                     ensemble_size=200, seed=7)
    assert result.nodes.significant[0]
    assert result.nodes.degree[0] >= 5
    assert not any(result.nodes.significant[1:])


def test_ddt_run_eddt_matches_contract():
    cohort = _random_cohort(12, 10, 10, seed=4, shift_edges=range(11), shift=0.5)
    result = ddt_run(cohort, rule=ThresholdRule(kind="eddt"),
                     ensemble_size=100, seed=11)
    assert result.gamma == pytest.approx(
        np.quantile(
            __import__("ddtnet.hqs", fromlist=["generate_null"]).generate_null(
                result.moments, 12, 100, seed=11).pooled_logit_values(),
            0.95))


def test_ddt_run_degenerate_cohort_surfaces_moment_error():
    rng = np.random.default_rng(0)
    edges = 6 * 5 // 2
    vals = rng.normal(size=(4, edges))
    cohort = ConnectivityCohort(vals, vals)
    with pytest.raises(PipelineError, match="moments"):
        ddt_run(cohort, seed=0)


def test_ddt_run_bh_across_nodes_flag():
    cohort = _random_cohort(12, 12, 12, seed=13, shift_edges=range(11), shift=0.45)
    plain = ddt_run(cohort, rule=ThresholdRule(),
                    ensemble_size=100, seed=5)
    corrected = ddt_run(cohort, rule=ThresholdRule(),
                        ensemble_size=100, seed=5, correct_nodes=True)
    sig_plain = set(np.flatnonzero(plain.nodes.significant).tolist())
    sig_corr = set(np.flatnonzero(corrected.nodes.significant).tolist())
    assert sig_corr <= sig_plain
    assert corrected.flags["node_correction"] == "bh"


def _pvalue_matrix(n, seed, low, high, strong=0):
    """Uniform p-values in (low, high), with the first `strong` edges at
    1e-6; every d = 1 - p above 1/2 keeps the logit-scale mean positive."""
    rng = np.random.default_rng(seed)
    values = rng.uniform(low, high, size=n * (n - 1) // 2)
    values[:strong] = 1e-6
    return PValueMatrix(n=n, values=values, diagonal=np.ones(n))


FIXED_RULES = {"addt": ThresholdRule("addt", 0.95),
               "hard": ThresholdRule("hard", 0.9),
               "bonferroni": ThresholdRule("bonferroni", 0.05),
               "fdr": ThresholdRule("fdr", 0.05)}


@pytest.mark.parametrize("strong", [0, 6])
def test_fixed_threshold_p_null_is_exact(strong):
    n = 15
    pmat = _pvalue_matrix(n, seed=strong, low=0.001, high=0.45, strong=strong)
    results = degree_tests(pmat, FIXED_RULES, 1, 0.05, seed=0)
    for name, result in results.items():
        p = max(0.0, 1.0 - mixture_cdf(result.moments, result.gamma))
        assert result.nodes.p_null.tolist() == [p] * n, name
        assert result.flags["null_edge_fraction"] == p
        assert 0.0 <= p < 1.0
    assert results["addt"].nodes.p_null[0] == pytest.approx(0.05, abs=1e-9)
    # fdr rejects the strong edges only when there are any
    fdr = results["fdr"]
    if strong:
        assert math.isfinite(fdr.gamma) and fdr.adjacency.selected.any()
    else:
        assert fdr.gamma == math.inf
        nodes = fdr.nodes
        assert list(zip(nodes.degree.tolist(), nodes.p_null.tolist(),
                        nodes.pvalue.tolist())) == [(0, 0.0, 1.0)] * n
        assert not fdr.flags["degenerate_nodes"]
