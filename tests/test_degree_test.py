import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ddtnet.core import (AdjacencyMatrix, ConnectivityCohort,
                         DifferenceNetwork, ValidationError)
from ddtnet.baselines import binomial_tails
from ddtnet.degree_test import (
    DEGENERATE_P_FLOOR,
    PipelineError,
    Reduction,
    ddt_run,
    degree_tests,
    node_tests,
    null_probability_from_counts,
)
from ddtnet.edgetests import EdgeTestConfig, PValueMatrix, edgewise_pvalues
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


def exact_binomial_tail(k: int, n: int, p: float) -> float:
    """P(X >= k) for X ~ Binomial(n, p) in exact rational arithmetic, with
    p = a / b read exactly from the double, rounded once to a double:
    sum_{i >= k} C(n, i) a^i (b - a)^(n - i) / b^n, by Horner's rule."""
    a, b = Fraction(p).as_integer_ratio()
    c_pow, total = 1, 1
    for i in range(n - 1, k - 1, -1):
        c_pow *= b - a
        total = total * a + math.comb(n, i) * c_pow
    return float(Fraction(a ** k * total, b ** n))


# bdtrc's tails agree with the exact ones to this relative error (the worst
# of 3,000 random cases at n <= 400 was 5.9e-13); below 1e-280 the doubles
# themselves lose relative digits, so tails that small only need to be tiny
TAIL_REL = 1e-11
TAIL_ABS = 1e-280


def test_binomial_upper_tail_examples():
    assert binomial_tails(0, 10, 0.3) == 1.0
    assert binomial_tails(3, 4, 0.5) == pytest.approx(5 / 16, abs=1e-15)
    assert binomial_tails(1, 8, 0.0) == 0.0
    assert binomial_tails(0, 8, 0.0) == 1.0
    assert binomial_tails(5, 5, 1.0) == 1.0


def test_binomial_upper_tail_matches_enumeration():
    ps = [0.0, 0.01, 0.1, 0.25, 0.5, 0.73, 0.9, 1.0]
    for n in range(1, 13):
        for p in ps:
            got = binomial_tails(np.arange(n + 1), n, p)
            for k in range(0, n + 1):
                expected = binomial_tail_by_enumeration(k, n, p)
                assert got[k] == pytest.approx(expected, abs=1e-12), (k, n, p)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 400), p=st.floats(0.0, 1.0))
def test_binomial_upper_tail_matches_exact_rational_tails(data, n, p):
    k = data.draw(st.integers(0, n))
    assert binomial_tails(k, n, p) == pytest.approx(
        exact_binomial_tail(k, n, p), rel=TAIL_REL, abs=TAIL_ABS)


def test_binomial_upper_tail_validation():
    for k, p in ((5, 0.5), (-1, 0.5), (1, 1.5), (1, float("nan"))):
        with pytest.raises(ValidationError):
            binomial_tails(k, 4, p)
    with pytest.raises(ValidationError):
        binomial_tails(np.array([0, 2]), 4, np.array([0.5, np.nan]))


def test_node_tests_degenerate_zero_null():
    res = node_tests(np.array([2, 0, 0]), np.zeros(3), alpha=0.05)
    assert res.degenerate[0] and res.pvalue[0] == 1e-300 and res.significant[0]
    assert not res.degenerate[1] and res.pvalue[1] == 1.0


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(2, 400), alpha=st.floats(0.001, 0.5))
def test_node_tests_equal_a_per_node_binomial_loop(data, n, alpha):
    # a few distinct degrees and null probabilities, zero among them, so
    # some tails are an exact 0
    ks = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))
    ps = data.draw(st.lists(st.just(0.0) | st.floats(0.0, 1.0),
                            min_size=1, max_size=3))
    degrees = np.array(data.draw(st.lists(st.sampled_from(ks), min_size=n,
                                          max_size=n)))
    p_null = np.array(data.draw(st.lists(st.sampled_from(ps), min_size=n,
                                         max_size=n)))
    res = node_tests(degrees, p_null, alpha)
    exact = {pair: exact_binomial_tail(pair[0], n - 1, pair[1])
             for pair in set(zip(degrees.tolist(), p_null.tolist()))}
    for i, (k, p) in enumerate(zip(degrees.tolist(), p_null.tolist())):
        tail = exact[(k, p)]
        if res.degenerate[i]:
            assert res.pvalue[i] == DEGENERATE_P_FLOOR and tail < TAIL_ABS
        else:
            assert res.pvalue[i] > 0.0
            assert res.pvalue[i] == pytest.approx(tail, rel=TAIL_REL,
                                                  abs=TAIL_ABS)
        assert res.significant[i] == (res.pvalue[i] < alpha)
        assert res.degree[i] == k and res.p_null[i] == p
    assert not res.pvalue.flags.writeable


def test_binomial_tails_keep_an_exact_zero():
    # binomial_corrected reads the raw tail: no floor, unlike node_tests
    tails = binomial_tails(np.array([399, 0, 399]), 399, 0.05)
    assert tails.tolist() == [0.0, 1.0, 0.0]


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
    kwargs = dict(test_cfg=EdgeTestConfig(), ensemble_size=50, alpha=0.05,
                  seed=99)
    r1 = ddt_run(cohort, {"addt": ThresholdRule()}, **kwargs).ddt["addt"]
    r2 = ddt_run(cohort, {"addt": ThresholdRule()}, **kwargs).ddt["addt"]
    assert r1.gamma == r2.gamma
    assert np.array_equal(r1.adjacency.selected, r2.adjacency.selected)
    assert r1.nodes.pvalue.tolist() == r2.nodes.pvalue.tolist()


def test_ddt_run_detects_planted_node():
    # edges 0..10 in canonical order are exactly node 0's incident edges
    # for n = 12
    cohort = _random_cohort(12, 14, 14, seed=8, shift_edges=range(11), shift=0.5)
    result = ddt_run(cohort, {"addt": ThresholdRule()},
                     ensemble_size=200, seed=7).ddt["addt"]
    assert result.nodes.significant[0]
    assert result.nodes.degree[0] >= 5
    assert not any(result.nodes.significant[1:])


def test_ddt_run_eddt_matches_contract():
    cohort = _random_cohort(12, 10, 10, seed=4, shift_edges=range(11), shift=0.5)
    result = ddt_run(cohort, {"eddt": ThresholdRule(kind="eddt")},
                     ensemble_size=100, seed=11).ddt["eddt"]
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
    result = ddt_run(cohort, {"addt": ThresholdRule()}, ("binb", "t10"), seed=0)
    assert isinstance(result.error, PipelineError)
    assert str(result.error).startswith("moments")
    # the degree-test stage failed; the baselines still ran
    assert result.ddt == {} and list(result.baselines) == ["binb", "t10"]


@pytest.mark.parametrize("method, fisher_z", [
    ("welch_t", False), ("welch_t", True), ("wilcoxon", True),
    ("regression", False)])
def test_ddt_run_reads_a_cohort_reduced_for_its_settings(method, fisher_z):
    cohort = _random_cohort(9, 6, 7, seed=21, shift_edges=range(8), shift=0.5)
    cfg = EdgeTestConfig(method=method, fisher_z=fisher_z, seed=4)
    rules = {"eddt": ThresholdRule(kind="eddt")}
    kwargs = dict(test_cfg=cfg, ensemble_size=40, seed=4, density=0.2)
    reduced = Reduction.of(cfg, ("t10", "binb"), 0.2, "signed").cohort(cohort)
    whole = ddt_run(cohort, rules, ("t10", "binb"), **kwargs)
    streamed = ddt_run(reduced, rules, ("t10", "binb"), **kwargs)
    # the reductions give the library composition's p-values, bit for bit
    want = edgewise_pvalues(cohort, cfg)
    assert np.array_equal(streamed.pvalues.values, want.values)
    assert streamed.pvalues.fisher_z_clamped == want.fisher_z_clamped
    for a, b in ((whole.ddt["eddt"].nodes, streamed.ddt["eddt"].nodes),
                 (whole.baselines["t10"], streamed.baselines["t10"])):
        assert np.array_equal(a.pvalue, b.pvalue)
    # a cohort reduced for other settings (here: without t10) is refused
    with pytest.raises(ValidationError, match="reduced for"):
        ddt_run(Reduction.of(cfg, (), 0.2, "signed").cohort(cohort), rules,
                ("t10",), **kwargs)


def test_ddt_run_bh_across_nodes_flag():
    cohort = _random_cohort(12, 12, 12, seed=13, shift_edges=range(11), shift=0.45)
    rules = {"addt": ThresholdRule()}
    plain = ddt_run(cohort, rules, ensemble_size=100, seed=5).ddt["addt"]
    corrected = ddt_run(cohort, rules, ensemble_size=100, seed=5,
                        correct_nodes=True).ddt["addt"]
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
    return PValueMatrix(n=n, values=values)


FIXED_RULES = {"addt": ThresholdRule("addt", 0.95),
               "hard": ThresholdRule("hard", 0.9),
               "bonferroni": ThresholdRule("bonferroni", 0.05),
               "fdr": ThresholdRule("fdr", 0.05)}


@pytest.mark.parametrize("strong", [0, 6])
def test_fixed_threshold_p_null_is_exact(strong):
    n = 15
    pmat = _pvalue_matrix(n, seed=strong, low=0.001, high=0.45, strong=strong)
    results = degree_tests(pmat, DifferenceNetwork.from_pvalues(pmat),
                           FIXED_RULES, 1, 0.05, seed=0)
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
