import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import integrate, stats

from ddtnet.core import P_MIN, DifferenceNetwork, ValidationError, logit
from ddtnet.edgetests import PValueMatrix
from ddtnet.hqs import MomentSummary, NullEnsemble, generate_null, mixture_cdf
from ddtnet.thresholds import (
    EmptyEnsembleError,
    ThresholdRule,
    addt_threshold,
    apply_threshold,
    baseline_threshold,
    benjamini_hochberg,
    bh_adjust,
    eddt_threshold,
    select_gamma,
)

LAPLACE_MOMENTS = MomentSummary(ebar=0.0, vbar=2.0, m=2, mu=0.0, sigma2=1.0)


def _law(m: int, lam: float, sigma2: float = 1.0) -> MomentSummary:
    """Moments whose null edge law has inner dimension m and noncentrality lam."""
    return MomentSummary(ebar=0.5 * sigma2 * lam, vbar=sigma2 ** 2 * (m + lam),
                         m=m, mu=math.sqrt(0.5 * sigma2 * lam / m), sigma2=sigma2)


def _oracle_cdf(ms: MomentSummary, x: float) -> float:
    """P((sigma2/2)(T - Q) <= x) by adaptive quadrature over T rather than Q:
    P(T <= y) + int_{t > y} f_T(t) P(Q >= t - y) dt, with y = 2x / sigma2."""
    m, lam = ms.m, ms.noncentrality
    y = 2.0 * x / ms.sigma2
    law = stats.ncx2(m, lam) if lam > 0 else stats.chi2(m)
    lo = max(0.0, y)
    mean, sd = m + lam, math.sqrt(2.0 * (m + 2.0 * lam))
    points = [p for p in (mean - 3 * sd, mean, mean + 3 * sd) if p > lo]
    tail, _ = integrate.quad(lambda t: law.pdf(t) * stats.chi2.sf(t - y, m),
                             lo, max(lo, mean) + 40 * sd + 200,
                             points=points or None, epsabs=1e-13, epsrel=1e-13,
                             limit=500)
    return float(law.cdf(lo)) + tail


def test_addt_laplace_closed_form():
    gamma = addt_threshold(LAPLACE_MOMENTS, q=0.95)
    assert gamma == pytest.approx(-math.log(0.1), abs=1e-9)


def test_addt_median_zero_when_symmetric():
    gamma = addt_threshold(LAPLACE_MOMENTS, q=0.5)
    assert abs(gamma) < 1e-9


def test_addt_monotone_in_quantile():
    ms = MomentSummary.from_moments(1.0, 0.5, m=2)
    gs = [addt_threshold(ms, q) for q in (0.01, 0.1, 0.5, 0.9, 0.95, 0.99)]
    assert all(a < b for a, b in zip(gs, gs[1:]))


def test_addt_identical_on_repeat_calls():
    ms = MomentSummary.from_moments(1.0, 0.5, m=2)
    assert addt_threshold(ms, 0.95) == addt_threshold(ms, 0.95)


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_addt_quantile_matches_quadrature_oracle(m):
    for lam, sigma2 in ((0.0, 1.0), (0.3, 0.2), (5.0, 1.0), (60.0, 0.2),
                        (3202.0, 1.0)):
        ms = _law(m, lam, sigma2)
        for q in (0.01, 0.5, 0.95, 0.99):
            gamma = addt_threshold(ms, q)
            assert abs(_oracle_cdf(ms, gamma) - q) <= 1e-8, (m, lam, sigma2, q)


def test_addt_cornish_fisher_quantile_past_the_switch():
    # just above the switch the expansion agrees with the exact CDF
    for m in (1, 5):
        ms = _law(m, 1.0001e5)
        for q in (0.01, 0.95, 0.99):
            assert abs(mixture_cdf(ms, addt_threshold(ms, q)) - q) <= 1e-9


def test_addt_near_degenerate_law_is_prompt():
    # sigma2 -> 0 puts lambda at 2e14, where one chndtr value of the exact
    # CDF takes about a second; every entry is then close to ebar
    ms = MomentSummary(ebar=1.0, vbar=1e-12, m=2, mu=math.sqrt(0.5),
                       sigma2=1e-14)
    assert addt_threshold(ms, 0.95) == pytest.approx(1.0, abs=1e-5)


def test_eddt_degenerate_ensemble():
    ms = MomentSummary.from_moments(1.0, 0.5, m=2)
    ens = NullEnsemble(moments=ms, n=4, seed=0,
                       logit_entries=np.full((3, 6), 2.5))
    for q in (0.1, 0.5, 0.95):
        assert eddt_threshold(ens, q) == 2.5


def test_eddt_pooling_is_order_free():
    ms = MomentSummary.from_moments(1.0, 0.5, m=2)
    ens = generate_null(ms, n=12, size=8, seed=5)
    permuted = NullEnsemble(moments=ms, n=12, seed=0,
                            logit_entries=ens.logit_entries[::-1].copy())
    assert eddt_threshold(ens, 0.95) == eddt_threshold(permuted, 0.95)


def test_eddt_empty_ensemble_error():
    ms = MomentSummary.from_moments(1.0, 0.5, m=2)
    with pytest.raises((EmptyEnsembleError, ValidationError)):
        NullEnsemble(moments=ms, n=4, seed=0,
                     logit_entries=np.empty((0, 6)))


def test_eddt_converges_to_addt():
    ms = MomentSummary.from_moments(1.0, 0.5, m=2)
    ens = generate_null(ms, n=200, size=100, seed=31)
    ge = eddt_threshold(ens, 0.95)
    ga = addt_threshold(ms, 0.95)
    assert abs(ge - ga) < 0.02


def test_apply_threshold_extremes_and_single_crossing():
    d = np.array([0.2, 0.97, 0.5])
    dn = DifferenceNetwork(n=3, d=d)
    lv = dn.logit_values()
    assert apply_threshold(dn, lv.max() + 1).n_edges_selected == 0
    assert apply_threshold(dn, lv.min() - 1).n_edges_selected == 3
    one = apply_threshold(dn, logit(0.95))
    assert one.n_edges_selected == 1
    assert one.selected[1]


def test_apply_threshold_strict_inequality():
    dn = DifferenceNetwork(n=3, d=np.array([0.5, 0.7, 0.9]))
    at_tie = apply_threshold(dn, logit(0.7))
    assert at_tie.n_edges_selected == 1      # ties break toward non-selection


def test_apply_threshold_edge_count_nonincreasing_in_gamma():
    rng = np.random.default_rng(6)
    dn = DifferenceNetwork(n=10, d=rng.uniform(0.01, 0.99, size=45))
    counts = [apply_threshold(dn, g).n_edges_selected
              for g in np.linspace(-4, 4, 33)]
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_bh_matches_hand_enumeration():
    # thresholds 0.0125, 0.025, 0.0375, 0.05: reject exactly 0.01 and 0.02
    p = np.array([0.01, 0.02, 0.04, 0.9])
    reject = benjamini_hochberg(p, alpha=0.05)
    assert list(reject) == [True, True, False, False]


def test_bh_rejects_superset_of_bonferroni():
    rng = np.random.default_rng(14)
    for _ in range(25):
        p = rng.uniform(size=40) ** 2
        bh = benjamini_hochberg(p, 0.05)
        bonf = p < 0.05 / len(p)
        assert np.all(bh[bonf])


_PVALUES = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40).map(np.array)
_ALPHAS = st.floats(0.001, 0.5)


@settings(max_examples=200, deadline=None)
@given(p=_PVALUES)
def test_bh_adjusted_lies_in_p_to_1_and_is_monotone(p):
    adj = bh_adjust(p)
    # p_(j) m / j >= p_(i) for j >= i, up to the rounding of that product
    assert np.all(adj >= p * (1 - 1e-15)) and np.all(adj <= 1.0)
    assert np.all(adj[:, None] <= adj[None, :], where=p[:, None] <= p[None, :])


@settings(max_examples=200, deadline=None)
@given(p=_PVALUES, alpha=_ALPHAS)
def test_bh_rejection_is_adjusted_at_most_alpha(p, alpha):
    assert np.array_equal(benjamini_hochberg(p, alpha), bh_adjust(p) <= alpha)


@settings(max_examples=300, deadline=None)
@given(p=_PVALUES, alpha=_ALPHAS)
def test_bh_mask_agrees_with_the_step_up_definition(p, alpha):
    m = p.size
    ranked = np.sort(p)
    line = alpha * np.arange(1, m + 1) / m
    # a p-value on the step-up line is decided by rounding; see the
    # boundary test below
    assume(not np.any(np.isclose(ranked, line, rtol=1e-9, atol=0.0)))
    below = np.nonzero(ranked <= line)[0]
    k = below.max() + 1 if below.size else 0
    expected = p <= ranked[k - 1] if k else np.zeros(m, dtype=bool)
    assert np.array_equal(benjamini_hochberg(p, alpha), expected)


def test_bh_boundary_follows_the_adjusted_values():
    # every p-value lies on the step-up line alpha * i / m; p_(3) * 3 / 3
    # rounds to 0.05000000000000001, so the largest is not rejected
    p = np.array([1 / 60, 1 / 30, 0.05])
    assert bh_adjust(p)[2] > 0.05
    assert list(benjamini_hochberg(p, 0.05)) == [True, True, False]


def _p_scale_selection(pmat, rule):
    """The baseline rules read on the p-values themselves: the reference
    that baseline_threshold's logit-scale selection is held to."""
    p = pmat.values
    if rule.kind == "hard":
        return (1.0 - p) > rule.level
    if rule.kind == "bonferroni":
        return p < rule.level / pmat.n_edges
    return benjamini_hochberg(p, rule.level)


def test_baseline_threshold_rules():
    n = 5                                     # E = 10 edges
    p = np.array([0.004, 0.02, 0.04, 0.9, 0.5, 0.3, 0.2, 0.6, 0.7, 0.8])
    pmat = PValueMatrix(n=n, values=p, diagonal=np.ones(n))
    bonf = baseline_threshold(pmat, ThresholdRule(kind="bonferroni", level=0.05))
    assert np.array_equal(bonf.selected, p < 0.005)   # cutoff alpha/E = 0.005
    hard = baseline_threshold(pmat, ThresholdRule(kind="hard", level=0.95))
    assert np.array_equal(hard.selected, (1 - p) > 0.95)
    fdr = baseline_threshold(pmat, ThresholdRule(kind="fdr", level=0.05))
    assert np.all(fdr.selected[bonf.selected])


def test_all_p_one_selects_nothing():
    pmat = PValueMatrix(n=4, values=np.ones(6), diagonal=np.ones(4))
    for kind in ("hard", "bonferroni", "fdr"):
        rule = ThresholdRule(kind=kind, level=0.95 if kind == "hard" else 0.05)
        assert baseline_threshold(pmat, rule).n_edges_selected == 0


@settings(max_examples=400, deadline=None)
@given(data=st.data(), n=st.integers(4, 12),
       kind=st.sampled_from(["hard", "bonferroni", "fdr"]))
def test_baseline_threshold_equals_the_p_scale_rule(data, n, kind):
    # levels whose cut the d scale resolves: alpha / E at least 2 P_MIN, so
    # the clamped p-values stay below it on d, and a hard level of at least
    # 0.5, where logit is strictly increasing on doubles
    # (test_baseline_threshold_follows_the_difference_network shows what
    # happens outside)
    n_edges = n * (n - 1) // 2
    low = 0.5 if kind == "hard" else 2 * n_edges * P_MIN
    level = data.draw(st.floats(low, 1.0 - P_MIN, exclude_max=True), label="level")
    # PValueMatrix rejects p = 0, so the smallest positive double stands for it
    boundary = [np.nextafter(0.0, 1.0), 1.0, P_MIN, level, 1.0 - level,
                level / n_edges]
    rest = data.draw(st.lists(st.sampled_from(boundary)
                              | st.floats(0.0, 1.0, exclude_min=True),
                              min_size=n_edges - len(boundary),
                              max_size=n_edges - len(boundary)))
    values = data.draw(st.permutations(boundary + rest), label="p")
    pmat = PValueMatrix(n=n, values=np.array(values), diagonal=np.ones(n))
    rule = ThresholdRule(kind, level)
    assert np.array_equal(baseline_threshold(pmat, rule).selected,
                          _p_scale_selection(pmat, rule))


def test_baseline_threshold_follows_the_difference_network():
    # where d = 1 - p, clamped into [P_MIN, 1 - P_MIN], cannot tell a
    # p-value from the cut, the selection follows d, as ddt_run's does
    n, rest = 4, [0.5] * 4

    def compare(values, rule):
        pmat = PValueMatrix(n=n, values=np.array(values + rest), diagonal=np.ones(n))
        return (_p_scale_selection(pmat, rule)[:2].tolist(),
                baseline_threshold(pmat, rule).selected[:2].tolist())

    # one ulp below a Bonferroni cut, 1 - p rounds onto 1 - cut
    cut = 0.05 / 6
    below = float(np.nextafter(cut, 0.0))
    assert 1.0 - below == 1.0 - cut
    assert compare([below, cut], ThresholdRule("bonferroni", 0.05)) == \
        ([True, False], [False, False])
    # p-values below P_MIN read as P_MIN: a hard level above 1 - P_MIN
    # keeps none of them, and a cut below 2^-53 selects nothing
    level = 1.0 - P_MIN / 2
    assert compare([1e-300, P_MIN], ThresholdRule("hard", level)) == \
        ([True, False], [False, False])
    assert compare([1e-300, P_MIN], ThresholdRule("bonferroni", 1e-16)) == \
        ([True, False], [False, False])
    # below 0.5 logit rounds neighbouring doubles together: d = 1 - 0.99
    # exceeds 0.01, but logit(d) == logit(0.01)
    assert 1.0 - 0.99 > 0.01 and logit(1.0 - 0.99) == logit(0.01)
    assert compare([0.99, 0.995], ThresholdRule("hard", 0.01)) == \
        ([True, False], [False, False])


def test_select_gamma_consistency_with_baseline_threshold():
    rng = np.random.default_rng(9)
    n = 8
    p = rng.uniform(size=28) ** 3
    pmat = PValueMatrix(n=n, values=p, diagonal=np.ones(n))
    dn = DifferenceNetwork.from_pvalues(pmat)
    for kind, level in (("hard", 0.95), ("bonferroni", 0.05), ("fdr", 0.05)):
        rule = ThresholdRule(kind=kind, level=level)
        direct = _p_scale_selection(pmat, rule)
        gamma = select_gamma(rule, pmat=pmat)
        via_gamma = apply_threshold(dn, gamma)
        if kind == "hard":
            assert np.array_equal(via_gamma.selected, (1 - p) > 0.95)
        assert np.array_equal(via_gamma.selected, direct)
        assert np.array_equal(baseline_threshold(pmat, rule).selected, direct)


def test_select_gamma_fdr_no_rejections_is_infinite():
    pmat = PValueMatrix(n=4, values=np.full(6, 0.8), diagonal=np.ones(4))
    rule = ThresholdRule(kind="fdr", level=0.05)
    assert select_gamma(rule, pmat=pmat) == math.inf


def test_rule_validation():
    with pytest.raises(ValidationError):
        ThresholdRule(kind="percentile")
    with pytest.raises(ValidationError):
        ThresholdRule(level=1.5)
    for level in ("high", None, True):
        with pytest.raises(ValidationError):
            ThresholdRule(level=level)


def test_null_edge_fraction_calibrated():
    # fraction of self-generated null edges above the 0.95 threshold
    ms = MomentSummary.from_moments(1.0, 0.5, m=2)
    gamma_a = addt_threshold(ms, 0.95)
    fractions = []
    for rep in range(120):
        ens = generate_null(ms, n=60, size=1, seed=1000 + rep)
        fractions.append(float((ens.logit_entries > gamma_a).mean()))
    assert np.mean(fractions) == pytest.approx(0.05, abs=0.005)
