import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from ddtnet.core import DifferenceNetwork, ValidationError, inv_logit
from ddtnet.hqs import (
    MomentSummary,
    NonpositiveMeanError,
    ZeroVarianceError,
    generate_null,
    mixture_cdf,
    mixture_sample,
    observed_moments,
)


def _diff_net_from_logits(n, logits):
    return DifferenceNetwork(n=n,
                             values=inv_logit(np.asarray(logits, dtype=float)))


def test_moment_closed_forms():
    # ebar = 1.0, vbar = 0.5, m = 2
    ms = MomentSummary.from_moments(1.0, 0.5, m=2)
    assert ms.mu == pytest.approx(math.sqrt(0.5), abs=1e-12)
    assert ms.sigma2 == pytest.approx(-0.5 + math.sqrt(0.25 + 0.25), abs=1e-12)


@pytest.mark.parametrize("ebar,vbar,m", [
    (1.0, 0.5, 2), (0.3, 2.0, 2), (2.5, 0.1, 3), (0.05, 5.0, 1),
])
def test_moment_identities_hold(ebar, vbar, m):
    ms = MomentSummary.from_moments(ebar, vbar, m=m)
    assert ms.m * ms.mu ** 2 == pytest.approx(ebar, abs=1e-10)
    recon = ms.m * (ms.sigma2 + ms.mu ** 2) ** 2 - ms.m * ms.mu ** 4
    assert recon == pytest.approx(vbar, abs=1e-10)
    assert ms.sigma2 > 0


def test_observed_moments_uses_population_variance():
    logits = [0.5, 1.5, 2.5]
    dn = _diff_net_from_logits(3, logits)
    ms = observed_moments(dn)
    assert ms.ebar == pytest.approx(np.mean(logits))
    assert ms.vbar == pytest.approx(np.var(logits))   # divide-by-count


def test_constant_network_zero_variance_error():
    dn = _diff_net_from_logits(3, [1.0, 1.0, 1.0])
    with pytest.raises(ZeroVarianceError):
        observed_moments(dn)


def test_nonpositive_mean_error():
    dn = _diff_net_from_logits(3, [-1.0, 0.2, 0.2])
    with pytest.raises(NonpositiveMeanError):
        observed_moments(dn)


def test_generate_null_shapes_and_determinism():
    ms = MomentSummary.from_moments(1.0, 0.5, m=2)
    e1 = generate_null(ms, n=10, size=5, seed=123)
    e2 = generate_null(ms, n=10, size=5, seed=123)
    assert np.array_equal(e1.logit_entries, e2.logit_entries)
    assert e1.logit_entries.shape == (5, 45)
    e3 = generate_null(ms, n=10, size=5, seed=124)
    assert not np.array_equal(e1.logit_entries, e3.logit_entries)


def test_generate_null_probability_scale_strictly_inside_unit_interval():
    ms = MomentSummary.from_moments(1.0, 0.5, m=2)
    ens = generate_null(ms, n=20, size=3, seed=7)
    for i in range(ens.size):
        net = DifferenceNetwork(n=ens.n, values=inv_logit(ens.logit_entries[i]))
        assert np.all((net.values > 0) & (net.values < 1))
        assert net.n == 20


def test_generate_null_sigma_zero_limit():
    # sigma2 -> 0 with mu fixed: every entry -> m * mu^2 = ebar
    ms = MomentSummary(ebar=1.0, vbar=1e-12, m=2,
                       mu=math.sqrt(0.5), sigma2=1e-14)
    ens = generate_null(ms, n=12, size=2, seed=0)
    assert np.allclose(ens.logit_entries, 1.0, atol=1e-5)


def test_generate_null_moment_matching():
    ms = MomentSummary.from_moments(1.0, 0.5, m=2)
    ens = generate_null(ms, n=100, size=60, seed=42)
    pooled = ens.pooled_logit_values()
    assert pooled.size >= 250_000
    assert abs(pooled.mean() - 1.0) < 0.02
    assert abs(pooled.var() - 0.5) < 0.05


def test_mixture_moments_match():
    ms = MomentSummary.from_moments(1.0, 0.5, m=2)
    s = mixture_sample(ms, 400_000, seed=1)
    assert s.mean() == pytest.approx(1.0, abs=0.01)
    assert s.var() == pytest.approx(0.5, abs=0.02)


def test_mixture_symmetric_when_mu_zero():
    ms = MomentSummary(ebar=0.0, vbar=2.0, m=2, mu=0.0, sigma2=1.0)
    s = mixture_sample(ms, 200_000, seed=3)
    assert abs(np.median(s)) < 0.02
    assert abs(s.mean()) < 0.02


def test_mixture_laplace_case():
    # mu=0, sigma2=1, m=2: (T - Q)/2 is standard Laplace
    ms = MomentSummary(ebar=0.0, vbar=2.0, m=2, mu=0.0, sigma2=1.0)
    s = mixture_sample(ms, 1_000_000, seed=10)
    q95 = np.quantile(s, 0.95)
    assert q95 == pytest.approx(-math.log(0.1), abs=0.02)


def test_mixture_cdf_laplace_case():
    # mu=0, sigma2=1, m=2: F(x) = 1 - e^-x / 2 for x >= 0, e^x / 2 below
    ms = MomentSummary(ebar=0.0, vbar=2.0, m=2, mu=0.0, sigma2=1.0)
    for x in (-20.0, -3.0, -0.4, 0.0, 0.4, 3.0, 20.0):
        exact = 0.5 * math.exp(x) if x < 0 else 1.0 - 0.5 * math.exp(-x)
        assert mixture_cdf(ms, x) == pytest.approx(exact, abs=1e-14)


@settings(max_examples=25, deadline=None)
@given(m=st.integers(1, 5), ebar=st.floats(0.02, 20.0),
       vbar=st.floats(0.05, 5.0))
def test_mixture_cdf_matches_mixture_draws(m, ebar, vbar):
    # Dvoretzky-Kiefer-Wolfowitz: the empirical CDF of n iid draws is
    # further than eps from the true CDF with probability <= 2 exp(-2 n eps^2),
    # here 1e-6 for n = 1e5
    n = 100_000
    eps = math.sqrt(math.log(2 / 1e-6) / (2 * n))
    ms = MomentSummary.from_moments(ebar, vbar, m=m)
    draws = np.sort(mixture_sample(ms, n, seed=m))
    ranks = np.linspace(0, n - 1, 41).astype(int)
    gap = max(abs(mixture_cdf(ms, draws[k]) - (k + 1) / n) for k in ranks)
    assert gap <= eps


def test_mixture_vs_generated_distributional_equivalence():
    # the generated Gram entries and the explicit chi-square mixture share
    # one law; KS on 1e5 pooled samples each
    ms = MomentSummary.from_moments(0.1, 1.0, m=2)
    ens = generate_null(ms, n=24, size=363, seed=2026)
    a = ens.pooled_logit_values()[:100_000]
    b = mixture_sample(ms, 100_000, seed=2027)
    ks = stats.ks_2samp(a, b).statistic
    assert ks < 0.01


def test_ensemble_validation():
    ms = MomentSummary.from_moments(1.0, 0.5, m=2)
    with pytest.raises(ValidationError):
        generate_null(ms, n=1, size=2, seed=0)
    with pytest.raises(ValidationError):
        generate_null(ms, n=5, size=0, seed=0)
    with pytest.raises(ValidationError):
        MomentSummary.from_moments(1.0, 0.5, m=0)


def test_moment_summary_json_roundtrip():
    ms = MomentSummary.from_moments(1.3, 0.7, m=2)
    d = ms.to_dict()
    back = MomentSummary.from_moments(d["ebar"], d["vbar"], d["m"])
    assert back == ms
