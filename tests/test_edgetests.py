import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, special, stats

from ddtnet.core import P_MIN, ConnectivityCohort, ValidationError
from ddtnet.edgetests import (
    EdgeTestConfig,
    PValueMatrix,
    edgewise_pvalues,
    permutation_edge,
    regression_edge,
    welch_t_edge,
    wilcoxon_edge,
)

# ---------------------------------------------------------------------------
# independent oracles


def t_two_sided_p_by_quadrature(t_obs: float, df: float) -> float:
    """Two-sided t-tail by numerical integration of the density."""
    c = math.exp(special.gammaln((df + 1) / 2) - special.gammaln(df / 2)) \
        / math.sqrt(df * math.pi)

    def pdf(x):
        return c * (1 + x * x / df) ** (-(df + 1) / 2)

    tail, _ = integrate.quad(pdf, abs(t_obs), np.inf)
    return 2 * tail


def ranksum_p_by_enumeration(x, y) -> float:
    """Exact two-sided rank-sum p over all C(n1+n2, n1) group assignments.

    Two-sided p doubles the smaller tail of the rank-sum distribution
    (capped at 1), matching the exact-test convention.
    """
    pooled = np.concatenate([x, y])
    ranks = stats.rankdata(pooled)
    n1 = len(x)
    w_obs = ranks[:n1].sum()
    ws = [sum(ranks[list(idx)]) for idx in
          itertools.combinations(range(len(pooled)), n1)]
    ws = np.asarray(ws)
    lo = np.mean(ws <= w_obs + 1e-12)
    hi = np.mean(ws >= w_obs - 1e-12)
    return min(1.0, 2 * min(lo, hi))


def _welch_t2_exact(a, b) -> Fraction:
    """Welch's t squared in rational arithmetic; +inf for constant groups
    whose means differ, 0 for constant groups whose means agree."""
    a, b = [Fraction(float(v)) for v in a], [Fraction(float(v)) for v in b]
    ma, mb = sum(a) / len(a), sum(b) / len(b)
    se2 = (sum((v - ma) ** 2 for v in a) / (len(a) - 1) / len(a)
           + sum((v - mb) ** 2 for v in b) / (len(b) - 1) / len(b))
    if se2 == 0:
        return Fraction(0) if ma == mb else math.inf
    return (ma - mb) ** 2 / se2


def permutation_p_exact(x, y):
    """Exact permutation p over all label assignments of the pooled sample,
    with |T| compared in exact arithmetic, so equal statistics tie."""
    pooled = np.concatenate([x, y])
    n1 = len(x)
    t2_obs = _welch_t2_exact(x, y)
    hits = total = 0
    for idx in itertools.combinations(range(len(pooled)), n1):
        sel = np.zeros(len(pooled), dtype=bool)
        sel[list(idx)] = True
        if _welch_t2_exact(pooled[sel], pooled[~sel]) >= t2_obs:
            hits += 1
        total += 1
    return hits / total


def permutation_p_by_loop(x, y, permutations: int, seed: int) -> float:
    """permutation_edge one relabelling at a time: B successive
    rng.permutation draws, each scored by a scalar Welch t, counted with
    scipy.stats.permutation_test's relative tie tolerance of 100 eps."""
    def abs_t(a, b):
        num = a.mean() - b.mean()
        den = math.sqrt(a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b))
        if den == 0.0:
            return 0.0 if num == 0.0 else math.inf
        return abs(num / den)

    rng = np.random.default_rng(seed)
    pooled = np.concatenate([x, y])
    n1 = len(x)
    cut = abs_t(x, y) * (1.0 - 100 * np.finfo(float).eps)
    hits = 0
    for _ in range(permutations):
        perm = rng.permutation(pooled)
        hits += abs_t(perm[:n1], perm[n1:]) >= cut
    return (1 + hits) / (permutations + 1)


def regression_p_per_edge(values, group, covariates=None) -> float:
    """One edge's OLS group p-value as a per-edge fit: rank check, lstsq,
    inv(X'X) and the scipy.stats t tail, with the same degenerate rules."""
    y = np.asarray(values, dtype=float)
    cols = [np.ones_like(y), np.asarray(group, dtype=float)]
    if covariates is not None:
        cols.extend(np.asarray(covariates, dtype=float).T)
    X = np.column_stack(cols)
    n, k = X.shape
    assert np.linalg.matrix_rank(X) == k
    df = n - k
    beta, _, _, _ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ beta
    sigma2 = resid @ resid / df
    se = np.sqrt(sigma2 * np.linalg.inv(X.T @ X)[1, 1])
    if se == 0.0:
        return 1.0 if beta[1] == 0.0 else P_MIN
    p = 2.0 * stats.t.sf(abs(beta[1] / se), df)
    return 1.0 if not np.isfinite(p) else float(min(max(p, P_MIN), 1.0))


# ---------------------------------------------------------------------------
# welch


def test_welch_identical_samples():
    assert welch_t_edge([1, 2, 3], [1, 2, 3]) == 1.0


def test_welch_derived_example_against_quadrature():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    y = np.array([2.0, 3.0, 4.0, 5.0])
    # t = -1.0954, df = 6 by the Welch-Satterthwaite formulas
    se = math.sqrt(x.var(ddof=1) / 4 + y.var(ddof=1) / 4)
    t = (x.mean() - y.mean()) / se
    assert t == pytest.approx(-1.095445, abs=1e-6)
    oracle = t_two_sided_p_by_quadrature(t, 6.0)
    assert oracle == pytest.approx(0.315334, abs=1e-5)
    assert welch_t_edge(x, y) == pytest.approx(oracle, abs=1e-9)
    assert welch_t_edge(x, y) == pytest.approx(0.3153, abs=5e-4)


def test_welch_scale_invariance():
    x = np.array([0.3, -0.2, 0.9, 0.1, 0.4])
    y = np.array([0.8, 0.5, 0.2, 1.0])
    assert welch_t_edge(10 * x, 10 * y) == pytest.approx(welch_t_edge(x, y),
                                                         rel=1e-12)


def test_welch_degenerate_constant_groups():
    assert welch_t_edge([2.0, 2.0, 2.0], [2.0, 2.0]) == 1.0
    assert welch_t_edge([0.0, 0.0], [10.0, 10.0]) <= 1e-10


def test_welch_group_label_symmetry():
    x = np.array([0.1, 0.5, 0.2])
    y = np.array([0.4, 0.9, 0.6, 0.3])
    assert welch_t_edge(x, y) == pytest.approx(welch_t_edge(y, x), rel=1e-12)


def test_welch_needs_two_per_group():
    with pytest.raises(ValidationError):
        welch_t_edge([1.0], [1.0, 2.0])


# ---------------------------------------------------------------------------
# wilcoxon


def test_wilcoxon_exact_small_example():
    assert wilcoxon_edge([1, 2], [3, 4]) == pytest.approx(1 / 3, abs=1e-12)
    assert ranksum_p_by_enumeration([1, 2], [3, 4]) == pytest.approx(1 / 3)


def test_wilcoxon_identical_samples():
    assert wilcoxon_edge([1, 2, 3], [1, 2, 3]) == 1.0
    assert wilcoxon_edge([5, 5, 5], [5, 5]) == 1.0


def test_wilcoxon_monotone_invariance():
    rng = np.random.default_rng(3)
    x = rng.normal(size=6)
    y = rng.normal(0.5, size=6)
    assert wilcoxon_edge(np.exp(x), np.exp(y)) == pytest.approx(
        wilcoxon_edge(x, y), rel=1e-12)


def test_wilcoxon_exact_matches_enumeration():
    rng = np.random.default_rng(11)
    for n1, n2 in [(2, 3), (3, 3), (4, 4), (4, 5), (5, 5), (3, 6)]:
        for _ in range(5):
            x = rng.normal(size=n1)
            y = rng.normal(0.4, size=n2)
            assert wilcoxon_edge(x, y) == pytest.approx(
                ranksum_p_by_enumeration(x, y), abs=1e-12), (n1, n2)


# ---------------------------------------------------------------------------
# permutation


def test_permutation_identical_samples():
    assert permutation_edge([1.0, 1.0, 1.0], [1.0, 1.0], permutations=200,
                            seed=0) == 1.0


def test_permutation_converges_to_exact_enumeration():
    x = np.array([0.0, 0.0])
    y = np.array([10.0, 10.0])
    exact = permutation_p_exact(x, y)
    assert exact == pytest.approx(2 / 6)
    p = permutation_edge(x, y, permutations=4000, seed=5)
    # Monte Carlo estimate of the same quantity, binomial error bound
    se = math.sqrt(exact * (1 - exact) / 4000)
    assert abs(p - exact) < 4 * se + 2 / 4001


def test_permutation_seed_stability():
    rng = np.random.default_rng(9)
    x = rng.normal(size=8)
    y = rng.normal(0.8, size=8)
    p1 = permutation_edge(x, y, permutations=3000, seed=1)
    p2 = permutation_edge(x, y, permutations=3000, seed=2)
    assert p1 == permutation_edge(x, y, permutations=3000, seed=1)
    se = math.sqrt(max(p1, 1 / 3001) * (1 - min(p1, 1.0)) / 3000)
    assert abs(p1 - p2) <= 3 * se + 2 / 3001


def _permutation_columns(kind: str, n1: int, n2: int, rng):
    x = rng.normal(size=n1)
    y = rng.normal(0.5, 1.0, size=n2)
    if kind == "tied":
        x, y = np.round(x), np.round(y)
    elif kind == "clipped":
        x, y = np.clip(x, -0.3, 0.3), np.clip(y, -0.3, 0.3)
    elif kind == "constant-equal":
        x, y = np.full(n1, 0.1), np.full(n2, 0.1)
    elif kind == "constant-unequal":
        x, y = np.full(n1, 0.1), np.full(n2, 0.7)
    elif kind == "one-constant":
        x = np.full(n1, 0.1)
    return x, y


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["random", "tied", "clipped", "constant-equal",
                             "constant-unequal", "one-constant"]),
       n1=st.integers(2, 12), n2=st.integers(2, 12),
       seed=st.integers(0, 2 ** 32 - 1))
def test_permutation_edge_equals_the_one_draw_at_a_time_loop(kind, n1, n2, seed):
    x, y = _permutation_columns(kind, n1, n2, np.random.default_rng(seed))
    assert permutation_edge(x, y, permutations=100, seed=seed) == \
        permutation_p_by_loop(x, y, 100, seed)


def test_permutation_edge_blocks_keep_the_draws():
    from ddtnet.edgetests import _WELCH_BLOCK
    rng = np.random.default_rng(41)
    x, y = np.round(rng.normal(size=4), 1), np.round(rng.normal(size=5), 1)
    b = _WELCH_BLOCK + 7
    assert permutation_edge(x, y, permutations=b, seed=3) == \
        permutation_p_by_loop(x, y, b, 3)


def test_permutation_3_3_is_unbiased_against_full_enumeration():
    # of the 20 relabellings of a 3+3 edge, the observed one and its swap
    # always tie with T_obs; a test that lost them to rounding sat ~0.013
    # below the enumeration on average
    rng = np.random.default_rng(33)
    gaps = []
    for e in range(200):
        x, y = rng.normal(size=3), rng.normal(0.5, 1.0, size=3)
        gaps.append(permutation_edge(x, y, permutations=1000, seed=e)
                    - permutation_p_exact(x, y))
    assert abs(np.mean(gaps)) < 0.004


# ---------------------------------------------------------------------------
# regression


def test_regression_matches_pooled_ttest_without_covariates():
    rng = np.random.default_rng(21)
    for _ in range(20):
        x = rng.normal(size=9)
        y = rng.normal(0.3, size=7)
        vals = np.concatenate([x, y])
        groups = np.concatenate([np.zeros(9), np.ones(7)])
        pooled = stats.ttest_ind(x, y, equal_var=True).pvalue
        assert regression_edge(vals, groups) == pytest.approx(pooled, abs=1e-10)


def test_regression_collinear_covariate_errors():
    vals = np.arange(8.0)
    groups = np.array([0, 0, 0, 0, 1, 1, 1, 1], dtype=float)
    from ddtnet.edgetests import RankDeficientError
    with pytest.raises(RankDeficientError):
        regression_edge(vals, groups, covariates=groups.copy())


def test_regression_group_null_uniform_under_covariate_signal():
    rng = np.random.default_rng(17)
    pvals = []
    for _ in range(2000):
        groups = np.repeat([0.0, 1.0], 10)
        cov = rng.normal(size=20)
        y = 5.0 * cov + rng.normal(size=20)
        pvals.append(regression_edge(y, groups, covariates=cov))
    ks = stats.kstest(pvals, "uniform").statistic
    assert ks < 0.05


@pytest.mark.parametrize("with_covariates", [False, True])
def test_edgewise_regression_is_bit_identical_to_per_edge_fits(with_covariates):
    rng = np.random.default_rng(19 + with_covariates)
    x = rng.normal(size=(9, 66))
    y = rng.normal(0.3, 2.0, size=(7, 66))
    x[:, 0], y[:, 0] = 1.5, 1.5                  # constant, equal
    x[:, 1], y[:, 1] = 0.0, 2.0                  # constant, unequal
    x[:, 2], y[:, 2] = 0.0, 0.0
    x[:, 3:20], y[:, 3:20] = np.round(x[:, 3:20]), np.round(y[:, 3:20])
    cov = rng.normal(size=(16, 2)) if with_covariates else None
    got = edgewise_pvalues(ConnectivityCohort(x, y, covariates=cov),
                           EdgeTestConfig(method="regression")).values
    groups = np.repeat([0.0, 1.0], [9, 7])
    stacked = np.vstack([x, y])
    oracle = np.array([regression_p_per_edge(stacked[:, e], groups, cov)
                       for e in range(66)])
    assert np.array_equal(got.view(np.int64), oracle.view(np.int64))


def test_edgewise_regression_design_error_names_no_edge():
    from ddtnet.edgetests import RankDeficientError
    rng = np.random.default_rng(23)
    cohort = ConnectivityCohort(rng.normal(size=(4, 6)), rng.normal(size=(4, 6)),
                                covariates=np.repeat([[0.0], [1.0]], 4, axis=0))
    with pytest.raises(RankDeficientError) as err:
        edgewise_pvalues(cohort, EdgeTestConfig(method="regression"))
    assert str(err.value) == "design matrix [1, group, covariates] is rank deficient"


# ---------------------------------------------------------------------------
# edgewise


def _cohort_from_stack(values1, values2):
    return ConnectivityCohort(np.vstack(values1), np.vstack(values2))


def test_edgewise_identical_groups_all_one():
    rng = np.random.default_rng(2)
    vals = rng.uniform(-0.5, 0.5, size=(3, 3))
    cohort = _cohort_from_stack(vals, vals.copy())
    pmat = edgewise_pvalues(cohort, EdgeTestConfig(method="welch_t"))
    assert pmat.values.shape == (3,)        # N(N-1)/2 edges for N=3
    assert np.all(pmat.values == 1.0)


def test_edgewise_counts_and_range():
    rng = np.random.default_rng(4)
    cohort = _cohort_from_stack(rng.normal(size=(5, 6)),
                                rng.normal(size=(4, 6)))
    for method in ("welch_t", "wilcoxon", "regression"):
        pmat = edgewise_pvalues(cohort, EdgeTestConfig(method=method))
        assert isinstance(pmat, PValueMatrix)
        assert pmat.values.shape == (6,)
        assert np.all((pmat.values > 0) & (pmat.values <= 1))


def test_edgewise_permutation_deterministic():
    rng = np.random.default_rng(8)
    cohort = _cohort_from_stack(rng.normal(size=(5, 3)),
                                rng.normal(0.5, size=(5, 3)))
    cfg = EdgeTestConfig(method="permutation", permutations=300, seed=42)
    p1 = edgewise_pvalues(cohort, cfg).values
    p2 = edgewise_pvalues(cohort, cfg).values
    assert np.array_equal(p1, p2)


def test_edgewise_null_uniformity_welch():
    # pooled KS over >= 10,000 null edges
    rng = np.random.default_rng(123)
    pooled = []
    n, edges = 35, 35 * 34 // 2
    reps = int(np.ceil(10000 / edges))
    for _ in range(reps):
        cohort = _cohort_from_stack(rng.normal(size=(20, edges)),
                                    rng.normal(size=(20, edges)))
        pooled.append(edgewise_pvalues(
            cohort, EdgeTestConfig(method="welch_t")).values)
    pooled = np.concatenate(pooled)
    assert len(pooled) >= 10000
    assert stats.kstest(pooled, "uniform").statistic < 0.05


def test_edgewise_null_uniformity_regression():
    rng = np.random.default_rng(321)
    pooled = []
    n, edges = 35, 35 * 34 // 2
    reps = int(np.ceil(10000 / edges))
    for _ in range(reps):
        cohort = ConnectivityCohort(rng.normal(size=(20, edges)),
                                    rng.normal(size=(20, edges)),
                                    covariates=rng.normal(size=(40, 1)))
        pooled.append(edgewise_pvalues(
            cohort, EdgeTestConfig(method="regression")).values)
    pooled = np.concatenate(pooled)
    assert stats.kstest(pooled, "uniform").statistic < 0.05


def test_edgewise_fisher_z_changes_welch_but_not_wilcoxon():
    rng = np.random.default_rng(77)
    vals1 = rng.uniform(-0.8, 0.8, size=(6, 3))
    vals2 = rng.uniform(-0.5, 0.9, size=(6, 3))
    cohort = _cohort_from_stack(vals1, vals2)
    raw = edgewise_pvalues(cohort, EdgeTestConfig(method="wilcoxon"))
    fz = edgewise_pvalues(cohort, EdgeTestConfig(method="wilcoxon",
                                                 fisher_z=True))
    # ranks are invariant under the monotone transform
    assert np.allclose(raw.values, fz.values)


def test_edgewise_reports_the_fisher_z_clamp_count():
    rng = np.random.default_rng(78)
    vals1 = rng.uniform(-0.8, 0.8, size=(6, 3))
    vals2 = rng.uniform(-0.5, 0.9, size=(6, 3))
    vals1[:, 0] = 1.0
    vals2[2, 1] = -1.0
    cohort = _cohort_from_stack(vals1, vals2)
    fz = edgewise_pvalues(cohort, EdgeTestConfig(fisher_z=True))
    assert fz.fisher_z_clamped == 7
    assert np.all(np.isfinite(fz.values))
    assert edgewise_pvalues(cohort, EdgeTestConfig()).fisher_z_clamped == 0


def test_config_validation():
    with pytest.raises(ValidationError):
        EdgeTestConfig(method="anova")
    with pytest.raises(ValidationError):
        EdgeTestConfig(method="permutation", permutations=50)
    # a bad seed fails here, not inside the permutation substreams
    for seed in (-1, 1.5, True, "3", None):
        with pytest.raises(ValidationError, match="seed"):
            EdgeTestConfig(method="permutation", permutations=100, seed=seed)
    assert EdgeTestConfig(seed=np.int64(5)).seed == 5


def test_vector_welch_blocks_are_bit_identical_to_one_call():
    from ddtnet.edgetests import _WELCH_BLOCK, _vector_welch, _welch_block
    rng = np.random.default_rng(8)
    width = 2 * _WELCH_BLOCK + 17
    x = rng.normal(size=(12, width))
    y = rng.normal(0.1, 1.0, size=(9, width))
    x[:, 5], y[:, 5] = 1.0, 1.0                  # constant, equal: p = 1
    x[:, -1], y[:, -1] = 0.0, 2.0                # constant, unequal: P_MIN
    chunked = _vector_welch(x, y)
    whole = _welch_block(x, y)
    assert np.array_equal(chunked.view(np.int64), whole.view(np.int64))
    assert chunked[5] == 1.0 and chunked[-1] == 1e-10


def test_welch_t_edge_is_one_column_of_the_vector_test():
    from ddtnet.edgetests import _vector_welch
    rng = np.random.default_rng(9)
    x = rng.normal(size=(7, 40))
    y = rng.normal(0.3, 2.0, size=(5, 40))
    vector = _vector_welch(x, y)
    for e in range(40):
        assert welch_t_edge(x[:, e], y[:, e]) == vector[e]


def _welch_columns(kind: str, n1: int, n2: int, rng) -> tuple[np.ndarray, np.ndarray]:
    width = 64
    x = rng.normal(size=(n1, width)) * rng.uniform(0.01, 10.0)
    y = rng.normal(0.3, 1.0, size=(n2, width))
    if kind == "constant-equal":
        x = np.tile(x[0], (n1, 1))
        y = np.tile(x[0], (n2, 1))
    elif kind == "constant-unequal":
        x = np.tile(x[0], (n1, 1))
        y = np.tile(y[0], (n2, 1))
    elif kind == "rounded":
        x, y = np.round(x, 1), np.round(y, 1)
    elif kind == "integer-degree":
        x = rng.integers(0, 6, size=(n1, width)).astype(float)
        y = rng.integers(0, 6, size=(n2, width)).astype(float)
    return x, y


def _ttest_ind_block(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The Welch block through scipy.stats.ttest_ind, with the same
    degenerate-column rule and clamp as _welch_block."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = np.asarray(stats.ttest_ind(x, y, axis=0, equal_var=False)[1], float)
    bad = ~np.isfinite(p)
    equal = np.isclose(x.mean(axis=0), y.mean(axis=0))
    p[bad & equal] = 1.0
    p[bad & ~equal] = P_MIN
    return np.clip(p, P_MIN, 1.0)


@pytest.mark.parametrize("kind", ["random", "constant-equal", "constant-unequal",
                                  "rounded", "integer-degree"])
def test_welch_block_is_bit_identical_to_ttest_ind(kind):
    from ddtnet.edgetests import _welch_block
    rng = np.random.default_rng(sum(map(ord, kind)))
    for n1 in range(2, 31):
        n2 = int(rng.integers(2, 31))
        x, y = _welch_columns(kind, n1, n2, rng)
        got = _welch_block(x, y)
        assert np.array_equal(got.view(np.int64),
                              _ttest_ind_block(x, y).view(np.int64)), (n1, n2)
        # a strided view of the columns, as _vector_welch's blocks pass them
        got = _welch_block(x[:, ::3], y[:, ::3])
        assert np.array_equal(got.view(np.int64), _ttest_ind_block(
            x[:, ::3], y[:, ::3]).view(np.int64)), (n1, n2)
