import numpy as np
import pytest

from ddtnet.baselines import (
    binomial_corrected,
    degree_at_density,
    degree_ttest,
    density_edge_count,
)
from ddtnet.core import ConnectivityCohort, SymmetricMatrix, ValidationError
from ddtnet.degree_test import binomial_upper_tail
from ddtnet.edgetests import PValueMatrix


def test_density_edge_count_rounding():
    assert density_edge_count(10, 0.1) == 1          # N=5: round(1.0)
    assert density_edge_count(595, 0.1) == 60        # N=35: round(59.5)


def test_degree_at_density_keeps_exactly_k_edges():
    rng = np.random.default_rng(0)
    g = SymmetricMatrix.from_upper(8, rng.normal(size=28), 1.0)
    for density in (0.05, 0.1, 0.3, 0.9):
        k = density_edge_count(28, density)
        deg = degree_at_density(g, density)
        assert deg.sum() == 2 * k


def test_degree_at_density_complete_at_density_one_minus():
    g = SymmetricMatrix.from_upper(6, np.arange(15, dtype=float), 1.0)
    deg = degree_at_density(g, 0.999)
    assert np.array_equal(deg, np.full(6, 5))


def test_degree_at_density_tie_rule_lexicographic():
    g = SymmetricMatrix.from_upper(5, np.ones(10), 1.0)
    deg = degree_at_density(g, 0.1)          # k = 1, first edge is (0, 1)
    assert list(deg) == [1, 1, 0, 0, 0]
    deg3 = degree_at_density(g, 0.3)         # k = 3: (0,1), (0,2), (0,3)
    assert list(deg3) == [3, 1, 1, 1, 0]


def test_degree_at_density_signed_vs_absolute():
    vals = np.array([0.9, -0.95, 0.1, 0.0, -0.2, 0.05])
    g = SymmetricMatrix.from_upper(4, vals, 1.0)
    signed = degree_at_density(g, 1 / 6, ranking="signed")
    absolute = degree_at_density(g, 1 / 6, ranking="absolute")
    # signed keeps (0,1)=0.9; absolute keeps (0,2)=-0.95
    assert list(signed) == [1, 1, 0, 0]
    assert list(absolute) == [1, 0, 1, 0]


def _cohort(vals1, vals2, n):
    return ConnectivityCohort(
        group1=tuple(SymmetricMatrix.from_upper(n, r, 1.0) for r in vals1),
        group2=tuple(SymmetricMatrix.from_upper(n, r, 1.0) for r in vals2))


def test_degree_ttest_identical_groups():
    rng = np.random.default_rng(1)
    vals = rng.normal(size=(5, 15))
    res = degree_ttest(_cohort(vals, vals.copy(), 6))
    assert np.all(res.pvalues == 1.0)
    assert not res.significant.any()


def test_degree_ttest_detects_degree_shift():
    rng = np.random.default_rng(2)
    vals1 = rng.normal(0, 0.2, size=(20, 190))       # n = 20 nodes
    vals2 = rng.normal(0, 0.2, size=(20, 190))
    vals2[:, :19] += 0.6                             # node 0 edges boosted
    res = degree_ttest(_cohort(vals1, vals2, 20), density=0.10)
    assert res.significant[0]


def test_binomial_corrected_no_detections():
    pmat = PValueMatrix(n=6, values=np.full(15, 0.8), diagonal=np.ones(6))
    for correction in ("bonferroni", "fdr"):
        nodes = binomial_corrected(pmat, correction)
        assert all(r.degree == 0 for r in nodes)
        assert all(r.pvalue == 1.0 for r in nodes)
        assert not any(r.significant for r in nodes)


def _pmat_from_dense(p):
    n = p.shape[0]
    return PValueMatrix(n=n, values=p[np.triu_indices(n, k=1)],
                        diagonal=np.ones(n))


def test_binomial_corrected_bonferroni_cutoff():
    n, alpha = 35, 0.05
    # edge cut: an edge counts toward the degree iff p < alpha
    p = np.full((n, n), 0.5)
    p[0, 1] = p[1, 0] = np.nextafter(alpha, 0.0)
    p[0, 2] = p[2, 0] = alpha
    nodes = binomial_corrected(_pmat_from_dense(p), "bonferroni", alpha)
    assert [r.degree for r in nodes[:3]] == [1, 1, 0]

    # node cut: Bonferroni across the N node tests, raw p < alpha / N
    k_star = next(k for k in range(n)
                  if binomial_upper_tail(k, n - 1, alpha) < alpha / n)
    assert binomial_upper_tail(k_star - 1, n - 1, alpha) >= alpha / n
    p = np.full((n, n), 0.5)
    p[0, 1:k_star + 1] = p[1:k_star + 1, 0] = 0.01              # node 0: k*
    p[34, 20:20 + k_star - 1] = p[20:20 + k_star - 1, 34] = 0.01  # node 34: k* - 1
    nodes = binomial_corrected(_pmat_from_dense(p), "bonferroni", alpha)
    assert nodes[0].degree == k_star and nodes[34].degree == k_star - 1
    assert nodes[0].significant and not nodes[34].significant
    for r in nodes:
        raw = binomial_upper_tail(r.degree, n - 1, alpha)
        assert r.pvalue == min(1.0, n * raw)
        assert r.p_null == alpha
        assert r.significant == (r.pvalue < alpha)


def test_binomial_fdr_detects_superset_of_bonferroni():
    rng = np.random.default_rng(4)
    p = rng.uniform(size=190) ** 4
    pmat = PValueMatrix(n=20, values=p, diagonal=np.ones(20))
    bonf = binomial_corrected(pmat, "bonferroni")
    fdr = binomial_corrected(pmat, "fdr")
    sig_b = {r.node for r in bonf if r.significant}
    sig_f = {r.node for r in fdr if r.significant}
    assert sig_b and sig_b <= sig_f
    assert all(f.pvalue <= b.pvalue for b, f in zip(bonf, fdr))
    assert all(r.significant == (r.pvalue < 0.05) for r in fdr)


def test_baseline_config_validation():
    rng = np.random.default_rng(3)
    vals = rng.normal(size=(4, 15))
    cohort = _cohort(vals, vals + 0.1, 6)
    for density in (0.0, 1.0, 1.5, -0.1):
        with pytest.raises(ValidationError, match="density"):
            degree_ttest(cohort, density=density)
    with pytest.raises(ValidationError):
        degree_ttest(cohort, ranking="weighted")
    pmat = PValueMatrix(n=6, values=rng.uniform(size=15), diagonal=np.ones(6))
    with pytest.raises(ValidationError):
        binomial_corrected(pmat, correction="holm")
    res = degree_ttest(cohort)
    assert res.density == 0.10 and res.alpha == 0.05


def test_degree_ttest_matches_per_node_welch():
    from ddtnet.edgetests import welch_t_edge
    rng = np.random.default_rng(12)
    n = 12
    vals1 = [rng.normal(size=n * (n - 1) // 2) for _ in range(6)]
    vals2 = [rng.normal(size=n * (n - 1) // 2) for _ in range(7)]
    # node 0 is the strongest node of every subject: constant degree n - 1
    for v in vals1 + vals2:
        v[:n - 1] = 10.0
    cohort = _cohort(vals1, vals2, n)
    res = degree_ttest(cohort, density=0.3)
    d1 = np.vstack([degree_at_density(m, 0.3) for m in cohort.group1])
    d2 = np.vstack([degree_at_density(m, 0.3) for m in cohort.group2])
    per_node = np.array([welch_t_edge(d1[:, i], d2[:, i]) for i in range(n)])
    assert res.pvalues[0] == 1.0
    assert np.allclose(res.pvalues, per_node, rtol=0, atol=1e-15)
    assert np.array_equal(res.significant, per_node < 0.05)
