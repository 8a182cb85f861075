import numpy as np
import pytest
from scipy import stats

from ddtnet.baselines import (
    binomial_corrected,
    binomial_tails,
    degree_ttest,
    density_edge_count,
    stacked_degrees,
)
from ddtnet.core import (AdjacencyMatrix, ConnectivityCohort, SymmetricMatrix,
                         ValidationError, node_sums)
from ddtnet.edgetests import PValueMatrix
from ddtnet.thresholds import bh_adjust


def degree_at_density(g: SymmetricMatrix, density: float = 0.10,
                      ranking: str = "signed") -> np.ndarray:
    """One subject's nodal degrees after keeping the top round(density * E)
    edges: the per-subject oracle of stacked_degrees.

    Edges are ranked descending (signed values or magnitudes); ties are
    broken by the canonical (i, j) order, so exactly k edges survive.
    """
    vals = g.values if ranking == "signed" else np.abs(g.values)
    k = density_edge_count(g.n_edges, density)
    selected = np.zeros(g.n_edges, dtype=bool)
    if k > 0:
        order = np.argsort(-vals, kind="stable")
        selected[order[:k]] = True
    return node_sums(g.n, selected).astype(np.int64)


def test_density_edge_count_rounding():
    assert density_edge_count(10, 0.1) == 1          # N=5: round(1.0)
    assert density_edge_count(595, 0.1) == 60        # N=35: round(59.5)


def test_degree_at_density_keeps_exactly_k_edges():
    rng = np.random.default_rng(0)
    g = SymmetricMatrix(8, rng.normal(size=28))
    for density in (0.05, 0.1, 0.3, 0.9):
        k = density_edge_count(28, density)
        deg = degree_at_density(g, density)
        assert deg.sum() == 2 * k


def test_degree_at_density_complete_at_density_one_minus():
    g = SymmetricMatrix(6, np.arange(15, dtype=float))
    deg = degree_at_density(g, 0.999)
    assert np.array_equal(deg, np.full(6, 5))


def test_degree_at_density_tie_rule_lexicographic():
    g = SymmetricMatrix(5, np.ones(10))
    deg = degree_at_density(g, 0.1)          # k = 1, first edge is (0, 1)
    assert list(deg) == [1, 1, 0, 0, 0]
    deg3 = degree_at_density(g, 0.3)         # k = 3: (0,1), (0,2), (0,3)
    assert list(deg3) == [3, 1, 1, 1, 0]


def test_degree_at_density_signed_vs_absolute():
    vals = np.array([0.9, -0.95, 0.1, 0.0, -0.2, 0.05])
    g = SymmetricMatrix(4, vals)
    signed = degree_at_density(g, 1 / 6, ranking="signed")
    absolute = degree_at_density(g, 1 / 6, ranking="absolute")
    # signed keeps (0,1)=0.9; absolute keeps (0,2)=-0.95
    assert list(signed) == [1, 1, 0, 0]
    assert list(absolute) == [1, 0, 1, 0]


def _cohort(vals1, vals2):
    return ConnectivityCohort(np.vstack(vals1), np.vstack(vals2))


def test_degree_ttest_identical_groups():
    rng = np.random.default_rng(1)
    vals = rng.normal(size=(5, 15))
    res = degree_ttest(_cohort(vals, vals.copy()))
    assert np.all(res.pvalue == 1.0)
    assert not res.significant.any()


def test_degree_ttest_detects_degree_shift():
    rng = np.random.default_rng(2)
    vals1 = rng.normal(0, 0.2, size=(20, 190))       # n = 20 nodes
    vals2 = rng.normal(0, 0.2, size=(20, 190))
    vals2[:, :19] += 0.6                             # node 0 edges boosted
    res = degree_ttest(_cohort(vals1, vals2), density=0.10)
    assert res.significant[0]


def test_binomial_corrected_no_detections():
    pmat = PValueMatrix(n=6, values=np.full(15, 0.8))
    for correction in ("bonferroni", "fdr"):
        nodes = binomial_corrected(pmat, correction)
        assert all(nodes.degree == 0)
        assert all(nodes.pvalue == 1.0)
        assert not any(nodes.significant)


def _pmat_from_dense(p):
    n = p.shape[0]
    return PValueMatrix(n=n, values=p[np.triu_indices(n, k=1)])


def test_binomial_corrected_bonferroni_cutoff():
    n, alpha = 35, 0.05
    # edge cut: an edge counts toward the degree iff p < alpha
    p = np.full((n, n), 0.5)
    p[0, 1] = p[1, 0] = np.nextafter(alpha, 0.0)
    p[0, 2] = p[2, 0] = alpha
    nodes = binomial_corrected(_pmat_from_dense(p), "bonferroni", alpha)
    assert nodes.degree[:3].tolist() == [1, 1, 0]

    # node cut: Bonferroni across the N node tests, raw p < alpha / N
    k_star = next(k for k in range(n)
                  if binomial_tails(k, n - 1, alpha) < alpha / n)
    assert binomial_tails(k_star - 1, n - 1, alpha) >= alpha / n
    p = np.full((n, n), 0.5)
    p[0, 1:k_star + 1] = p[1:k_star + 1, 0] = 0.01              # node 0: k*
    p[34, 20:20 + k_star - 1] = p[20:20 + k_star - 1, 34] = 0.01  # node 34: k* - 1
    nodes = binomial_corrected(_pmat_from_dense(p), "bonferroni", alpha)
    assert nodes.degree[0] == k_star and nodes.degree[34] == k_star - 1
    assert nodes.significant[0] and not nodes.significant[34]
    for degree, pvalue, p_null, significant in zip(
            nodes.degree.tolist(), nodes.pvalue.tolist(),
            nodes.p_null.tolist(), nodes.significant.tolist()):
        raw = float(binomial_tails(degree, n - 1, alpha))
        assert pvalue == min(1.0, n * raw)
        assert p_null == alpha
        assert significant == (pvalue < alpha)


def test_binomial_fdr_detects_superset_of_bonferroni():
    rng = np.random.default_rng(4)
    p = rng.uniform(size=190) ** 4
    pmat = PValueMatrix(n=20, values=p)
    bonf = binomial_corrected(pmat, "bonferroni")
    fdr = binomial_corrected(pmat, "fdr")
    sig_b = set(np.flatnonzero(bonf.significant).tolist())
    sig_f = set(np.flatnonzero(fdr.significant).tolist())
    assert sig_b and sig_b <= sig_f
    assert all(fdr.pvalue <= bonf.pvalue)
    assert np.array_equal(fdr.significant, fdr.pvalue < 0.05)


def test_baseline_config_validation():
    rng = np.random.default_rng(3)
    vals = rng.normal(size=(4, 15))
    cohort = _cohort(vals, vals + 0.1)
    for density in (0.0, 1.0, 1.5, -0.1):
        with pytest.raises(ValidationError, match="density"):
            degree_ttest(cohort, density=density)
    with pytest.raises(ValidationError):
        degree_ttest(cohort, ranking="weighted")
    pmat = PValueMatrix(n=6, values=rng.uniform(size=15))
    with pytest.raises(ValidationError):
        binomial_corrected(pmat, correction="holm")
    # the defaults are density 0.10 and alpha 0.05
    res = degree_ttest(cohort)
    want = degree_ttest(cohort, density=0.10, alpha=0.05)
    assert np.array_equal(res.pvalue, want.pvalue)
    assert np.array_equal(res.significant, want.significant)


def test_degree_ttest_matches_per_node_welch():
    rng = np.random.default_rng(12)
    n = 12
    vals1 = [rng.normal(size=n * (n - 1) // 2) for _ in range(6)]
    vals2 = [rng.normal(size=n * (n - 1) // 2) for _ in range(7)]
    # node 0 is the strongest node of every subject: constant degree n - 1
    for v in vals1 + vals2:
        v[:n - 1] = 10.0
    cohort = _cohort(vals1, vals2)
    res = degree_ttest(cohort, density=0.3)
    d1, d2 = (np.vstack([degree_at_density(SymmetricMatrix(n, row), 0.3)
                         for row in x]) for x in (cohort.x1, cohort.x2))
    # node 0's degrees are constant and equal, which ttest_ind leaves nan
    per_node = stats.ttest_ind(d1[:, 1:], d2[:, 1:], axis=0,
                               equal_var=False).pvalue
    assert res.pvalue[0] == 1.0
    assert np.allclose(res.pvalue[1:], per_node, rtol=0, atol=1e-15)
    assert np.array_equal(res.significant, np.r_[False, per_node < 0.05])


@pytest.mark.parametrize("ranking", ["signed", "absolute"])
def test_stacked_degrees_equal_per_subject_degrees(ranking):
    rng = np.random.default_rng(21)
    n = 15
    raw = rng.normal(size=(9, n * (n - 1) // 2))
    # rounded values tie often, so the stable tie rule is exercised; -0.0
    # and 0.0 tie too, and the lower edge index wins
    for vals in (raw, np.round(raw, 1),
                 np.where(np.abs(raw) < 0.8, np.copysign(0.0, raw), raw)):
        mats = tuple(SymmetricMatrix(n, v) for v in vals)
        for density in (0.001, 0.1, 0.25, 0.5, 0.999):
            want = np.vstack([degree_at_density(m, density, ranking)
                              for m in mats])
            got = stacked_degrees(vals, n, density, ranking)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), density


@pytest.mark.parametrize("ranking", ["signed", "absolute"])
def test_stacked_degrees_chunks_agree_with_one_shot(monkeypatch, ranking):
    from ddtnet import baselines
    rng = np.random.default_rng(22)
    n = 12
    n_edges = n * (n - 1) // 2
    k = density_edge_count(n_edges, 0.1)
    # whole-number values tie often; rows 2 and 3, on either side of the
    # boundary between chunks of 3 rows, tie many edges at their k-th value
    vals = np.round(rng.normal(0.0, 2.0, size=(8, n_edges)))
    vals[2, : 2 * k] = vals[3, -2 * k:] = 9.0
    vals[3, :k // 2] = 10.0
    one_shot = baselines._row_degrees(vals, n, k, ranking)
    monkeypatch.setattr(baselines, "_DEGREE_CHUNK_BYTES", 3 * 8 * n_edges)
    chunked = stacked_degrees(vals, n, 0.1, ranking)
    assert chunked.dtype == np.int64
    assert np.array_equal(chunked, one_shot)
    assert np.array_equal(chunked, np.vstack([degree_at_density(
        SymmetricMatrix(n, row), 0.1, ranking) for row in vals]))


@pytest.mark.parametrize("correction", ["bonferroni", "fdr"])
def test_binomial_corrected_equals_per_node_loop(correction):
    rng = np.random.default_rng(22)
    n, alpha = 30, 0.05
    pmat = PValueMatrix(n=n, values=rng.uniform(size=n * (n - 1) // 2) ** 3)
    degrees = AdjacencyMatrix(n, pmat.values < alpha).degrees()
    raw = np.array([binomial_tails(int(k), n - 1, alpha) for k in degrees])
    adjusted = np.minimum(1.0, n * raw) if correction == "bonferroni" else bh_adjust(raw)
    nodes = binomial_corrected(pmat, correction, alpha)
    assert len(set(degrees.tolist())) < n          # repeated degrees share a tail
    assert np.array_equal(nodes.degree, degrees)
    assert np.all(nodes.p_null == alpha)
    assert np.array_equal(nodes.pvalue, adjusted)
    assert np.array_equal(nodes.significant, adjusted < alpha)
