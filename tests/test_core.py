import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from ddtnet.core import (
    AdjacencyMatrix,
    ConnectivityCohort,
    DifferenceNetwork,
    SymmetricMatrix,
    ValidationError,
    fisher_z_clamped,
    inv_logit,
    logit,
    triu_index_pairs,
)


def test_logit_examples():
    assert logit(0.5) == 0.0
    assert logit(0.95) == pytest.approx(np.log(19), abs=1e-9)
    assert inv_logit(logit(0.3)) == pytest.approx(0.3, abs=1e-12)


def test_logit_domain_errors():
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValidationError):
            logit(bad)


def test_inv_logit_examples():
    assert inv_logit(0.0) == 0.5
    assert inv_logit(2.944439) == pytest.approx(0.95, abs=1e-6)
    x = np.linspace(-30, 30, 101)
    assert np.allclose(inv_logit(x) + inv_logit(-x), 1.0, atol=1e-12)
    assert np.all(np.diff(inv_logit(x)) > 0)
    # extreme arguments evaluate without overflow; strictly inside (0, 1)
    # wherever float64 resolution allows (upper side saturates at x ~ 36.7)
    assert 0.0 < inv_logit(-36.0) < inv_logit(36.0) < 1.0
    assert 0.0 < inv_logit(-700.0) < 1e-300
    assert inv_logit(800.0) == 1.0


def test_logit_inv_logit_roundtrip_grid():
    grid = np.linspace(1e-6, 1 - 1e-6, 2001)
    back = inv_logit(logit(grid))
    assert np.allclose(back, grid, rtol=1e-12, atol=0)


def test_fisher_z_examples():
    z, clamped = fisher_z_clamped(np.array([0.0, 0.5, -0.5]))
    assert clamped == 0
    assert z[0] == 0.0
    assert z[1] == pytest.approx(0.549306, abs=1e-6)
    assert z[2] == pytest.approx(-0.549306, abs=1e-6)
    grid = np.linspace(-0.999, 0.999, 999)
    z, _ = fisher_z_clamped(grid)
    assert np.all(np.diff(z) > 0)
    assert np.allclose(z, -fisher_z_clamped(-grid)[0], atol=1e-12)


def test_fisher_z_clamped_counts():
    z, clamped = fisher_z_clamped(np.array([0.2, 1.0, -1.0, 0.5]))
    assert clamped == 2
    assert np.all(np.isfinite(z))


def test_symmetric_matrix_roundtrip_and_lookup():
    rng = np.random.default_rng(0)
    dense = rng.normal(size=(6, 6))
    dense = (dense + dense.T) / 2
    m = SymmetricMatrix.from_dense(dense)
    assert np.array_equal(m.to_dense(), dense)
    iu, ju = triu_index_pairs(6)
    assert np.array_equal(m.values, dense[iu, ju])
    assert np.array_equal(m.values, dense[ju, iu])
    assert np.array_equal(m.diagonal, np.diag(dense))


# finite and small enough that from_dense's averaging of the two triangles
# cannot overflow
_ENTRIES = st.floats(-1e300, 1e300, allow_nan=False)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 12), data=st.data())
def test_symmetric_matrix_dense_roundtrip_property(n, data):
    values = data.draw(arrays(float, n * (n - 1) // 2, elements=_ENTRIES))
    diagonal = data.draw(arrays(float, n, elements=_ENTRIES))
    dense = SymmetricMatrix(n=n, values=values, diagonal=diagonal).to_dense()
    assert np.array_equal(dense, dense.T)
    back = SymmetricMatrix.from_dense(dense)
    assert np.array_equal(back.values, values)
    assert np.array_equal(back.diagonal, diagonal)
    assert np.array_equal(back.to_dense(), dense)


@settings(max_examples=100, deadline=None)
@given(n=st.integers(2, 12), data=st.data())
def test_adjacency_matrix_dense_roundtrip_property(n, data):
    selected = data.draw(arrays(bool, n * (n - 1) // 2))
    dense = AdjacencyMatrix(n=n, selected=selected).to_dense()
    assert np.array_equal(dense, dense.T)
    assert not np.diag(dense).any()
    assert set(np.unique(dense)) <= {0, 1}
    back = AdjacencyMatrix.from_dense(dense)
    assert np.array_equal(back.selected, selected)
    assert np.array_equal(back.to_dense(), dense)


def test_adjacency_matrix_rejects_a_nonzero_diagonal():
    dense = AdjacencyMatrix(n=4, selected=np.ones(6, dtype=bool)).to_dense()
    dense[2, 2] = 1
    with pytest.raises(ValidationError, match="diagonal"):
        AdjacencyMatrix.from_dense(dense)


def test_symmetric_matrix_rejects_asymmetry_and_size():
    bad = np.array([[1.0, 0.2], [0.4, 1.0]])
    with pytest.raises(ValidationError):
        SymmetricMatrix.from_dense(bad)
    with pytest.raises(ValidationError):
        SymmetricMatrix.from_upper(1, np.array([]), diagonal=0.0)
    # asymmetry within tolerance is averaged away
    almost = np.array([[1.0, 0.2], [0.2 + 1e-9, 1.0]])
    m = SymmetricMatrix.from_dense(almost)
    assert m.values[0] == pytest.approx(0.2, abs=1e-9)
    assert np.array_equal(m.diagonal, [1.0, 1.0])


def _groups(n_nodes=3, n1=3, n2=3, seed=0):
    """(subjects x edges) arrays: each subject's matrix values, stacked."""
    rng = np.random.default_rng(seed)

    def stack(k):
        rows = []
        for _ in range(k):
            d = rng.uniform(-0.5, 0.5, size=(n_nodes, n_nodes))
            d = (d + d.T) / 2
            np.fill_diagonal(d, 1.0)
            rows.append(SymmetricMatrix.from_dense(d).values)
        return np.vstack(rows)

    return stack(n1), stack(n2)


def test_validate_cohort_accepts_valid():
    x1, x2 = _groups()
    cohort = ConnectivityCohort(x1, x2, covariates=np.zeros((6, 2)),
                                labels=("a", "b", "c"))
    assert (cohort.n, cohort.n1, cohort.n2) == (3, 3, 3)
    assert np.array_equal(cohort.x1, x1) and not cohort.x1.flags.writeable


def test_validate_cohort_dimension_mismatch():
    x1, x2 = _groups()
    with pytest.raises(ValidationError, match="dimension mismatch"):
        ConnectivityCohort(x1, _groups(n_nodes=4)[1])
    for width in (2, 0):            # not n(n-1)/2 for any n >= 2
        with pytest.raises(ValidationError, match="dimension mismatch"):
            ConnectivityCohort(x1[:, :width], x2[:, :width])


def test_validate_cohort_nan_reports_coordinates():
    x1, x2 = _groups()
    x1[0, 1] = np.nan               # edge 1 of n=3 is (0, 2)
    with pytest.raises(ValidationError, match=r"group 1 subject 0 at edge \(0, 2\)"):
        ConnectivityCohort(x1, x2)
    x1, x2 = _groups(n_nodes=5)
    x2[2, 6] = np.inf               # edge 6 of n=5 is (1, 4)
    with pytest.raises(ValidationError, match=r"group 2 subject 2 at edge \(1, 4\)"):
        ConnectivityCohort(x1, x2)


def test_validate_cohort_group_size():
    x1, x2 = _groups()
    with pytest.raises(ValidationError, match="at least 2 subjects"):
        ConnectivityCohort(x1[:1], x2)


def test_validate_cohort_checks_group_1_before_group_2():
    # each group passes all of core.check_group in turn, so a bad value in
    # group 1 is reported before group 2's size
    x1, x2 = _groups()
    x1[0, 1] = np.nan
    with pytest.raises(ValidationError, match="invalid value in group 1"):
        ConnectivityCohort(x1, x2[:1])


def test_validate_cohort_covariate_alignment():
    x1, x2 = _groups()
    with pytest.raises(ValidationError, match="one row per subject"):
        ConnectivityCohort(x1, x2, covariates=np.zeros((4, 2)))
    cov = np.zeros((6, 1))
    cov[3, 0] = np.nan
    with pytest.raises(ValidationError, match="non-finite"):
        ConnectivityCohort(x1, x2, covariates=cov)
    with pytest.raises(ValidationError, match="2 node labels for n=3"):
        ConnectivityCohort(x1, x2, labels=("a", "b"))


def test_difference_network_clamps_and_logits():
    pm = SymmetricMatrix.from_upper(3, np.array([1.0, 0.5, 1e-15]),
                                    diagonal=1.0)
    dn = DifferenceNetwork.from_pvalues(pm)
    assert np.all((dn.d > 0) & (dn.d < 1))
    assert np.all(np.isfinite(dn.logit_values()))
    # d = 1 - p ordering is preserved
    assert dn.d[2] > dn.d[1] > dn.d[0]


def test_containers_stay_frozen_across_pickling():
    import pickle

    from ddtnet.core import AdjacencyMatrix
    from ddtnet.degree_test import NodeTests, node_tests
    from ddtnet.edgetests import PValueMatrix
    from ddtnet.hqs import MomentSummary, NullExceedance, generate_null

    sym = SymmetricMatrix.from_upper(4, np.arange(6.0), 1.0)
    pmat = PValueMatrix(n=3, values=np.full(3, 0.5), diagonal=np.ones(3),
                        fisher_z_clamped=2)
    cohort = ConnectivityCohort(np.vstack([sym.values] * 2),
                                np.vstack([sym.values] * 2),
                                covariates=np.zeros((4, 1)))
    moments = MomentSummary.from_moments(1.0, 0.5)
    cases = [
        (sym, ("values", "diagonal")),
        (pmat, ("values", "diagonal")),
        (AdjacencyMatrix(4, np.arange(6) % 2 == 0), ("selected",)),
        (DifferenceNetwork(n=4, d=np.full(6, 0.3)), ("d",)),
        (cohort, ("x1", "x2", "covariates")),
        (generate_null(moments, n=4, size=3, seed=1), ("logit_entries",)),
        (NullExceedance(gamma=0.0, counts=np.arange(6), size=3), ("counts",)),
        (node_tests(np.array([2, 0, 1]), np.array([0.0, 0.2, 0.2])),
         ("pvalue", "significant", "degree", "p_null", "degenerate")),
        (NodeTests(pvalue=np.full(3, 0.5), significant=np.zeros(3, dtype=bool)),
         ("pvalue", "significant")),
    ]
    for obj, fields in cases:
        back = pickle.loads(pickle.dumps(obj))
        assert type(back) is type(obj)
        for name in fields:
            arr = getattr(back, name)
            assert np.array_equal(arr, getattr(obj, name)), name
            assert arr.flags.writeable is False, (type(obj).__name__, name)
    assert pickle.loads(pickle.dumps(pmat)).fisher_z_clamped == 2
    assert pickle.loads(pickle.dumps(cases[-1][0])).degree is None


def test_triu_index_pairs_is_cached_and_read_only():
    for n in (2, 3, 35):
        iu, ju = triu_index_pairs(n)
        want_i, want_j = np.triu_indices(n, k=1)
        assert np.array_equal(iu, want_i) and np.array_equal(ju, want_j)
        assert iu.dtype == want_i.dtype and ju.dtype == want_j.dtype
        assert not iu.flags.writeable and not ju.flags.writeable
        with pytest.raises(ValueError):
            iu[0] = 1
        assert triu_index_pairs(n)[0] is iu
