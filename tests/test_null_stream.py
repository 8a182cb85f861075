"""The streamed null stage: block generation, the fused threshold and
exceedance pass, and the exact pooled quantile under bracket misses."""

import math
import tracemalloc

import numpy as np
import pytest

from ddtnet import hqs
from ddtnet.core import (
    AdjacencyMatrix,
    ConnectivityCohort,
    SymmetricMatrix,
    ValidationError,
    substream,
    triu_index_pairs,
)
from ddtnet.degree_test import ddt_run, null_probability_from_counts
from ddtnet.hqs import (
    MomentSummary,
    NullEnsemble,
    NullStream,
    generate_null,
    null_exceedances,
)
from ddtnet.thresholds import ThresholdRule

MOMENTS = MomentSummary.from_moments(1.0, 0.5, m=2)


def _rows_per_block(monkeypatch, n, rows):
    """Shrink the block budget so an ensemble of n nodes streams `rows`
    replicates per block."""
    monkeypatch.setattr(hqs, "_BLOCK_BYTES", rows * 8 * (n * (n - 1) // 2))


class _CountingSource:
    """A block source that records how many passes were made over it."""

    def __init__(self, source):
        self.source = source
        self.n, self.size = source.n, source.size
        self.passes = 0

    def blocks(self):
        self.passes += 1
        return self.source.blocks()


def _mask_oracle(entries, gamma, n):
    """Counts, p_null and edge fraction from the materialized M x E mask."""
    mask = entries > gamma
    node_totals = sum(AdjacencyMatrix(n=n, selected=row).to_dense().sum(axis=1)
                      for row in mask)
    p_null = node_totals / (len(mask) * (n - 1))
    return mask.sum(axis=0), p_null, float(mask.mean())


def _assert_matches_mask(null, entries, n):
    counts, p_null, fraction = _mask_oracle(entries, null.gamma, n)
    assert null.counts.dtype == np.int64
    assert np.array_equal(null.counts, counts)
    assert np.array_equal(
        null_probability_from_counts(null.counts, null.size, n), p_null)
    assert null.edge_fraction == fraction


# ---------------------------------------------------------------------------
# block generation


def test_stream_rows_match_the_per_replicate_gram(monkeypatch):
    n, size, seed = 9, 7, 4
    _rows_per_block(monkeypatch, n, 3)
    blocks = [b.copy() for b in NullStream(MOMENTS, n, size, seed).blocks()]
    assert [len(b) for b in blocks] == [3, 3, 1]
    iu, ju = triu_index_pairs(n)
    sd = np.sqrt(MOMENTS.sigma2)
    for i, row in enumerate(np.concatenate(blocks)):
        L = substream(seed, i).normal(MOMENTS.mu, sd, size=(n, MOMENTS.m))
        gram = L @ L.T
        assert row.tobytes() == gram[iu, ju].tobytes()


def test_generate_null_is_block_size_free(monkeypatch):
    whole = generate_null(MOMENTS, n=10, size=9, seed=2).logit_entries
    _rows_per_block(monkeypatch, 10, 2)
    blocked = generate_null(MOMENTS, n=10, size=9, seed=2).logit_entries
    assert whole.tobytes() == blocked.tobytes()


def test_ensemble_entries_are_frozen():
    ens = generate_null(MOMENTS, n=6, size=3, seed=0)
    assert not ens.logit_entries.flags.writeable
    with pytest.raises(ValueError):
        ens.logit_entries[0, 0] = 1.0


def test_stream_validation():
    with pytest.raises(ValidationError):
        NullStream(MOMENTS, n=1, size=2)
    with pytest.raises(ValidationError):
        NullStream(MOMENTS, n=5, size=0)
    with pytest.raises(ValidationError):
        null_exceedances(NullStream(MOMENTS, n=5, size=2), levels={"e": 1.0})


def test_null_networks_are_written_block_by_block(monkeypatch, tmp_path):
    from ddtnet.io import read_matrix_csv, write_null_networks
    n, size, seed = 7, 5, 3
    _rows_per_block(monkeypatch, n, 2)
    paths = write_null_networks(tmp_path, NullStream(MOMENTS, n, size, seed))
    assert [p.name for p in paths] == [f"null_{i}.csv" for i in range(size)]
    ens = generate_null(MOMENTS, n, size, seed)
    for i, path in enumerate(paths):
        expected = ens.network(i).to_symmetric().to_dense()
        assert np.array_equal(read_matrix_csv(path), expected)


# ---------------------------------------------------------------------------
# the pooled quantile is np.quantile, bit for bit


@pytest.mark.parametrize("level", [0.5, 0.95, 0.99])
@pytest.mark.parametrize("rows", [None, 7, 1])
def test_streamed_quantile_equals_np_quantile(monkeypatch, level, rows):
    n, size, seed = 14, 40, 8
    if rows is not None:
        _rows_per_block(monkeypatch, n, rows)
    source = _CountingSource(NullStream(MOMENTS, n, size, seed))
    null = null_exceedances(source, levels={"eddt": level})["eddt"]
    entries = generate_null(MOMENTS, n, size, seed).logit_entries
    assert null.gamma == float(np.quantile(entries, level))
    assert source.passes == 1
    _assert_matches_mask(null, entries, n)


@pytest.mark.parametrize("level", [0.5, 0.95, 0.99])
def test_bracket_miss_falls_back_to_an_exact_pass(monkeypatch, level):
    n, size, seed = 12, 30, 3
    _rows_per_block(monkeypatch, n, 4)
    monkeypatch.setattr(hqs, "_BRACKET_Z", 0.0)   # a zero-width bracket
    source = _CountingSource(NullStream(MOMENTS, n, size, seed))
    null = null_exceedances(source, levels={"eddt": level})["eddt"]
    entries = generate_null(MOMENTS, n, size, seed).logit_entries
    assert source.passes > 1
    assert null.gamma == float(np.quantile(entries, level))
    _assert_matches_mask(null, entries, n)


@pytest.mark.parametrize("shift", [-50.0, 50.0])
def test_unrepresentative_first_block_still_gives_the_exact_quantile(
        monkeypatch, shift):
    n = 200
    _rows_per_block(monkeypatch, n, 10)
    entries = generate_null(MOMENTS, n, 40, seed=6).logit_entries.copy()
    entries[:10] += shift
    ens = NullEnsemble(moments=MOMENTS, n=n, seed=6, logit_entries=entries)
    source = _CountingSource(ens)
    null = null_exceedances(source, levels={"eddt": 0.5})["eddt"]
    assert source.passes > 1
    assert null.gamma == float(np.quantile(entries, 0.5))
    _assert_matches_mask(null, entries, n)


@pytest.mark.parametrize("z", [0.0, hqs._BRACKET_Z])
def test_second_order_statistic_at_the_last_index(monkeypatch, z):
    # N = 18 entries, q = 0.99: virtual index 16.83 interpolates between
    # the order statistics at 16 and 17, the largest entry
    entries = np.arange(18.0)[::-1].reshape(6, 3) ** 1.5
    ens = NullEnsemble(moments=MOMENTS, n=3, seed=0, logit_entries=entries)
    _rows_per_block(monkeypatch, 3, 2)
    monkeypatch.setattr(hqs, "_BRACKET_Z", z)
    null = null_exceedances(ens, levels={"eddt": 0.99})["eddt"]
    assert null.gamma == float(np.quantile(entries, 0.99))
    assert entries.max() > null.gamma > np.sort(entries.ravel())[-2]
    _assert_matches_mask(null, entries, 3)


# ---------------------------------------------------------------------------
# the explicit-entry eDDT tests of test_thresholds.py, on the streamed pass


@pytest.mark.parametrize("rows", [None, 1])
def test_streamed_degenerate_ensemble(monkeypatch, rows):
    if rows is not None:
        _rows_per_block(monkeypatch, 4, rows)
    ens = NullEnsemble(moments=MOMENTS, n=4, seed=0,
                       logit_entries=np.full((3, 6), 2.5))
    for q in (0.1, 0.5, 0.95):
        null = null_exceedances(ens, levels={"eddt": q})["eddt"]
        assert null.gamma == 2.5
        assert not null.counts.any()


@pytest.mark.parametrize("rows", [None, 3])
def test_streamed_pooling_is_order_free(monkeypatch, rows):
    if rows is not None:
        _rows_per_block(monkeypatch, 12, rows)
    ens = generate_null(MOMENTS, n=12, size=8, seed=5)
    permuted = NullEnsemble(moments=MOMENTS, n=12, seed=0,
                            logit_entries=ens.logit_entries[::-1].copy())
    forward = null_exceedances(ens, levels={"eddt": 0.95})["eddt"]
    backward = null_exceedances(permuted, levels={"eddt": 0.95})["eddt"]
    assert forward.gamma == backward.gamma
    assert np.array_equal(forward.counts, backward.counts)


def test_streamed_empty_ensemble_error():
    with pytest.raises(ValidationError):
        null_exceedances(NullStream(MOMENTS, n=4, size=0), levels={"eddt": 0.95})


# ---------------------------------------------------------------------------
# fixed thresholds, both kinds in one pass, and the pipeline


@pytest.mark.parametrize("rows", [None, 5])
def test_one_pass_serves_fixed_and_quantile_thresholds(monkeypatch, rows):
    n, size, seed = 11, 23, 9
    if rows is not None:
        _rows_per_block(monkeypatch, n, rows)
    source = _CountingSource(NullStream(MOMENTS, n, size, seed))
    nulls = null_exceedances(source, {"addt": 2.0, "hard": -math.inf},
                             {"eddt": 0.95})
    assert list(nulls) == ["addt", "hard", "eddt"]
    assert source.passes == 1
    entries = generate_null(MOMENTS, n, size, seed).logit_entries
    assert nulls["addt"].gamma == 2.0
    assert nulls["eddt"].gamma == float(np.quantile(entries, 0.95))
    for null in nulls.values():
        _assert_matches_mask(null, entries, n)
    assert nulls["hard"].edge_fraction == 1.0


def _planted_cohort(n, subjects, seed):
    """Node 0's edges shifted in group 2, so the logit-scale mean is positive."""
    rng = np.random.default_rng(seed)
    iu, _ = triu_index_pairs(n)
    shift = np.where(iu == 0, 0.8, 0.0)

    def group(delta):
        return tuple(SymmetricMatrix.from_upper(n, rng.normal(size=len(iu)) + delta, 1.0)
                     for _ in range(subjects))
    return ConnectivityCohort(group1=group(0.0), group2=group(shift))


@pytest.mark.parametrize("kind", ["eddt", "addt"])
def test_ddt_run_null_stage_matches_the_materialized_ensemble(monkeypatch, kind):
    n, size, seed = 16, 50, 21
    _rows_per_block(monkeypatch, n, 6)
    cohort = _planted_cohort(n, 8, seed=2)
    rule = ThresholdRule(kind=kind, resolution=20_000)
    result = ddt_run(cohort, rule=rule, ensemble_size=size, seed=seed)
    entries = generate_null(result.moments, n, size, seed).logit_entries
    if kind == "eddt":
        assert result.gamma == float(np.quantile(entries, rule.level))
    _, p_null, fraction = _mask_oracle(entries, result.gamma, n)
    assert np.array_equal([r.p_null for r in result.nodes], p_null)
    assert result.flags["null_edge_fraction"] == fraction


def test_eddt_run_memory_does_not_grow_with_the_ensemble():
    n, size = 150, 2000
    ensemble_bytes = size * (n * (n - 1) // 2) * 8
    cohort = _planted_cohort(n, 10, seed=4)
    tracemalloc.start()
    try:
        ddt_run(cohort, rule=ThresholdRule(kind="eddt"), ensemble_size=size,
                seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < ensemble_bytes / 4
