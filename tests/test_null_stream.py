"""The null stage: block generation, the streamed eDDT quantile and
exceedance pass, the exact pooled quantile under bracket misses, and the
exact p_null of the thresholds fixed in advance, which stream nothing."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ddtnet import hqs
from ddtnet.core import (
    AdjacencyMatrix,
    ConnectivityCohort,
    ValidationError,
    substream,
    triu_index_pairs,
)
from ddtnet.degree_test import (
    ddt_run,
    degree_tests,
    null_probability_from_counts,
)
from ddtnet.hqs import (
    MomentSummary,
    NullEnsemble,
    NullStream,
    generate_null,
    mixture_cdf,
    null_exceedances,
)
from ddtnet.simulate import (SimDesign, base_network, experiment_rules,
                             run_replicate)
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
        self.n, self.size, self.moments = source.n, source.size, source.moments
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
    # the reference: every factor from one normal draw on the stream's key,
    # then one Gram and one fancy-index gather per network; 7 networks in
    # blocks of 3 rows
    size, seed = 7, 4
    for n, m in itertools.product([2, 3, 35, 120, 400], [1, 2, 3]):
        moments = MomentSummary.from_moments(1.3, 0.7, m=m)
        _rows_per_block(monkeypatch, n, 3)
        blocks = [b.copy() for b in NullStream(moments, n, size, seed).blocks()]
        assert [len(b) for b in blocks] == [3, 3, 1]
        iu, ju = triu_index_pairs(n)
        factors = substream(seed, 0, 1).normal(
            moments.mu, np.sqrt(moments.sigma2), size=(size, n, m))
        for i, (row, L) in enumerate(zip(np.concatenate(blocks), factors)):
            gram = L @ L.T
            assert row.tobytes() == gram[iu, ju].tobytes(), (n, m, i)


def test_stream_is_a_prefix_of_any_larger_stream(monkeypatch):
    n, seed = 9, 12
    _rows_per_block(monkeypatch, n, 4)
    monkeypatch.setattr(hqs, "_GRAM_BYTES", 3 * 8 * n * n)
    rows = {size: np.concatenate([b.copy() for b in
                                  NullStream(MOMENTS, n, size, seed).blocks()])
            for size in (1, 5, 11)}
    for size in (1, 5):
        assert rows[size].tobytes() == rows[11][:size].tobytes()


def test_stream_key_is_no_permutation_test_key():
    # the permutation test draws edge e from substream(seed, e); the first
    # null network must come from another generator
    n, seed = 6, 31
    first = next(NullStream(MOMENTS, n, 1, seed).blocks())[0]
    iu, ju = triu_index_pairs(n)
    for e in range(64):
        L = substream(seed, e).normal(MOMENTS.mu, np.sqrt(MOMENTS.sigma2),
                                      size=(n, MOMENTS.m))
        assert (L @ L.T)[iu, ju].tobytes() != first.tobytes()


def test_stream_gram_chunks_split_a_block(monkeypatch):
    # 3 Gram matrices per batched matmul, 5 rows per block: chunks of 3, 2
    n, size, seed = 20, 12, 9
    _rows_per_block(monkeypatch, n, 5)
    monkeypatch.setattr(hqs, "_GRAM_BYTES", 3 * 8 * n * n)
    chunked = np.concatenate([b.copy() for b in
                              NullStream(MOMENTS, n, size, seed).blocks()])
    monkeypatch.setattr(hqs, "_GRAM_BYTES", 1)
    single = np.concatenate([b.copy() for b in
                             NullStream(MOMENTS, n, size, seed).blocks()])
    assert chunked.tobytes() == single.tobytes()


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
    with pytest.raises(ValidationError, match="seed"):
        NullStream(MOMENTS, n=5, size=2, seed=-1)
    with pytest.raises(ValidationError):
        null_exceedances(NullStream(MOMENTS, n=5, size=2), 1.0)


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
    null = null_exceedances(source, level)
    entries = generate_null(MOMENTS, n, size, seed).logit_entries
    assert null.gamma == float(np.quantile(entries, level))
    assert source.passes == 1
    _assert_matches_mask(null, entries, n)


@pytest.mark.parametrize("level", [0.95, 0.99])
@pytest.mark.parametrize("n", [35, 116, 264, 400])
def test_streams_from_the_law_make_one_pass(monkeypatch, n, level):
    # the bracket is centred on the exact law, which every entry follows
    _rows_per_block(monkeypatch, n, 8)
    for ebar, vbar, m in [(1.0, 0.5, 2), (0.2, 3.0, 2), (3.0, 0.1, 1),
                          (0.5, 0.5, 3)]:
        moments = MomentSummary.from_moments(ebar, vbar, m=m)
        for seed in (0, 1):
            stream = NullStream(moments, n, 40, seed)
            source = _CountingSource(stream)
            null = null_exceedances(source, level)
            assert source.passes == 1
            entries = np.concatenate([b.copy() for b in stream.blocks()])
            assert null.gamma == float(np.quantile(entries, level))


@pytest.mark.parametrize("level", [0.5, 0.95, 0.99])
def test_bracket_miss_falls_back_to_an_exact_pass(monkeypatch, level):
    n, size, seed = 12, 30, 3
    _rows_per_block(monkeypatch, n, 4)
    monkeypatch.setattr(hqs, "_BRACKET_Z", 0.0)   # a zero-width bracket
    source = _CountingSource(NullStream(MOMENTS, n, size, seed))
    null = null_exceedances(source, level)
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
    null = null_exceedances(source, 0.5)
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
    null = null_exceedances(ens, 0.99)
    assert null.gamma == float(np.quantile(entries, 0.99))
    assert entries.max() > null.gamma > np.sort(entries.ravel())[-2]
    _assert_matches_mask(null, entries, 3)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_order_quantile_equals_np_quantile(data):
    # ties (values on a coarse grid), a single entry, levels near 0 and 1,
    # and pooled values of which only a middle run is held
    total = data.draw(st.integers(1, 80), label="total")
    grid = data.draw(st.sampled_from([0.0, 0.5, 1e-3]), label="grid")
    pooled = np.array(data.draw(st.lists(
        st.floats(-1e3, 1e3, allow_nan=False), min_size=total,
        max_size=total), label="pooled"))
    if grid:
        pooled = np.round(pooled / grid) * grid
    level = data.draw(st.sampled_from([5e-324, 1e-12, 1e-3, 0.5, 0.95,
                                       1 - 1e-3, 1 - 1e-12, 1 - 2 ** -53])
                      | st.floats(0.0, 1.0, exclude_min=True,
                                  exclude_max=True), label="level")
    below = data.draw(st.integers(0, total), label="below")
    above = data.draw(st.integers(0, total - below), label="above")
    held = np.sort(pooled)[below:total - above]
    held = held[np.random.default_rng(total).permutation(len(held))]
    expected = float(np.quantile(pooled, level))
    got = hqs._order_quantile(held, level, total, below)
    k = math.floor((total - 1) * level)
    if below <= k and min(k + 1, total - 1) < total - above:
        assert got == expected
    else:
        assert got is None
    if below == above == 0:
        assert got == expected


# ---------------------------------------------------------------------------
# the explicit-entry eDDT tests of test_thresholds.py, on the streamed pass


@pytest.mark.parametrize("rows", [None, 1])
def test_streamed_degenerate_ensemble(monkeypatch, rows):
    if rows is not None:
        _rows_per_block(monkeypatch, 4, rows)
    ens = NullEnsemble(moments=MOMENTS, n=4, seed=0,
                       logit_entries=np.full((3, 6), 2.5))
    for q in (0.1, 0.5, 0.95):
        null = null_exceedances(ens, q)
        assert null.gamma == 2.5
        assert not null.counts.any()


@pytest.mark.parametrize("rows", [None, 3])
def test_streamed_pooling_is_order_free(monkeypatch, rows):
    if rows is not None:
        _rows_per_block(monkeypatch, 12, rows)
    ens = generate_null(MOMENTS, n=12, size=8, seed=5)
    permuted = NullEnsemble(moments=MOMENTS, n=12, seed=0,
                            logit_entries=ens.logit_entries[::-1].copy())
    forward = null_exceedances(ens, 0.95)
    backward = null_exceedances(permuted, 0.95)
    assert forward.gamma == backward.gamma
    assert np.array_equal(forward.counts, backward.counts)


def test_streamed_empty_ensemble_error():
    with pytest.raises(ValidationError):
        null_exceedances(NullStream(MOMENTS, n=4, size=0), 0.95)


# ---------------------------------------------------------------------------
# the pipeline


def _planted_cohort(n, subjects, seed):
    """Node 0's edges shifted in group 2, so the logit-scale mean is positive."""
    rng = np.random.default_rng(seed)
    iu, _ = triu_index_pairs(n)
    shift = np.where(iu == 0, 0.8, 0.0)

    def group(delta):
        return np.vstack([rng.normal(size=len(iu)) + delta
                          for _ in range(subjects)])
    return ConnectivityCohort(group(0.0), group(shift))


@pytest.mark.parametrize("rows", [None, 5])
def test_each_eddt_rule_selects_its_own_quantile(monkeypatch, rows):
    n, size, seed = 11, 23, 9
    if rows is not None:
        _rows_per_block(monkeypatch, n, rows)
    run = ddt_run(_planted_cohort(n, 8, seed=2), {})
    rules = {"median": ThresholdRule("eddt", 0.5),
             "eddt": ThresholdRule("eddt", 0.95)}
    results = degree_tests(run.pvalues, run.difference, rules, size, 0.05,
                           seed)
    assert list(results) == list(rules)
    for name, rule in rules.items():
        result = results[name]
        entries = generate_null(result.moments, n, size, seed).logit_entries
        assert result.gamma == float(np.quantile(entries, rule.level))
        _, p_null, fraction = _mask_oracle(entries, result.gamma, n)
        assert np.array_equal(result.nodes.p_null, p_null)
        assert result.flags["null_edge_fraction"] == fraction


@pytest.mark.parametrize("kind", ["eddt", "addt"])
def test_ddt_run_null_stage_matches_the_materialized_ensemble(monkeypatch, kind):
    # eDDT counts its own ensemble, so it matches that ensemble's mask
    # exactly; aDDT's p_null = 1 - F(gamma) is the law's exceedance
    # probability, which a large independent ensemble estimates per edge
    # from M iid networks, within 5 binomial standard errors
    n, seed = 16, 21
    size = 50 if kind == "eddt" else 4000
    _rows_per_block(monkeypatch, n, 6)
    cohort = _planted_cohort(n, 8, seed=2)
    rule = ThresholdRule(kind=kind)
    result = ddt_run(cohort, {kind: rule}, ensemble_size=size,
                     seed=seed).ddt[kind]
    entries = generate_null(result.moments, n, size, seed).logit_entries
    p_null = result.nodes.p_null
    if kind == "eddt":
        assert result.gamma == float(np.quantile(entries, rule.level))
        _, expected, fraction = _mask_oracle(entries, result.gamma, n)
        assert np.array_equal(p_null, expected)
        assert result.flags["null_edge_fraction"] == fraction
        return
    p = 1.0 - mixture_cdf(result.moments, result.gamma)
    assert np.all(p_null == p)
    assert result.flags["null_edge_fraction"] == p
    assert p == pytest.approx(1.0 - rule.level, abs=1e-9)
    per_edge = (entries > result.gamma).mean(axis=0)
    assert np.all(np.abs(per_edge - p) <= 5.0 * math.sqrt(p * (1 - p) / size))


def _no_null_network(self):
    raise AssertionError("a null network was generated")


def test_fixed_thresholds_generate_no_null_network(monkeypatch):
    monkeypatch.setattr(NullStream, "blocks", _no_null_network)
    cohort = _planted_cohort(16, 8, seed=2)
    run = ddt_run(cohort, {"addt": ThresholdRule(kind="addt")},
                  ensemble_size=1000, seed=4)
    assert run.ddt["addt"].flags["null_edge_fraction"] > 0.0
    pmat, dn = run.pvalues, run.difference
    rules = {"addt": ThresholdRule("addt"), "hard": ThresholdRule("hard"),
             "bonferroni": ThresholdRule("bonferroni", 0.05),
             "fdr": ThresholdRule("fdr", 0.05)}
    assert list(degree_tests(pmat, dn, rules, 1000, 0.05, seed=4)) == list(rules)
    # the check on the ensemble size holds for every rule
    with pytest.raises(ValidationError, match="ensemble size"):
        degree_tests(pmat, dn, rules, 0, 0.05, seed=4)
    # and an eDDT rule does stream the ensemble
    with pytest.raises(AssertionError, match="null network"):
        degree_tests(pmat, dn, {"eddt": ThresholdRule("eddt")}, 10, 0.05,
                     seed=4)

    design = SimDesign(q=6, targets=(1,), n_nodes=16, n1=10, n2=10, seed=4,
                       null_networks=1000, methods=("addt", "binb"),
                       edge_rules=("addt", "fdr"))
    out = run_replicate(design, base_network(design), 0,
                        experiment_rules(design))
    assert not out.errors
    assert set(out.node_counts) == {"addt", "binb"}
    assert set(out.edge_counts) == {"addt", "fdr"}


def test_eddt_run_memory_does_not_grow_with_the_ensemble():
    n, size = 150, 2000
    ensemble_bytes = size * (n * (n - 1) // 2) * 8
    cohort = _planted_cohort(n, 10, seed=4)
    tracemalloc.start()
    try:
        ddt_run(cohort, {"eddt": ThresholdRule(kind="eddt")}, ensemble_size=size,
                seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one row block, its comparison masks and the entries inside the
    # quantile bracket; the ensemble is 43 times the block budget
    assert ensemble_bytes > 40 * hqs._BLOCK_BYTES
    assert peak < 3 * hqs._BLOCK_BYTES
