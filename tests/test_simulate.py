import concurrent.futures as futures
import math
from dataclasses import replace

import numpy as np
import pytest

from ddtnet import core, simulate
from ddtnet.core import ValidationError, pool_size, substream, triu_index_pairs
from ddtnet.degree_test import ddt_run
from ddtnet.edgetests import EdgeTestConfig
from ddtnet.thresholds import baseline_threshold
from ddtnet.simulate import (
    ConfusionCounts,
    SimDesign,
    base_network,
    experiment_rules,
    matthews_corrcoef,
    run_experiment,
    run_replicate,
    score,
    simulate_cohort,
)


def test_base_network_random_properties():
    b = base_network(SimDesign(base_edge_sd=math.sqrt(0.04), seed=1))
    dense = b.to_dense()
    assert np.array_equal(dense, dense.T)
    assert np.all(np.diag(dense) == 0.0)
    off = b.values
    assert np.all(off != 0.0)                 # no structural zeros
    assert np.all((off >= -0.9) & (off <= 0.9))
    assert abs(off.std() - 0.2) < 0.02


def test_base_network_deterministic():
    b1 = base_network(SimDesign(n_nodes=20, base_edge_sd=0.2, seed=7))
    b2 = base_network(SimDesign(n_nodes=20, base_edge_sd=0.2, seed=7))
    assert np.array_equal(b1.values, b2.values)
    b3 = base_network(SimDesign(n_nodes=20, base_edge_sd=0.2, seed=8))
    assert not np.array_equal(b1.values, b3.values)


def test_base_network_smallworld_sparse_clustered():
    design = SimDesign(structure="smallworld", base_edge_sd=0.2, seed=3)
    b = base_network(design)
    present = b.values != 0.0
    assert present.sum() == 35 * 4 // 2       # lattice keeps n*k/2 edges
    assert np.all(b.values[present] > 0)      # unsigned weights by default
    signed = base_network(replace(design, sw_signed=True, sw_weight_mean=0.0,
                                  sw_weight_sd=0.2))
    assert np.any(signed.values < 0)


def test_base_network_hybrid_block_structure():
    b = base_network(SimDesign(structure="hybrid", n_nodes=32,
                               base_edge_sd=0.2, seed=5, between_density=0.05))
    dense = b.to_dense()
    blocks = np.repeat([0, 1, 2, 3], 8)
    iu, ju = triu_index_pairs(32)
    within = blocks[iu] == blocks[ju]
    dens_within = np.mean(dense[iu, ju][within] != 0)
    dens_between = np.mean(dense[iu, ju][~within] != 0)
    assert dens_within > 3 * dens_between


def test_base_network_rejects_unknown_structure():
    # base_network reads a SimDesign, and no SimDesign has another structure
    with pytest.raises(ValidationError, match="random, smallworld, hybrid"):
        base_network(SimDesign(structure="lattice", n_nodes=10))


def test_simulate_cohort_ground_truth():
    design = SimDesign(q=4, targets=(1,), n_nodes=10, n1=3, n2=3, seed=0)
    base = base_network(design)
    sim = simulate_cohort(design, base, replicate_seed=5)
    assert sim.dwe_edges.sum() == 4
    iu, ju = triu_index_pairs(10)
    touched = set(iu[sim.dwe_edges]) | set(ju[sim.dwe_edges])
    assert 0 in touched and len(touched) == 5     # node 1 (0-based 0) + 4 partners
    assert sim.target_nodes[0] and sim.target_nodes.sum() == 1


def test_simulate_cohort_multi_target_no_overlap():
    design = SimDesign(q=7, targets=(1, 2, 3), n_nodes=35, n1=2, n2=2, seed=1)
    base = base_network(design)
    for rep in range(5):
        sim = simulate_cohort(design, base, replicate_seed=rep)
        assert sim.dwe_edges.sum() == 21          # exactly |I| * q edges
        iu, ju = triu_index_pairs(35)
        for t in (0, 1, 2):
            incident = (iu == t) | (ju == t)
            assert (sim.dwe_edges & incident).sum() == 7


def test_simulate_cohort_injection_mean():
    design = SimDesign(q=11, targets=(1,), n_nodes=35, n1=20, n2=20,
                       seed=3, dwe_mean=0.1)
    base = base_network(design)
    diffs = []
    for rep in range(40):
        sim = simulate_cohort(design, base, replicate_seed=rep)
        x1 = sim.cohort.x1[:, sim.dwe_edges]
        x2 = sim.cohort.x2[:, sim.dwe_edges]
        diffs.append((x2.mean() - x1.mean()))
    assert np.mean(diffs) == pytest.approx(0.1, abs=0.01)


def test_simulate_cohort_null_design_exchangeable():
    # empty target set via q irrelevant: use targets=() is invalid per the
    # 1-based contract, so emulate a null by zero injected mean
    design = SimDesign(q=4, targets=(1,), n_nodes=12, n1=10, n2=10,
                       seed=9, dwe_mean=0.0)
    base = base_network(design)
    sim = simulate_cohort(design, base, replicate_seed=0)
    x1 = sim.cohort.x1
    x2 = sim.cohort.x2
    # same construction, no shift: group means agree within noise
    se = math.sqrt(2 * 0.02 / (10 * len(x1[0])))
    assert abs(x1.mean() - x2.mean()) < 5 * se


def _per_subject_draws(design, base, replicate_seed):
    """The cohort drawn one subject at a time: the partners of each target,
    then each group-1 subject's noise, then each group-2 subject's noise
    followed by its injected-edge draws."""
    rng = np.random.default_rng(replicate_seed)
    n = design.n_nodes
    iu, ju = triu_index_pairs(n)
    targets0 = [t - 1 for t in design.targets]
    available = [j for j in range(n) if j not in targets0]
    taken = np.zeros((n, n), dtype=bool)
    for t in targets0:
        partners = rng.choice(available, size=design.q, replace=False)
        taken[t, partners] = taken[partners, t] = True
    dwe = taken[iu, ju]
    groups = []
    for n_subj, inject in ((design.n1, False), (design.n2, True)):
        rows = []
        for _ in range(n_subj):
            w = rng.normal(0.0, design.subject_noise_sd, size=len(iu))
            if inject:
                w[dwe] = rng.normal(design.dwe_mean, design.subject_noise_sd,
                                    size=int(dwe.sum()))
            rows.append(np.clip(base.values + w, -1.0, 1.0))
        groups.append(np.vstack(rows))
    return dwe, groups


@pytest.mark.parametrize("structure,n_nodes,n1,n2,targets,seed", [
    ("random", 35, 20, 20, (1, 2, 3), 7),
    ("smallworld", 12, 2, 5, (4,), 0),
    ("hybrid", 20, 9, 3, (1, 20), 123456789),
])
def test_simulate_cohort_equals_per_subject_draws(structure, n_nodes, n1, n2,
                                                  targets, seed):
    design = SimDesign(structure=structure, n_nodes=n_nodes, n1=n1, n2=n2,
                       q=3, targets=targets, seed=seed)
    base = base_network(design)
    sim = simulate_cohort(design, base, replicate_seed=seed + 1)
    dwe, (x1, x2) = _per_subject_draws(design, base, seed + 1)
    assert np.array_equal(sim.dwe_edges, dwe)
    assert sim.cohort.x1.tobytes() == x1.tobytes()
    assert sim.cohort.x2.tobytes() == x2.tobytes()
    iu, ju = triu_index_pairs(n_nodes)
    touched = np.zeros(n_nodes, dtype=bool)
    touched[iu[dwe]] = touched[ju[dwe]] = True
    assert np.array_equal(sim.incident_nodes, touched & ~sim.target_nodes)


def test_simulate_cohort_q_capacity_error():
    # q = 34 needs 34 non-target partners but only 33 exist with two targets
    with pytest.raises(ValidationError, match="only 33 non-target partners"):
        SimDesign(q=34, targets=(1, 2), n_nodes=35, n1=2, n2=2, seed=0)
    design = SimDesign(q=33, targets=(1, 2), n_nodes=35, n1=2, n2=2, seed=0)
    sim = simulate_cohort(design, base_network(design), replicate_seed=1)
    assert sim.dwe_edges.sum() == 66


def test_design_validation():
    with pytest.raises(ValidationError):
        SimDesign(structure="ring")
    with pytest.raises(ValidationError):
        SimDesign(q=40, n_nodes=35)
    with pytest.raises(ValidationError):
        SimDesign(targets=(0,))              # 1-based
    with pytest.raises(ValidationError):
        SimDesign(targets=(1, 1))
    with pytest.raises(ValidationError, match="null_networks"):
        SimDesign(null_networks=0)
    with pytest.raises(ValidationError, match="seed"):
        SimDesign(seed=-1)
    for alpha in (0.0, 1.0, float("nan")):
        with pytest.raises(ValidationError, match="alpha"):
            SimDesign(alpha=alpha)
    # lists of methods and edge rules are stored as tuples
    design = SimDesign(methods=["addt"], edge_rules=["fdr"])
    assert design.methods == ("addt",) and design.edge_rules == ("fdr",)


def test_score_and_mcc_examples():
    # tp=2, fp=1, fn=1, tn=31: MCC = 61/96
    assert matthews_corrcoef(2, 1, 31, 1) == pytest.approx(61 / 96)
    assert matthews_corrcoef(0, 0, 10, 3) == 0.0     # zero-denominator rule
    pred = np.zeros(35, dtype=bool)
    truth = np.zeros(35, dtype=bool)
    pred[:3] = truth[:3] = True
    counts = score(pred, truth)
    assert counts.mcc == 1.0
    assert counts.tpr == 1.0 and counts.fpr == 0.0


def test_score_exclusion_mask():
    pred = np.array([True, True, False, False])
    truth = np.array([True, False, False, False])
    excl = np.array([False, True, False, False])
    counts = score(pred, truth, exclude=excl)
    assert (counts.tp, counts.fp, counts.tn, counts.fn) == (1, 0, 2, 0)


def test_score_shape_mismatch():
    with pytest.raises(ValidationError):
        score(np.zeros(3, bool), np.zeros(4, bool))


def test_confusion_counts_addition():
    a = ConfusionCounts(1, 2, 3, 4)
    b = ConfusionCounts(10, 20, 30, 40)
    c = a + b
    assert (c.tp, c.tn, c.fp, c.fn) == (11, 22, 33, 44)


def test_run_replicate_records_method_error_on_null_signal():
    # a pure-noise design with a tiny network frequently yields a
    # nonpositive logit-scale mean; errors are recorded, not raised, and
    # every other method and edge rule is still scored
    design = SimDesign(q=1, targets=(1,), n_nodes=10, n1=5, n2=5,
                       dwe_mean=0.0, seed=2, null_networks=20,
                       methods=("addt", "eddt", "binb", "binf", "t10"),
                       edge_rules=("bonferroni",))
    base = base_network(design)
    rules = experiment_rules(design)
    seen_error = seen_ok = False
    for rep in range(12):
        out = run_replicate(design, base, rep, rules)
        if "addt" in out.errors:
            seen_error = True
            assert set(out.errors) == {"addt", "eddt"}
            assert set(out.node_counts) == {"binb", "binf", "t10"}
        else:
            seen_ok = True
            assert not out.errors
            assert set(out.node_counts) == set(design.methods)
        assert set(out.edge_counts) == {"bonferroni"}
    assert seen_error and seen_ok


def test_run_replicate_scores_the_decisions_of_ddt_run():
    design = SimDesign(q=5, targets=(1, 7), n_nodes=14, n1=6, n2=6, seed=9,
                       null_networks=30, dwe_mean=0.3,
                       edge_rules=("addt", "eddt", "hard_0.95", "bonferroni",
                                   "fdr"))
    base = base_network(design)
    rules = experiment_rules(design)
    ddt_rules = {name: rules[name] for name in ("addt", "eddt")}
    for rep in range(3):
        out = run_replicate(design, base, rep, rules)
        rep_rng = substream(design.seed, 1, rep)
        sim_seed, edge_seed, null_seed = (int(rep_rng.integers(2 ** 63))
                                          for _ in range(3))
        sim = simulate_cohort(design, base, sim_seed)
        result = ddt_run(
            sim.cohort, ddt_rules, ("binb", "binf", "t10"),
            test_cfg=EdgeTestConfig(method=design.edge_test, seed=edge_seed),
            ensemble_size=design.null_networks, alpha=design.alpha,
            seed=null_seed, density=design.density, ranking=design.ranking)
        assert result.error is None
        decisions = {name: r.nodes.significant for name, r in result.ddt.items()}
        decisions.update((name, tests.significant)
                         for name, tests in result.baselines.items())
        edges = {name: r.adjacency.values for name, r in result.ddt.items()}
        edges.update((name, baseline_threshold(result.pvalues, rules[name]).values)
                     for name in ("hard_0.95", "bonferroni", "fdr"))
        assert list(out.node_counts.items()) == [
            (name, score(dec, sim.target_nodes, exclude=sim.incident_nodes))
            for name, dec in decisions.items()]
        assert list(out.edge_counts.items()) == [
            (name, score(det, sim.dwe_edges)) for name, det in edges.items()]
        assert not out.errors


def test_run_experiment_smoke_and_determinism():
    design = SimDesign(q=6, targets=(1,), n_nodes=16, n1=10, n2=10,
                       replicates=8, seed=4, null_networks=30,
                       methods=("addt", "binb", "t10"),
                       edge_rules=("addt", "bonferroni"))
    r1 = run_experiment(design)
    r2 = run_experiment(design)
    assert [m.tpr for m in r1.metrics] == [m.tpr for m in r2.metrics]
    row = r1.metric("addt")
    assert row.replicates_used + row.errors == 8
    edge_row = r1.metric("bonferroni", scope="edge")
    assert edge_row.counts.tp + edge_row.counts.fn == 6 * row.replicates_used \
        or edge_row.counts.tp + edge_row.counts.fn == 6 * 8


def test_run_experiment_parallel_matches_serial():
    design = SimDesign(q=5, targets=(1,), n_nodes=14, n1=8, n2=8,
                       replicates=6, seed=11, null_networks=25,
                       methods=("addt", "t10"))
    serial = run_experiment(design)
    parallel = run_experiment(design, threads=2)
    for ms, mp in zip(serial.metrics, parallel.metrics):
        assert ms.tpr == mp.tpr and ms.fpr == mp.fpr and ms.mcc == mp.mcc


def test_run_experiment_rejects_unknown_method():
    design = SimDesign(replicates=1, methods=("nbs",))
    with pytest.raises(ValidationError):
        run_experiment(design)


@pytest.mark.parametrize("settings", [{"level": 1.5}, {"level": 0.0},
                                      {"level": "x"}])
def test_run_experiment_rejects_bad_rule_settings_before_replicates(
        monkeypatch, settings):
    def no_replicate(*args, **kwargs):
        raise AssertionError("a bad rule must fail before any replicate")
    monkeypatch.setattr(simulate, "run_replicate", no_replicate)
    design = SimDesign(replicates=2, methods=("addt", "eddt"), **settings)
    with pytest.raises(ValidationError):
        run_experiment(design)


def test_pool_size_is_capped_by_replicates_and_cpus(monkeypatch):
    monkeypatch.setattr(core, "usable_cpus", lambda: 4)
    assert pool_size(10 ** 9, 500) == 4
    assert pool_size(3, 2) == 2
    assert pool_size(1, 500) == 1
    monkeypatch.setattr(core, "usable_cpus", lambda: 1)
    assert pool_size(8, 500) == 1
    for bad in (0, -3):
        with pytest.raises(ValidationError):
            pool_size(bad, 5)


def test_usable_cpus_counts_the_affinity_mask(monkeypatch):
    # a process pinned to one CPU of a 64-CPU host gets one worker
    monkeypatch.setattr(core.os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(core.os, "cpu_count", lambda: 64)
    assert core.usable_cpus() == 1
    assert pool_size(8, 500) == 1
    # a platform without the affinity call falls back to the host's count
    monkeypatch.delattr(core.os, "sched_getaffinity")
    assert core.usable_cpus() == 64
    monkeypatch.setattr(core.os, "cpu_count", lambda: None)
    assert core.usable_cpus() == 1


def test_run_experiment_clamps_a_huge_thread_request(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a one-CPU run must not start a pool")
    monkeypatch.setattr(core, "usable_cpus", lambda: 1)
    monkeypatch.setattr(futures, "ProcessPoolExecutor", no_pool)
    design = SimDesign(q=5, targets=(1,), n_nodes=14, n1=8, n2=8,
                       replicates=2, seed=11, null_networks=25,
                       methods=("addt",))
    result = run_experiment(design, threads=10 ** 9)
    assert result.metric("addt").replicates_used == 2
