"""Acceptance suite.

One test per acceptance criterion; each prints a pass/fail line per
sub-check (visible with -v / -rA / -s) and fails if any sub-check fails.
The heavy synthetic-benchmark fixtures are shared across criteria.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest
from scipy import stats

from ddtnet.baselines import binomial_tails
from ddtnet.cli import main as cli_main
from ddtnet.hqs import MomentSummary, generate_null, mixture_sample
from ddtnet.io import write_matrix_csv
from ddtnet.simulate import SimDesign, matthews_corrcoef, run_experiment
from ddtnet.thresholds import addt_threshold, benjamini_hochberg, eddt_threshold

THREADS = 2


def _report(label: str, checks: list[tuple[str, bool]]):
    failed = [name for name, ok in checks if not ok]
    for name, ok in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {label}: {name}")
    assert not failed, f"{label} failed sub-checks: {failed}"


# ---------------------------------------------------------------------------
# shared experiments


def _benchmark_design(q: int, targets=(1,), seed=20260801,
                      **rules) -> SimDesign:
    return SimDesign(structure="random", n_nodes=35, n1=20, n2=20, q=q,
                     targets=targets, replicates=500, seed=seed,
                     null_networks=100, **rules)


@pytest.fixture(scope="module")
def benchmark_q11():
    return run_experiment(_benchmark_design(q=11), threads=THREADS)


@pytest.fixture(scope="module")
def benchmark_q4():
    return run_experiment(_benchmark_design(q=4, seed=20260802), threads=THREADS)


@pytest.fixture(scope="module")
def three_targets_q7():
    design = _benchmark_design(q=7, targets=(1, 2, 3), seed=20260803,
                               edge_rules=("addt", "eddt", "bonferroni", "fdr"))
    return run_experiment(design, threads=THREADS)


@pytest.fixture(scope="module")
def pure_null():
    design = SimDesign(structure="random", n_nodes=35, n1=20, n2=20, q=1,
                       targets=(), replicates=500, seed=20260804,
                       null_networks=100)
    return run_experiment(design, threads=THREADS)


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_hqs_moment_matching():
    # pooled mean within 0.01 of 1.0 and variance within 0.02 of 0.5 over
    # >= 1e6 generated off-diagonal entries, under 30 s
    t0 = time.perf_counter()
    ms = MomentSummary.from_moments(1.0, 0.5, m=2)
    ens = generate_null(ms, n=200, size=300, seed=20260805)
    pooled = ens.pooled_logit_values()
    elapsed = time.perf_counter() - t0
    checks = [
        (f"pooled entries {pooled.size} >= 1e6", pooled.size >= 1_000_000),
        (f"|mean - 1.0| = {abs(pooled.mean() - 1.0):.5f} < 0.01",
         abs(pooled.mean() - 1.0) < 0.01),
        (f"|variance - 0.5| = {abs(pooled.var() - 0.5):.5f} < 0.02",
         abs(pooled.var() - 0.5) < 0.02),
        (f"runtime {elapsed:.1f}s < 30s", elapsed < 30.0),
    ]
    _report("criterion 1 (moment matching)", checks)


def test_criterion_02_mixture_equivalence():
    # generated Gram entries vs direct mixture draws: KS < 0.01 on 1e5 each
    ms = MomentSummary.from_moments(0.1, 1.0, m=2)
    ens = generate_null(ms, n=24, size=363, seed=20260806)
    a = ens.pooled_logit_values()[:100_000]
    b = mixture_sample(ms, 100_000, seed=20260807)
    ks = stats.ks_2samp(a, b).statistic
    _report("criterion 2 (mixture equivalence)", [
        (f"two-sample KS = {ks:.5f} < 0.01 on 1e5 samples each", ks < 0.01),
    ])


def test_criterion_03_closed_form_threshold():
    # mu=0, sigma2=1, m=2: the null edge law is standard Laplace and the
    # 95th quantile is -ln(0.1)
    ms = MomentSummary(ebar=0.0, vbar=2.0, m=2, mu=0.0, sigma2=1.0)
    gamma = addt_threshold(ms, q=0.95)
    target = -math.log(0.1)
    _report("criterion 3 (closed-form threshold)", [
        (f"aDDT q95 = {gamma:.5f} vs {target:.5f} (+/- 0.02)",
         abs(gamma - target) < 0.02),
    ])


def test_criterion_04_benchmark_fpr(benchmark_q11):
    r = benchmark_q11
    addt, eddt = r.metric("addt"), r.metric("eddt")
    t10, binb = r.metric("t10"), r.metric("binb")
    checks = [
        (f"aDDT FPR = {addt.fpr:.4f} in 0.020 +/- 0.015",
         abs(addt.fpr - 0.020) <= 0.015),
        (f"eDDT FPR = {eddt.fpr:.4f} in 0.046 +/- 0.015",
         abs(eddt.fpr - 0.046) <= 0.015),
        (f"T10 FPR = {t10.fpr:.4f} in 0.05 +/- 0.015",
         abs(t10.fpr - 0.05) <= 0.015),
        (f"Bin_B FPR = {binb.fpr:.4f} <= 0.01", binb.fpr <= 0.01),
    ]
    _report("criterion 4 (benchmark FPR)", checks)


def test_criterion_05_benchmark_tpr(benchmark_q11, benchmark_q4):
    r = benchmark_q11
    addt, eddt = r.metric("addt"), r.metric("eddt")
    binb, t10 = r.metric("binb"), r.metric("t10")
    eddt4 = benchmark_q4.metric("eddt")
    binb4 = benchmark_q4.metric("binb")
    checks = [
        (f"aDDT TPR = {addt.tpr:.3f} in 0.893 +/- 0.08",
         abs(addt.tpr - 0.893) <= 0.08),
        (f"eDDT TPR = {eddt.tpr:.3f} in 0.885 +/- 0.08",
         abs(eddt.tpr - 0.885) <= 0.08),
        (f"Bin_B TPR = {binb.tpr:.3f} in 0.694 +/- 0.10",
         abs(binb.tpr - 0.694) <= 0.10),
        (f"T10 TPR = {t10.tpr:.3f} in 0.450 +/- 0.10",
         abs(t10.tpr - 0.450) <= 0.10),
        (f"q=4: eDDT TPR {eddt4.tpr:.3f} > Bin_B TPR {binb4.tpr:.3f}",
         eddt4.tpr > binb4.tpr),
    ]
    _report("criterion 5 (benchmark TPR)", checks)


def test_criterion_06_node_mcc_ordering(three_targets_q7):
    r = three_targets_q7
    mcc = {m: r.metric(m).mcc for m in ("addt", "eddt", "binb", "binf", "t10")}
    checks = []
    for ddt_method in ("addt", "eddt"):
        for baseline in ("binb", "binf", "t10"):
            checks.append((
                f"{ddt_method} MCC {mcc[ddt_method]:.3f} > "
                f"{baseline} MCC {mcc[baseline]:.3f}",
                mcc[ddt_method] > mcc[baseline]))
    _report("criterion 6 (node MCC ordering)", checks)


def test_criterion_07_edge_mcc_ordering(three_targets_q7):
    # DWE proportions 5/10/20% of a target's 34 possible edges: q = 2, 3, 7
    checks = []
    for q, result in ((2, None), (3, None), (7, three_targets_q7)):
        if result is None:
            design = _benchmark_design(
                q=q, targets=(1, 2, 3), seed=20260810 + q, methods=(),
                edge_rules=("addt", "eddt", "bonferroni", "fdr"))
            result = run_experiment(design, threads=THREADS)
        mcc = {r_: result.metric(r_, scope="edge").mcc
               for r_ in ("addt", "eddt", "bonferroni", "fdr")}
        for adaptive in ("addt", "eddt"):
            for corr in ("bonferroni", "fdr"):
                checks.append((
                    f"q={q}: {adaptive} edge MCC {mcc[adaptive]:.3f} > "
                    f"{corr} {mcc[corr]:.3f}",
                    mcc[adaptive] > mcc[corr]))
    _report("criterion 7 (edge MCC ordering)", checks)


def test_criterion_08_exact_test_oracles():
    checks = []
    # binomial upper tail vs full outcome enumeration, n <= 12
    worst = 0.0
    for n in range(1, 13):
        for p in (0.0, 0.05, 0.3, 0.5, 0.77, 1.0):
            for k in range(n + 1):
                exact = sum((p ** bin(o).count("1"))
                            * ((1 - p) ** (n - bin(o).count("1")))
                            for o in range(2 ** n)
                            if bin(o).count("1") >= k)
                worst = max(worst, abs(binomial_tails(k, n, p) - exact))
    checks.append((f"binomial vs enumeration, worst |diff| = {worst:.2e} <= 1e-12",
                   worst <= 1e-12))

    # Wilcoxon exact vs rank-assignment enumeration for n1 + n2 <= 10
    from ddtnet.edgetests import wilcoxon_pvalues
    rng = np.random.default_rng(20260811)
    worst_w = 0.0
    for n1, n2 in ((2, 2), (2, 3), (3, 3), (3, 4), (4, 4), (4, 5), (5, 5), (2, 8)):
        for _ in range(4):
            x = rng.normal(size=n1)
            y = rng.normal(0.5, size=n2)
            pooled = np.concatenate([x, y])
            ranks = stats.rankdata(pooled)
            w_obs = ranks[:n1].sum()
            ws = np.array([ranks[list(idx)].sum() for idx in
                           itertools.combinations(range(n1 + n2), n1)])
            exact = min(1.0, 2 * min(np.mean(ws <= w_obs + 1e-12),
                                     np.mean(ws >= w_obs - 1e-12)))
            got = wilcoxon_pvalues(x[:, None], y[:, None])[0]
            worst_w = max(worst_w, abs(got - exact))
    checks.append((f"wilcoxon exact vs enumeration, worst |diff| = {worst_w:.2e}",
                   worst_w <= 1e-12))

    # BH step-up on the 4-p-value example
    reject = benjamini_hochberg(np.array([0.01, 0.02, 0.04, 0.9]), 0.05)
    checks.append(("BH rejects exactly {0.01, 0.02} of the 4-p example",
                   list(reject) == [True, True, False, False]))

    # MCC direct arithmetic
    got = matthews_corrcoef(2, 1, 31, 1)
    checks.append((f"MCC(2,1,31,1) = {got:.6f} == 61/96",
                   got == pytest.approx(61 / 96, abs=1e-12)))
    _report("criterion 8 (exact-test oracles)", checks)


def test_criterion_09_null_calibration(pure_null):
    checks = []
    for method in ("addt", "eddt", "binb", "binf", "t10"):
        row = pure_null.metric(method)
        neg = row.counts.fp + row.counts.tn
        se = math.sqrt(0.05 * 0.95 / max(neg, 1))
        bound = 0.05 + 3 * se
        checks.append((
            f"{method} null rejection {row.fpr:.4f} <= {bound:.4f} "
            f"(used {row.replicates_used}/{500})",
            row.fpr <= bound))

    # edge-selection fraction at the 0.95 adaptive threshold on
    # self-generated nulls
    ms = MomentSummary.from_moments(1.0, 0.5, m=2)
    gamma_a = addt_threshold(ms, 0.95)
    cal = generate_null(ms, n=60, size=400, seed=20260812)
    gamma_e = eddt_threshold(cal, 0.95)
    frac_a, frac_e = [], []
    for rep in range(150):
        ens = generate_null(ms, n=60, size=1, seed=20260813 + rep)
        frac_a.append(float((ens.logit_entries > gamma_a).mean()))
        frac_e.append(float((ens.logit_entries > gamma_e).mean()))
    for name, frac in (("aDDT", np.mean(frac_a)), ("eDDT", np.mean(frac_e))):
        checks.append((
            f"{name} null edge fraction {frac:.4f} in 0.05 +/- 0.005",
            abs(frac - 0.05) <= 0.005))
    _report("criterion 9 (null calibration)", checks)


def test_criterion_10_determinism(tmp_path):
    # byte-identical CSVs for ddt run and ddt simulate reruns
    rng = np.random.default_rng(20260814)
    n = 8
    base = rng.uniform(-0.2, 0.2, size=(n, n))
    base = (base + base.T) / 2
    manifest = {"group1": [], "group2": [], "seed": 77, "null_networks": 60,
                "threshold": {"kind": "eddt", "level": 0.95}}
    for g, shift in (("group1", 0.0), ("group2", 0.5)):
        for s in range(4):
            d = base + rng.normal(0, 0.02, size=(n, n))
            d = (d + d.T) / 2 + shift
            np.fill_diagonal(d, 1.0)
            write_matrix_csv(tmp_path / f"{g}_{s}.csv", d)
            manifest[g].append(f"{g}_{s}.csv")
    mpath = tmp_path / "run.json"
    mpath.write_text(json.dumps(manifest))
    for out in ("a", "b"):
        code = cli_main(["--quiet", "run", "--manifest", str(mpath),
                         "--out", str(tmp_path / out)])
        assert code == 0
    run_identical = all(
        (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
        for f in ("nodes.csv", "difference_network.csv", "adjacency.csv"))

    design = {"n_nodes": 14, "n1": 8, "n2": 8, "q": 5, "targets": [1],
              "replicates": 4, "seed": 3, "null_networks": 25,
              "resolution": 20000, "methods": ["addt", "t10"]}
    dpath = tmp_path / "design.json"
    dpath.write_text(json.dumps(design))
    for out in ("sa", "sb"):
        code = cli_main(["--quiet", "--threads", "1", "simulate",
                         "--design", str(dpath), "--out", str(tmp_path / out)])
        assert code == 0
    sim_identical = all(
        (tmp_path / "sa" / f).read_bytes() == (tmp_path / "sb" / f).read_bytes()
        for f in ("metrics.csv", "replicates.csv.gz"))
    _report("criterion 10 (determinism)", [
        ("ddt run rerun produces byte-identical CSVs", run_identical),
        ("ddt simulate rerun produces byte-identical outputs", sim_identical),
    ])
