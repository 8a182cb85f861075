import csv
import json
import multiprocessing
import os
import resource
import subprocess
import sys
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ddtnet
from ddtnet import cli, core, degree_test, io, simulate
from ddtnet.cli import main
from ddtnet.core import ConnectivityCohort, upper_triangle
from ddtnet.degree_test import ddt_run
from ddtnet.io import load_run_manifest, read_matrix_csv, write_matrix_csv
from ddtnet.thresholds import ThresholdRule

RUN_OUTPUTS = ("nodes.csv", "difference_network.csv", "adjacency.csv",
               "gamma.json", "moments.json", "run_summary.json")


def _toy_cohort(tmp_path, n=6, subjects=3, seed=0):
    """Cohort with a strong planted difference so the moment stage succeeds."""
    rng = np.random.default_rng(seed)
    base = rng.uniform(-0.2, 0.2, size=(n, n))
    base = (base + base.T) / 2
    np.fill_diagonal(base, 1.0)
    files = {"group1": [], "group2": []}
    for g, shift in (("group1", 0.0), ("group2", 0.6)):
        for s in range(subjects):
            d = base + rng.normal(0, 0.02, size=(n, n))
            d = (d + d.T) / 2
            if shift:
                bump = np.zeros((n, n))
                bump[np.triu_indices(n, 1)] = shift
                d += bump + bump.T
            np.fill_diagonal(d, 1.0)
            name = f"{g}_{s}.csv"
            write_matrix_csv(tmp_path / name, d)
            files[g].append(name)
    return files


def _manifest(tmp_path, **extra):
    files = _toy_cohort(tmp_path)
    manifest = {
        "group1": files["group1"],
        "group2": files["group2"],
        "seed": 31,
        "null_networks": 60,
        "threshold": {"kind": "addt", "level": 0.95, "resolution": 50_000},
    }
    if "cohort" in extra:    # a cohort block replaces the top-level groups
        del manifest["group1"], manifest["group2"]
    manifest.update(extra)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(manifest))
    return path


def test_run_produces_all_artifacts(tmp_path, capsys):
    manifest = _manifest(tmp_path)
    code = main(["run", "--manifest", str(manifest),
                 "--out", str(tmp_path / "results")])
    assert code == 0
    for name in RUN_OUTPUTS:
        assert (tmp_path / "results" / name).exists(), name
    header = (tmp_path / "results" / "nodes.csv").read_text().splitlines()[0]
    assert header == "node,label,degree,p_null,pvalue,significant"


def test_run_rerun_byte_identical(tmp_path):
    manifest = _manifest(tmp_path)
    assert main(["--quiet", "run", "--manifest", str(manifest),
                 "--out", str(tmp_path / "a")]) == 0
    assert main(["--quiet", "run", "--manifest", str(manifest),
                 "--out", str(tmp_path / "b")]) == 0
    for name in ("nodes.csv", "difference_network.csv", "adjacency.csv"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b, name


def test_run_with_baselines_adds_columns(tmp_path):
    manifest = _manifest(tmp_path, baselines=["t10", "binb", "binf"])
    assert main(["--quiet", "run", "--manifest", str(manifest),
                 "--out", str(tmp_path / "results")]) == 0
    header = (tmp_path / "results" / "nodes.csv").read_text().splitlines()[0]
    for col in ("t10_pvalue", "binb_degree", "binf_significant"):
        assert col in header



def test_run_frees_the_cohort_before_the_eddt_null_pass(tmp_path, monkeypatch):
    manifest = _manifest(tmp_path, baselines=["t10", "binb"],
                         threshold={"kind": "eddt", "level": 0.95})
    refs, passes = [], []
    real_load, real_pass = cli.load_cohort, degree_test.null_exceedances

    def load_cohort(*args, **kwargs):
        cohort = real_load(*args, **kwargs)
        refs.append(weakref.ref(cohort))
        return cohort

    def null_exceedances(source, level):
        assert refs and refs[0]() is None, "the cohort outlived its readers"
        passes.append(level)
        return real_pass(source, level)

    monkeypatch.setattr(cli, "load_cohort", load_cohort)
    monkeypatch.setattr(degree_test, "null_exceedances", null_exceedances)
    assert main(["--quiet", "run", "--manifest", str(manifest),
                 "--out", str(tmp_path / "results")]) == 0
    assert passes == [0.95]
    header = (tmp_path / "results" / "nodes.csv").read_text().splitlines()[0]
    assert header.startswith("node,label,degree,p_null,pvalue,significant")


def test_run_holds_one_subject_group_at_a_time(tmp_path, monkeypatch):
    # welch_t with t10: each group is reduced to moments as it loads, and
    # both groups are read into one buffer that is freed with the load.
    # One process: a pool's forked workers would run the patched
    # read_matrix_csv against their own stale copies of this test's state
    # (test_run_on_a_pool_hands_group_2_out_after_group_1 is the pool's).
    manifest = _manifest(tmp_path, baselines=["t10", "binb"],
                         threshold={"kind": "eddt", "level": 0.95})
    refs, buffers, events = [], [], []
    real_check, real_read = io.check_group, io.read_matrix_csv
    real_pass = degree_test.null_exceedances

    def check_group(x, g, sizes):
        checked = real_check(x, g, sizes)
        assert checked.shape == (3, 15)
        refs.extend((weakref.ref(x), weakref.ref(checked)))
        if g == 2:
            assert buffers[0]() is not None
            assert np.shares_memory(checked, buffers[0]()), (
                "group 2 was not read into group 1's buffer")
        buffers.append(weakref.ref(checked.base))
        return checked

    def read_matrix_csv(path, header=False):
        if Path(path).name == "group2_0.csv":
            assert len(refs) == 2, "group 2 read before group 1 was checked"
            assert all(ref() is None for ref in refs), (
                "group 1's subject array outlived its reduction")
            events.append("group 2")
        return real_read(path, header=header)

    def null_exceedances(source, level):
        assert len(refs) == 4 and all(ref() is None for ref in refs), (
            "a subject array is alive during the null pass")
        assert len(buffers) == 2 and buffers[1]() is None, (
            "the subject buffer is alive during the null pass")
        events.append("null pass")
        return real_pass(source, level)

    monkeypatch.setattr(io, "check_group", check_group)
    monkeypatch.setattr(io, "read_matrix_csv", read_matrix_csv)
    monkeypatch.setattr(degree_test, "null_exceedances", null_exceedances)
    assert main(["--quiet", "--threads", "1", "run", "--manifest",
                 str(manifest), "--out", str(tmp_path / "results")]) == 0
    assert events == ["group 2", "null pass"]
    header = (tmp_path / "results" / "nodes.csv").read_text().splitlines()[0]
    assert "t10_pvalue" in header and "binb_pvalue" in header


def test_run_on_a_pool_hands_group_2_out_after_group_1(tmp_path, monkeypatch):
    # the same load on a pool of 2, seen from the parent: group 2's files go
    # to the workers only after group 1 is checked and reduced, and no
    # subject array or buffer is alive in the null pass
    monkeypatch.setattr(core, "usable_cpus", lambda: 2)
    manifest = _manifest(tmp_path, baselines=["t10", "binb"],
                         threshold={"kind": "eddt", "level": 0.95})
    refs, events = [], []
    real_map = core.ProcessPoolExecutor.map
    real_check, real_reduce = io.check_group, degree_test.Reduction.__call__
    real_pass = degree_test.null_exceedances

    def pool_map(self, fn, paths, *iterables, **kwargs):
        paths = list(paths)
        events.append(("map", [Path(p).name for p in paths]))
        return real_map(self, fn, paths, *iterables, **kwargs)

    def check_group(x, g, sizes):
        checked = real_check(x, g, sizes)
        refs.extend((weakref.ref(checked), weakref.ref(checked.base)))
        events.append(("check", g))
        return checked

    def reduce(self, values):
        summary = real_reduce(self, values)
        events.append(("reduce", len(values)))
        return summary

    def null_exceedances(source, level):
        assert len(refs) == 4 and all(ref() is None for ref in refs), (
            "a subject array or the buffer is alive during the null pass")
        events.append("null pass")
        return real_pass(source, level)

    monkeypatch.setattr(core.ProcessPoolExecutor, "map", pool_map)
    monkeypatch.setattr(io, "check_group", check_group)
    monkeypatch.setattr(degree_test.Reduction, "__call__", reduce)
    monkeypatch.setattr(degree_test, "null_exceedances", null_exceedances)
    out = tmp_path / "results"
    assert main(["--quiet", "--threads", "2", "run", "--manifest",
                 str(manifest), "--out", str(out)]) == 0
    assert events == [
        ("map", ["group1_0.csv", "group1_1.csv", "group1_2.csv"]),
        ("check", 1), ("reduce", 3),
        ("map", ["group2_0.csv", "group2_1.csv", "group2_2.csv"]),
        ("check", 2), ("reduce", 3), "null pass"]
    summary = json.loads((out / "run_summary.json").read_text())
    assert summary["stages"]["load"]["workers"] == 2


def _unequal_cohort(tmp_path):
    """Groups of 3 and 4 subjects, n=8, differing on the edges among nodes
    0-3 only, and cov.csv, one covariate per subject."""
    rng = np.random.default_rng(12)
    files = {"group1": [], "group2": []}
    for key, subjects, shift in (("group1", 3, 0.0), ("group2", 4, 0.6)):
        for s in range(subjects):
            d = rng.normal(0.0, 0.1, size=(8, 8))
            d[:4, :4] += shift
            d = (d + d.T) / 2
            np.fill_diagonal(d, 1.0)
            write_matrix_csv(tmp_path / f"{key}_{s}.csv", d)
            files[key].append(f"{key}_{s}.csv")
    (tmp_path / "cov.csv").write_text(
        "".join(f"{v}\n" for v in (0.3, -1.2, 0.8, 1.5, -0.4, 0.1, -0.9)))
    return files


@pytest.mark.parametrize("test, extra", [
    ("regression", {"covariates": "cov.csv"}),
    ("wilcoxon", {}),
])
def test_joint_test_run_matches_an_in_memory_cohort(tmp_path, test, extra):
    # the joint tests keep group 1's values, so group 2 must not be read
    # into group 1's buffer; group 2 is the larger
    files = _unequal_cohort(tmp_path)
    manifest = tmp_path / "run.json"
    manifest.write_text(json.dumps({
        **files, **extra, "test": test, "seed": 31, "null_networks": 60,
        "threshold": {"kind": "eddt", "level": 0.95}}))
    out = tmp_path / "results"
    assert main(["--quiet", "run", "--manifest", str(manifest),
                 "--out", str(out)]) == 0

    run = load_run_manifest(manifest)
    x1, x2 = ([upper_triangle(read_matrix_csv(tmp_path / name))
               for name in files[key]] for key in ("group1", "group2"))
    covariates = (np.loadtxt(tmp_path / "cov.csv", ndmin=2)
                  if extra else None)
    expected = ddt_run(ConnectivityCohort(np.array(x1), np.array(x2),
                                          covariates=covariates),
                       {"eddt": run.threshold}, test_cfg=run.test_config,
                       ensemble_size=run.null_networks, seed=run.seed)
    np.testing.assert_array_equal(
        np.loadtxt(out / "difference_network.csv", delimiter=","),
        expected.difference.to_symmetric().to_dense())
    with open(out / "nodes.csv", newline="") as fh:
        pvalues = [float(row["pvalue"]) for row in csv.DictReader(fh)]
    np.testing.assert_array_equal(pvalues, expected.ddt["eddt"].nodes.pvalue)


def test_ddt_run_leaves_a_held_cohort_intact(monkeypatch):
    # run_replicate keeps its cohort across the ddt_run call
    rng = np.random.default_rng(4)
    x1 = rng.uniform(-0.5, 0.5, size=(4, 15))
    x2 = rng.uniform(-0.5, 0.5, size=(5, 15)) + np.r_[np.full(5, 0.6), np.zeros(10)]
    cohort = ConnectivityCohort(x1, x2)
    ref = weakref.ref(cohort)
    real_pass = degree_test.null_exceedances

    def null_exceedances(source, level):
        assert ref() is cohort
        return real_pass(source, level)

    monkeypatch.setattr(degree_test, "null_exceedances", null_exceedances)
    rules = {"eddt": ThresholdRule("eddt", 0.95)}
    first = ddt_run(cohort, rules, ("t10",), ensemble_size=30, seed=9)
    second = ddt_run(cohort, rules, ("t10",), ensemble_size=30, seed=9)
    assert first.error is None
    np.testing.assert_array_equal(cohort.x1, x1)
    np.testing.assert_array_equal(cohort.x2, x2)
    for a, b in ((first.ddt["eddt"].nodes, second.ddt["eddt"].nodes),
                 (first.baselines["t10"], second.baselines["t10"])):
        np.testing.assert_array_equal(a.pvalue, b.pvalue)


def test_run_summary_reports_peak_rss_outside_the_csvs(tmp_path):
    manifest = _manifest(tmp_path, baselines=["t10"],
                         threshold={"kind": "eddt", "level": 0.95})
    for out in ("a", "b"):
        assert main(["--quiet", "run", "--manifest", str(manifest),
                     "--out", str(tmp_path / out)]) == 0
    summaries = []
    for out in ("a", "b"):
        summary = json.loads((tmp_path / out / "run_summary.json").read_text())
        peak = summary.pop("peak_rss_mb")
        assert isinstance(peak, float) and peak > 0
        summary.pop("elapsed_seconds")
        stages = summary.pop("stages")
        assert list(stages) == ["load", "pipeline", "scipy_import", "write"]
        assert stages["load"].pop("workers") >= 1
        order = {name: stage.pop("order") for name, stage in stages.items()}
        assert sorted(order, key=order.get) == ["load", "scipy_import",
                                                "pipeline", "write"]
        assert sorted(order.values()) == [0, 1, 2, 3]
        for stage in stages.values():
            assert set(stage) == {"seconds", "peak_rss_mb"}
            assert stage["seconds"] >= 0
            assert 0 < stage["peak_rss_mb"] <= peak
        summaries.append(summary)
    assert summaries[0] == summaries[1]
    for name in RUN_OUTPUTS[:-1]:
        a = (tmp_path / "a" / name).read_bytes()
        assert a == (tmp_path / "b" / name).read_bytes(), name
        assert b"peak_rss" not in a, name


def test_run_summary_peak_rss_excludes_the_launcher_peak(tmp_path):
    # a process that subprocess starts (vfork and exec) begins with its
    # launcher's ru_maxrss; this launcher first touches 200 MB, more than
    # the small run ever holds, so a figure that carries its peak fails
    ballast = np.ones(25_000_000)
    del ballast
    manifest = _manifest(tmp_path)
    src = str(Path(ddtnet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run(
        [sys.executable, "-m", "ddtnet.cli", "--quiet", "run", "--manifest",
         str(manifest), "--out", str(tmp_path / "results")],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    launcher = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    summary = json.loads((tmp_path / "results" / "run_summary.json").read_text())
    peaks = [summary["peak_rss_mb"],
             *(stage["peak_rss_mb"] for stage in summary["stages"].values())]
    assert all(0 < peak < launcher for peak in peaks), (peaks, launcher)


@settings(max_examples=15, deadline=None)
@given(n=st.integers(5, 8), n1=st.integers(3, 6), n2=st.integers(3, 6),
       kind=st.sampled_from(["addt", "eddt"]), shift=st.floats(0.0, 0.8),
       seed=st.integers(0, 2 ** 32 - 1))
def test_run_writes_the_node_tests_of_ddt_run(n, n1, n2, kind, shift, seed):
    # node 0's edges are shifted in group 2; a weak shift can leave the
    # logit-scale mean nonpositive, and then both paths fail the same way
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, 1)
    x1 = rng.uniform(-0.5, 0.5, size=(n1, len(iu)))
    x2 = rng.uniform(-0.5, 0.5, size=(n2, len(iu))) + np.where(iu == 0, shift, 0.0)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        groups = {}
        for key, x in (("group1", x1), ("group2", x2)):
            groups[key] = []
            for s, row in enumerate(x):
                dense = np.eye(n)
                dense[iu, ju] = dense[ju, iu] = row
                write_matrix_csv(tmp / f"{key}_{s}.csv", dense)
                groups[key].append(f"{key}_{s}.csv")
        manifest = tmp / "run.json"
        manifest.write_text(json.dumps({
            **groups, "seed": seed, "null_networks": 40,
            "threshold": {"kind": kind, "level": 0.95},
            "baselines": ["t10", "binb", "binf"]}))
        code = main(["--quiet", "run", "--manifest", str(manifest),
                     "--out", str(tmp / "out")])
        run = load_run_manifest(manifest)
        result = ddt_run(
            ConnectivityCohort(x1, x2), {kind: run.threshold}, run.baselines,
            test_cfg=run.test_config, ensemble_size=run.null_networks,
            alpha=run.alpha, seed=run.seed, inner_dim=run.inner_dim,
            density=run.density, ranking=run.ranking,
            correct_nodes=run.correct_nodes)
        if result.error is not None:
            assert code == 3
            assert not (tmp / "out" / "nodes.csv").exists()
            return
        assert code == 0
        with open(tmp / "out" / "nodes.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
    for prefix, tests in (("", result.ddt[kind].nodes),
                          *((f"{name}_", tests)
                            for name, tests in result.baselines.items())):
        assert [r[prefix + "pvalue"] for r in rows] == list(
            map(repr, tests.pvalue.tolist()))
        assert [r[prefix + "significant"] == "true" for r in rows] == (
            tests.significant.tolist())


def test_run_missing_matrix_file_exit_2(tmp_path, capsys):
    manifest = _manifest(tmp_path)
    data = json.loads(manifest.read_text())
    data["group1"][0] = "nope.csv"
    manifest.write_text(json.dumps(data))
    code = main(["run", "--manifest", str(manifest),
                 "--out", str(tmp_path / "results")])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert "nope.csv" in err["message"]


def test_run_missing_seed_exit_2(tmp_path, capsys):
    files = _toy_cohort(tmp_path)
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"group1": files["group1"],
                                "group2": files["group2"]}))
    assert main(["run", "--manifest", str(path),
                 "--out", str(tmp_path / "o")]) == 2
    assert "seed" in json.loads(capsys.readouterr().err.strip())["message"]


def test_simulate_writes_metrics(tmp_path):
    design = tmp_path / "design.json"
    design.write_text(json.dumps({
        "n_nodes": 14, "n1": 8, "n2": 8, "q": 5, "targets": [1],
        "replicates": 3, "seed": 5, "null_networks": 25,
        "resolution": 20000, "methods": ["addt", "binb"],
        "edge_rules": ["bonferroni"],
    }))
    code = main(["--quiet", "--threads", "1", "simulate",
                 "--design", str(design), "--out", str(tmp_path / "bench")])
    assert code == 0
    for name in ("metrics.csv", "replicates.csv.gz", "design.json"):
        assert (tmp_path / "bench" / name).exists()
    lines = (tmp_path / "bench" / "metrics.csv").read_text().splitlines()
    assert lines[0].startswith("method,scope,tpr,fpr,mcc")
    assert len(lines) == 4                      # two node rows + one edge row


def test_simulate_rerun_byte_identical(tmp_path):
    design = tmp_path / "design.json"
    design.write_text(json.dumps({
        "n_nodes": 12, "n1": 6, "n2": 6, "q": 4, "targets": [1],
        "replicates": 2, "seed": 9, "null_networks": 20,
        "resolution": 20000, "methods": ["addt"],
    }))
    assert main(["--quiet", "simulate", "--design", str(design),
                 "--out", str(tmp_path / "x")]) == 0
    assert main(["--quiet", "simulate", "--design", str(design),
                 "--out", str(tmp_path / "y")]) == 0
    assert (tmp_path / "x" / "metrics.csv").read_bytes() == \
        (tmp_path / "y" / "metrics.csv").read_bytes()
    assert (tmp_path / "x" / "replicates.csv.gz").read_bytes() == \
        (tmp_path / "y" / "replicates.csv.gz").read_bytes()


def test_simulate_invalid_structure_lists_enums(tmp_path, capsys):
    design = tmp_path / "design.json"
    design.write_text(json.dumps({"structure": "ring"}))
    code = main(["simulate", "--design", str(design),
                 "--out", str(tmp_path / "bench")])
    assert code == 2
    msg = json.loads(capsys.readouterr().err.strip())["message"]
    for enum in ("random", "smallworld", "hybrid"):
        assert enum in msg


def test_null_from_difference_and_moments(tmp_path, capsys):
    n = 8
    rng = np.random.default_rng(2)
    d = rng.uniform(0.6, 0.99, size=(n, n))
    d = (d + d.T) / 2
    np.fill_diagonal(d, 0.0)
    write_matrix_csv(tmp_path / "diff.csv", d)
    code = main(["--quiet", "--seed", "4", "null",
                 "--difference", str(tmp_path / "diff.csv"),
                 "--moments-out", str(tmp_path / "moments.json"),
                 "--out", str(tmp_path / "nulls"), "--ensemble-size", "3"])
    assert code == 0
    moments = json.loads((tmp_path / "moments.json").read_text())
    assert moments["ebar"] > 0 and moments["m"] == 2
    nulls = sorted((tmp_path / "nulls").glob("null_*.csv"))
    assert len(nulls) == 3
    # generate again from the moment file
    code = main(["--quiet", "--seed", "4", "null",
                 "--moments", str(tmp_path / "moments.json"),
                 "--nodes", "8", "--out", str(tmp_path / "nulls2"),
                 "--ensemble-size", "2"])
    assert code == 0
    assert len(list((tmp_path / "nulls2").glob("null_*.csv"))) == 2


def test_null_nonpositive_mean_exit_3(tmp_path, capsys):
    n = 6
    d = np.full((n, n), 0.2)          # logit(0.2) < 0 everywhere
    rng = np.random.default_rng(0)
    noise = rng.uniform(0, 0.05, size=(n, n))
    d = d + (noise + noise.T) / 2
    d = (d + d.T) / 2
    np.fill_diagonal(d, 0.0)
    write_matrix_csv(tmp_path / "diff.csv", d)
    code = main(["null", "--difference", str(tmp_path / "diff.csv"),
                 "--moments-out", str(tmp_path / "m.json")])
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "nonpositive-mean"
    assert "hint" in err


def test_run_nonpositive_mean_exit_3(tmp_path, capsys):
    # group 2 repeats group 1, so every edge p-value is 1 and the
    # logit-scale mean of the difference network is negative
    files = _toy_cohort(tmp_path)
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"group1": files["group1"],
                                "group2": files["group1"], "seed": 1}))
    code = main(["run", "--manifest", str(path),
                 "--out", str(tmp_path / "results")])
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "nonpositive-mean" and err["stage"] == "moments"
    assert err["message"].startswith("logit-scale mean")
    assert "hint" in err


def test_run_other_pipeline_failures_keep_their_payload(tmp_path, capsys,
                                                        monkeypatch):
    from ddtnet import degree_test
    from ddtnet.hqs import ZeroVarianceError

    def zero_variance(dn, m=2):
        raise ZeroVarianceError("logit-scale variance is zero")
    monkeypatch.setattr(degree_test, "observed_moments", zero_variance)
    code = main(["run", "--manifest", str(_manifest(tmp_path)),
                 "--out", str(tmp_path / "results")])
    assert code == 3
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "pipeline", "stage": "pipeline",
                   "message": "moments: logit-scale variance is zero"}


def test_run_t10_density_out_of_range_exit_2(tmp_path, capsys):
    manifest = _manifest(tmp_path, density=1.5, baselines=["t10"])
    code = main(["run", "--manifest", str(manifest),
                 "--out", str(tmp_path / "results")])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "validation" and "density" in err["message"]


@pytest.mark.parametrize("field", [{"density": 1.5, "methods": ["t10"]},
                                   {"level": 1.5, "methods": ["addt"]},
                                   {"methods": ["nbs"]},
                                   {"methods": ["addt", "addt"]},
                                   {"methods": ["binf", "binf"]},
                                   {"edge_rules": ["hard_abc"]},
                                   {"edge_rules": ["hard_1.5"]}])
def test_simulate_invalid_method_settings_exit_2(tmp_path, capsys, field):
    design = tmp_path / "design.json"
    design.write_text(json.dumps({
        "n_nodes": 12, "n1": 6, "n2": 6, "q": 4, "targets": [1],
        "replicates": 2, "seed": 9, "null_networks": 20,
        "resolution": 20000, **field}))
    code = main(["--quiet", "--threads", "1", "simulate", "--design",
                 str(design), "--out", str(tmp_path / "bench")])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "validation"
    assert not (tmp_path / "bench").exists()


def test_enrich_roundtrip_and_empty(tmp_path, capsys):
    n = 6
    adj = np.zeros((n, n), dtype=int)
    adj[0, 1] = adj[1, 0] = 1
    adj[0, 2] = adj[2, 0] = 1
    write_matrix_csv(tmp_path / "adjacency.csv", adj)
    (tmp_path / "modules.csv").write_text(
        "0,1\n1,1\n2,1\n3,2\n4,2\n5,2\n")
    code = main(["--quiet", "enrich", "--adjacency", str(tmp_path / "adjacency.csv"),
                 "--modules", str(tmp_path / "modules.csv"),
                 "--out", str(tmp_path / "enrichment.csv")])
    assert code == 0
    lines = (tmp_path / "enrichment.csv").read_text().splitlines()
    assert lines[0].startswith("module1,module2")
    assert len(lines) == 4                      # 3 blocks for G = 2

    write_matrix_csv(tmp_path / "empty.csv", np.zeros((n, n), dtype=int))
    code = main(["enrich", "--adjacency", str(tmp_path / "empty.csv"),
                 "--modules", str(tmp_path / "modules.csv"),
                 "--out", str(tmp_path / "e2.csv")])
    assert code == 3
    assert json.loads(capsys.readouterr().err.strip())["error"] == "no-selected-edges"


@pytest.mark.parametrize("flag", ["t11", "binb,binb"])
def test_run_baselines_flag_is_checked_like_the_manifest(tmp_path, capfd, flag):
    manifest = tmp_path / "run.json"
    manifest.write_text(json.dumps({
        "group1": ["a.csv", "b.csv"], "group2": ["c.csv", "d.csv"], "seed": 3}))
    code = main(["run", "--manifest", str(manifest), "--baselines", flag,
                 "--out", str(tmp_path / "results")])
    assert code == 2
    err = capfd.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "validation" and "baselines" in payload["message"]
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("entry", [0.7, float("nan")], ids=["fraction", "nan"])
def test_enrich_rejects_a_non_binary_entry(tmp_path, capfd, entry):
    n = 6
    adj = np.zeros((n, n))
    adj[0, 1] = adj[1, 0] = 1.0
    adj[0, 2] = adj[2, 0] = entry
    write_matrix_csv(tmp_path / "adjacency.csv", adj)
    (tmp_path / "modules.csv").write_text("0,1\n1,1\n2,1\n3,2\n4,2\n5,2\n")
    code = main(["enrich", "--adjacency", str(tmp_path / "adjacency.csv"),
                 "--modules", str(tmp_path / "modules.csv"),
                 "--out", str(tmp_path / "enrichment.csv")])
    assert code == 2
    err = capfd.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "validation"
    assert "must be 0 or 1" in payload["message"]
    assert not (tmp_path / "enrichment.csv").exists()


def test_enrich_rejects_a_self_loop(tmp_path, capfd):
    adj = np.zeros((6, 6), dtype=int)
    adj[0, 1] = adj[1, 0] = 1
    adj[3, 3] = 1
    write_matrix_csv(tmp_path / "adjacency.csv", adj)
    (tmp_path / "modules.csv").write_text("0,1\n1,1\n2,1\n3,2\n4,2\n5,2\n")
    code = main(["enrich", "--adjacency", str(tmp_path / "adjacency.csv"),
                 "--modules", str(tmp_path / "modules.csv"),
                 "--out", str(tmp_path / "enrichment.csv")])
    assert code == 2
    err = capfd.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "validation"
    assert str(tmp_path / "adjacency.csv") in payload["message"]
    assert "diagonal" in payload["message"]
    assert not (tmp_path / "enrichment.csv").exists()


@pytest.mark.parametrize("modules, line", [
    ("0,1\n1,1\n2,1\n1,2\n3,2\n", "line 4 repeats node 1"),
    ("0,1,A\n1,1\n2,1,B\n3,2\n", "line 3 names module 1 'B'")])
def test_enrich_rejects_conflicting_module_rows(tmp_path, capfd, modules,
                                                line):
    adj = np.zeros((4, 4), dtype=int)
    adj[0, 1] = adj[1, 0] = 1
    write_matrix_csv(tmp_path / "adjacency.csv", adj)
    (tmp_path / "modules.csv").write_text(modules)
    code = main(["enrich", "--adjacency", str(tmp_path / "adjacency.csv"),
                 "--modules", str(tmp_path / "modules.csv"),
                 "--out", str(tmp_path / "enrichment.csv")])
    assert code == 2
    err = capfd.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "manifest"
    assert f"{tmp_path / 'modules.csv'}: {line}" in payload["message"]
    assert not (tmp_path / "enrichment.csv").exists()


def test_enrich_names_empty_module_ids_as_plain_ints(tmp_path, capfd):
    adj = np.zeros((4, 4), dtype=int)
    adj[0, 1] = adj[1, 0] = 1
    write_matrix_csv(tmp_path / "adjacency.csv", adj)
    (tmp_path / "modules.csv").write_text("0,1\n1,1\n2,3\n3,3\n")
    code = main(["enrich", "--adjacency", str(tmp_path / "adjacency.csv"),
                 "--modules", str(tmp_path / "modules.csv"),
                 "--out", str(tmp_path / "enrichment.csv")])
    assert code == 2
    err = capfd.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["message"].endswith("empty module id(s): [2]")
    assert not (tmp_path / "enrichment.csv").exists()

@pytest.mark.parametrize("alpha", ["2", "-1", "nan", "0", "1"])
def test_enrich_rejects_an_alpha_outside_the_unit_interval(tmp_path, capfd,
                                                           alpha):
    adj = np.zeros((4, 4), dtype=int)
    adj[0, 1] = adj[1, 0] = 1
    write_matrix_csv(tmp_path / "adjacency.csv", adj)
    (tmp_path / "modules.csv").write_text("0,1\n1,1\n2,2\n3,2\n")
    code = main(["enrich", "--adjacency", str(tmp_path / "adjacency.csv"),
                 "--modules", str(tmp_path / "modules.csv"),
                 f"--alpha={alpha}", "--out", str(tmp_path / "enrichment.csv")])
    assert code == 2
    err = capfd.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "validation" and "alpha" in payload["message"]
    assert not (tmp_path / "enrichment.csv").exists()


def _difference_csv(tmp_path, entries: dict):
    n = 8
    rng = np.random.default_rng(2)
    d = rng.uniform(0.6, 0.99, size=(n, n))
    d = (d + d.T) / 2
    np.fill_diagonal(d, 0.0)
    for (i, j), value in entries.items():
        d[i, j] = d[j, i] = value
    path = tmp_path / "diff.csv"
    write_matrix_csv(path, d)
    return path


@pytest.mark.parametrize("entry", [1.7, -0.4, float("nan"), float("inf")])
def test_null_rejects_a_difference_entry_outside_0_1(tmp_path, capfd, entry):
    path = _difference_csv(tmp_path, {(0, 3): entry})
    code = main(["null", "--difference", str(path),
                 "--moments-out", str(tmp_path / "m.json")])
    assert code == 2
    err = capfd.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "validation"
    assert str(path) in payload["message"] and "[0, 1]" in payload["message"]
    assert not (tmp_path / "m.json").exists()


def test_null_clamps_exact_0_and_1_difference_entries(tmp_path):
    path = _difference_csv(tmp_path, {(0, 3): 1.0, (1, 2): 0.0})
    assert main(["--quiet", "null", "--difference", str(path),
                 "--moments-out", str(tmp_path / "m.json")]) == 0
    assert json.loads((tmp_path / "m.json").read_text())["ebar"] > 0


def test_version_and_help_exit_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_seed_override_changes_output(tmp_path):
    manifest = _manifest(tmp_path)
    assert main(["--quiet", "run", "--manifest", str(manifest),
                 "--out", str(tmp_path / "a")]) == 0
    assert main(["--quiet", "--seed", "99", "run", "--manifest", str(manifest),
                 "--out", str(tmp_path / "b")]) == 0
    sa = json.loads((tmp_path / "a" / "run_summary.json").read_text())
    sb = json.loads((tmp_path / "b" / "run_summary.json").read_text())
    assert sa["seed"] == 31 and sb["seed"] == 99


def _small_design(tmp_path, **extra):
    design = {
        "n_nodes": 12, "n1": 6, "n2": 6, "q": 4, "targets": [1, 2],
        "replicates": 6, "seed": 17, "null_networks": 20,
        "resolution": 20000, "methods": ["addt", "eddt", "binb", "binf", "t10"],
        "edge_rules": ["addt", "eddt", "fdr"],
    }
    design.update(extra)
    path = tmp_path / "design.json"
    path.write_text(json.dumps(design))
    return path


def test_simulate_threads_1_and_2_byte_identical(tmp_path):
    design = _small_design(tmp_path)
    for threads in ("1", "2"):
        assert main(["--quiet", "--threads", threads, "simulate",
                     "--design", str(design),
                     "--out", str(tmp_path / f"t{threads}")]) == 0
    for name in ("metrics.csv", "replicates.csv.gz"):
        assert (tmp_path / "t1" / name).read_bytes() == \
            (tmp_path / "t2" / name).read_bytes(), name


@pytest.mark.parametrize("value", ["0", "-3", "1.5", "two", ""])
def test_threads_flag_rejects_non_positive_integers(tmp_path, capsys, value):
    code = main(["--threads", value, "simulate",
                 "--design", str(_small_design(tmp_path)),
                 "--out", str(tmp_path / "bench")])
    assert code == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "validation"
    assert "--threads" in payload["message"]
    assert not (tmp_path / "bench").exists()


@pytest.mark.parametrize("value", ["0", "-1", "abc", "2.5"])
def test_threads_env_rejects_non_positive_integers(tmp_path, capsys,
                                                   monkeypatch, value):
    monkeypatch.setenv("DDT_THREADS", value)
    code = main(["simulate", "--design", str(_small_design(tmp_path)),
                 "--out", str(tmp_path / "bench")])
    assert code == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "validation"
    assert "DDT_THREADS" in payload["message"]


def test_thread_resolver_precedence(monkeypatch):
    from argparse import Namespace

    from ddtnet.cli import _threads
    monkeypatch.delenv("DDT_THREADS", raising=False)
    assert _threads(Namespace(threads=None)) == core.usable_cpus()
    monkeypatch.setenv("DDT_THREADS", "")
    assert _threads(Namespace(threads=None)) == core.usable_cpus()
    monkeypatch.setenv("DDT_THREADS", "3")
    assert _threads(Namespace(threads=None)) == 3
    assert _threads(Namespace(threads="5")) == 5


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="no CPU affinity on this platform")
def test_run_pinned_to_one_cpu_loads_serially(tmp_path):
    # `taskset -c <cpu> ddt run`: a fresh interpreter pinned to one CPU
    # (its own affinity mask) sizes the load's pool from that CPU alone
    manifest = _manifest(tmp_path)
    code = ("import os, sys; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))});"
            "from ddtnet.cli import main; sys.exit(main(sys.argv[1:]))")
    src = str(Path(ddtnet.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "DDT_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])
    done = subprocess.run(
        [sys.executable, "-c", code, "--quiet", "run", "--manifest",
         str(manifest), "--out", str(tmp_path / "results")],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    summary = json.loads((tmp_path / "results" / "run_summary.json").read_text())
    assert summary["stages"]["load"]["workers"] == 1


def test_run_summary_reports_clamp_counts(tmp_path):
    files = _toy_cohort(tmp_path)
    # edge (0, 1) is a perfect correlation in every subject and edge (0, 2)
    # a perfect anticorrelation in group 1: 6 + 3 values need the Fisher Z
    # clamp, and edge (0, 1) is constant and equal in both groups, so its
    # p-value is exactly 1 and gets clamped to 1 - P_MIN
    for group, names in files.items():
        for name in names:
            dense = np.loadtxt(tmp_path / name, delimiter=",")
            dense[0, 1] = dense[1, 0] = 1.0
            if group == "group1":
                dense[0, 2] = dense[2, 0] = -1.0
            write_matrix_csv(tmp_path / name, dense)
    flags = {}
    for fisher_z in (True, False):
        manifest = dict(files, seed=31, null_networks=60, fisher_z=fisher_z,
                        threshold={"kind": "eddt", "level": 0.95})
        path = tmp_path / "run.json"
        path.write_text(json.dumps(manifest))
        out = tmp_path / f"fz{fisher_z}"
        assert main(["--quiet", "run", "--manifest", str(path),
                     "--out", str(out)]) == 0
        flags[fisher_z] = json.loads((out / "run_summary.json").read_text())["flags"]
        header = (out / "nodes.csv").read_text().splitlines()[0]
        assert header == "node,label,degree,p_null,pvalue,significant"
    assert flags[True]["fisher_z_clamped"] == 9
    assert flags[True]["pvalues_clamped"] == 1
    assert flags[False]["fisher_z_clamped"] == 0
    assert flags[False]["pvalues_clamped"] == 1


@pytest.mark.parametrize("value", ["0", "-3", "abc"])
def test_run_threads_flag_rejects_non_positive_integers(tmp_path, capsys, value):
    code = main(["--threads", value, "run", "--manifest",
                 str(_manifest(tmp_path)), "--out", str(tmp_path / "results")])
    assert code == 2
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "validation"
    assert "--threads" in payload["message"]
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("value", ["zero", "0", "-1"])
def test_run_threads_env_rejects_non_positive_integers(tmp_path, capsys,
                                                       monkeypatch, value):
    monkeypatch.setenv("DDT_THREADS", value)
    code = main(["run", "--manifest", str(_manifest(tmp_path)),
                 "--out", str(tmp_path / "results")])
    assert code == 2
    payload = json.loads(capsys.readouterr().err.strip())
    assert payload["error"] == "validation"
    assert "DDT_THREADS" in payload["message"]
    assert not (tmp_path / "results").exists()


ASYMMETRIC = np.eye(6)
ASYMMETRIC[0, 1], ASYMMETRIC[1, 0] = 0.5, -0.5
BAD_SUBJECT_FILES = {
    "missing": (None, "not found"),
    "empty": ("", "empty"),
    "non-numeric": ("1.0,abc\r\n0.5,1.0\r\n", "non-numeric"),
    "ragged": ("1.0,0.5\r\n0.5\r\n", "ragged"),
    "non-square": ("1.0,0.5,0.2\r\n0.5,1.0,0.3\r\n", "square"),
    "asymmetric": ("".join(",".join(repr(v) for v in row.tolist()) + "\r\n"
                           for row in ASYMMETRIC), "asymmetric"),
}


@pytest.mark.parametrize("case", sorted(BAD_SUBJECT_FILES))
def test_run_bad_subject_file_is_one_json_line(tmp_path, capfd, case):
    text, expected = BAD_SUBJECT_FILES[case]
    manifest = _manifest(tmp_path)
    data = json.loads(manifest.read_text())
    data["group2"][1] = "bad_subject.csv"
    manifest.write_text(json.dumps(data))
    if text is not None:
        (tmp_path / "bad_subject.csv").write_text(text)
    code = main(["run", "--manifest", str(manifest),
                 "--out", str(tmp_path / "results")])
    assert code == 2
    err = capfd.readouterr().err.strip()
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "manifest"
    assert "bad_subject.csv" in payload["message"]
    assert expected in payload["message"]
    assert not (tmp_path / "results").exists()


def _non_finite_subject(value):
    def make(tmp_path):
        dense = np.loadtxt(tmp_path / "group2_1.csv", delimiter=",")
        dense[0, 2] = dense[2, 0] = value
        return dense
    return make


BAD_COHORTS = {
    "nan": (_non_finite_subject(np.nan),
            "invalid value in group 2 subject 1 at edge (0, 2)"),
    "inf": (_non_finite_subject(np.inf),
            "invalid value in group 2 subject 1 at edge (0, 2)"),
    "dimension": (lambda tmp_path: np.eye(5),
                  "dimension mismatch: group 2 subject 1 has n=5, expected n=6"),
}


# a numpy warning would print a second stderr line
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", sorted(BAD_COHORTS))
def test_run_bad_cohort_fails_before_any_output(tmp_path, capfd, case):
    make, expected = BAD_COHORTS[case]
    manifest = _manifest(tmp_path)
    write_matrix_csv(tmp_path / "bad_subject.csv", make(tmp_path))
    data = json.loads(manifest.read_text())
    data["group2"][1] = "bad_subject.csv"
    manifest.write_text(json.dumps(data))
    code = main(["run", "--manifest", str(manifest),
                 "--out", str(tmp_path / "results")])
    assert code == 2
    err = capfd.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "validation"
    assert expected in payload["message"]
    if case == "dimension":
        assert "bad_subject.csv" in payload["message"]
    assert not (tmp_path / "results").exists()


def _non_finite_group1(tmp_path, data):
    dense = np.loadtxt(tmp_path / "group1_2.csv", delimiter=",")
    dense[1, 4] = dense[4, 1] = np.nan
    write_matrix_csv(tmp_path / "group1_2.csv", dense)


def _write(name, text):
    def edit(tmp_path, data):
        (tmp_path / name).write_text(text)
        data["labels" if name == "labels.txt" else "covariates"] = name
    return edit


# single defects of a cohort that only the loaded groups show; each is a
# one-line validation error (exit 2) that leaves no output directory
BAD_COHORT_GROUPS = {
    "nan-group-1": (_non_finite_group1,
                    "invalid value in group 1 subject 2 at edge (1, 4)"),
    "one-subject-group-1": (
        lambda tmp_path, data: data.update(group1=data["group1"][:1]),
        "at least 2 subjects (got 1 and 3)"),
    "one-subject-group-2": (
        lambda tmp_path, data: data.update(group2=data["group2"][:1]),
        "at least 2 subjects (got 3 and 1)"),
    "label-count": (_write("labels.txt", "a\nb\nc\n"),
                    "3 node labels for n=6 nodes"),
    "covariate-rows": (_write("cov.csv", "1.0\n2.0\n3.0\n"),
                       "covariates must be one row per subject (6)"),
}


@pytest.mark.parametrize("case", sorted(BAD_COHORT_GROUPS))
def test_run_bad_cohort_group_is_one_json_line(tmp_path, capfd, case):
    edit, expected = BAD_COHORT_GROUPS[case]
    manifest = _manifest(tmp_path)
    data = json.loads(manifest.read_text())
    edit(tmp_path, data)
    manifest.write_text(json.dumps(data))
    code = main(["run", "--manifest", str(manifest),
                 "--out", str(tmp_path / "results")])
    assert code == 2
    err = capfd.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "validation"
    assert expected in payload["message"]
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("value", [np.nan, np.inf, 1.5e308])
def test_run_degenerate_subject_file_prints_only_the_json_line(tmp_path,
                                                                value):
    # an all-nan or all-inf file is reported as an invalid value, and finite
    # values whose two-triangle mean overflows as an overflow in that file;
    # no numpy warning reaches stderr. A fresh interpreter shows stderr as a
    # user sees it.
    manifest = _manifest(tmp_path)
    write_matrix_csv(tmp_path / "degenerate.csv", np.full((6, 6), value))
    data = json.loads(manifest.read_text())
    data["group2"][1] = "degenerate.csv"
    manifest.write_text(json.dumps(data))
    src = str(Path(ddtnet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run(
        [sys.executable, "-m", "ddtnet.cli", "run", "--manifest",
         str(manifest), "--out", str(tmp_path / "results")],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    if np.isfinite(value):
        expected = {"error": "manifest", "message": f"{tmp_path / 'degenerate.csv'}"
                    ": values at edge (0, 1) overflow when averaged"}
    else:
        expected = {"error": "validation", "message":
                    "invalid value in group 2 subject 1 at edge (0, 1)"}
    assert json.loads(done.stderr) == {"stage": "input", **expected}
    assert len(done.stderr.splitlines()) == 1
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("group1, expected", [
    (lambda names: names[:1], "at least 2 subjects (got 1 and 3)"),
    (lambda names: names[:2] + ["nan.csv"],
     "invalid value in group 1 subject 2 at edge (0, 1)")])
def test_run_reports_group_1_before_reading_group_2(tmp_path, capfd,
                                                    group1, expected):
    # two defects at once, one in group 1 and a missing group 2 file:
    # group 1 is checked as soon as it loads, before group 2 is read, so
    # its defect is the one reported
    manifest = _manifest(tmp_path)
    nan = np.eye(6)
    nan[0, 1] = nan[1, 0] = np.nan
    write_matrix_csv(tmp_path / "nan.csv", nan)
    data = json.loads(manifest.read_text())
    data["group1"] = group1(data["group1"])
    data["group2"][1] = "nope.csv"
    manifest.write_text(json.dumps(data))
    code = main(["run", "--manifest", str(manifest),
                 "--out", str(tmp_path / "results")])
    assert code == 2
    payload = json.loads(capfd.readouterr().err.strip())
    assert payload["error"] == "validation"
    assert expected in payload["message"]
    assert not (tmp_path / "results").exists()


def _run_at(threads, manifest, out, capfd):
    """`ddt --threads <threads> run` on a pool of that size whatever the
    host's CPU count: its exit code and stderr. No worker outlives it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "usable_cpus", lambda: 2)
        code = main(["--quiet", "--threads", threads, "run", "--manifest",
                     str(manifest), "--out", str(out)])
    assert multiprocessing.active_children() == []
    return code, capfd.readouterr().err


PARITY_RUNS = {
    "welch_t": {"threshold": {"kind": "eddt", "level": 0.95},
                "baselines": ["t10", "binb", "binf"]},
    # group 1's reduction keeps its values, so group 2 has its own array
    "regression": {"test": "regression", "covariates": "cov.csv",
                   "threshold": {"kind": "eddt", "level": 0.95}},
    "wilcoxon": {"test": "wilcoxon",
                 "threshold": {"kind": "eddt", "level": 0.95}},
}


@pytest.mark.parametrize("case", sorted(PARITY_RUNS))
def test_run_threads_1_and_2_byte_identical(tmp_path, capfd, case):
    manifest = tmp_path / "run.json"
    manifest.write_text(json.dumps({
        **_unequal_cohort(tmp_path), "seed": 31, "null_networks": 60,
        **PARITY_RUNS[case]}))
    for threads in ("1", "2"):
        code, err = _run_at(threads, manifest, tmp_path / f"t{threads}", capfd)
        assert (code, err) == (0, "")
        summary = json.loads(
            (tmp_path / f"t{threads}" / "run_summary.json").read_text())
        assert summary["stages"]["load"]["workers"] == int(threads)
    for name in RUN_OUTPUTS[:-1]:
        assert (tmp_path / "t1" / name).read_bytes() == \
            (tmp_path / "t2" / name).read_bytes(), name


def _write_defect(tmp_path, case):
    """A subject file with one defect, `<case>.csv` (not written when the
    defect is that it is missing); returns its name."""
    path = tmp_path / f"{case}.csv"
    if case == "wrong-n":
        write_matrix_csv(path, np.eye(5))
    elif case == "non-finite":
        nan = np.eye(6)
        nan[2, 3] = nan[3, 2] = np.nan
        write_matrix_csv(path, nan)
    elif case == "asymmetric":
        write_matrix_csv(path, ASYMMETRIC)
    elif case != "missing":
        path.write_text(BAD_SUBJECT_FILES[case][0])
    return path.name


SUBJECT_DEFECTS = ("missing", "ragged", "non-numeric", "asymmetric",
                   "wrong-n", "non-finite")


@pytest.mark.parametrize("placed", [
    *([(case, "group1", 1)] for case in SUBJECT_DEFECTS),
    *([(case, "group2", 2)] for case in SUBJECT_DEFECTS),
    # the defect listed first is the one reported. Two bad files in one
    # group: the first in manifest order
    [("ragged", "group2", 0), ("asymmetric", "group2", 2)],
    [("wrong-n", "group1", 1), ("missing", "group1", 2)],
    # a group 1 defect and a bad group 2 file: group 1's
    [("non-finite", "group1", 2), ("missing", "group2", 0)],
], ids=lambda placed: "+".join(f"{c}@{k}[{s}]" for c, k, s in placed))
def test_run_bad_file_gives_the_same_error_at_threads_1_and_2(
        tmp_path, capfd, placed):
    manifest = _manifest(tmp_path)
    data = json.loads(manifest.read_text())
    for case, key, s in placed:
        data[key][s] = _write_defect(tmp_path, case)
    manifest.write_text(json.dumps(data))
    runs = {threads: _run_at(threads, manifest, tmp_path / "results", capfd)
            for threads in ("1", "2")}
    assert runs["1"] == runs["2"]
    code, err = runs["1"]
    assert code == 2 and len(err.splitlines()) == 1
    assert not (tmp_path / "results").exists()
    case, key, s = placed[0]
    if case == "non-finite":    # check_group names the group and subject
        assert f"invalid value in group {key[-1]} subject {s} " in err
    else:
        assert f"{case}.csv" in err


@pytest.mark.parametrize("command", ["run", "simulate"])
def test_a_lost_worker_is_one_json_line(tmp_path, capfd, monkeypatch,
                                        command):
    # a worker that dies mid-task: the patched function is inherited by the
    # forked workers and ends the one that calls it
    parent = os.getpid()

    def exit_in_worker(*args, **kwargs):
        assert os.getpid() != parent, "the task ran in the parent process"
        os._exit(1)

    monkeypatch.setattr(core, "usable_cpus", lambda: 2)
    if command == "run":
        monkeypatch.setattr(io, "read_matrix_csv", exit_in_worker)
        args, stage = ["--manifest", str(_manifest(tmp_path))], "cohort load"
    else:
        monkeypatch.setattr(simulate, "simulate_cohort", exit_in_worker)
        args = ["--design", str(_small_design(tmp_path))]
        stage = "simulate replicates"
    code = main(["--quiet", "--threads", "2", command, *args,
                 "--out", str(tmp_path / "out")])
    assert code == 3
    err = capfd.readouterr().err
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "error"
    assert payload["message"].startswith(f"{stage}: ")
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("text", ["1.0\n2.0,3.0\n", "1.0\nabc\n"])
def test_run_bad_covariate_file_is_one_json_line(tmp_path, capfd, text):
    manifest = _manifest(tmp_path, covariates="cov.csv")
    (tmp_path / "cov.csv").write_text(text)
    code = main(["run", "--manifest", str(manifest),
                 "--out", str(tmp_path / "results")])
    assert code == 2
    err = capfd.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "manifest" and "cov.csv" in payload["message"]
    assert not (tmp_path / "results").exists()


BAD_MOMENTS = {
    "missing-ebar": ({"vbar": 0.5}, 2, "manifest", "ebar"),
    "text-ebar": ({"ebar": "x", "vbar": 0.5}, 2, "manifest", "ebar"),
    # vbar/m vanishes against mu^4 = 2.5e11, so sigma2 cancels to 0
    "zero-sigma2": ({"ebar": 1e6, "vbar": 1e-9, "m": 2}, 3, "error", "sigma2"),
    "nan-ebar": ({"ebar": float("nan"), "vbar": 0.5}, 2, "validation", "finite"),
    "inf-vbar": ({"ebar": 1.0, "vbar": float("inf")}, 2, "validation", "finite"),
}


@pytest.mark.parametrize("case", sorted(BAD_MOMENTS))
def test_null_bad_moments_is_one_json_line(tmp_path, capfd, case):
    moments, exit_code, kind, expected = BAD_MOMENTS[case]
    path = tmp_path / "moments.json"
    path.write_text(json.dumps(moments))
    assert main(["--seed", "1", "null", "--moments", str(path)]) == exit_code
    err = capfd.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == kind
    assert expected in payload["message"]


@pytest.mark.parametrize("field", [{"density": 1.5, "baselines": ["t10"]},
                                   {"ranking": "weighted", "baselines": ["t10"]},
                                   {"null_networks": 0},
                                   {"alpha": 2.0}, {"alpha": -1},
                                   {"alpha": float("nan")}, {"seed": -1},
                                   {"seed": -1, "test": "permutation"},
                                   {"test_config": {"seed": -1}},
                                   {"test": "ttest"},
                                   {"threshold": {"kind": "addt", "level": 1.5}},
                                   {"baselines": ["t11"]},
                                   {"baselines": ["binb", "binb"]}])
def test_run_rejects_settings_before_reading_the_cohort(tmp_path, capfd, field):
    # the subject files do not exist: only a check made before load_cohort
    # can report the setting instead of the missing file
    manifest = tmp_path / "run.json"
    manifest.write_text(json.dumps({
        "group1": ["a.csv", "b.csv"], "group2": ["c.csv", "d.csv"],
        "seed": 3, **field}))
    code = main(["run", "--manifest", str(manifest),
                 "--out", str(tmp_path / "results")])
    assert code == 2
    err = capfd.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "validation"
    assert next(iter(field)) in payload["message"]
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("key, value", [
    *[pytest.param(key, "abc", id=key) for key in
      ["seed", "null_networks", "alpha", "density", "inner_dim"]],
    # an integer setting must be a JSON integer, not a float or a bool
    pytest.param("null_networks", 1.5, id="null_networks-float"),
    pytest.param("inner_dim", 2.9, id="inner_dim-float"),
    pytest.param("seed", True, id="seed-bool"),
    # a float setting must be a JSON number, not a string or a bool
    pytest.param("alpha", "0.05", id="alpha-numeric-string"),
    pytest.param("density", True, id="density-bool"),
    pytest.param("alpha", False, id="alpha-bool")])
def test_run_non_numeric_setting_is_one_json_line(tmp_path, capfd, key, value):
    manifest = tmp_path / "run.json"
    manifest.write_text(json.dumps({
        "group1": ["a.csv", "b.csv"], "group2": ["c.csv", "d.csv"],
        "seed": 3, "baselines": ["t10"], key: value}))
    code = main(["run", "--manifest", str(manifest),
                 "--out", str(tmp_path / "results")])
    assert code == 2
    err = capfd.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "manifest" and key in payload["message"]
    assert not (tmp_path / "results").exists()


BAD_MANIFEST_VALUES = {
    "permutations": ({"permutations": "many"}, "permutations"),
    "test-config-seed": ({"test_config": {"seed": "x"}}, "seed"),
    "test-config-permutations": ({"test_config": {"permutations": [9]}},
                                 "permutations"),
    "test-config-not-object": ({"test_config": ["welch_t"]}, "test_config"),
    "correct-nodes": ({"correct_nodes": "no"}, "correct_nodes"),
    "fisher-z": ({"fisher_z": "no"}, "fisher_z"),
    "test-config-fisher-z": ({"test_config": {"fisher_z": 1}}, "fisher_z"),
    "header": ({"header": "no"}, "header"),
    "baselines-string": ({"baselines": "t10"},
                         "baselines must be a list of strings"),
    "baselines-number": ({"baselines": ["t10", 5]},
                         "baselines must be a list of strings"),
    "cohort-not-object": ({"cohort": "subjects"}, "cohort must be an object"),
    "group-file-number": ({"group1": ["group1_0.csv", 7]},
                          "group1 must be a list of strings"),
    "labels-number": ({"labels": 5}, "labels must be a file name"),
    "covariates-list": ({"covariates": ["cov.csv"]},
                        "covariates must be a file name"),
    # a misspelled key fails instead of leaving its setting at the default
    "unknown-key": ({"nul_networks": 5}, "nul_networks"),
    "unknown-threshold-key": ({"threshold": {"kind": "addt", "lvel": 0.9}},
                              "lvel"),
    "unknown-test-config-key": ({"test_config": {"tset": "wilcoxon"}},
                                "tset"),
    "unknown-cohort-key": ({"cohort": {
        "group1": [f"group1_{s}.csv" for s in range(3)],
        "group2": [f"group2_{s}.csv" for s in range(3)],
        "label": "names.txt"}}, "label"),
    # each setting has one spelling: at the top level or in its block
    "test-given-twice": ({"test": "welch_t",
                          "test_config": {"test": "wilcoxon"}}, "test"),
    "labels-given-twice": ({"labels": "labels.txt", "cohort": {
        "group1": [f"group1_{s}.csv" for s in range(3)],
        "group2": [f"group2_{s}.csv" for s in range(3)]}}, "labels"),
}


@pytest.mark.parametrize("case", sorted(BAD_MANIFEST_VALUES))
def test_run_malformed_manifest_value_is_one_json_line(tmp_path, capfd, case):
    # the subject files exist, so only the malformed value can fail the run
    field, expected = BAD_MANIFEST_VALUES[case]
    manifest = _manifest(tmp_path, **field)
    code = main(["run", "--manifest", str(manifest),
                 "--out", str(tmp_path / "results")])
    assert code == 2
    err = capfd.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "manifest" and expected in payload["message"]
    assert not (tmp_path / "results").exists()


def test_simulate_rejects_zero_null_networks_before_any_replicate(tmp_path,
                                                                   capsys):
    code = main(["--quiet", "--threads", "1", "simulate", "--design",
                 str(_small_design(tmp_path, null_networks=0)),
                 "--out", str(tmp_path / "bench")])
    assert code == 2
    payload = json.loads(capsys.readouterr().err.strip())
    # reported like every other invalid SimDesign field
    assert payload["error"] == "manifest"
    assert "null_networks" in payload["message"]
    assert not (tmp_path / "bench").exists()


@pytest.mark.parametrize("threshold", [{"level": "high"}, {"level": None},
                                       {"kind": "addt", "level": [0.9]}])
def test_run_non_numeric_threshold_level_is_one_json_line(tmp_path, capfd,
                                                          threshold):
    manifest = tmp_path / "run.json"
    manifest.write_text(json.dumps({
        "group1": ["a.csv", "b.csv"], "group2": ["c.csv", "d.csv"],
        "seed": 3, "threshold": threshold}))
    code = main(["run", "--manifest", str(manifest),
                 "--out", str(tmp_path / "results")])
    assert code == 2
    err = capfd.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "manifest" and "level" in payload["message"]
    assert not (tmp_path / "results").exists()


def test_run_ignores_the_retired_threshold_keys(tmp_path):
    manifest = _manifest(tmp_path, threshold={
        "kind": "addt", "level": 0.95, "resolution": "many", "seed": "x"})
    assert main(["--quiet", "run", "--manifest", str(manifest),
                 "--out", str(tmp_path / "results")]) == 0
    summary = json.loads((tmp_path / "results" / "run_summary.json").read_text())
    assert summary["threshold"] == {"kind": "addt", "level": 0.95}


@pytest.mark.parametrize("field", [{"level": "x"}, {"alpha": "x"},
                                   {"density": "x"}, {"dwe_mean": "x"},
                                   {"null_networks": "5"}])
def test_simulate_non_numeric_design_value_is_one_json_line(tmp_path, capfd,
                                                            field):
    code = main(["--threads", "1", "simulate", "--design",
                 str(_small_design(tmp_path, **field)),
                 "--out", str(tmp_path / "bench")])
    assert code == 2
    err = capfd.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "manifest"
    assert next(iter(field)) in payload["message"]
    assert not (tmp_path / "bench").exists()


@pytest.mark.parametrize("field", [
    {"seed": -1}, {"alpha": 2.0}, {"n1": 1}, {"n2": 0},
    {"sw_weight_sd": -0.1, "structure": "smallworld"},
    {"sw_weight_sd": -0.1}, {"sw_rewire": 2.0}, {"sw_rewire": -0.5},
    {"between_density": -1}, {"between_density": 1.5, "structure": "hybrid"},
    {"n_modules": 0}, {"sw_neighbors": 0}])
def test_simulate_out_of_range_design_value_is_one_json_line(tmp_path, capfd,
                                                             field):
    code = main(["--threads", "1", "simulate", "--design",
                 str(_small_design(tmp_path, **field)),
                 "--out", str(tmp_path / "bench")])
    assert code == 2
    err = capfd.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "manifest"
    assert next(iter(field)) in payload["message"]
    assert not (tmp_path / "bench").exists()


def test_simulate_rejects_q_above_the_non_target_partners(tmp_path, capfd):
    design = _small_design(tmp_path, n_nodes=6, targets=[1, 2, 3], q=4)
    code = main(["--threads", "1", "simulate", "--design", str(design),
                 "--out", str(tmp_path / "bench")])
    assert code == 2
    err = capfd.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "manifest"
    assert "only 3 non-target partners" in payload["message"]
    assert not (tmp_path / "bench").exists()


@pytest.mark.parametrize("command", ["run", "null"])
def test_negative_seed_flag_fails_before_any_output(tmp_path, capfd, command):
    if command == "run":
        args = ["--manifest", str(_manifest(tmp_path))]
    else:
        moments = tmp_path / "moments.json"
        moments.write_text(json.dumps({"ebar": 1.0, "vbar": 0.5}))
        args = ["--moments", str(moments), "--nodes", "5"]
    code = main(["--seed", "-1", command, *args,
                 "--out", str(tmp_path / "results")])
    assert code == 2
    err = capfd.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    payload = json.loads(err)
    assert payload["error"] == "validation" and "seed" in payload["message"]
    assert not (tmp_path / "results").exists()
