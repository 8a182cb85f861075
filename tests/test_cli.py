import json

import numpy as np
import pytest

from ddtnet.cli import main
from ddtnet.io import write_matrix_csv

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
                                   {"level": 1.5, "methods": ["addt"]}])
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
    import os

    from ddtnet.cli import _threads
    monkeypatch.delenv("DDT_THREADS", raising=False)
    assert _threads(Namespace(threads=None)) == (os.cpu_count() or 1)
    monkeypatch.setenv("DDT_THREADS", "")
    assert _threads(Namespace(threads=None)) == (os.cpu_count() or 1)
    monkeypatch.setenv("DDT_THREADS", "3")
    assert _threads(Namespace(threads=None)) == 3
    assert _threads(Namespace(threads="5")) == 5


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
