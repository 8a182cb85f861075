import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from ddtnet.core import SymmetricMatrix
from ddtnet.io import (
    ManifestError,
    load_cohort,
    load_design,
    load_partition,
    load_run_manifest,
    read_matrix_csv,
    write_matrix_csv,
)
from ddtnet.simulate import NODE_METHODS
from ddtnet.thresholds import ThresholdRule


def test_matrix_csv_roundtrip_bit_identical(tmp_path):
    rng = np.random.default_rng(0)
    dense = rng.normal(size=(9, 9)) * 10.0 ** rng.integers(-12, 12, size=(9, 9))
    dense = (dense + dense.T) / 2
    path = tmp_path / "m.csv"
    write_matrix_csv(path, dense)
    back = read_matrix_csv(path)
    assert np.array_equal(back, dense)          # exact, not approx
    m = SymmetricMatrix.from_dense(back)
    write_matrix_csv(path, m.to_dense())
    assert np.array_equal(read_matrix_csv(path), m.to_dense())


def test_matrix_csv_rows_match_the_whole_matrix_format(tmp_path):
    # formatting row by row gives the bytes of formatting dense.tolist()
    rng = np.random.default_rng(3)
    path = tmp_path / "m.csv"
    for dense, conv in ((rng.normal(size=(7, 7)), repr),
                        (rng.integers(-3, 3, size=(7, 7)), str)):
        write_matrix_csv(path, dense)
        expected = "".join(",".join(map(conv, row)) + "\r\n"
                           for row in dense.tolist())
        assert path.read_bytes() == expected.encode()


@st.composite
def _square_matrices(draw):
    n = draw(st.integers(1, 6))
    return draw(arrays(np.float64, (n, n),
                       elements=st.floats(allow_nan=False, allow_infinity=False)))


@settings(max_examples=80, deadline=None)
@given(dense=_square_matrices(), quoted=st.booleans())
def test_matrix_csv_roundtrip_property(dense, quoted):
    """Every finite float64, subnormals and -0.0 included, reads back bit for
    bit, also from quoted fields."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.csv"
        write_matrix_csv(path, dense)
        if quoted:
            lines = path.read_text().splitlines()
            path.write_text("".join(
                ",".join(f'"{cell}"' for cell in line.split(",")) + "\r\n"
                for line in lines))
        back = read_matrix_csv(path)
    assert back.shape == dense.shape
    assert np.array_equal(back.view(np.int64), dense.view(np.int64))


def test_matrix_csv_quotes_blank_lines_and_spaces(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text('"1.5", 2.0 \r\n\r\n2.0,"-0.0"\r\n')
    back = read_matrix_csv(path)
    assert back.tolist() == [[1.5, 2.0], [2.0, 0.0]]
    assert np.signbit(back[1, 1])


def test_matrix_csv_header_skip(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("a,b\n1.0,2.0\n2.0,1.0\n")
    arr = read_matrix_csv(path, header=True)
    assert arr.shape == (2, 2)
    with pytest.raises(ManifestError, match="non-numeric"):
        read_matrix_csv(path, header=False)


def test_matrix_csv_errors(tmp_path):
    with pytest.raises(ManifestError, match="not found"):
        read_matrix_csv(tmp_path / "absent.csv")
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ManifestError, match="ragged"):
        read_matrix_csv(ragged)
    rect = tmp_path / "rect.csv"
    rect.write_text("1.0,2.0,3.0\n4.0,5.0,6.0\n")
    with pytest.raises(ManifestError, match="square"):
        read_matrix_csv(rect)


def test_matrix_csv_empty_files(tmp_path):
    for text in ("", "\r\n\r\n"):
        empty = tmp_path / "empty.csv"
        empty.write_text(text)
        with pytest.raises(ManifestError, match="empty.csv: empty matrix file"):
            read_matrix_csv(empty)
    header_only = tmp_path / "header.csv"
    header_only.write_text("a,b\n")
    with pytest.raises(ManifestError, match="empty matrix file"):
        read_matrix_csv(header_only, header=True)


def _write_matrix(path, n, seed, shift=0.0):
    rng = np.random.default_rng(seed)
    d = rng.uniform(-0.3, 0.3, size=(n, n))
    d = (d + d.T) / 2 + shift
    np.fill_diagonal(d, 1.0)
    write_matrix_csv(path, d)


def test_load_cohort_with_covariates_and_labels(tmp_path):
    for i in range(4):
        _write_matrix(tmp_path / f"g1_{i}.csv", 4, seed=i)
        _write_matrix(tmp_path / f"g2_{i}.csv", 4, seed=10 + i)
    (tmp_path / "cov.csv").write_text(
        "\n".join(f"{v},{v * 2}" for v in range(8)) + "\n")
    (tmp_path / "labels.txt").write_text("A\nB\nC\nD\n")
    manifest = {
        "group1": [f"g1_{i}.csv" for i in range(4)],
        "group2": [f"g2_{i}.csv" for i in range(4)],
        "covariates": "cov.csv",
        "labels": "labels.txt",
    }
    cohort = load_cohort(manifest, tmp_path)
    assert cohort.n == 4 and cohort.n1 == 4 and cohort.n2 == 4
    assert cohort.covariates.shape == (8, 2)
    assert cohort.labels == ("A", "B", "C", "D")


def test_load_cohort_missing_file_names_path(tmp_path):
    manifest = {"group1": ["missing.csv"], "group2": ["also_missing.csv"]}
    with pytest.raises(ManifestError, match="missing.csv"):
        load_cohort(manifest, tmp_path)


def test_load_cohort_rejects_an_unknown_key(tmp_path):
    # the check is load_cohort's own, so library callers get it too; it
    # comes before any subject file is read
    manifest = {"group1": ["a.csv"], "group2": ["b.csv"], "group3": ["c.csv"]}
    with pytest.raises(ManifestError, match="group3"):
        load_cohort(manifest, tmp_path)


def test_load_partition_variants(tmp_path):
    p = tmp_path / "modules.csv"
    p.write_text("0,1,Visual\n1,1\n2,2,Default\n3,2\n")
    part = load_partition(p)
    assert part.n_modules == 2
    assert part.name(1) == "Visual" and part.name(2) == "Default"
    # header tolerated
    p2 = tmp_path / "m2.csv"
    p2.write_text("node_index,module_id\n0,1\n1,1\n2,2\n")
    assert load_partition(p2).n_modules == 2
    p3 = tmp_path / "m3.csv"
    p3.write_text("0,1\n2,1\n")
    with pytest.raises(ManifestError, match="cover"):
        load_partition(p3)
    # a repeated node, and a module given two names, are errors naming the
    # file and the line; a row without a name keeps the module's name
    p4 = tmp_path / "m4.csv"
    p4.write_text("0,1\n1,1\n1,2\n2,2\n")
    with pytest.raises(ManifestError,
                       match=re.escape(f"{p4}: line 3 repeats node 1")):
        load_partition(p4)
    p5 = tmp_path / "m5.csv"
    p5.write_text("node_index,module_id,name\n0,1,A\n1,1,A\n2,2\n3,1,B\n")
    with pytest.raises(ManifestError, match=re.escape(
            f"{p5}: line 5 names module 1 'B', already named 'A'")):
        load_partition(p5)
    p6 = tmp_path / "m6.csv"
    p6.write_text("0,1,A\n1,1\n2,2\n3,1,A\n")
    assert load_partition(p6).name(1) == "A"


def test_load_design(tmp_path):
    path = tmp_path / "design.json"
    path.write_text(json.dumps({
        "structure": "random", "n_nodes": 16, "n1": 5, "n2": 5, "q": 3,
        "targets": [1], "replicates": 2, "seed": 7,
        "methods": ["addt", "t10"], "edge_rules": ["bonferroni"],
    }))
    design = load_design(path)
    assert design.n_nodes == 16 and design.targets == (1,)
    assert design.methods == ("addt", "t10")
    assert design.edge_rules == ("bonferroni",)
    # the methods and edge rules default to every node method and none
    path.write_text(json.dumps({"replicates": 2}))
    assert load_design(path).methods == NODE_METHODS
    assert load_design(path).edge_rules == ()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"structure": "ring"}))
    with pytest.raises(ManifestError, match="random, smallworld, hybrid"):
        load_design(bad)
    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"wobble": 3}))
    with pytest.raises(ManifestError, match="wobble"):
        load_design(unknown)


def test_load_design_ignores_the_retired_resolution(tmp_path):
    fields = {"n_nodes": 16, "n1": 5, "n2": 5, "q": 3, "targets": [1],
              "replicates": 2, "seed": 7}
    plain, retired = tmp_path / "plain.json", tmp_path / "retired.json"
    plain.write_text(json.dumps(fields))
    retired.write_text(json.dumps({**fields, "resolution": 200_000}))
    assert load_design(retired) == load_design(plain)


@pytest.mark.parametrize("field", [
    {"level": "x"}, {"alpha": "x"}, {"density": "x"}, {"dwe_mean": "x"},
    {"null_networks": "5"}, {"replicates": 2.0}, {"level": None},
    {"alpha": float("nan")}, {"targets": ["1"]}, {"targets": 1},
    {"sw_signed": 1}, {"structure": 3}, {"methods": "addt"},
    {"edge_rules": ["fdr", 1]}])
def test_load_design_rejects_values_of_the_wrong_type(tmp_path, field):
    path = tmp_path / "design.json"
    path.write_text(json.dumps({"replicates": 2, **field}))
    with pytest.raises(ManifestError, match=next(iter(field))):
        load_design(path)


def test_load_design_checks_every_field_type():
    # a config field whose annotation the loaders cannot check would crash
    # the load instead of rejecting a bad value
    from dataclasses import fields

    from ddtnet.edgetests import EdgeTestConfig
    from ddtnet.io import _JSON_TYPES, RunManifest
    from ddtnet.simulate import SimDesign
    for cls in (SimDesign, ThresholdRule, EdgeTestConfig):
        assert {f.type for f in fields(cls)} <= set(_JSON_TYPES), cls
    # a RunManifest field read from the manifest's top level has a checked
    # annotation; the others are built from their own blocks or the path
    unchecked = {f.name for f in fields(RunManifest)
                 if f.type not in _JSON_TYPES}
    assert unchecked == {"threshold", "test_config", "base_dir"}


def test_run_manifest_threshold_reads_kind_and_level_only(tmp_path):
    def threshold(block):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"seed": 1, "threshold": block}))
        return load_run_manifest(path).threshold

    assert threshold({"kind": "addt", "level": 0.9, "resolution": "many",
                      "seed": "x"}) == ThresholdRule("addt", 0.9)
    for block in ({"level": "high"}, {"level": None}, {"level": [0.9]}, 0.95):
        with pytest.raises(ManifestError, match="level|threshold"):
            threshold(block)


def test_run_manifest_applies_the_command_line_overrides(tmp_path):
    from ddtnet.edgetests import EdgeTestConfig
    path = tmp_path / "run.json"
    groups = {"group1": ["a.csv"], "group2": ["b.csv"]}
    path.write_text(json.dumps({"seed": 4, "baselines": ["t10"],
                                "test": "wilcoxon", **groups}))
    run = load_run_manifest(path)
    assert run.seed == 4 and run.baselines == ("t10",)
    assert run.test_config == EdgeTestConfig("wilcoxon", seed=4)
    assert run.cohort == groups and run.base_dir == tmp_path
    # --seed also seeds the edge test; --baselines is a comma list
    run = load_run_manifest(path, seed=9, baselines="binb, binf,")
    assert run.seed == 9 and run.test_config == EdgeTestConfig("wilcoxon", seed=9)
    assert run.baselines == ("binb", "binf")
    # a cohort block reads as the same cohort
    path.write_text(json.dumps({"seed": 4, "cohort": groups}))
    assert load_run_manifest(path).cohort == groups


def test_load_json_needs_an_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(ManifestError, match="JSON object"):
        load_design(path)


def test_nodes_csv_writes_columns_and_labels_as_given(tmp_path):
    from types import SimpleNamespace

    from ddtnet.degree_test import NodeTests, node_tests
    from ddtnet.io import write_nodes_csv

    ddt = node_tests(np.array([2, 0, 1]), np.array([0.0, 0.2, 0.2]))
    t10 = NodeTests(pvalue=np.array([0.5, 0.01, 1.0]),
                    significant=np.array([False, True, False]))
    result = SimpleNamespace(nodes=ddt)
    path = tmp_path / "nodes.csv"
    write_nodes_csv(path, result, labels=("0", "1.0", "a,b"),
                    baselines={"t10": t10, "binb": ddt})
    lines = path.read_text().splitlines()
    assert lines[0] == ("node,label,degree,p_null,pvalue,significant,"
                        "t10_pvalue,t10_significant,"
                        "binb_degree,binb_pvalue,binb_significant")
    assert lines[1] == "0,0,2,0.0,1e-300,true,0.5,false,2,1e-300,true"
    assert lines[3].startswith('2,"a,b",1,0.2,')
    write_nodes_csv(path, result)
    assert [row.split(",")[:2] for row in path.read_text().splitlines()[1:]] == \
        [["0", "0"], ["1", "1"], ["2", "2"]]
