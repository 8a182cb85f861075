"""Tests of the benchmark itself (not part of the repository's test suite).

Run from the repository root:  PYTHONPATH=src python3 -m pytest perfbench -q
"""

import importlib
from pathlib import Path

import pytest

import gen
import run
import spans


def _tree(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _cohort(out: Path, seed: int) -> dict:
    return gen.write_cohort(out, seed=seed, n=20, per_group=3,
                            test="regression", threshold="addt",
                            null_networks=100, covariates=2,
                            baselines=("t10",))


def test_generator_is_deterministic_for_a_seed(tmp_path):
    first = _cohort(tmp_path / "a", seed=7)
    second = _cohort(tmp_path / "b", seed=7)
    other = _cohort(tmp_path / "c", seed=8)
    assert first["targets"] == second["targets"] and len(first["targets"]) == 2
    assert _tree(tmp_path / "a") == _tree(tmp_path / "b")
    assert _tree(tmp_path / "a") != _tree(tmp_path / "c")
    design_a = gen.write_design(tmp_path / "d", seed=7, replicates=5)
    design_b = gen.write_design(tmp_path / "e", seed=7, replicates=5)
    assert design_a.read_bytes() == design_b.read_bytes()


@pytest.mark.parametrize("module_name,attr",
                         [(h.module, h.attr) for h in spans.HOOKS])
def test_every_hook_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))


def test_missing_metrics_are_left_out_not_zero():
    trace = {"spans": [["cli.self_s", 0.0, 2.0, -1],
                       ["edgetests.edgewise_s", 0.5, 1.0, 0]],
             "counts": {"edgetests.edges": 10},
             "missing": ["io.load_cohort_s", "io.input_bytes"]}
    values = run.layer_values(trace)
    assert "io.load_cohort_s" not in values and "io.input_bytes" not in values
    assert values["cli.self_s"] == pytest.approx(1.5)
    assert values["edgetests.edges_per_s"] == pytest.approx(20.0)
    assert values["io.write_s"] == 0.0


def test_hook_that_does_not_resolve_marks_its_metrics_missing(monkeypatch):
    hook = spans.Hook("ddtnet.cli", "no_such_function", span="io.load_cohort_s",
                      counts=spans._input_bytes, feeds=("io.input_bytes",))
    monkeypatch.setattr(spans, "HOOKS", (hook,))
    tracer = spans.Tracer()
    spans.install(tracer)
    assert tracer.missing == {"io.load_cohort_s", "io.input_bytes"}


def test_failing_count_marks_only_its_metrics_missing_and_the_call_goes_on():
    tracer = spans.Tracer()
    hook = spans.Hook("m", "edgewise_pvalues", **spans._EDGES)
    wrapped = spans._wrap(tracer, lambda cohort, cfg: "no n_edges here", hook)
    assert wrapped("cohort", "cfg") == "no n_edges here"
    assert tracer.missing == {"edgetests.edges"}
    assert [s[0] for s in tracer.spans] == ["edgetests.edgewise_s"]


def test_null_bytes_come_from_the_call_arguments():
    def generate_null(moments, n, size, seed=0):
        return None                  # what it returns is not read
    tracer = spans.Tracer()
    wrapped = spans._wrap(tracer, generate_null,
                          spans.Hook("m", "generate_null", **spans._NULL))
    wrapped("moments", 10, 4)
    wrapped("moments", n=5, size=3, seed=1)
    assert tracer.counts["hqs.null_replicates"] == 7
    assert tracer.counts["hqs.null_bytes"] == 4 * 45 * 8
    assert not tracer.missing


def test_output_check_flags_a_wrong_decision(tmp_path):
    path = tmp_path / "nodes.csv"
    path.write_text("node,label,degree,p_null,pvalue,significant\n"
                    "0,0,5,0.05,0.01,true\n"
                    "1,1,0,0.05,0.9,true\n")
    problems, quality = run.check_nodes(path, 2, (), "eddt", targets=[0])
    assert problems == ["node 1: significant disagrees with pvalue"]
    assert quality["node_mcc.eddt"] == 0.0
