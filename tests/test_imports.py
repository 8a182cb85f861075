"""scipy.stats costs about a second to import; only the wilcoxon and
regression edge tests and module enrichment use it. These checks run the
command line in a fresh interpreter and fail if a Welch run, a simulation
or --version loads it anyway."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import ddtnet
from ddtnet.io import write_matrix_csv

SRC = str(Path(ddtnet.__file__).resolve().parents[1])

# runs ddt's main in-process, then reports whether scipy.stats was loaded
PROBE = """
import json, sys
from ddtnet.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exit_:
    code = exit_.code
print(json.dumps({"code": code, "stats": "scipy.stats" in sys.modules}))
"""


def _probe(*argv: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", PROBE, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_version_does_not_load_scipy_stats():
    assert _probe("--version") == {"code": 0, "stats": False}


def test_welch_run_does_not_load_scipy_stats(tmp_path):
    rng = np.random.default_rng(5)
    n = 8
    files = {"group1": [], "group2": []}
    for group, shift in (("group1", 0.0), ("group2", 0.6)):
        for s in range(4):
            d = rng.normal(0.0, 0.05, size=(n, n)) + shift
            d = (d + d.T) / 2
            np.fill_diagonal(d, 1.0)
            write_matrix_csv(tmp_path / f"{group}_{s}.csv", d)
            files[group].append(f"{group}_{s}.csv")
    manifest = tmp_path / "run.json"
    manifest.write_text(json.dumps({
        **files, "seed": 3, "null_networks": 40, "test": "welch_t",
        "threshold": {"kind": "eddt", "level": 0.95},
        "baselines": ["t10", "binb", "binf"]}))
    got = _probe("--quiet", "run", "--manifest", str(manifest),
                 "--out", str(tmp_path / "out"))
    assert got == {"code": 0, "stats": False}


def test_simulate_does_not_load_scipy_stats(tmp_path):
    design = tmp_path / "design.json"
    design.write_text(json.dumps({
        "n_nodes": 12, "n1": 6, "n2": 6, "q": 4, "targets": [1, 2],
        "replicates": 2, "seed": 17, "null_networks": 20,
        "resolution": 20000, "methods": ["addt", "eddt", "binb", "binf", "t10"],
        "edge_rules": ["addt", "eddt", "hard_0.95", "hard_0.99",
                       "bonferroni", "fdr"]}))
    got = _probe("--quiet", "--threads", "1", "simulate", "--design",
                 str(design), "--out", str(tmp_path / "bench"))
    assert got == {"code": 0, "stats": False}


def test_regression_edge_loads_scipy_stats():
    # the probe can see scipy.stats: a path that needs it does load it
    code = ("import sys, numpy as np; from ddtnet.edgetests import regression_edge;"
            "regression_edge(np.arange(6.0), np.array([0, 0, 0, 1, 1, 1.0]));"
            "print('scipy.stats' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=120)
    assert done.stdout.strip() == "True"
