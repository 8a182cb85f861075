"""scipy.stats costs about a second to import; only the wilcoxon edge test
uses it. These checks run the command line in a fresh interpreter and fail
if a Welch or regression run, a simulation, module enrichment or --version
loads it anyway.

scipy.special holds about 25 MB once loaded, and a run needs it only after
the cohort is reduced: --version, `ddt null --moments` and an input error
never load it, `ddt run` loads it only after load_cohort returns, so the
load peaks without it, and `ddt simulate` loads it before its pool forks,
so the workers inherit it.

The process-pool modules (concurrent.futures.process and multiprocessing)
are loaded only when a pool is made: --version, `ddt null --moments` and a
--threads 1 run or simulation never load them."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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


# runs ddt's main in-process on a host of two usable CPUs, then reports
# whether scipy.special was loaded at exit, when load_cohort returned and
# when a process pool was made
SPECIAL_PROBE = """
import concurrent.futures as futures, json, sys
from ddtnet import cli, core
seen = {}
load = cli.load_cohort
def load_cohort(*args, **kwargs):
    cohort = load(*args, **kwargs)
    seen["after_load"] = "scipy.special" in sys.modules
    return cohort
class Pool(futures.ProcessPoolExecutor):
    def __init__(self, *args, **kwargs):
        seen["at_fork"] = "scipy.special" in sys.modules
        super().__init__(*args, **kwargs)
cli.load_cohort, futures.ProcessPoolExecutor = load_cohort, Pool
core.usable_cpus = lambda: 2
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exit_:
    code = exit_.code
print(json.dumps({"code": code, "special": "scipy.special" in sys.modules,
                  **seen}))
"""

# runs ddt's main in-process on a host of two usable CPUs, then reports
# whether multiprocessing, which a process pool needs, was loaded
POOL_PROBE = """
import json, sys
from ddtnet import cli, core
core.usable_cpus = lambda: 2
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exit_:
    code = exit_.code
print(json.dumps({"code": code, "pool": "multiprocessing" in sys.modules}))
"""


def _probe(*argv: str, probe: str = PROBE) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", probe, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_version_does_not_load_scipy_stats():
    assert _probe("--version") == {"code": 0, "stats": False}


def _run_manifest(tmp_path, **settings) -> Path:
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
    manifest.write_text(json.dumps({**files, "seed": 3, "null_networks": 40,
                                    **settings}))
    return manifest


def test_welch_run_does_not_load_scipy_stats(tmp_path):
    manifest = _run_manifest(tmp_path, test="welch_t",
                             threshold={"kind": "eddt", "level": 0.95},
                             baselines=["t10", "binb", "binf"])
    got = _probe("--quiet", "run", "--manifest", str(manifest),
                 "--out", str(tmp_path / "out"))
    assert got == {"code": 0, "stats": False}


def test_regression_run_does_not_load_scipy_stats(tmp_path):
    manifest = _run_manifest(tmp_path, test="regression",
                             threshold={"kind": "addt", "level": 0.95})
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


def test_enrich_does_not_load_scipy_stats(tmp_path):
    adj = np.zeros((6, 6), dtype=int)
    adj[0, 1] = adj[1, 0] = adj[0, 2] = adj[2, 0] = 1
    write_matrix_csv(tmp_path / "adjacency.csv", adj)
    (tmp_path / "modules.csv").write_text("0,1\n1,1\n2,1\n3,2\n4,2\n5,2\n")
    got = _probe("--quiet", "enrich", "--adjacency",
                 str(tmp_path / "adjacency.csv"), "--modules",
                 str(tmp_path / "modules.csv"), "--out",
                 str(tmp_path / "enrichment.csv"))
    assert got == {"code": 0, "stats": False}


def test_wilcoxon_pvalues_loads_scipy_stats():
    # the probe can see scipy.stats: a path that needs it does load it
    code = ("import sys; import numpy as np;"
            "from ddtnet.edgetests import wilcoxon_pvalues;"
            "wilcoxon_pvalues(np.c_[[0.0, 1.0, 2.0]], np.c_[[3.0, 4.0, 5.0]]);"
            "print('scipy.stats' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=120)
    assert done.stdout.strip() == "True"


def test_version_does_not_load_scipy_special():
    assert _probe("--version", probe=SPECIAL_PROBE) == {"code": 0,
                                                        "special": False}


def test_null_from_moments_does_not_load_scipy_special(tmp_path):
    moments = tmp_path / "moments.json"
    moments.write_text(json.dumps({"ebar": 1.0, "vbar": 0.5, "m": 2}))
    got = _probe("--quiet", "null", "--moments", str(moments), "--nodes", "6",
                 "--ensemble-size", "3", "--out", str(tmp_path / "null"),
                 probe=SPECIAL_PROBE)
    assert got == {"code": 0, "special": False}
    assert len(list((tmp_path / "null").iterdir())) == 3


@pytest.mark.parametrize("defect", ["missing manifest", "asymmetric file"])
def test_input_error_does_not_load_scipy_special(tmp_path, defect):
    manifest = _run_manifest(tmp_path, test="welch_t",
                             threshold={"kind": "eddt", "level": 0.95})
    if defect == "missing manifest":
        manifest = tmp_path / "none.json"
    else:    # group 2's last file: group 1 is read and reduced first
        write_matrix_csv(tmp_path / "group2_3.csv", np.triu(np.ones((8, 8))))
    got = _probe("--quiet", "--threads", "1", "run", "--manifest",
                 str(manifest), "--out", str(tmp_path / "out"),
                 probe=SPECIAL_PROBE)
    assert got == {"code": 2, "special": False}


@pytest.mark.parametrize("threads", ["1", "2"])
def test_run_loads_scipy_special_after_the_cohort_load(tmp_path, threads):
    # the load, on a pool or not, peaks without scipy.special; the p-values
    # and the eDDT null pass then load it
    manifest = _run_manifest(tmp_path, test="welch_t",
                             threshold={"kind": "eddt", "level": 0.95},
                             baselines=["t10", "binb", "binf"])
    got = _probe("--quiet", "--threads", threads, "run", "--manifest",
                 str(manifest), "--out", str(tmp_path / "out"),
                 probe=SPECIAL_PROBE)
    pool = {"at_fork": False} if threads == "2" else {}
    assert got == {"code": 0, "special": True, "after_load": False, **pool}


def test_simulate_loads_scipy_special_before_its_pool_forks(tmp_path):
    design = tmp_path / "design.json"
    design.write_text(json.dumps({
        "n_nodes": 12, "n1": 6, "n2": 6, "q": 4, "targets": [1, 2],
        "replicates": 2, "seed": 17, "null_networks": 20,
        "methods": ["addt", "eddt", "binb"]}))
    got = _probe("--quiet", "--threads", "2", "simulate", "--design",
                 str(design), "--out", str(tmp_path / "bench"),
                 probe=SPECIAL_PROBE)
    assert got == {"code": 0, "special": True, "at_fork": True}


@pytest.mark.parametrize("threads, command", [
    (None, "--version"), (None, "null"), ("1", "simulate"), ("1", "run"),
    ("2", "run")])
def test_only_a_process_pool_loads_multiprocessing(tmp_path, threads, command):
    out = ["--out", str(tmp_path / "out")]
    if command == "null":
        moments = tmp_path / "moments.json"
        moments.write_text(json.dumps({"ebar": 1.0, "vbar": 0.5, "m": 2}))
        args = ["--moments", str(moments)]
    elif command == "simulate":
        design = tmp_path / "design.json"
        design.write_text(json.dumps({
            "n_nodes": 12, "n1": 6, "n2": 6, "q": 4, "targets": [1, 2],
            "replicates": 2, "seed": 17, "null_networks": 20,
            "methods": ["addt", "eddt", "binb"]}))
        args = ["--design", str(design), *out]
    elif command == "run":
        manifest = _run_manifest(tmp_path, test="welch_t",
                                 threshold={"kind": "eddt", "level": 0.95})
        args = ["--manifest", str(manifest), *out]
    else:
        args = []
    flags = ["--threads", threads] if threads else []
    got = _probe("--quiet", *flags, command, *args, probe=POOL_PROBE)
    assert got == {"code": 0, "pool": threads == "2"}
