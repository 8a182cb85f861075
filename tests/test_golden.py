"""Golden-output guard: SHA-256 digests of three small end-to-end runs.

The digests pin the exact bytes of `ddt simulate` (every node method and
edge rule; its design echo is pinned by value) and of `ddt run` (welch_t on Fisher-Z values with the t10, binb
and binf baselines), once with the eDDT and once with the aDDT threshold.
A refactor that claims byte-identical outputs must keep them. Any intended
output change must update the pins here and say so, with the reason, in
CHANGES.md.
"""

import hashlib
import json

import numpy as np

from ddtnet.cli import main
from ddtnet.io import write_matrix_csv

SIMULATE_DIGESTS = {
    "metrics.csv":
        "0d26145ebe65d96d2c19d607f053d8f482a32fc978a9337e6164052a03d58373",
    "replicates.csv.gz":
        "87edde082415ab7667c8aa622ec94c2ff0749090a000a8d3ca28d0503731b564",
}
# the simulate run's design echo without its elapsed_seconds: every
# SimDesign field, the methods and edge rules included
SIMULATE_ECHO = {
    "alpha": 0.05, "base_edge_sd": 0.2, "between_density": 0.1,
    "density": 0.1, "dwe_mean": 0.1,
    "edge_rules": ["addt", "eddt", "hard_0.95", "hard_0.99", "bonferroni",
                   "fdr"],
    "edge_test": "welch_t", "level": 0.95,
    "methods": ["addt", "eddt", "binb", "binf", "t10"],
    "n1": 6, "n2": 7, "n_modules": 4, "n_nodes": 12, "null_networks": 30,
    "q": 3, "ranking": "signed", "replicates": 4, "seed": 23,
    "structure": "random", "subject_noise_sd": 0.1414213562373095,
    "sw_neighbors": 4, "sw_rewire": 0.1, "sw_signed": False,
    "sw_weight_mean": 0.2, "sw_weight_sd": 0.04, "targets": [2, 5],
}
RUN_DIGESTS = {
    "nodes.csv":
        "62988715948e426bd391d480bdae3d99ed35ada1aadd4e2efe6f4fe5679a7f15",
    "adjacency.csv":
        "1ed08461bc138e20f3fa180fcba32d036b45abfa1699454d2f0317d4fb37c1d3",
}
ADDT_RUN_DIGESTS = {
    "nodes.csv":
        "f7af844c093b3a5b6d7134f8e0e127a5fcdc6f96e9bdcd450275fc5bd6827223",
    "adjacency.csv":
        "256be9dbec7978a99548ca9da6eac935fe798c289ebc0b2866130c91ad62c53a",
    "gamma.json":
        "e5359de11920325fc1a6f841083f28abd328f1df7c0662eb1322f8b68f7d5ec6",
}


def _digests(out, names):
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in names}


def test_simulate_outputs_match_the_pinned_digests(tmp_path):
    design = tmp_path / "design.json"
    design.write_text(json.dumps({
        "n_nodes": 12, "n1": 6, "n2": 7, "q": 3, "targets": [2, 5],
        "replicates": 4, "seed": 23, "null_networks": 30,
        "methods": ["addt", "eddt", "binb", "binf", "t10"],
        "edge_rules": ["addt", "eddt", "hard_0.95", "hard_0.99",
                       "bonferroni", "fdr"],
    }))
    assert main(["--quiet", "--threads", "1", "simulate",
                 "--design", str(design), "--out", str(tmp_path / "sim")]) == 0
    assert _digests(tmp_path / "sim", SIMULATE_DIGESTS) == SIMULATE_DIGESTS
    echo = json.loads((tmp_path / "sim" / "design.json").read_text())
    assert isinstance(echo.pop("elapsed_seconds"), float)
    assert echo == SIMULATE_ECHO


def _run(tmp_path, threshold):
    """`ddt run` on a 12-node cohort of 5 + 5 subjects with a planted block;
    returns its output directory."""
    n, per_group = 12, 5
    rng = np.random.default_rng(41)
    iu, ju = np.triu_indices(n, k=1)
    base = rng.uniform(-0.5, 0.5, size=len(iu))
    shifted = (iu < 3) & (ju < 6)
    files = {"group1": [], "group2": []}
    for group in files:
        for s in range(per_group):
            vals = base + rng.normal(0.0, 0.1, size=len(iu))
            if group == "group2":
                vals[shifted] += 0.35
            dense = np.eye(n)
            dense[iu, ju] = dense[ju, iu] = np.clip(vals, -0.99, 0.99)
            name = f"{group}_{s}.csv"
            write_matrix_csv(tmp_path / name, dense)
            files[group].append(name)
    manifest = tmp_path / "run.json"
    manifest.write_text(json.dumps({
        **files, "seed": 8, "test": "welch_t", "fisher_z": True,
        "null_networks": 50, "threshold": threshold,
        "baselines": ["t10", "binb", "binf"], "density": 0.2}))
    assert main(["--quiet", "run", "--manifest", str(manifest),
                 "--out", str(tmp_path / "out")]) == 0
    return tmp_path / "out"


def test_run_outputs_match_the_pinned_digests(tmp_path):
    out = _run(tmp_path, {"kind": "eddt", "level": 0.9})
    assert _digests(out, RUN_DIGESTS) == RUN_DIGESTS


def test_addt_run_outputs_match_the_pinned_digests(tmp_path):
    out = _run(tmp_path, {"kind": "addt", "level": 0.9})
    assert _digests(out, ADDT_RUN_DIGESTS) == ADDT_RUN_DIGESTS
