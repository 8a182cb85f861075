"""Golden-output guard: SHA-256 digests of small end-to-end runs.

The digests pin the exact bytes of `ddt simulate` (every node method and
edge rule; its design echo is pinned by value) and of `ddt run`: welch_t on
Fisher-Z values with the t10, binb and binf baselines, once with the eDDT
and once with the aDDT threshold, and each joint edge test (wilcoxon on
its exact, tie-corrected and large-sample paths, permutation, regression
with two covariates), whose p-values difference_network.csv holds.
A refactor that claims byte-identical outputs must keep them. Any intended
output change must update the pins here and say so, with the reason, in
CHANGES.md.
"""

import hashlib
import json

import numpy as np
import pytest

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
        "e9eaf45bffbc8a066401fd87a915993e04a16ada198b560fb5a3f899804aefb3",
    "adjacency.csv":
        "1ed08461bc138e20f3fa180fcba32d036b45abfa1699454d2f0317d4fb37c1d3",
}
ADDT_RUN_DIGESTS = {
    "nodes.csv":
        "77a46a9f4f91c27e278ca07fff8891c9e8d3dc195cbf109cfe6c4ec31f3801fd",
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


def _run(tmp_path, threshold, per_group=5, block=6, decimals=None,
         covariates=False, **manifest):
    """`ddt run` on a 12-node cohort of per_group + per_group subjects, in
    which group 2 is shifted on the edges (i, j) with i < 3 and j < block;
    the values are rounded to `decimals` when given, and two covariates (a
    normal one and a binary one) are added when asked for. `manifest` keys
    replace the welch_t defaults. Returns the output directory."""
    n = 12
    rng = np.random.default_rng(41)
    iu, ju = np.triu_indices(n, k=1)
    base = rng.uniform(-0.5, 0.5, size=len(iu))
    shifted = (iu < 3) & (ju < block)
    files = {"group1": [], "group2": []}
    for group in files:
        for s in range(per_group):
            vals = base + rng.normal(0.0, 0.1, size=len(iu))
            if group == "group2":
                vals[shifted] += 0.35
            vals = np.clip(vals, -0.99, 0.99)
            if decimals is not None:
                vals = np.round(vals, decimals)
            dense = np.eye(n)
            dense[iu, ju] = dense[ju, iu] = vals
            name = f"{group}_{s}.csv"
            write_matrix_csv(tmp_path / name, dense)
            files[group].append(name)
    if covariates:
        write_matrix_csv(tmp_path / "covariates.csv", np.column_stack(
            [rng.normal(size=2 * per_group),
             rng.integers(0, 2, size=2 * per_group)]))
        manifest["covariates"] = "covariates.csv"
    (tmp_path / "run.json").write_text(json.dumps({
        **files, "seed": 8, "test": "welch_t", "fisher_z": True,
        "null_networks": 50, "threshold": threshold,
        "baselines": ["t10", "binb", "binf"], "density": 0.2, **manifest}))
    assert main(["--quiet", "run", "--manifest", str(tmp_path / "run.json"),
                 "--out", str(tmp_path / "out")]) == 0
    return tmp_path / "out"


def test_run_outputs_match_the_pinned_digests(tmp_path):
    out = _run(tmp_path, {"kind": "eddt", "level": 0.9})
    assert _digests(out, RUN_DIGESTS) == RUN_DIGESTS


def test_addt_run_outputs_match_the_pinned_digests(tmp_path):
    out = _run(tmp_path, {"kind": "addt", "level": 0.9})
    assert _digests(out, ADDT_RUN_DIGESTS) == ADDT_RUN_DIGESTS


# the joint edge tests, one run each; difference_network.csv holds every
# edge's p-value (as 1 - p), so its digest pins each p-value's bits
JOINT_RUNS = {
    # 6 + 6 at two decimals: 20 tie-free columns take the exact path, the
    # 46 tied ones the tie-corrected normal approximation
    "wilcoxon-exact-and-tied": (
        dict(threshold={"kind": "addt", "level": 0.9}, per_group=6, block=12,
             decimals=2, test="wilcoxon"),
        {"nodes.csv":
             "08b9c3e53beb5522637e71459160e4f30934448cb63587d951e1a6b41635b4f4",
         "difference_network.csv":
             "dead9b95dd080a389ddc5cff6082fc07a4f561fd3912aa8a425c969f1683d610",
         "gamma.json":
             "4e0fa99c598e9d4459d21cdbda657781fe4f355192043e561bd8585e7bc66e38"}),
    "wilcoxon-asymptotic": (
        dict(threshold={"kind": "eddt", "level": 0.9}, per_group=12,
             test="wilcoxon"),
        {"nodes.csv":
             "d89e75126d0b0f47e139f54d6e00d103d2920d6e8d0c147067fc6f3dcab94dda",
         "difference_network.csv":
             "694d7b0e3f105dd85f7deb30f2de910154443dd7675a059c09e9d6791c9e00a1",
         "gamma.json":
             "46ed59ac5a4e292c86dbf3997eac697d04f0ce1093ceeed1a5839cbe14c01ef3"}),
    "permutation": (
        dict(threshold={"kind": "addt", "level": 0.9}, test="permutation",
             permutations=200),
        {"nodes.csv":
             "caee082bc0be4597c66ea5ccd963cfad60a7e0eedc184a95d1f2e895a94eefa4",
         "difference_network.csv":
             "7628e3d78d1e192e05e353c97015f928a30cee57697645b7db8835f65a212bef",
         "gamma.json":
             "e57f185ac72e8a245529afa1f68eeecea08f34046014ce6f6f1d44ca024d6f0e"}),
    "regression-two-covariates": (
        dict(threshold={"kind": "addt", "level": 0.9}, covariates=True,
             test="regression"),
        {"nodes.csv":
             "0cd2f6c91ad1b0ddb804dca214dbfb5b1d1eb3fa81c76c5b8ff58ae6b71822a9",
         "difference_network.csv":
             "50e36ff325f16b3f0b678c87fcb7da71a7258506da4ff85135403d8b405b49a2",
         "gamma.json":
             "21dac0e73ae6cafbcc6b9aa717dd8ae028a38b4974b4fe63f6c578118245bc4b"}),
}


@pytest.mark.parametrize("case", list(JOINT_RUNS))
def test_joint_test_run_outputs_match_the_pinned_digests(tmp_path, case):
    settings, digests = JOINT_RUNS[case]
    out = _run(tmp_path, **settings)
    assert _digests(out, digests) == digests
