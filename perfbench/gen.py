"""Seeded input generator for the benchmark workloads.

Everything the program sees is written here as files: subject matrices as
CSV, a run manifest, a covariate file, or a simulate design. The injected
target nodes are returned (and written next to the inputs) so the benchmark
can score node decisions. The same seed always yields byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

BASE_SD = 0.2          # base network edge weights, N(0, BASE_SD^2)
SUBJECT_SD = 0.1       # per-subject edge noise
EFFECT = 0.2           # group-2 shift on edges inside the target block
DESIGN_TEMPLATE = Path(__file__).with_name("three_nodes_q7.json")


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


def _write_csv(path: Path, cells: np.ndarray) -> None:
    """Write a 2-D array of already formatted cells in the bytes that
    ``ddtnet.io.write_matrix_csv`` produces (csv-module "\r\n" lines)."""
    with open(path, "w", newline="") as fh:
        fh.write("".join(",".join(row) + "\r\n" for row in cells.tolist()))


def _reprs(values: np.ndarray) -> np.ndarray:
    """Each value as the repr of a Python float, the shortest digits that
    read back to the same double, as the repository's own writer emits."""
    return np.array([repr(v) for v in values.tolist()], dtype=object)


def write_cohort(out_dir: Path, *, seed: int, n: int, per_group: int,
                 test: str, threshold: str, null_networks: int,
                 covariates: int = 0, baselines: tuple[str, ...] = ()) -> dict:
    """Write a two-group cohort plus its manifest; return the manifest path
    and the 0-based target nodes.

    n // 10 target nodes form a block whose internal edges are shifted by
    EFFECT in group 2, so every target carries n // 10 - 1 differential
    edges and no non-target node touches one. Covariates, when asked for,
    are unrelated to connectivity (a standardized age and a binary sex).
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = _rng(seed, 0)
    iu, ju = np.triu_indices(n, k=1)
    targets = np.sort(rng.choice(n, size=n // 10, replace=False))
    in_block = np.isin(iu, targets) & np.isin(ju, targets)
    base = np.clip(rng.normal(0.0, BASE_SD, size=len(iu)), -0.9, 0.9)

    names = {1: [], 2: []}
    cells = np.full((n, n), repr(1.0), dtype=object)
    for group in (1, 2):
        for s in range(per_group):
            vals = base + _rng(seed, group, s).normal(0.0, SUBJECT_SD, len(iu))
            if group == 2:
                vals[in_block] += EFFECT
            text = _reprs(np.clip(vals, -1.0, 1.0))
            cells[iu, ju] = text
            cells[ju, iu] = text
            name = f"g{group}_s{s:02d}.csv"
            _write_csv(out_dir / name, cells)
            names[group].append(name)

    manifest = {
        "group1": names[1], "group2": names[2], "test": test,
        "threshold": {"kind": threshold, "level": 0.95},
        "null_networks": null_networks, "alpha": 0.05,
        "baselines": list(baselines), "seed": seed,
    }
    if covariates:
        crng = _rng(seed, 3)
        cov = np.column_stack([crng.normal(0.0, 1.0, 2 * per_group),
                               crng.integers(0, 2, 2 * per_group)])[:, :covariates]
        _write_csv(out_dir / "covariates.csv",
                   _reprs(cov.ravel()).reshape(cov.shape))
        manifest["covariates"] = "covariates.csv"
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    truth = [int(t) for t in targets]
    (out_dir / "targets.json").write_text(json.dumps(truth) + "\n")
    return {"manifest": path, "targets": truth}


def write_design(out_dir: Path, *, seed: int, replicates: int) -> Path:
    """Copy the three-target q=7 design with the workload seed and the
    benchmark's replicate count."""
    out_dir.mkdir(parents=True, exist_ok=True)
    design = json.loads(DESIGN_TEMPLATE.read_text())
    design["seed"] = seed
    design["replicates"] = replicates
    path = out_dir / "design.json"
    path.write_text(json.dumps(design, indent=2, sort_keys=True) + "\n")
    return path
