"""Core numeric types and transforms shared across the toolkit.

Networks are stored as their edges only: one value per node pair, in
canonical i<j upper-triangle order, since no statistic reads a diagonal.
Their dense n x n form, built for the matrix CSVs, has a zero diagonal.
All containers are immutable after construction and safe to share between
workers; the transforms here are pure functions.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

# p-values are clamped into [P_MIN, 1 - P_MIN] before the logit transform;
# permutation tests and degenerate edges can emit exact 0/1. Both clamp
# counts are surfaced in the flags of run_summary.json.
P_MIN = 1e-10
# correlations with |r| = 1 are clamped to +/-R_MAX before the Fisher Z
# transform.
R_MAX = 1.0 - 1e-7

SYMMETRY_TOL = 1e-8


class DdtError(Exception):
    """Base class for toolkit errors."""


class ValidationError(DdtError):
    """Input data violates a structural contract."""


class WorkerLostError(DdtError):
    """A worker process ended before it returned its task's result."""


def logit(x):
    """ln(x / (1 - x)) for x in (0, 1)."""
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0.0) or np.any(x >= 1.0):
        raise ValidationError("logit requires arguments strictly inside (0, 1)")
    out = np.log(x) - np.log1p(-x)
    return float(out) if out.ndim == 0 else out

def inv_logit(x):
    """1 / (1 + exp(-x)); maps the real line onto (0, 1)."""
    x = np.asarray(x, dtype=float)
    # evaluate on the non-positive side only so large |x| cannot overflow
    z = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))
    return float(out) if out.ndim == 0 else out


def fisher_z_clamped(r: np.ndarray) -> tuple[np.ndarray, int]:
    """Fisher Z, atanh(r), the variance-stabilizing transform for
    correlations, with |r| >= 1 clamped to +/-R_MAX.

    Returns the transformed array and the number of clamped entries, which
    callers surface in run reports.
    """
    r = np.asarray(r, dtype=float)
    clipped = np.clip(r, -R_MAX, R_MAX)
    n_clamped = int(np.count_nonzero(clipped != r))
    return np.arctanh(clipped), n_clamped


def clamp_pvalues(p: np.ndarray) -> np.ndarray:
    """Clamp p-values into [P_MIN, 1 - P_MIN] so 1 - p survives the logit."""
    return np.clip(np.asarray(p, dtype=float), P_MIN, 1.0 - P_MIN)


def pvalue_clamp_count(p: np.ndarray) -> int:
    """How many p-values clamp_pvalues leaves on P_MIN or 1 - P_MIN: those
    it moves there, and those an edge test already floored at P_MIN."""
    p = np.asarray(p, dtype=float)
    return int(np.count_nonzero((p <= P_MIN) | (p >= 1.0 - P_MIN)))


def substream(seed: int, *key: int) -> np.random.Generator:
    """Deterministic generator for a (seed, key...) substream.

    Substreams derived this way are independent of evaluation order, which
    is what makes parallel edge tests and simulation replicates
    reproducible.
    """
    return np.random.default_rng([int(seed), *[int(k) for k in key]])


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask (so `taskset`
    and cgroup cpusets count), or the host's CPU count where the platform
    has no affinity call."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def pool_size(threads: int, tasks: int) -> int:
    """Worker processes for a pool: the requested count, capped by the
    task count (simulation replicates, or a group's subject files) and
    usable_cpus()."""
    if threads < 1:
        raise ValidationError(f"threads must be >= 1, got {threads}")
    return max(1, min(threads, tasks, usable_cpus()))


@contextmanager
def worker_map(workers: int, stage: str, chunksize: int = 1):
    """The map a with block runs its tasks through: the builtin map for one
    worker, else the map of a ProcessPoolExecutor of `workers` processes
    that lives only as long as the block. Either yields results in input
    order and raises a task's exception when its result is reached. The
    pool's pending tasks are cancelled when the block ends, and a worker
    that died is a WorkerLostError naming `stage`."""
    if workers == 1:
        yield map
        return
    # imported here, so a process that makes no pool never loads
    # multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        yield partial(pool.map, chunksize=chunksize)
    except BrokenProcessPool as err:
        raise WorkerLostError(f"{stage}: {err}") from err
    finally:
        pool.shutdown(cancel_futures=True)


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


class _FrozenArrays:
    """Base of the frozen containers. Unpickling restores the fields without
    __post_init__, and numpy unpickles arrays writeable, so the arrays are
    frozen again here; a container shipped to or from a worker process stays
    read-only."""

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            if isinstance(value, np.ndarray):
                value = _frozen(value)
            object.__setattr__(self, name, value)


@lru_cache(maxsize=32)
def triu_index_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row/column indices of the upper triangle in canonical (i, j) order.

    Cached per n and shared by every caller, so the arrays are read-only.
    """
    iu, ju = np.triu_indices(n, k=1)
    return _frozen(iu), _frozen(ju)


def node_sums(n: int, per_edge: np.ndarray) -> np.ndarray:
    """Per node, the float64 sums of (..., E) per-edge values (canonical i<j
    order) over its incident edges, as (..., n); on edge masks, the degrees.
    One pair of bincounts, node indices offset by n per row, tallies every
    row's nonzero entries."""
    *lead, n_edges = np.shape(per_edge)
    flat = np.reshape(per_edge, (math.prod(lead), n_edges))
    row, edge = np.nonzero(flat)
    weights = flat[row, edge].astype(float)
    iu, ju = triu_index_pairs(n)
    offset, size = n * row, n * len(flat)
    sums = (np.bincount(iu[edge] + offset, weights=weights, minlength=size)
            + np.bincount(ju[edge] + offset, weights=weights, minlength=size))
    # bincount of no entries at all is int64, whatever the weights
    return sums.reshape(*lead, n).astype(float, copy=False)


def upper_triangle(dense: np.ndarray) -> np.ndarray:
    """The off-diagonal values of a square, symmetric matrix in canonical i<j
    order: the mean of the two triangles, so tiny read asymmetries do not
    leak through. Non-finite entries pass through for the caller to report;
    finite entries whose mean overflows are a ValidationError."""
    dense = np.asarray(dense, dtype=float)
    if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {dense.shape}")
    n = dense.shape[0]
    # inf - inf is nan, which fmax.reduce skips as nanmax does but without
    # its All-NaN warning, and a sum past the float range is inf: neither
    # reaches stderr
    with np.errstate(invalid="ignore", over="ignore"):
        asym = np.fmax.reduce(np.abs(dense - dense.T), axis=None) if n else 0.0
        iu, ju = triu_index_pairs(n)
        values = 0.5 * (dense[iu, ju] + dense[ju, iu])
    if asym > SYMMETRY_TOL:
        raise ValidationError(f"matrix is asymmetric beyond tolerance "
                              f"({asym:.3g} > {SYMMETRY_TOL:.3g})")
    if not np.isfinite(values).all():
        # an inf mean of two finite entries is an overflow, not a bad value
        over = np.flatnonzero(np.isinf(values) & np.isfinite(dense[iu, ju])
                              & np.isfinite(dense[ju, iu]))
        if len(over):
            k = over[0]
            raise ValidationError(f"values at edge ({iu[k]}, {ju[k]}) "
                                  "overflow when averaged")
    return values


def _dense_from_edges(n: int, values: np.ndarray, dtype) -> np.ndarray:
    """The symmetric n x n matrix, zero diagonal, of one value per edge in
    canonical i<j order."""
    out = np.zeros((n, n), dtype=dtype)
    iu, ju = triu_index_pairs(n)
    out[iu, ju] = values
    out[ju, iu] = values
    return out


@dataclass(frozen=True)
class SymmetricMatrix(_FrozenArrays):
    """Symmetric n x n matrix stored as its off-diagonal upper triangle.

    The base of every per-edge network: construction checks n >= 2 and the
    edge count, coerces the values to the class's _DTYPE and freezes them;
    a subclass adds only its own range check."""

    _DTYPE = float

    n: int
    values: np.ndarray          # shape (n*(n-1)/2,), canonical i<j order

    def __post_init__(self):
        if self.n < 2:
            raise ValidationError(f"need at least 2 nodes, got n={self.n}")
        values = np.asarray(self.values, dtype=self._DTYPE)
        if values.shape != (self.n_edges,):
            raise ValidationError(
                f"expected {self.n_edges} upper-triangle values for n={self.n}, "
                f"got shape {values.shape}")
        object.__setattr__(self, "values", _frozen(values))

    @property
    def n_edges(self) -> int:
        return self.n * (self.n - 1) // 2

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "SymmetricMatrix":
        """The off-diagonal entries of a square, symmetric matrix
        (upper_triangle); its diagonal is not kept."""
        values = upper_triangle(dense)
        return cls(n=len(dense), values=values)

    def to_dense(self) -> np.ndarray:
        """The n x n float matrix, zero diagonal."""
        return _dense_from_edges(self.n, self.values, float)


@dataclass(frozen=True)
class AdjacencyMatrix(SymmetricMatrix):
    """Binary symmetric matrix with zero diagonal (selected edge set)."""

    _DTYPE = bool

    @property
    def n_edges_selected(self) -> int:
        return int(self.values.sum())

    def degrees(self) -> np.ndarray:
        """Number of selected edges incident to each node."""
        return node_sums(self.n, self.values).astype(np.int64)

    def to_dense(self) -> np.ndarray:
        """The n x n 0/1 int matrix, zero diagonal."""
        return _dense_from_edges(self.n, self.values, int)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "AdjacencyMatrix":
        dense = np.asarray(dense)
        if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
            raise ValidationError(f"expected a square matrix, got shape {dense.shape}")
        if not np.all(np.isin(dense, (0, 1))):
            raise ValidationError("adjacency entries must be 0 or 1")
        if np.any(dense != dense.T):
            raise ValidationError("adjacency matrix must be symmetric")
        if np.any(np.diag(dense) != 0):
            raise ValidationError("adjacency diagonal must be zero (no self-loops)")
        iu, ju = triu_index_pairs(dense.shape[0])
        return cls(n=dense.shape[0], values=dense[iu, ju])


@dataclass(frozen=True)
class DifferenceNetwork(SymmetricMatrix):
    """Edge-wise difference strengths d_ij = 1 - p_ij, zero diagonal.

    Entries are kept strictly inside (0, 1) (p-values are clamped on
    construction) so the logit-scale view is always finite.
    """

    def __post_init__(self):
        super().__post_init__()
        if np.any(self.values <= 0.0) or np.any(self.values >= 1.0):
            raise ValidationError("difference-network entries must lie in (0, 1); "
                                  "clamp p-values first")

    @classmethod
    def from_pvalues(cls, pmat: SymmetricMatrix) -> "DifferenceNetwork":
        return cls(n=pmat.n, values=1.0 - clamp_pvalues(pmat.values))

    def logit_values(self) -> np.ndarray:
        """Logit-scale view of the off-diagonal entries."""
        return logit(self.values)


def nodes_for_edges(n_edges: int) -> int:
    """Nodes: the largest n with n(n-1)/2 <= n_edges."""
    return (1 + math.isqrt(1 + 8 * n_edges)) // 2


def check_group(x: np.ndarray, g: int, sizes: tuple[int, int]) -> np.ndarray:
    """Group g's (subjects x edges) subject values as a read-only float
    array, after the checks every cohort group passes: at least 2 subjects
    (the message names both groups' `sizes`), n(n-1)/2 edges for one
    n >= 2, and finite values (the first bad one is named by subject and
    edge). ConnectivityCohort and the one-group-at-a-time load of `ddt run`
    (io.load_cohort) both check each group here."""
    x = np.asarray(x, dtype=float)
    if len(x) < 2:
        raise ValidationError(
            f"each group needs at least 2 subjects (got {sizes[0]} and "
            f"{sizes[1]}); per-edge variance is not estimable")
    n_edges = x.shape[1]
    n = nodes_for_edges(n_edges)
    if n * (n - 1) // 2 != n_edges or n < 2:
        raise ValidationError(
            f"dimension mismatch: group {g} has {n_edges} edges, not "
            "n(n-1)/2 for any n >= 2")
    # min and max propagate nan and reach any inf, with no mask
    if not (math.isfinite(x.min()) and math.isfinite(x.max())):
        s, k = np.argwhere(~np.isfinite(x))[0]
        iu, ju = triu_index_pairs(n)
        raise ValidationError(
            f"invalid value in group {g} subject {s} at edge "
            f"({int(iu[k])}, {int(ju[k])})")
    return _frozen(x)


def check_labels_and_covariates(n: int, subjects: int, labels=None,
                                covariates=None) -> tuple:
    """A cohort's node labels and covariates, checked against its n nodes
    and its subjects (both groups): one label per node, and one finite
    covariate row per subject. Returns them as a tuple of str and a
    read-only float array, or None where none was given."""
    if labels is not None:
        labels = tuple(str(label) for label in labels)
        if len(labels) != n:
            raise ValidationError(f"{len(labels)} node labels for n={n} nodes")
    if covariates is not None:
        cov = np.asarray(covariates, dtype=float)
        if cov.ndim != 2 or cov.shape[0] != subjects:
            raise ValidationError(
                f"covariates must be one row per subject ({subjects}), "
                f"got shape {cov.shape}")
        if not np.all(np.isfinite(cov)):
            raise ValidationError("covariates contain non-finite values")
        covariates = _frozen(cov)
    return labels, covariates


@dataclass(frozen=True)
class ConnectivityCohort(_FrozenArrays):
    """Two groups of subject connectivity values plus optional covariates.

    x1 (n1 x E) and x2 (n2 x E) hold one row per subject and one column per
    edge of an n-node network, E = n(n-1)/2 in canonical i<j order; subject
    diagonals are not kept. Covariates are one row per subject, group 1
    then group 2 (the on-disk manifest convention). Construction checks
    every field (check_group on each group, then the groups' widths and
    check_labels_and_covariates) and freezes the arrays, so a cohort that
    exists is valid.
    """

    x1: np.ndarray
    x2: np.ndarray
    covariates: np.ndarray | None = None
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        x1, x2 = (np.asarray(x, dtype=float) for x in (self.x1, self.x2))
        if x1.ndim != 2 or x2.ndim != 2:
            raise ValidationError("each group must be a (subjects x edges) "
                                  f"array, got shapes {x1.shape} and {x2.shape}")
        sizes = len(x1), len(x2)
        x1, x2 = check_group(x1, 1, sizes), check_group(x2, 2, sizes)
        object.__setattr__(self, "x1", x1)
        object.__setattr__(self, "x2", x2)
        if x2.shape[1] != x1.shape[1]:
            raise ValidationError(
                f"dimension mismatch: groups of {x1.shape[1]} and "
                f"{x2.shape[1]} edges; both must be n(n-1)/2 for one n >= 2")
        labels, covariates = check_labels_and_covariates(
            self.n, len(x1) + len(x2), self.labels, self.covariates)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "covariates", covariates)

    @property
    def n(self) -> int:
        """Nodes: the largest n with n(n-1)/2 <= E."""
        return nodes_for_edges(self.x1.shape[1])

    @property
    def n1(self) -> int:
        return len(self.x1)

    @property
    def n2(self) -> int:
        return len(self.x2)
