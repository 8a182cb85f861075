"""Edge-wise between-group tests producing the p-value matrix.

Model-free tests (Welch t, Wilcoxon rank-sum, label permutation) and a
model-based OLS regression with covariate adjustment. Each edge is tested
independently; no multiplicity correction is applied here.
"""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (
    ConnectivityCohort,
    DdtError,
    P_MIN,
    SymmetricMatrix,
    ValidationError,
    _frozen,
    _FrozenArrays,
    fisher_z_clamped,
    substream,
)

EDGE_TEST_METHODS = ("welch_t", "wilcoxon", "permutation", "regression")
# columns (edges, or relabellings of one edge) per vectorised Welch block
_WELCH_BLOCK = 4096
# bytes of both groups' values per column block of the joint tests; it
# bounds scipy's temporaries in wilcoxon_pvalues and the regression's stack
_JOINT_BLOCK_BYTES = 1 << 18


class EdgeTestError(DdtError):
    """An edge-level test could not be carried out."""


class RankDeficientError(EdgeTestError):
    """Regression design matrix is rank deficient."""


@dataclass(frozen=True)
class EdgeTestConfig:
    """Configuration of the edge-wise between-group test.

    fisher_z applies the variance-stabilizing transform to the subject
    values first; enable it when the connectivity values are correlations.
    The permutation test draws its substream from (seed, edge index), so
    results do not depend on evaluation order.
    """

    method: str = "welch_t"
    fisher_z: bool = False
    permutations: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.method not in EDGE_TEST_METHODS:
            raise ValidationError(
                f"unknown edge test {self.method!r}; expected one of "
                f"{', '.join(EDGE_TEST_METHODS)}")
        if self.method == "permutation" and self.permutations < 100:
            raise ValidationError("permutation test needs at least 100 permutations")
        seed = self.seed
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
            raise ValidationError(f"seed must be an integer >= 0, got {seed!r}")


@dataclass(frozen=True)
class PValueMatrix(SymmetricMatrix):
    """SymmetricMatrix whose edge values are p-values in (0, 1].

    fisher_z_clamped counts the subject values with |r| >= 1 that were
    clamped to +/-R_MAX before the Fisher Z transform.
    """

    fisher_z_clamped: int = 0

    def __post_init__(self):
        super().__post_init__()
        if np.any(self.values <= 0.0) or np.any(self.values > 1.0):
            raise ValidationError("p-values must lie in (0, 1]")


@dataclass(frozen=True)
class WelchMoments(_FrozenArrays):
    """One group's half of the Welch t-test, per column: the subject count,
    the column means and vn, the ddof=1 variance over the count (as
    scipy.stats.ttest_ind forms them); welch_moments makes it."""

    count: int
    mean: np.ndarray
    vn: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", _frozen(self.mean))
        object.__setattr__(self, "vn", _frozen(self.vn))


@dataclass(frozen=True)
class GroupSummary(_FrozenArrays):
    """What the pipeline keeps of one subject group (degree_test.Reduction):
    its subject count and how many of its values the Fisher Z transform
    clamped, and

    - `edges`, the Welch moments of its edge values, under welch_t;
    - `values`, the (subjects x edges) values themselves, under wilcoxon,
      permutation and regression, which need both groups at once;
    - `degrees`, the Welch moments of its t10 nodal degrees, when t10 is
      asked for (baselines.degree_moments).

    Edge values are Fisher Z transformed first when the edge test asks."""

    subjects: int
    fisher_z_clamped: int = 0
    edges: WelchMoments | None = None
    values: np.ndarray | None = None
    degrees: WelchMoments | None = None

    def __post_init__(self):
        if self.values is not None:
            object.__setattr__(self, "values", _frozen(self.values))


def welch_moments(x: np.ndarray,
                  fisher_z: bool = False) -> tuple[WelchMoments, int]:
    """The Welch moments of every column of x (subjects x columns), taken in
    blocks of _WELCH_BLOCK columns so that no temporary as large as x is
    made; each column is reduced on its own, so the blocks change no bit.
    With fisher_z, each block is first Fisher Z transformed
    (core.fisher_z_clamped); the count of clamped values is returned too."""
    count = len(x)
    mean, vn = np.empty((2, x.shape[1]))
    clamped = 0
    for start in range(0, x.shape[1], _WELCH_BLOCK):
        cols = slice(start, start + _WELCH_BLOCK)
        block = x[:, cols]
        if fisher_z:
            block, k = fisher_z_clamped(block)
            clamped += k
        m = block.mean(axis=0)
        mean[cols] = m
        # ddof=1 variance over n, as scipy.stats._var forms it
        vn[cols] = np.mean((block - m) ** 2, axis=0) * (count / (count - 1)) / count
    return WelchMoments(count, mean, vn), clamped


def welch_pvalues(a: WelchMoments, b: WelchMoments) -> np.ndarray:
    """Two-sided Welch p-value of every column, from the two groups'
    moments. The arithmetic repeats scipy.stats.ttest_ind(equal_var=False)
    of scipy 1.17 step for step, so each p-value is the same double; the
    tests keep ttest_ind as the oracle. Zero variance in both groups gives
    p = 1 when the means agree (np.isclose) and P_MIN when they do not."""
    from scipy import special  # deferred: loading the cohort never calls it
    t, df = _welch_t(a, b)
    # nan df means zero variance in both groups; any df then serves
    df = np.where(np.isnan(df), 1.0, df)
    p = 2 * special.stdtr(df, -np.abs(t))
    bad = ~np.isfinite(p)
    if bad.any():
        equal = np.isclose(a.mean, b.mean)
        p[bad & equal] = 1.0
        p[bad & ~equal] = P_MIN
    return np.clip(p, P_MIN, 1.0)


def _finite_p(p):
    """Map degenerate test output into (0, 1]: nan or inf to 1."""
    return np.where(np.isfinite(p), np.clip(p, P_MIN, 1.0), 1.0)


def wilcoxon_pvalues(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Two-sided Wilcoxon rank-sum p-value of every column of x and y
    (subjects x columns): 1 where the pooled column is constant; exact
    enumeration for tie-free columns when n1 + n2 <= 12; else the normal
    approximation with continuity and tie correction. One
    scipy.stats.mannwhitneyu call per method, so each p-value is the double
    a one-column call gives."""
    from scipy import stats  # deferred: a Welch-only run never loads it
    pooled = np.sort(np.concatenate([x, y]), axis=0)
    varying = pooled[0] != pooled[-1]
    tie_free = ~np.any(pooled[1:] == pooled[:-1], axis=0)
    exact = varying & tie_free & (len(pooled) <= 12)
    p = np.ones(x.shape[1])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for method, cols in (("exact", exact), ("asymptotic", varying & ~exact)):
            if cols.any():
                res = stats.mannwhitneyu(x[:, cols], y[:, cols], axis=0,
                                         alternative="two-sided", method=method)
                p[cols] = _finite_p(res.pvalue)
    return p


def permutation_edge(x, y, permutations: int,
                     rng: np.random.Generator) -> float:
    """Label-permutation p-value for the Welch t statistic.

    p = (1 + #{b : |T_b| >= |T_obs| (1 - 100 eps)}) / (B + 1): the +1 keeps
    the logit finite, and scipy.stats.permutation_test's tolerance counts a
    |T_b| equal to |T_obs| but for rounding, or to an infinite |T_obs|. The
    B relabellings are the draws of B successive rng.permutation calls."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    pooled = np.concatenate([x, y])
    n1 = len(x)
    t_obs, _ = _welch_t(welch_moments(x[:, None])[0],
                        welch_moments(y[:, None])[0])
    cut = np.abs(t_obs) * (1.0 - 100 * np.finfo(float).eps)
    hits = 0
    # blocks bound the memory, not the draws; a constant pooled sample makes
    # every |T| and the cut nan, and ~(nan < nan) counts each draw as a tie
    for start in range(0, permutations, _WELCH_BLOCK):
        rows = min(_WELCH_BLOCK, permutations - start)
        cols = rng.permuted(np.tile(pooled, (rows, 1)), axis=1).T
        t, _ = _welch_t(welch_moments(cols[:n1])[0],
                        welch_moments(cols[n1:])[0])
        hits += np.count_nonzero(~(np.abs(t) < cut))
    return (1 + hits) / (permutations + 1)


def summarize_group(x: np.ndarray, cfg: EdgeTestConfig) -> GroupSummary:
    """What the edge test cfg needs of one group's (subjects x edges)
    values: under welch_t the Welch moments of every edge, else the values
    themselves; Fisher Z transformed first when cfg asks."""
    if cfg.method == "welch_t":
        moments, clamped = welch_moments(x, cfg.fisher_z)
        return GroupSummary(len(x), clamped, edges=moments)
    values, clamped = fisher_z_clamped(x) if cfg.fisher_z else (x, 0)
    return GroupSummary(len(x), clamped, values=values)


def group_pvalues(g1: GroupSummary, g2: GroupSummary, cfg: EdgeTestConfig,
                  n: int, covariates=None) -> PValueMatrix:
    """The configured test at every edge of an n-node network, from the two
    groups' summaries (summarize_group under the same cfg); covariates
    serve the regression test. Returns one p-value per edge. The joint
    tests read both groups' values in column blocks of about
    _JOINT_BLOCK_BYTES, so their temporaries stay a few blocks at any
    network size."""
    if cfg.method == "welch_t":
        p = welch_pvalues(g1.edges, g2.edges)
    else:
        x, y = g1.values, g2.values
        group = np.repeat([0.0, 1.0], [len(x), len(y)])
        width = max(1, _JOINT_BLOCK_BYTES // (x.itemsize * len(group)))
        p = np.empty(x.shape[1])
        for start in range(0, x.shape[1], width):
            cols = slice(start, start + width)
            xb, yb = x[:, cols], y[:, cols]
            if cfg.method == "wilcoxon":
                p[cols] = wilcoxon_pvalues(xb, yb)
            elif cfg.method == "permutation":
                # each edge draws from its own substream, keyed by its index
                p[cols] = [permutation_edge(xb[:, j], yb[:, j], cfg.permutations,
                                            rng=substream(cfg.seed, start + j))
                           for j in range(xb.shape[1])]
            else:
                p[cols] = _vector_regression(np.vstack([xb, yb]), group,
                                             covariates)
    return PValueMatrix(n=n, values=p,
                        fisher_z_clamped=g1.fisher_z_clamped
                        + g2.fisher_z_clamped)


def edgewise_pvalues(cohort: ConnectivityCohort,
                     cfg: EdgeTestConfig) -> PValueMatrix:
    """Apply the configured test independently at every edge: each group
    summarized (summarize_group), then the summaries combined
    (group_pvalues)."""
    return group_pvalues(summarize_group(cohort.x1, cfg),
                         summarize_group(cohort.x2, cfg), cfg, cohort.n,
                         cohort.covariates)


def _welch_t(a: WelchMoments, b: WelchMoments) -> tuple[np.ndarray, np.ndarray]:
    """Welch's t and its Welch-Satterthwaite df for every column, from the
    two groups' moments, formed as scipy.stats.ttest_ind forms them. Zero
    variance in both groups gives df = nan and t = +/-inf, or nan when the
    means agree."""
    n1, n2, vn1, vn2 = a.count, b.count, a.vn, b.vn
    with np.errstate(divide="ignore", invalid="ignore"):
        df = (vn1 + vn2) ** 2 / (vn1 ** 2 / (n1 - 1) + vn2 ** 2 / (n2 - 1))
        t = (a.mean - b.mean) / np.sqrt(vn1 + vn2)
    return t, df


def _vector_regression(values: np.ndarray, group: np.ndarray,
                       covariates=None) -> np.ndarray:
    """Per column of values (subjects x edges), the two-sided p-value of the
    group term in the OLS of the column on [1, group, covariates]; with no
    covariates, the pooled-variance two-sample t-test. The design is built,
    checked and inverted once per call (group_pvalues calls once per column
    block), and each column gets its own lstsq, so every p-value is the
    double a one-column fit gives."""
    cols = [np.ones(len(group)), group]
    if covariates is not None:
        cols.append(covariates)
    X = np.column_stack(cols)
    n, k = X.shape
    if np.linalg.matrix_rank(X) < k:
        raise RankDeficientError(
            "design matrix [1, group, covariates] is rank deficient")
    df = n - k
    if df < 1:
        raise EdgeTestError(f"insufficient residual degrees of freedom (df={df})")
    beta1, sigma2 = np.empty((2, values.shape[1]))
    for e, y in enumerate(values.T):
        beta = np.linalg.lstsq(X, y, rcond=None)[0]
        resid = y - X @ beta
        beta1[e], sigma2[e] = beta[1], resid @ resid / df
    se = np.sqrt(sigma2 * np.linalg.inv(X.T @ X)[1, 1])
    from scipy import special
    with np.errstate(divide="ignore", invalid="ignore"):
        p = _finite_p(2.0 * special.stdtr(df, -np.abs(beta1 / se)))
    return np.where(se == 0.0, np.where(beta1 == 0.0, 1.0, P_MIN), p)
