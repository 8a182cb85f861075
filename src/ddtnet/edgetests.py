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
from scipy import special

from .core import (
    ConnectivityCohort,
    DdtError,
    P_MIN,
    SymmetricMatrix,
    ValidationError,
    fisher_z_clamped,
    substream,
)

EDGE_TEST_METHODS = ("welch_t", "wilcoxon", "permutation", "regression")
# columns (edges, or relabellings of one edge) per vectorised Welch block
_WELCH_BLOCK = 4096


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
    """SymmetricMatrix whose off-diagonal entries are p-values in (0, 1].

    fisher_z_clamped counts the subject values with |r| >= 1 that were
    clamped to +/-R_MAX before the Fisher Z transform.
    """

    fisher_z_clamped: int = 0

    def __post_init__(self):
        super().__post_init__()
        if np.any(self.values <= 0.0) or np.any(self.values > 1.0):
            raise ValidationError("p-values must lie in (0, 1]")


def _finite_p(p):
    """Map degenerate test output into (0, 1]: nan or inf to 1."""
    return np.where(np.isfinite(p), np.clip(p, P_MIN, 1.0), 1.0)


def welch_t_edge(x, y) -> float:
    """Two-sided Welch t-test p-value (Welch-Satterthwaite df).

    Both groups constant and equal gives p = 1 (no evidence of difference);
    constant but unequal gives the clamp floor.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_sizes(x, y)
    return float(_vector_welch(x[:, None], y[:, None])[0])


def wilcoxon_edge(x, y) -> float:
    """Two-sided Wilcoxon rank-sum p-value.

    Exact enumeration when n1 + n2 <= 12 without ties; normal approximation
    with continuity and tie correction otherwise.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_sizes(x, y)
    pooled = np.concatenate([x, y])
    if np.ptp(pooled) == 0.0:
        return 1.0
    no_ties = len(np.unique(pooled)) == len(pooled)
    method = "exact" if (len(pooled) <= 12 and no_ties) else "asymptotic"
    from scipy import stats  # deferred: a Welch-only run never loads it
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = stats.mannwhitneyu(x, y, alternative="two-sided", method=method)
    return float(_finite_p(res.pvalue))


def permutation_edge(x, y, permutations: int = 1000, seed: int = 0,
                     rng: np.random.Generator | None = None) -> float:
    """Label-permutation p-value for the Welch t statistic.

    p = (1 + #{b : |T_b| >= |T_obs| (1 - 100 eps)}) / (B + 1): the +1 keeps
    the logit finite, and scipy.stats.permutation_test's tolerance counts a
    |T_b| equal to |T_obs| but for rounding, or to an infinite |T_obs|. The
    B relabellings are the draws of B successive rng.permutation calls."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_sizes(x, y)
    if permutations < 100:
        raise ValidationError("permutation test needs at least 100 permutations")
    if rng is None:
        rng = np.random.default_rng(seed)
    pooled = np.concatenate([x, y])
    n1 = len(x)
    t_obs, _ = _welch_t(x[:, None], y[:, None])
    cut = np.abs(t_obs) * (1.0 - 100 * np.finfo(float).eps)
    hits = 0
    # blocks bound the memory, not the draws; a constant pooled sample makes
    # every |T| and the cut nan, and ~(nan < nan) counts each draw as a tie
    for start in range(0, permutations, _WELCH_BLOCK):
        rows = min(_WELCH_BLOCK, permutations - start)
        cols = rng.permuted(np.tile(pooled, (rows, 1)), axis=1).T
        t, _ = _welch_t(cols[:n1], cols[n1:])
        hits += np.count_nonzero(~(np.abs(t) < cut))
    return (1 + hits) / (permutations + 1)


def regression_edge(values, group, covariates=None) -> float:
    """OLS of edge values on [1, group, covariates]; p-value of the group term.

    With no covariates this reproduces the pooled-variance two-sample t-test.
    """
    y = np.asarray(values, dtype=float)
    g = np.asarray(group, dtype=float)
    if y.shape != g.shape or y.ndim != 1:
        raise ValidationError("values and group labels must be 1-d and aligned")
    return float(_vector_regression(y[:, None], g, covariates)[0])


def edgewise_pvalues(cohort: ConnectivityCohort,
                     cfg: EdgeTestConfig) -> PValueMatrix:
    """Apply the configured test independently at every edge.

    Returns the symmetric p-value matrix; the diagonal is set to 1 and
    ignored downstream.
    """
    x, y = cohort.x1, cohort.x2
    n_clamped = 0
    if cfg.fisher_z:
        x, clamped_x = fisher_z_clamped(x)
        y, clamped_y = fisher_z_clamped(y)
        n_clamped = clamped_x + clamped_y
    n_edges = x.shape[1]

    if cfg.method == "welch_t":
        p = _vector_welch(x, y)
    elif cfg.method == "wilcoxon":
        p = np.array([wilcoxon_edge(x[:, e], y[:, e]) for e in range(n_edges)])
    elif cfg.method == "permutation":
        p = np.array([
            permutation_edge(x[:, e], y[:, e], cfg.permutations,
                             rng=substream(cfg.seed, e))
            for e in range(n_edges)
        ])
    else:
        g = np.concatenate([np.zeros(x.shape[0]), np.ones(y.shape[0])])
        p = _vector_regression(np.vstack([x, y]), g, cohort.covariates)
    return PValueMatrix(n=cohort.n, values=p, diagonal=np.ones(cohort.n),
                        fisher_z_clamped=n_clamped)


def _vector_welch(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Welch t-test p-value of every column of x against the same column of
    y, in blocks of _WELCH_BLOCK columns; each column is tested on its own,
    so the blocks bound the temporaries without changing a bit."""
    p = np.empty(x.shape[1])
    for start in range(0, x.shape[1], _WELCH_BLOCK):
        cols = slice(start, start + _WELCH_BLOCK)
        p[cols] = _welch_block(x[:, cols], y[:, cols])
    return p


def _welch_block(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Column-wise two-sided Welch p-values. The arithmetic repeats
    scipy.stats.ttest_ind(equal_var=False) of scipy 1.17 step for step, so
    each p-value is the same double; the tests keep ttest_ind as the oracle."""
    t, df = _welch_t(x, y)
    # nan df means zero variance in both groups; any df then serves
    df = np.where(np.isnan(df), 1.0, df)
    p = 2 * special.stdtr(df, -np.abs(t))
    # nan marks zero variance in both groups: p = 1 when means agree
    bad = ~np.isfinite(p)
    if bad.any():
        equal = np.isclose(x.mean(axis=0), y.mean(axis=0))
        p[bad & equal] = 1.0
        p[bad & ~equal] = P_MIN
    return np.clip(p, P_MIN, 1.0)


def _welch_t(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Welch's t and its Welch-Satterthwaite df for every column of x
    against the same column of y, formed as scipy.stats.ttest_ind forms
    them. Zero variance in both groups gives df = nan and t = +/-inf, or
    nan when the means agree."""
    n1, n2 = len(x), len(y)
    m1, m2 = x.mean(axis=0), y.mean(axis=0)
    # ddof=1 variance over n, as scipy.stats._var forms it
    vn1 = np.mean((x - m1) ** 2, axis=0) * (n1 / (n1 - 1)) / n1
    vn2 = np.mean((y - m2) ** 2, axis=0) * (n2 / (n2 - 1)) / n2
    with np.errstate(divide="ignore", invalid="ignore"):
        df = (vn1 + vn2) ** 2 / (vn1 ** 2 / (n1 - 1) + vn2 ** 2 / (n2 - 1))
        t = (m1 - m2) / np.sqrt(vn1 + vn2)
    return t, df


def _vector_regression(values: np.ndarray, group: np.ndarray,
                       covariates=None) -> np.ndarray:
    """regression_edge of every column of values (subjects x edges): the
    design is built, checked and inverted once, and each column gets its own
    lstsq, so every p-value is the double a one-column fit gives."""
    cols = [np.ones(len(group)), group]
    if covariates is not None:
        cov = np.atleast_2d(np.asarray(covariates, dtype=float))
        if cov.shape[0] != len(group):
            cov = cov.T
        if cov.shape[0] != len(group):
            raise ValidationError("covariates must have one row per subject")
        cols.extend(cov.T)
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
    with np.errstate(divide="ignore", invalid="ignore"):
        p = _finite_p(2.0 * special.stdtr(df, -np.abs(beta1 / se)))
    return np.where(se == 0.0, np.where(beta1 == 0.0, 1.0, P_MIN), p)


def _check_sizes(x: np.ndarray, y: np.ndarray) -> None:
    if len(x) < 2 or len(y) < 2:
        raise ValidationError(
            f"each group needs at least 2 observations (got {len(x)}, {len(y)})")
