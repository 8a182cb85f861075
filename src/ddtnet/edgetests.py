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
    triu_index_pairs,
)

EDGE_TEST_METHODS = ("welch_t", "wilcoxon", "permutation", "regression")
# edge columns per block in the vectorised Welch test
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


def _finite_p(p: float) -> float:
    """Map degenerate test output into (0, 1]."""
    if not np.isfinite(p):
        return 1.0
    return float(min(max(p, P_MIN), 1.0))


def _welch_stat(x: np.ndarray, y: np.ndarray) -> float:
    n1, n2 = len(x), len(y)
    num = x.mean() - y.mean()
    den = np.sqrt(x.var(ddof=1) / n1 + y.var(ddof=1) / n2)
    if den == 0.0:
        return 0.0 if num == 0.0 else np.inf * np.sign(num)
    return num / den


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
    return _finite_p(res.pvalue)


def permutation_edge(x, y, permutations: int = 1000, seed: int = 0,
                     rng: np.random.Generator | None = None) -> float:
    """Label-permutation p-value for the Welch t statistic.

    p = (1 + #{b : |T_b| >= |T_obs|}) / (B + 1); the +1 keeps p away from
    exact zero so the logit stays finite.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    _check_sizes(x, y)
    if permutations < 100:
        raise ValidationError("permutation test needs at least 100 permutations")
    if rng is None:
        rng = np.random.default_rng(seed)
    pooled = np.concatenate([x, y])
    n1 = len(x)
    t_obs = abs(_welch_stat(x, y))
    hits = 0
    for _ in range(permutations):
        perm = rng.permutation(pooled)
        if abs(_welch_stat(perm[:n1], perm[n1:])) >= t_obs:
            hits += 1
    return (1 + hits) / (permutations + 1)


def regression_edge(values, group, covariates=None) -> float:
    """OLS of edge values on [1, group, covariates]; p-value of the group term.

    With no covariates this reproduces the pooled-variance two-sample t-test.
    """
    y = np.asarray(values, dtype=float)
    g = np.asarray(group, dtype=float)
    if y.shape != g.shape or y.ndim != 1:
        raise ValidationError("values and group labels must be 1-d and aligned")
    cols = [np.ones_like(y), g]
    if covariates is not None:
        cov = np.atleast_2d(np.asarray(covariates, dtype=float))
        if cov.shape[0] != len(y):
            cov = cov.T
        if cov.shape[0] != len(y):
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
    beta, _, _, _ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ beta
    sigma2 = resid @ resid / df
    xtx_inv = np.linalg.inv(X.T @ X)
    se = np.sqrt(sigma2 * xtx_inv[1, 1])
    if se == 0.0:
        return 1.0 if beta[1] == 0.0 else P_MIN
    t = beta[1] / se
    from scipy import stats  # deferred: a Welch-only run never loads it
    return _finite_p(2.0 * stats.t.sf(abs(t), df))


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
        stacked = np.vstack([x, y])
        p = np.empty(n_edges)
        for e in range(n_edges):
            try:
                p[e] = regression_edge(stacked[:, e], g, cohort.covariates)
            except EdgeTestError as err:
                iu, ju = triu_index_pairs(cohort.n)
                raise EdgeTestError(
                    f"edge ({int(iu[e])}, {int(ju[e])}): {err}") from err
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
    n1, n2 = len(x), len(y)
    m1, m2 = x.mean(axis=0), y.mean(axis=0)
    # ddof=1 variance over n, as scipy.stats._var forms it
    vn1 = np.mean((x - m1) ** 2, axis=0) * (n1 / (n1 - 1)) / n1
    vn2 = np.mean((y - m2) ** 2, axis=0) * (n2 / (n2 - 1)) / n2
    with np.errstate(divide="ignore", invalid="ignore"):
        df = (vn1 + vn2) ** 2 / (vn1 ** 2 / (n1 - 1) + vn2 ** 2 / (n2 - 1))
        # nan df means zero variance in both groups; any df then serves
        df = np.where(np.isnan(df), 1.0, df)
        t = (m1 - m2) / np.sqrt(vn1 + vn2)
    p = 2 * special.stdtr(df, -np.abs(t))
    # nan marks zero variance in both groups: p = 1 when means agree
    bad = ~np.isfinite(p)
    if bad.any():
        equal = np.isclose(m1, m2)
        p[bad & equal] = 1.0
        p[bad & ~equal] = P_MIN
    return np.clip(p, P_MIN, 1.0)


def _check_sizes(x: np.ndarray, y: np.ndarray) -> None:
    if len(x) < 2 or len(y) < 2:
        raise ValidationError(
            f"each group needs at least 2 observations (got {len(x)}, {len(y)})")
