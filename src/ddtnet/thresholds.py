"""Edge-selection thresholds: adaptive (parametric / empirical) and baselines.

The adaptive threshold gamma is the q-quantile (default 0.95) of the null
edge law on the logit scale; an edge is selected when logit(d_ij) > gamma,
ties broken toward non-selection. Baseline rules select on the p-values
directly (hard cut, Bonferroni, Benjamini-Hochberg).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy import special

from .core import AdjacencyMatrix, DdtError, DifferenceNetwork, ValidationError, logit
from .edgetests import PValueMatrix
from .hqs import MomentSummary, NullEnsemble, mixture_cdf
# perfbench/spans.py counts thresholds.mc_samples through this binding
from .hqs import mixture_sample  # noqa: F401

THRESHOLD_KINDS = ("addt", "eddt", "hard", "bonferroni", "fdr")

# Width of the bracket that addt_threshold stops at, in standard deviations
# of the null edge law.
_QUANTILE_XTOL = 1e-11
_QUANTILE_MAX_STEPS = 200
# Above this noncentrality addt_threshold takes the Cornish-Fisher quantile:
# chndtr's cost grows as sqrt(lambda) (1.6 ms per value at 1e9), while the
# expansion's error falls as lambda^(-3/2) and is below 5e-10 in
# probability here.
_CORNISH_FISHER_NONCENTRALITY = 1e5


class EmptyEnsembleError(DdtError):
    """Empirical threshold requested from an ensemble with no networks."""


@dataclass(frozen=True)
class ThresholdRule:
    """Threshold selection rule.

    level is the null quantile for addt/eddt (0.95 selects ~5% of null
    edges), the cut on d = 1 - p for hard, and the error level alpha for
    bonferroni/fdr.
    """

    kind: str = "addt"
    level: float = 0.95

    def __post_init__(self):
        if self.kind not in THRESHOLD_KINDS:
            raise ValidationError(
                f"unknown threshold kind {self.kind!r}; expected one of "
                f"{', '.join(THRESHOLD_KINDS)}")
        if (isinstance(self.level, bool) or not isinstance(self.level, numbers.Real)
                or not 0.0 < self.level < 1.0):
            raise ValidationError(f"level must be in (0, 1), got {self.level!r}")


def addt_threshold(moments: MomentSummary, q: float = 0.95) -> float:
    """q-quantile of the parametric null edge law (sigma2/2)(T - Q).

    Inverts hqs.mixture_cdf, so the threshold is exact to the quadrature
    and deterministic. The law has mean sigma2 lambda / 2 and standard
    deviation sd = sigma2 sqrt(m + lambda); by Cantelli's inequality its
    q-quantile lies in [mean - sd sqrt((1-q)/q), mean + sd sqrt(q/(1-q))],
    which regula falsi narrows to 1e-11 sd. Past
    _CORNISH_FISHER_NONCENTRALITY the law is near normal and the
    Cornish-Fisher expansion through its fourth cumulant gives the quantile.
    """
    if not 0.0 < q < 1.0:
        raise ValidationError(f"quantile must be in (0, 1), got {q}")
    m, lam = moments.m, moments.noncentrality
    mean = 0.5 * moments.sigma2 * lam
    sd = moments.sigma2 * math.sqrt(m + lam)
    if lam > _CORNISH_FISHER_NONCENTRALITY:
        # skewness and excess kurtosis of T - Q from the chi-square
        # cumulants kappa_r = 2^(r-1) (r-1)! (m + r lambda) of T and of Q
        skew = 3.0 * lam / (m + lam) ** 1.5
        kurt = 6.0 * (m + 2.0 * lam) / (m + lam) ** 2
        z = float(special.ndtri(q))
        return mean + sd * (z + skew * (z * z - 1.0) / 6.0
                            + kurt * (z ** 3 - 3.0 * z) / 24.0
                            - skew * skew * (2.0 * z ** 3 - 5.0 * z) / 36.0)
    return _regula_falsi(lambda x: mixture_cdf(moments, x) - q,
                         mean - sd * math.sqrt((1.0 - q) / q),
                         mean + sd * math.sqrt(q / (1.0 - q)),
                         _QUANTILE_XTOL * sd)


def _regula_falsi(f, lo: float, hi: float, xtol: float) -> float:
    """Root of the increasing function f in [lo, hi], given f(lo) <= 0 <=
    f(hi), by the Illinois variant of regula falsi: an end that stays put
    twice in a row has its f halved, so both ends close in. Stops once the
    bracket is at most xtol wide."""
    f_lo, f_hi = f(lo), f(hi)
    if f_lo >= 0.0:
        return lo
    if f_hi <= 0.0:
        return hi
    kept = 0    # the end that stayed put in the last step: -1 low, +1 high
    for _ in range(_QUANTILE_MAX_STEPS):
        if hi - lo <= xtol:
            break
        x = (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
        fx = f(x)
        if fx == 0.0:
            return x
        if fx < 0.0:
            lo, f_lo = x, fx
            if kept == 1:
                f_hi *= 0.5
            kept = 1
        else:
            hi, f_hi = x, fx
            if kept == -1:
                f_lo *= 0.5
            kept = -1
    return 0.5 * (lo + hi)


def eddt_threshold(ensemble: NullEnsemble, q: float = 0.95) -> float:
    """Empirical q-quantile of all pooled off-diagonal null entries.

    Needs the materialized ensemble; the pipeline takes the same value from
    one streamed pass with hqs.null_exceedances.
    """
    if not 0.0 < q < 1.0:
        raise ValidationError(f"quantile must be in (0, 1), got {q}")
    if ensemble.size < 1:
        raise EmptyEnsembleError("ensemble contains no networks")
    return float(np.quantile(ensemble.pooled_logit_values(), q))


def apply_threshold(dn: DifferenceNetwork, gamma: float) -> AdjacencyMatrix:
    """Select edges with logit(d_ij) strictly above gamma."""
    if math.isnan(gamma):
        raise ValidationError("threshold gamma is NaN")
    return AdjacencyMatrix(n=dn.n, selected=dn.logit_values() > gamma)


def bh_adjust(pvalues: np.ndarray) -> np.ndarray:
    """Benjamini-Hochberg adjusted p-values: for the i-th smallest of m,
    min(1, min over j >= i of p_(j) m / j). The BH step-up procedure at
    level alpha rejects exactly the p-values whose adjusted value is
    <= alpha."""
    p = np.asarray(pvalues, dtype=float)
    m = p.size
    order = np.argsort(p, kind="stable")
    ranked = p[order] * m / np.arange(1, m + 1)
    ranked = np.minimum.accumulate(ranked[::-1])[::-1]
    out = np.empty(m)
    out[order] = np.minimum(ranked, 1.0)
    return out


def benjamini_hochberg(pvalues: np.ndarray, alpha: float) -> np.ndarray:
    """BH step-up rejection mask at level alpha."""
    return bh_adjust(pvalues) <= alpha


def baseline_threshold(pmat: PValueMatrix, rule: ThresholdRule) -> AdjacencyMatrix:
    """Edge selection by a non-adaptive rule on the p-value matrix.

    hard keeps edges with 1 - p > level; bonferroni keeps p < alpha / E;
    fdr is the Benjamini-Hochberg step-up at level alpha over the E edges.
    """
    p = pmat.values
    if rule.kind == "hard":
        selected = (1.0 - p) > rule.level
    elif rule.kind == "bonferroni":
        selected = p < rule.level / pmat.n_edges
    elif rule.kind == "fdr":
        selected = benjamini_hochberg(p, rule.level)
    else:
        raise ValidationError(
            f"baseline_threshold handles hard/bonferroni/fdr, not {rule.kind!r}")
    return AdjacencyMatrix(n=pmat.n, selected=selected)


def select_gamma(rule: ThresholdRule,
                 moments: MomentSummary | None = None,
                 pmat: PValueMatrix | None = None) -> float:
    """Logit-scale gamma of a rule known before the null pass (every kind
    but eddt, whose gamma is the pooled null quantile that
    hqs.null_exceedances selects), usable on observed and null nets.

    For bonferroni/fdr the rule's p-cut is mapped onto the d scale
    (p < c  <=>  logit(d) > logit(1 - c)); fdr with no rejection returns
    +inf, which selects nothing.
    """
    if rule.kind == "addt":
        if moments is None:
            raise ValidationError("addt threshold needs a moment summary")
        return addt_threshold(moments, rule.level)
    if rule.kind == "eddt":
        raise ValidationError("the eddt threshold comes from the null pass "
                              "(hqs.null_exceedances)")
    if rule.kind == "hard":
        return logit(rule.level)
    if pmat is None:
        raise ValidationError(f"{rule.kind} threshold needs the p-value matrix")
    if rule.kind == "bonferroni":
        cut = rule.level / pmat.n_edges
        return logit(1.0 - cut)
    # fdr: cut between the largest rejected p and the next larger one
    reject = benjamini_hochberg(pmat.values, rule.level)
    if not reject.any():
        return math.inf
    p_max_rej = float(pmat.values[reject].max())
    above = pmat.values[pmat.values > p_max_rej]
    cut = 0.5 * (p_max_rej + (float(above.min()) if above.size else 1.0))
    return logit(1.0 - cut)
