"""Edge-selection thresholds: adaptive (parametric / empirical) and baselines.

The adaptive threshold gamma is the q-quantile (default 0.95) of the null
edge law on the logit scale; an edge is selected when logit(d_ij) > gamma,
ties broken toward non-selection. The baseline rules (hard cut,
Bonferroni, Benjamini-Hochberg) map their p-value cut onto the same logit
scale, so every rule selects edges by one comparison.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import AdjacencyMatrix, DifferenceNetwork, ValidationError, logit
from .edgetests import PValueMatrix
from .hqs import MomentSummary, NullEnsemble, mixture_quantile
# perfbench/spans.py counts thresholds.mc_samples through this binding
from .hqs import mixture_sample  # noqa: F401

THRESHOLD_KINDS = ("addt", "eddt", "hard", "bonferroni", "fdr")


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
    """q-quantile of the parametric null edge law (sigma2/2)(T - Q), exact
    to the quadrature of hqs.mixture_cdf and deterministic (see
    hqs.mixture_quantile)."""
    if not 0.0 < q < 1.0:
        raise ValidationError(f"quantile must be in (0, 1), got {q}")
    return mixture_quantile(moments, q)


def eddt_threshold(ensemble: NullEnsemble, q: float = 0.95) -> float:
    """Empirical q-quantile of all pooled off-diagonal null entries.

    Needs the materialized ensemble; the pipeline takes the same value from
    one streamed pass with hqs.null_exceedances.
    """
    if not 0.0 < q < 1.0:
        raise ValidationError(f"quantile must be in (0, 1), got {q}")
    return float(np.quantile(ensemble.pooled_logit_values(), q))


def apply_threshold(dn: DifferenceNetwork, gamma: float) -> AdjacencyMatrix:
    """Select edges with logit(d_ij) strictly above gamma."""
    if math.isnan(gamma):
        raise ValidationError("threshold gamma is NaN")
    return AdjacencyMatrix(n=dn.n, values=dn.logit_values() > gamma)


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


def baseline_threshold(pmat: PValueMatrix, rule: ThresholdRule,
                       dn: DifferenceNetwork | None = None) -> AdjacencyMatrix:
    """Edges kept by a non-adaptive rule, as ddt_run selects them: hard keeps
    1 - p > level, bonferroni p < alpha / E, fdr the BH step-up at alpha.
    The rule's select_gamma cut is applied to the difference network (dn,
    if built from pmat already), so a p-value that d = 1 - p cannot tell
    from the cut falls with it: one beyond the P_MIN clamp, one whose 1 - p
    rounds onto 1 - cut, or (hard level below 0.5) one whose logit(d)
    rounds onto logit(level)."""
    if dn is None:
        dn = DifferenceNetwork.from_pvalues(pmat)
    return apply_threshold(dn, select_gamma(rule, pmat=pmat))


def select_gamma(rule: ThresholdRule,
                 moments: MomentSummary | None = None,
                 pmat: PValueMatrix | None = None) -> float:
    """Logit-scale gamma of a rule known before the null pass (every kind
    but eddt, whose gamma is the pooled null quantile that
    hqs.null_exceedances selects), usable on observed and null nets.

    For bonferroni/fdr the rule's p-cut is mapped onto the d scale
    (p < c  <=>  logit(d) > logit(1 - c)); fdr with no rejection, and a
    cut below the p-value clamp, return +inf, which selects nothing.
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
    else:    # fdr: cut between the largest rejected p and the next larger one
        reject = benjamini_hochberg(pmat.values, rule.level)
        if not reject.any():
            return math.inf
        p_max_rej = float(pmat.values[reject].max())
        above = pmat.values[pmat.values > p_max_rej]
        cut = 0.5 * (p_max_rej + (float(above.min()) if above.size else 1.0))
    # a cut so small that 1 - cut rounds to 1 lies below P_MIN, where every
    # p-value is clamped, so it selects nothing
    return logit(1.0 - cut) if 1.0 - cut < 1.0 else math.inf
