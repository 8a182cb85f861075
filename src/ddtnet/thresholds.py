"""Edge-selection thresholds: adaptive (parametric / empirical) and baselines.

The adaptive threshold gamma is the q-quantile (default 0.95) of the null
edge law on the logit scale; an edge is selected when logit(d_ij) > gamma,
ties broken toward non-selection. Baseline rules select on the p-values
directly (hard cut, Bonferroni, Benjamini-Hochberg).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import AdjacencyMatrix, DdtError, DifferenceNetwork, ValidationError, logit
from .edgetests import PValueMatrix
from .hqs import MomentSummary, NullEnsemble, mixture_sample

THRESHOLD_KINDS = ("addt", "eddt", "hard", "bonferroni", "fdr")

# fixed internal seed of the parametric Monte Carlo quantile, so the
# adaptive threshold for given moments is reproducible across runs
DEFAULT_MC_SEED = 20210405
DEFAULT_RESOLUTION = 1_000_000


class EmptyEnsembleError(DdtError):
    """Empirical threshold requested from an ensemble with no networks."""


@dataclass(frozen=True)
class ThresholdRule:
    """Threshold selection rule.

    level is the null quantile for addt/eddt (0.95 selects ~5% of null
    edges), the cut on d = 1 - p for hard, and the error level alpha for
    bonferroni/fdr. resolution is the parametric Monte Carlo sample count.
    """

    kind: str = "addt"
    level: float = 0.95
    resolution: int = DEFAULT_RESOLUTION
    seed: int = DEFAULT_MC_SEED

    def __post_init__(self):
        if self.kind not in THRESHOLD_KINDS:
            raise ValidationError(
                f"unknown threshold kind {self.kind!r}; expected one of "
                f"{', '.join(THRESHOLD_KINDS)}")
        if not 0.0 < self.level < 1.0:
            raise ValidationError(f"level must be in (0, 1), got {self.level}")
        if self.resolution < 1000:
            raise ValidationError("resolution below 1000 gives unusable quantiles")


def addt_threshold(moments: MomentSummary, q: float = 0.95,
                   resolution: int = DEFAULT_RESOLUTION,
                   seed: int = DEFAULT_MC_SEED) -> float:
    """q-quantile of the parametric null edge law (sigma2/2)(T - Q).

    Computed by Monte Carlo from the exact mixture representation; with the
    default resolution the quantile is accurate to well under 0.5% of the
    interquartile range.
    """
    if not 0.0 < q < 1.0:
        raise ValidationError(f"quantile must be in (0, 1), got {q}")
    samples = mixture_sample(moments, resolution, seed=seed)
    return float(np.quantile(samples, q))


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
        return addt_threshold(moments, rule.level, rule.resolution, rule.seed)
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
