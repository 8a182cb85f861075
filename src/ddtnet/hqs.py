"""Moment-matched null difference networks via random Gram matrices.

A null network is built as C = L L^T with L an n x m matrix of iid
N(mu, sigma^2) entries. Choosing

    mu     = sqrt(ebar / m)
    sigma2 = -mu^2 + sqrt(mu^4 + vbar / m)

makes every off-diagonal entry match the observed logit-scale mean ebar and
variance vbar exactly:

    E[c_ij]   = m mu^2                          = ebar
    Var[c_ij] = m (sigma2 + mu^2)^2 - m mu^4    = vbar

Each off-diagonal entry is distributed as (sigma2/2) (T - Q) with
T ~ noncentral chi^2_m(lambda), lambda = 2 m mu^2 / sigma2, Q ~ chi^2_m,
T independent of Q. mixture_cdf evaluates that law's distribution function,
mixture_quantile inverts it (the parametric threshold) and mixture_sample
draws from it.

Since every entry follows that law, a threshold fixed in advance is
exceeded by each null edge with probability 1 - mixture_cdf, and needs no
ensemble. Only the pooled quantile of the eDDT threshold does, and the
pipeline never holds its M x E entries: a NullStream draws the replicates
from one generator in row blocks of at most 4 MB, and null_exceedances
selects the quantile and its per-edge exceedance counts from one pass over
them, keeping only the entries in a narrow bracket around the law's quantile.

scipy.special is imported by the functions that call it, so importing this
module, or streaming the null networks to disk, does not load it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .core import (
    DdtError,
    DifferenceNetwork,
    ValidationError,
    _FrozenArrays,
    _frozen,
    substream,
    triu_index_pairs,
)


class NonpositiveMeanError(DdtError):
    """Observed logit-scale mean is <= 0, so mu = sqrt(ebar/m) is undefined."""


class ZeroVarianceError(DdtError):
    """Observed logit-scale variance is zero (constant difference network),
    or too small against the mean for a positive sigma2."""


@dataclass(frozen=True)
class MomentSummary:
    """First/second moments of the observed network and the matched
    Gaussian parameters for the generator.

    The inner dimension m is fixed at 2 by default: the diagonal of the
    generated Gram matrix is discarded, and the off-diagonal moments match
    for any m, so m only needs to be a valid positive integer. (The
    diagonal mean of the observed logit-scale network is not computable;
    its diagonal is identically zero.)
    """

    ebar: float
    vbar: float
    m: int
    mu: float
    sigma2: float

    @classmethod
    def from_moments(cls, ebar: float, vbar: float, m: int = 2) -> "MomentSummary":
        if m < 1:
            raise ValidationError(f"inner dimension m must be >= 1, got {m}")
        if not (math.isfinite(ebar) and math.isfinite(vbar)):
            raise ValidationError(f"moments must be finite, got ebar={ebar}, "
                                  f"vbar={vbar}")
        if ebar <= 0.0:
            raise NonpositiveMeanError(
                f"logit-scale mean of the difference network is {ebar:.6g} <= 0; "
                "the generator needs a positive mean (mu = sqrt(ebar/m))")
        if vbar <= 0.0:
            raise ZeroVarianceError(
                "logit-scale variance of the difference network is zero")
        mu = np.sqrt(ebar / m)
        sigma2 = -mu * mu + np.sqrt(mu ** 4 + vbar / m)
        if sigma2 <= 0.0:
            raise ZeroVarianceError(
                f"sigma2 = {sigma2:.3g}: vbar/m = {vbar / m:.3g} is below the "
                f"float resolution of mu^4 = {mu ** 4:.3g}, so the null edge "
                "law is degenerate")
        return cls(ebar=float(ebar), vbar=float(vbar), m=int(m),
                   mu=float(mu), sigma2=float(sigma2))

    @property
    def noncentrality(self) -> float:
        """lambda = m * (4 mu^2) / (2 sigma^2) of the T component."""
        return 2.0 * self.m * self.mu ** 2 / self.sigma2

    def to_dict(self) -> dict:
        return {"ebar": self.ebar, "vbar": self.vbar, "m": self.m,
                "mu": self.mu, "sigma2": self.sigma2,
                "noncentrality": self.noncentrality}


def observed_moments(dn: DifferenceNetwork, m: int = 2) -> MomentSummary:
    """Logit-scale mean and population variance of the off-diagonal entries."""
    dbar = dn.logit_values()
    ebar = float(dbar.mean())
    vbar = float(dbar.var())    # population variance: moments of the matrix itself
    return MomentSummary.from_moments(ebar, vbar, m=m)


# Null replicates are generated and consumed in row blocks of at most this
# many bytes, so a pass over the ensemble never holds all M x E entries.
_BLOCK_BYTES = 4 * 2 ** 20
# The Gram matrices of a block are formed by one batched matmul over chunks
# of networks of at most this many bytes (at least one network).
_GRAM_BYTES = 128 * 2 ** 10
# Half-width of the bracket around a pooled quantile, in standard errors of
# the mean of the M per-network exceedance rates.
_BRACKET_Z = 6.0


def _block_rows(n_edges: int) -> int:
    return max(1, _BLOCK_BYTES // (8 * n_edges))


@lru_cache(maxsize=8)
def _upper_flat_index(n: int) -> np.ndarray:
    """Flat indices i * n + j of the upper triangle of an n x n matrix, in
    canonical i<j order."""
    iu, ju = triu_index_pairs(n)
    return _frozen(iu * n + ju)


@dataclass(frozen=True)
class NullStream:
    """The null ensemble as a recipe: M replicates that are never stored.

    blocks() draws every replicate's Gaussian factors, in replicate order,
    from one generator keyed by the seed, in row blocks of at most
    _BLOCK_BYTES (4 MB): a pass holds one block at a time, and the rows are
    the same at any block size. The factors of up to _GRAM_BYTES of Gram
    matrices are drawn at once, multiplied in one batched matmul and
    gathered through a cached flat index of the upper triangle. The
    read-only blocks share one buffer: a block is valid until the next is
    requested, so copy whatever must outlive it.
    """

    moments: MomentSummary
    n: int
    size: int
    seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ValidationError(f"need at least 2 nodes, got n={self.n}")
        if self.size < 1:
            raise ValidationError(f"ensemble size must be >= 1, got {self.size}")
        if self.seed < 0:
            raise ValidationError(f"seed must be non-negative, got {self.seed}")

    def blocks(self) -> Iterator[np.ndarray]:
        n, m = self.n, self.moments.m
        flat = _upper_flat_index(n)
        mu, sd = self.moments.mu, np.sqrt(self.moments.sigma2)
        buffer = np.empty((min(_block_rows(len(flat)), self.size), len(flat)))
        chunk = max(1, min(len(buffer), _GRAM_BYTES // (8 * n * n)))
        grams = np.empty((chunk, n, n))
        # SeedSequence pads its entropy with zero words, so this key, whose
        # third word is 1, equals no permutation test's (seed, edge) key
        rng = substream(self.seed, 0, 1)
        for start in range(0, self.size, len(buffer)):
            block = buffer[:min(len(buffer), self.size - start)]
            for lo in range(0, len(block), chunk):
                rows = block[lo:lo + chunk]
                L = rng.normal(mu, sd, size=(len(rows), n, m))
                gram = grams[:len(rows)]
                np.matmul(L, L.transpose(0, 2, 1), out=gram)
                # "clip", unlike "raise", fills `out` unbuffered; flat is in range
                np.take(gram.reshape(len(rows), n * n), flat, axis=1, out=rows,
                        mode="clip")
            yield _frozen(block)


@dataclass(frozen=True)
class NullEnsemble(_FrozenArrays):
    """M generated null networks sharing the observed first two moments.

    logit_entries holds the raw off-diagonal Gram entries, one row per
    replicate in canonical upper-triangle order; core.inv_logit of a row is
    that replicate's probability-scale network.
    """

    moments: MomentSummary
    n: int
    seed: int
    logit_entries: np.ndarray   # shape (M, n*(n-1)/2)

    def __post_init__(self):
        entries = np.asarray(self.logit_entries, dtype=float)
        if entries.ndim != 2 or entries.shape[1] != self.n * (self.n - 1) // 2:
            raise ValidationError(
                f"expected (M, {self.n * (self.n - 1) // 2}) entries, got "
                f"{entries.shape}")
        if entries.shape[0] < 1:
            raise ValidationError("ensemble needs at least one network")
        object.__setattr__(self, "logit_entries", _frozen(entries))

    @property
    def size(self) -> int:
        return self.logit_entries.shape[0]

    def blocks(self) -> Iterator[np.ndarray]:
        """The entries in the row blocks a NullStream of this size yields."""
        rows = _block_rows(self.logit_entries.shape[1])
        for start in range(0, self.size, rows):
            yield self.logit_entries[start:start + rows]

    def pooled_logit_values(self) -> np.ndarray:
        return self.logit_entries.ravel()


def generate_null(moments: MomentSummary, n: int, size: int,
                  seed: int = 0) -> NullEnsemble:
    """Generate and keep `size` null networks of n nodes.

    Its rows are those of NullStream(moments, n, size, seed), so it is the
    first rows of any larger ensemble with the same seed. This holds all
    M x E entries; the pipeline streams a NullStream instead.
    """
    stream = NullStream(moments, n, size, seed)
    entries = np.empty((size, n * (n - 1) // 2))
    start = 0
    for block in stream.blocks():
        entries[start:start + len(block)] = block
        start += len(block)
    return NullEnsemble(moments=moments, n=n, seed=seed, logit_entries=entries)


@dataclass(frozen=True)
class NullExceedance(_FrozenArrays):
    """A threshold and, per edge, how many null replicates exceed it."""

    gamma: float
    counts: np.ndarray     # int64 #{i : entry_i,e > gamma}, canonical edge order
    size: int              # M, the number of replicates counted

    def __post_init__(self):
        object.__setattr__(self, "counts",
                           _frozen(np.asarray(self.counts, dtype=np.int64)))

    @property
    def edge_fraction(self) -> float:
        """Share of all M x E null entries above gamma."""
        return float(self.counts.sum()) / (self.size * self.counts.size)


def _lerp(a: float, b: float, t: float) -> float:
    """numpy's linear interpolation rule, so quantiles match np.quantile."""
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


def _order_quantile(values: np.ndarray, level: float, total: int,
                    below: int = 0) -> float | None:
    """np.quantile(pooled, level) of `total` pooled values, `below` of them
    under `values` and the rest over: the order statistics at the floor k
    of (total - 1) level, by one partition, and at k + 1, the minimum right
    of it. None when `values` does not hold both."""
    virtual = (total - 1) * level
    k = math.floor(virtual)
    lower, upper = k - below, min(k + 1, total - 1) - below
    if lower < 0 or upper >= len(values):
        return None
    picked = np.partition(values, lower)
    a = float(picked[lower])
    b = float(picked[lower + 1:].min()) if upper > lower else a
    return _lerp(a, b, virtual - k)


def null_exceedances(source: NullStream | NullEnsemble,
                     level: float) -> NullExceedance:
    """The pooled level-quantile of the null entries (eDDT) and, per edge,
    how many replicates exceed it.

    gamma is the quantile of all M x E null entries, exactly
    np.quantile(pooled, level). An ensemble of one block is selected from
    whole. Otherwise the quantile is bracketed at [lo, hi] = F^-1(level -/+
    margin) on the null edge law F of source.moments, which every entry of
    a generated ensemble follows, and one pass counts per edge the entries
    above hi and keeps those in the bracket with their edge; the rest lie
    below lo. If the order statistics the quantile needs are kept, they are
    selected from them. Otherwise another pass takes twice the margin, at
    least 0.01: a miss costs a pass, never an approximation, and within
    eight widenings the margin passes 1, which keeps every entry. A pass
    holds the stream's block, two bool masks of its shape, reused for every
    block, and the kept values and edges in one pair of arrays with room for
    the bracket's expected share, which grow only if it overflows; the block
    and the masks are freed before the selection.

    The pooled share of entries below x is the mean of the M per-network
    shares, each with mean F(x), so on the probability scale the pooled
    quantile sits within margin = _BRACKET_Z spread / sqrt(M) of level, bar
    a _BRACKET_Z-sigma deviation. The entries of one network share its n
    Gaussian factor rows, so its share varies like a sample of about n
    values, not E: spread is the standard deviation of the first block's
    per-network exceedance rates, floored at sqrt(level (1 - level) / n).
    """
    if not 0.0 < level < 1.0:
        raise ValidationError(f"quantile must be in (0, 1), got {level}")
    blocks = source.blocks()
    first = next(blocks)
    size, n_edges = source.size, first.shape[1]
    total = size * n_edges
    if len(first) == size:
        gamma = _order_quantile(first.ravel(), level, total)
        return NullExceedance(gamma=gamma, counts=(first > gamma).sum(axis=0),
                              size=size)

    spread = math.sqrt(level * (1.0 - level) / source.n)
    if len(first) > 1:
        rates = (first > mixture_quantile(source.moments, level)).mean(axis=1)
        spread = max(spread, float(rates.std(ddof=1)))
    se = spread / math.sqrt(size)    # of the pooled share below a point
    margin = _BRACKET_Z * se
    blocks = itertools.chain([first], blocks)
    shape = first.shape
    del first
    while True:
        lo = (mixture_quantile(source.moments, level - margin)
              if level - margin > 0.0 else -math.inf)
        hi = (mixture_quantile(source.moments, level + margin)
              if level + margin < 1.0 else math.inf)
        above = np.zeros(n_edges, dtype=np.int64)
        # room for the bracket's expected share 2 margin, give or take a
        # standard error at either end; pages never written stay out of RSS
        capacity = min(total, math.ceil(2.0 * (margin + se) * total))
        values, edges = np.empty(capacity), np.empty(capacity, dtype=np.int32)
        kept = 0
        masks = np.empty((2, *shape), dtype=bool)
        for block in blocks:
            over, inside = masks[:, :len(block)]
            np.greater(block, hi, out=over)
            above += over.sum(axis=0)
            np.greater_equal(block, lo, out=inside)
            inside &= np.logical_not(over, out=over)
            keep = np.flatnonzero(inside)
            end = kept + len(keep)
            if end > len(values):
                room = min(total, max(end, 2 * len(values)))
                values = _grown(values, kept, room)
                edges = _grown(edges, kept, room)
            # "clip", unlike "raise", fills `out` unbuffered; keep is in range
            np.take(block.ravel(), keep, out=values[kept:end], mode="clip")
            np.remainder(keep, n_edges, out=edges[kept:end])
            kept = end
        del block, masks, over, inside    # frees the block buffer and masks
        values, edges = values[:kept], edges[:kept]
        gamma = _order_quantile(values, level, total,
                                total - int(above.sum()) - kept)
        if gamma is not None:
            counts = above + np.bincount(edges[values > gamma],
                                         minlength=n_edges)
            return NullExceedance(gamma=gamma, counts=counts, size=size)
        del values, edges
        margin = max(2.0 * margin, 0.01)
        blocks = source.blocks()


def _grown(kept: np.ndarray, length: int, room: int) -> np.ndarray:
    """kept[:length] copied into an array of `room` entries: a bracket array
    outgrown by its pass."""
    grown = np.empty(room, dtype=kept.dtype)
    grown[:length] = kept[:length]
    return grown


def mixture_sample(moments: MomentSummary, count: int, seed: int = 0,
                   rng: np.random.Generator | None = None) -> np.ndarray:
    """Draw iid samples of the null edge law (sigma2/2) (T - Q).

    T is sampled exactly through its Poisson mixture of central chi-squares:
    T ~ chi^2_{m + 2K} with K ~ Poisson(lambda / 2).
    """
    if count < 1:
        raise ValidationError(f"sample count must be >= 1, got {count}")
    if rng is None:
        rng = np.random.default_rng(seed)
    k = rng.poisson(moments.noncentrality / 2.0, size=count)
    t = rng.chisquare(moments.m + 2 * k)
    q = rng.chisquare(moments.m, size=count)
    return 0.5 * moments.sigma2 * (t - q)


# Tanh-sinh rule on (0, 1): nodes t = k h for |t| <= _TS_HALF_WIDTH. The
# weights beyond that width are below 1e-21, and the step gives an absolute
# CDF error below 1e-13 over m in 1..5 and noncentrality 0..3200.
_TS_STEP = 1.0 / 8.0
_TS_HALF_WIDTH = 3.5


@lru_cache(maxsize=1)
def _tanh_sinh_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes s in (0, 1), their complements 1 - s and the weights of the
    tanh-sinh rule s(t) = (1 + tanh((pi/2) sinh t)) / 2. Both s and 1 - s
    are computed from the distance to the nearer end, so neither loses
    digits where the nodes crowd an endpoint."""
    k = int(_TS_HALF_WIDTH / _TS_STEP)
    t = np.arange(-k, k + 1) * _TS_STEP
    near = 1.0 / (1.0 + np.exp(np.pi * np.sinh(np.abs(t))))
    weights = _TS_STEP * np.pi * np.cosh(t) * near * (1.0 - near)
    below = t < 0
    return (_frozen(np.where(below, near, 1.0 - near)),
            _frozen(np.where(below, 1.0 - near, near)), _frozen(weights))


def _chi2_quantiles(m: int, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Quantiles of chi^2_m at lower-tail probabilities `lower`, whose
    complements are `upper`; each is inverted from its smaller tail."""
    from scipy import special
    a = 0.5 * m
    return 2.0 * np.where(lower <= 0.5,
                          special.gammaincinv(a, np.minimum(lower, 0.5)),
                          special.gammainccinv(a, np.minimum(upper, 0.5)))


@lru_cache(maxsize=8)
def _chi2_nodes(m: int) -> np.ndarray:
    """chi^2_m quantiles at the tanh-sinh nodes (the rule over all of Q)."""
    s, c, _ = _tanh_sinh_rule()
    return _frozen(_chi2_quantiles(m, s, c))


def mixture_cdf(moments: MomentSummary, x: float) -> float:
    """P(X <= x) for the null edge law X = (sigma2/2) (T - Q).

    With y = 2x / sigma2, F(x) = P(T <= y + Q) = E[chndtr(y + Q; m, lambda)]
    over Q > max(0, -y). The expectation is an integral over u = P(Q <= q),
    taken by the tanh-sinh rule, which keeps its double-exponential
    convergence despite the integrand's endpoint singularities in u (a
    sqrt at the lower end for m = 1, a heavier noncentral tail at u -> 1).
    The nodes for y >= 0 depend only on m and are cached. Each call costs
    57 chndtr values, whose series grows as sqrt(lambda).
    """
    from scipy import special
    m, lam = moments.m, moments.noncentrality
    y = 2.0 * x / moments.sigma2
    s, c, weights = _tanh_sinh_rule()
    if y >= 0.0:
        return float(weights @ special.chndtr(y + _chi2_nodes(m), m, lam))
    # only Q > -y contributes: the rule runs over u in (P(Q <= -y), 1)
    span = special.chdtrc(m, -y)
    if span == 0.0:
        return 0.0
    q = _chi2_quantiles(m, special.chdtr(m, -y) + span * s, span * c)
    # chndtr is NaN below 0, where y + q lands when q rounds under -y
    t = np.maximum(y + q, 0.0)
    return float(span * (weights @ special.chndtr(t, m, lam)))


# Width of the bracket that mixture_quantile stops at, in standard
# deviations of the null edge law.
_QUANTILE_XTOL = 1e-11
_QUANTILE_MAX_STEPS = 200
# Above this noncentrality mixture_quantile takes the Cornish-Fisher
# quantile: chndtr's cost grows as sqrt(lambda) (1.6 ms per value at 1e9),
# while the expansion's error falls as lambda^(-3/2) and is below 5e-10 in
# probability here.
_CORNISH_FISHER_NONCENTRALITY = 1e5


def mixture_quantile(moments: MomentSummary, q: float) -> float:
    """q-quantile of the null edge law (sigma2/2)(T - Q), for q in (0, 1).

    Inverts mixture_cdf, so the quantile is exact to the quadrature and
    deterministic. The law has mean sigma2 lambda / 2 and standard
    deviation sd = sigma2 sqrt(m + lambda); by Cantelli's inequality its
    q-quantile lies in [mean - sd sqrt((1-q)/q), mean + sd sqrt(q/(1-q))],
    which regula falsi narrows to 1e-11 sd. Past
    _CORNISH_FISHER_NONCENTRALITY the law is near normal and the
    Cornish-Fisher expansion through its fourth cumulant gives the quantile.
    """
    m, lam = moments.m, moments.noncentrality
    mean = 0.5 * moments.sigma2 * lam
    sd = moments.sigma2 * math.sqrt(m + lam)
    if lam > _CORNISH_FISHER_NONCENTRALITY:
        # skewness and excess kurtosis of T - Q from the chi-square
        # cumulants kappa_r = 2^(r-1) (r-1)! (m + r lambda) of T and of Q
        skew = 3.0 * lam / (m + lam) ** 1.5
        kurt = 6.0 * (m + 2.0 * lam) / (m + lam) ** 2
        from scipy import special
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
