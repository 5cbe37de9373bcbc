"""Reference computations the tests hold the program against.

Loader's saddle-point binomial and negative-binomial pmfs are the accurate
reference for the rows of ``measures.log_space_pmfs``; ``pgf_geometric`` is
the geometric pgf one float at a time; ``beta_star_mc`` and
``alpha_star_mc`` estimate the threshold constants by Monte Carlo of their
defining expectations, against the closed forms of ``thresholds``.
"""

import math

import numpy as np

from wfduality.measures import FiniteMeasure, SelectionKernel, mean_excess
from wfduality.rngstreams import batch_mean_se

_LOG_2PI = math.log(2.0 * math.pi)


def _stirlerr_series(n: np.ndarray) -> np.ndarray:
    nn = n * n
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * nn))
                                 / nn) / nn) / nn) / n


#: _stirlerr at n = 0..1023 (0 unused): direct up to 15, where the
#: log-gamma sum loses no digit that matters, the Stirling series above.
_STIRLERR = np.concatenate([[0.0], [
    math.lgamma(n + 1.0) - (n + 0.5) * math.log(n) + n - 0.5 * _LOG_2PI
    for n in range(1, 16)], _stirlerr_series(np.arange(16.0, 1024.0))])


def _stirlerr(n: np.ndarray) -> np.ndarray:
    """log(n!) - log(sqrt(2 pi n) (n/e)^n) for integers n >= 1."""
    if n.max() < _STIRLERR.size:
        return _STIRLERR[n.astype(np.intp)]
    out = _stirlerr_series(n)
    small = n <= 15
    out[small] = _STIRLERR[n[small].astype(np.intp)]
    return out


def _bd0(x: np.ndarray, m: np.ndarray) -> np.ndarray:
    """x log(x/m) + m - x for x > 0, m > 0, Loader's deviance term.

    Written as x log1p(d/m) - d with d = x - m, its rounding error is of the
    order of eps |d| rather than eps x, which keeps the bulk of a large-n
    pmf accurate.
    """
    d = x - m
    return x * np.log1p(d / m) - d


def binom_pmf(k, n, p: float) -> np.ndarray:
    """Binomial(n, p) pmf at k, broadcast over integer arrays k and n; zero
    off {0, ..., n}.

    Uses Loader's saddle-point form (C. Loader, "Fast and accurate
    computation of binomial probabilities", 2000): the log pmf is a sum of
    small Stirling remainders and the deviance terms ``_bd0``, so it keeps
    its relative accuracy where a difference of log-gammas of size n log n
    would lose digits, and it never overflows.
    """
    k = np.asarray(k, dtype=float)
    n = np.asarray(n, dtype=float)
    k, n = k + 0.0 * n, n + 0.0 * k  # broadcast to one shape
    q = 1.0 - p
    out = np.zeros(k.shape)
    mid = (k > 0) & (k < n)
    if p > 0 and q > 0 and mid.any():
        km, nm = k[mid], n[mid]
        # one call per helper on joined arguments: the arrays are short
        sn, sk, snk = _stirlerr(
            np.concatenate([nm, km, nm - km])).reshape(3, -1)
        dk, dnk = _bd0(np.concatenate([km, nm - km]),
                       np.concatenate([nm * p, nm * q])).reshape(2, -1)
        lf = _LOG_2PI + np.log(km) + np.log1p(-km / nm)
        out[mid] = np.exp(sn - sk - snk - dk - dnk - 0.5 * lf)
    none, all_ = k == 0, (k == n) & (n > 0)
    # (1-p)^n is 1 at n = 0 even when p = 1; the k = n branch has n > 0
    out[none] = np.exp(n[none] * math.log1p(-p)) if q > 0 else n[none] == 0
    out[all_] = np.exp(n[all_] * math.log(p)) if p > 0 else 0.0
    return out


def nbinom_pmf(k, n, p: float) -> np.ndarray:
    """Probability of k failures before the n-th success, success
    probability p: n / (n + k) times the Binomial(n + k, p) pmf at n."""
    k = np.asarray(k, dtype=float)
    return n / (n + k) * binom_pmf(n, n + k, p)


def beta_star_mc(lambda_c: FiniteMeasure, samples: int,
                 rng: np.random.Generator) -> tuple[float, float]:
    """Monte Carlo of the defining expectation (1/2) E[1/(W(1-W))].

    W = Y*U with Y from the normalised measure and U having density 2u,
    sampled as the square root of a uniform.
    """
    y = lambda_c.normalized().sample(samples, rng)
    u = np.sqrt(rng.random(samples))
    w = y * u
    vals = 0.5 / (w * (1.0 - w))
    return batch_mean_se(vals)


def alpha_star_mc(kernel: SelectionKernel, lambda_s: FiniteMeasure,
                  samples: int, rng: np.random.Generator) -> tuple[float, float]:
    """Monte Carlo of E[1/(1 + V m(Y))], V uniform on [0,1]."""
    ys = lambda_s.normalized().sample(samples, rng)
    uniq, inv = np.unique(ys, return_inverse=True)
    ms = np.array([mean_excess(kernel, float(y)) for y in uniq])[inv]
    v = rng.random(samples)
    with np.errstate(invalid="ignore"):
        vals = 1.0 / (1.0 + v * ms)
    vals[np.isinf(ms)] = 0.0
    return batch_mean_se(vals)


def pgf_geometric(y: float, x: float) -> float:
    """E[x^K] for K ~ Geo(1 - |y|) on {1, 2, ...}, one float at a time:
    x(1 - |y|)/(1 - x|y|), and at |y| = 1 the point mass at infinity."""
    q = abs(y)
    if q >= 1.0:
        return float(x == 1.0)
    return x * (1.0 - q) / (1.0 - x * q)


def searched_pick(cum: np.ndarray, last: np.ndarray, i: np.ndarray,
                  key: np.ndarray) -> np.ndarray:
    """Index of the entry an inverse-CDF draw at ``key`` picks in row i of
    flat rows ``cum``: the first entry above the key, clamped to the row's
    last entry ``last[i]``, as a key may round up to the row's end."""
    return np.minimum(np.searchsorted(cum, key, side="right"), last[i])


#: Uniforms at both ends of [0, 1): r + (1 - 2^-53) rounds to r + 1 for
#: every r >= 1.
EDGE_UNIFORMS = (0.0, 1.0 - 2.0**-53)


def entry_uniforms(cum: np.ndarray, lens: np.ndarray,
                   base: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Row index and uniform of a draw at every entry of flat rows but the
    rows' last ones, so each key equals an entry: row i holds ``lens[i]``
    entries in (r, r + 1], r = base + i, and cum - r is exact there."""
    i = np.repeat(np.arange(lens.size), lens)
    u = cum - (base + i)
    return i[u < 1.0], u[u < 1.0]
