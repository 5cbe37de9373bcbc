"""Selection kernels, finite measures on [0,1], and their generating functions.

A selection kernel assigns to every environment value y in [0,1] a law Q(y)
for the number of potential parents an individual draws, supported on
{1, 2, ...} with optional mass at infinity.  Three variants are provided:

* ``geometric``: Q(y) = Geo(1-y) on {1,2,...}, with Q(1) the point mass at
  infinity,
* ``binary``:    Q(y) = (1-y) d_1 + y d_2,
* ``table``:     Q(y) = (1-y) d_1 + y * base, where ``base`` is a fixed
  finite pmf on {1,...,K} plus an optional atom at infinity.  The y-mixture
  form guarantees Q(0) = d_1 and Q(y) != d_1 for y > 0 whenever the base
  pmf is not d_1 itself.

Sums of parent counts, mixed over the atoms of a measure, come from one
log-space recurrence over every atom (``log_space_pmfs``), whose per-atom
terms ``SumLaw`` and ``log_atoms`` take once; ``SumLaw`` also sizes the
window of each sum from its moments.  ``guide_table`` indexes the flat
inverse-CDF rows that the dual chain and both directions of the finite graph
draw from; ``guided_draw`` is the finite graph's draw through them.

Finite measures are weighted atoms; a density is reduced at construction to
the nodes of a fixed composite midpoint rule, so every downstream integral
is a plain weighted sum and results are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (DegenerateKernelAtAtom, InfiniteJumpIntensity, ModelError,
                     NonFiniteIntegrand)

#: Sentinel for an infinite parent count in integer samples.
INF_K = np.iinfo(np.int64).max

#: Most (atom, state, k) entries ``log_space_pmfs`` builds at once, and most
#: (state, category) entries one pass of ``bcre.RateCache.rows`` builds.
ENTRY_CAP = 2**15

#: Widest window of a sum of parent counts, in categories.
K_MAX_CAP = 2**20


# ---------------------------------------------------------------------------
# Selection kernels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectionKernel:
    """Family {Q(y) : y in [0,1]} of potential-parent-count laws."""

    variant: str  # "geometric" | "binary" | "table"
    table_values: tuple[int, ...] = ()
    table_probs: tuple[float, ...] = ()
    table_inf_mass: float = 0.0

    def __post_init__(self):
        if self.variant not in ("geometric", "binary", "table"):
            raise ModelError(f"unknown kernel variant {self.variant!r}")
        if self.variant == "table":
            total = sum(self.table_probs) + self.table_inf_mass
            if abs(total - 1.0) > 1e-12:
                raise ModelError("table kernel base pmf must sum to 1")
            if any(k < 1 for k in self.table_values):
                raise ModelError("table kernel support must be >= 1")
            if any(p <= 0 for p in self.table_probs) or self.table_inf_mass < 0:
                raise ModelError("table kernel probabilities must be positive")

    # -- constructors --------------------------------------------------

    @staticmethod
    def geometric() -> "SelectionKernel":
        return SelectionKernel("geometric")

    @staticmethod
    def binary() -> "SelectionKernel":
        return SelectionKernel("binary")

    @staticmethod
    def table(pmf: dict[int, float], inf_mass: float = 0.0) -> "SelectionKernel":
        items = sorted(pmf.items())
        return SelectionKernel(
            "table",
            table_values=tuple(k for k, _ in items),
            table_probs=tuple(p for _, p in items),
            table_inf_mass=inf_mass,
        )

    # -- queries ---------------------------------------------------------

    def sample(self, y, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``size`` parent counts; infinite draws are returned as INF_K.

        ``y`` is one environment value or one per draw.  As in ``pgf``, a
        value y < 0 encodes weak selection: geometric with parameter -y,
        whatever the variant.
        """
        y = np.broadcast_to(np.asarray(y, dtype=float), (size,))
        out = np.ones(size, dtype=np.int64)
        if self.variant == "geometric":
            q = np.abs(y)
        else:
            q = np.maximum(-y, 0.0)
            hit = rng.random(size) < y  # never where y < 0
            if self.variant == "binary":
                out[hit] = 2
            elif hit.any():  # table: mixture (1-y) d_1 + y base
                vals = np.array(self.table_values + (INF_K,), dtype=np.int64)
                probs = np.array(self.table_probs + (self.table_inf_mass,))
                out[hit] = rng.choice(vals, size=int(hit.sum()),
                                      p=probs / probs.sum())
        out[q >= 1.0] = INF_K
        mid = (q > 0.0) & (q < 1.0)
        if mid.any():
            out[mid] = rng.geometric(1.0 - q[mid])
        return out


def pgf(kernel: SelectionKernel, y: float, x: float) -> float:
    """Probability generating function E[x^{K_y}].

    The infinity atom contributes only at x = 1 (convention x^inf = 0 for
    x < 1, = 1 for x = 1).  Environment values y < 0 encode the weak
    selection mechanism: a geometric kernel with parameter -y, whatever the
    nominal variant.
    """
    return float(pgf_many(kernel, np.asarray(y, dtype=float), np.asarray(x, dtype=float)))


def pgf_many(kernel: SelectionKernel, y, x) -> np.ndarray:
    """Vectorised pgf; broadcasts y against x."""
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    y, x = np.broadcast_arrays(y, x)
    if kernel.variant == "geometric":  # either sign of y is geometric
        return _pgf_geometric(np.abs(y), x)
    out = np.empty(y.shape)
    neg = y < 0
    if neg.any():  # weak-selection encoding: geometric with parameter -y
        out[neg] = _pgf_geometric(-y[neg], x[neg])
    pos = ~neg
    if pos.any():
        yp, xp = y[pos], x[pos]
        if kernel.variant == "binary":
            out[pos] = (1.0 - yp) * xp + yp * xp * xp
        else:
            base = np.zeros_like(xp)
            for k, p in zip(kernel.table_values, kernel.table_probs):
                base += p * xp**k
            base += kernel.table_inf_mass * (xp == 1.0)
            out[pos] = (1.0 - yp) * xp + yp * base
    return out


def _pgf_geometric(q: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x(1 - q)/(1 - xq), the pgf of Geo(1 - q) at x, for q in [0, 1]."""
    deg = q >= 1.0  # point mass at infinity
    if not deg.any():
        return x * (1.0 - q) / (1.0 - x * q)
    out = np.empty(q.shape)
    out[deg] = (x[deg] == 1.0).astype(float)
    reg = ~deg
    out[reg] = x[reg] * (1.0 - q[reg]) / (1.0 - x[reg] * q[reg])
    return out


def mean_excess(kernel: SelectionKernel, y: float) -> float:
    """m(y) = E[K_y] - 1; +inf when Q(y) charges infinity.  As in ``pgf``,
    y < 0 encodes a geometric kernel with parameter -y."""
    if y < 0 or kernel.variant == "geometric":
        q = abs(y)
        return math.inf if q >= 1.0 else q / (1.0 - q)
    if kernel.variant == "binary":
        return y
    if kernel.table_inf_mass > 0 and y > 0:
        return math.inf
    base_mean = sum(k * p for k, p in zip(kernel.table_values, kernel.table_probs))
    return y * (base_mean - 1.0)


def excess_moments(kernel: SelectionKernel, y: float) -> tuple[float, float, float]:
    """Mean, variance and largest value of K_y - 1 on the finite part of Q(y).

    They size the truncation window of a sum of parent counts; mass at
    infinity only ever feeds the lumped tail, so it is left out (a geometric
    kernel at y = 1 has an empty finite part).
    """
    if kernel.variant == "geometric":
        if y >= 1.0:
            return 0.0, 0.0, 0.0
        return y / (1.0 - y), y / (1.0 - y) ** 2, math.inf
    if kernel.variant == "binary":
        return y, y * (1.0 - y), 1.0
    excess = np.array(kernel.table_values, dtype=float) - 1.0
    probs = y * np.array(kernel.table_probs)
    mean = float(probs @ excess)
    return (mean, max(0.0, float(probs @ excess**2) - mean**2),
            float(max(kernel.table_values, default=1) - 1))


def segments(lens) -> tuple[np.ndarray, np.ndarray]:
    """Row and offset in the row of every entry of rows laid end to end,
    row i holding ``lens[i]`` entries."""
    lens = np.asarray(lens, dtype=np.int64)
    row = np.repeat(np.arange(lens.size), lens)
    return row, np.arange(row.size) - (np.cumsum(lens) - lens)[row]


#: Most buckets in one row of a ``guide_table``.
GUIDE_BUCKETS = 64

#: Buckets of a row of n entries at index min(n, 64) - 1, the least power
#: of two not below n, and which of the 64 starts j/64 past the row's r
#: are theirs: b/g = j/64 for j a multiple of 64/g.  Built from Python
#: lists, as numpy ufuncs at import would load code nothing else needs.
_COUNTS = np.array([1 << (n - 1).bit_length()
                    for n in range(1, GUIDE_BUCKETS + 1)])
_STARTS = np.array([[j % (GUIDE_BUCKETS // g) == 0
                     for j in range(GUIDE_BUCKETS)] for g in _COUNTS.tolist()])
_BUCKETS = _COUNTS.astype(float)


def guide_table(cum: np.ndarray, lens, base: int = 0
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Guide table (Chen and Asau, 1974) of flat inverse-CDF rows.

    Row i of ``cum`` holds ``lens[i]`` >= 1 sorted entries in (r, r + 1],
    r = base + i, the last one r + 1, laid end to end as in
    ``bcre.RateCache`` and ``wf_graph.occupancy_rows``.  It gets
    g = min(``GUIDE_BUCKETS``, 2^ceil(log2 lens[i])) buckets, fewer than
    twice its entries, and bucket b holds the index in ``cum`` of the first
    entry above r + b/g.  Returns (guide, gptr, buckets): row i's buckets
    are ``guide[gptr[i]:gptr[i+1]]``, ``buckets[i]`` of them, as a float.

    A draw at r + U, U in [0, 1), reads p = guide[gptr[r] + floor(U g)].
    As g is a power of two, r + floor(U g)/g is a float no larger than the
    rounded r + U, so no entry before p lies above r + U: p is the draw's
    ``searchsorted(cum, r + U, side="right")`` whenever cum[p] > r + U, and
    only the other draws need a search.
    """
    k = np.minimum(lens, GUIDE_BUCKETS) - 1
    # 64 i + j for the bucket start i + j/64 of row i, which the division
    # and the sum give exactly: r + b/g is a float
    starts = np.flatnonzero(_STARTS[k]) / GUIDE_BUCKETS
    starts += base
    guide = np.searchsorted(cum, starts, side="right")
    gptr = np.zeros(k.size + 1, dtype=np.int64)
    np.cumsum(_COUNTS[k], out=gptr[1:])
    return guide, gptr, _BUCKETS[k]


def guided_draw(cum: np.ndarray, indptr: np.ndarray, guide: np.ndarray,
                gptr: np.ndarray, buckets: np.ndarray, rows: np.ndarray,
                u: np.ndarray) -> np.ndarray:
    """Index in ``cum`` of the entry each inverse-CDF draw at rows + u picks,
    u in [0, 1), in the flat rows ``cum[indptr[r]:indptr[r+1]]`` with their
    ``guide_table`` (guide, gptr, buckets): the first entry above the key,
    clamped to the row's last entry.

    The entry a draw's bucket names is its answer wherever it lies above
    the key; the other keys take one ``searchsorted``, whose clamp catches
    a key that rounds up to r + 1, past every entry of its row.
    """
    key = rows + u
    at = guide[gptr[rows] + (u * buckets[rows]).astype(np.int64)]
    miss = np.flatnonzero(cum[at] <= key)
    if miss.size:
        at[miss] = np.minimum(np.searchsorted(cum, key[miss], side="right"),
                              indptr[rows[miss] + 1] - 1)
    return at


class SumLaw:
    """Sums of n parent counts, mixed over the weighted atoms ``ys`` in
    [0, 1] of a measure.

    The per-atom terms are taken once: the moments that size each window,
    and the terms of the rows, so ``pmfs`` rows cost the same few numpy
    calls however many times they are built.  The geometric and the binary
    kernel take ``log_space_pmfs``, the table kernel convolves; no row reads
    another.
    """

    def __init__(self, kernel: SelectionKernel, ys, wgts):
        ys, wgts = np.asarray(ys, dtype=float), np.asarray(wgts, dtype=float)
        moments = np.array([excess_moments(kernel, y)
                            for y in ys.tolist()]).reshape(-1, 3)
        self.mean, self.var = moments[:, :1], moments[:, 1:2]  # (atom, 1)
        self.most = float(moments[:, 2].max(initial=0.0))
        self.mass = wgts.sum()
        self.singles = []  # table kernel: (weight, pmf of one draw's excess)
        if kernel.variant == "table":  # convolved: no log-space atoms
            self.singles = [(wgt, _table_single(kernel, y))
                            for y, wgt in zip(ys.tolist(), wgts.tolist())]
            ys, wgts = ys[:0], wgts[:0]
        self.law = log_atoms(-1 if kernel.variant == "binary" else 1, ys, wgts)

    def windows(self, ns: np.ndarray) -> np.ndarray:
        """Window of each state: mean + 12 sd + 16 of the summed excess
        K_{y,1} + ... + K_{y,n} - n, the largest over the atoms, and never
        more than the sum's finite support (n for the binary kernel) or
        ``K_MAX_CAP``."""
        size = (ns * self.mean + 12.0 * np.sqrt(ns * self.var)
                + 16.0).max(axis=0, initial=1.0)
        limit = np.minimum(np.maximum(ns * self.most, 1.0), K_MAX_CAP)
        return np.minimum(size, limit).astype(np.int64)

    def pmfs(self, ns, k_maxs) -> tuple[np.ndarray, np.ndarray]:
        """Row i: sum_a wgts[a] P(K_{y,1} + ... + K_{y,n_i} = n_i + k) at
        y = ys[a], k = 0..k_maxs[i], zero-padded; ``tails[i]``: the mass
        beyond."""
        ns = np.asarray(ns, dtype=np.int64)
        k_maxs = np.asarray(k_maxs, dtype=np.int64)
        width = int(k_maxs.max()) + 1
        return self.rows(log_space_pmfs(self.law, ns, [width])[0], ns,
                         k_maxs)

    def rows(self, probs: np.ndarray, ns: np.ndarray,
             k_maxs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``pmfs`` from ``probs``, the ``log_space_pmfs`` rows of
        ``self.law`` at k = 0..k_maxs.max(), which it completes in place."""
        if ns.min() < 1:
            raise ModelError("n must be >= 1")
        for wgt, single in self.singles:
            probs += wgt * _table_sum_pmfs(single, ns, probs.shape[1])
        if ns.size > 1:  # one row is exactly as wide as its window
            probs[np.arange(probs.shape[1]) > k_maxs[:, None]] = 0.0
        # an accumulation adds in sequence, so padding leaves a row's tail as is
        tails = self.mass - np.add.accumulate(probs, axis=1)[:, -1]
        return probs, np.maximum(tails, 0.0)


#: The step signs of ``log_space_pmfs``: 1 for the negative binomial laws,
#: -1 for the binomial ones, shaped to broadcast over (state, k).
_SIGNS = np.array([1.0, -1.0]).reshape(2, 1, 1)


@dataclass(frozen=True)
class LogAtoms:
    """Sets of weighted NB(n, 1 - y) (sign 1) or Binomial(n, y) (sign -1)
    laws, with the per-atom terms of ``log_space_pmfs`` taken once.  Per
    set: its sign, its weight of binomial atoms at y = 1 and where its atoms
    end.  Per other atom: log weight, log(1 - y) and the log odds of a step,
    log y or log(y / (1 - y))."""

    signs: tuple[int, ...]
    points: tuple[float, ...]
    ends: tuple[int, ...]
    log_w: np.ndarray
    log1m: np.ndarray
    odds: np.ndarray


def log_atoms(sign: int, ys: np.ndarray, wgts: np.ndarray) -> LogAtoms:
    """The one-set ``LogAtoms`` of the atoms ``ys`` with weights ``wgts``."""
    point = 0.0
    if sign < 0 and (ys == 1.0).any():  # Bin(n, 1) is the point mass at n
        point = float(wgts[ys == 1.0].sum())
        ys, wgts = ys[ys < 1.0], wgts[ys < 1.0]
    with np.errstate(divide="ignore", invalid="ignore"):
        return LogAtoms((sign,), (point,), (ys.size,), np.log(wgts),
                        np.log1p(-ys),
                        np.log(ys / (1.0 - ys) if sign < 0 else ys))


def joined(first: LogAtoms, second: LogAtoms) -> LogAtoms:
    """The sets of ``first`` and then those of ``second``, as one
    ``LogAtoms``, for one ``log_space_pmfs`` pass over both."""
    cat = np.concatenate
    return LogAtoms(first.signs + second.signs, first.points + second.points,
                    first.ends + tuple(first.odds.size + end
                                       for end in second.ends),
                    cat((first.log_w, second.log_w)),
                    cat((first.log1m, second.log1m)),
                    cat((first.odds, second.odds)))


def log_space_pmfs(atoms: LogAtoms, ns: np.ndarray,
                   widths) -> list[np.ndarray]:
    """For each set of ``atoms``, sum_a wgts[a] p_a(k) on the (state, k)
    grid with k < its entry of ``widths``, p_a the law of its atom a.

    log p(0) = n log1p(-y); log p(k+1) - log p(k) = log((n + sign k)/(k + 1))
    plus the log odds.  The steps of both signs come from one array, and
    each set takes one cumulative sum along k over its atoms, in (atom,
    state, k) chunks of at most ``ENTRY_CAP`` entries, and sums them in
    order.
    """
    ks = np.arange(max(widths) + 0.0)
    probs = []
    with np.errstate(divide="ignore", invalid="ignore"):
        # n + k >= 1 for the negative binomial; the binomial stops at k = n
        steps = ns[:, None] + _SIGNS * ks[:-1]
        np.maximum(steps, 0, out=steps)
        np.log(np.divide(steps, ks[1:], out=steps), out=steps)
        start = atoms.log_w[:, None] + atoms.log1m[:, None] * ns
        for sign, point, first, end, width in zip(
                atoms.signs, atoms.points, (0,) + atoms.ends, atoms.ends,
                widths):
            # 0.0 + p is p for the nonnegative p here, so a sum starts from
            # its first term instead of from zeros
            total = point * (ks[:width] == ns[:, None]) if point else None
            step = max(1, ENTRY_CAP // (ns.size * width))
            for lo in range(first, end, step):
                hi = min(lo + step, end)
                logp = np.concatenate((start[lo:hi, :, None],
                                       steps[int(sign < 0), :, :width - 1]
                                       + atoms.odds[lo:hi, None, None]),
                                      axis=2)
                np.add.accumulate(logp, axis=2, out=logp)
                for p in np.exp(logp, out=logp):
                    if total is None:
                        total = p
                    else:
                        total += p
            probs.append(np.zeros((ns.size, width)) if total is None
                         else total)
    return probs


def _table_single(kernel: SelectionKernel, y: float) -> np.ndarray:
    """pmf of one table-kernel draw's finite excess over 0..K_top-1 at y."""
    single = np.zeros(max(kernel.table_values, default=1))
    single[0] = 1.0 - y
    for k, p in zip(kernel.table_values, kernel.table_probs):
        single[k - 1] += y * p
    return single


def _table_sum_pmfs(single: np.ndarray, ns: np.ndarray,
                    width: int) -> np.ndarray:
    # one chain of n-fold convolutions of ``single`` up to the largest n,
    # truncated to the window; entry k of a convolution only reads entries <= k
    out, acc, drawn = np.zeros((ns.size, width)), np.ones(1), 0
    for i in np.argsort(ns, kind="stable").tolist():
        for _ in range(drawn, int(ns[i])):
            acc = np.convolve(acc, single)[:width]
        drawn = int(ns[i])
        out[i, :acc.size] = acc
    return out


# ---------------------------------------------------------------------------
# Finite measures on [0,1]
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteMeasure:
    """Finite measure: positive weights at locations in [0,1].

    A density is discretised once, by ``from_density``, into the nodes of a
    composite midpoint rule; the node weights are rescaled so their sum
    equals the requested total mass exactly.
    """

    locations: np.ndarray
    weights: np.ndarray
    _allow_negative: bool = field(default=False, repr=False)

    def __post_init__(self):
        locs = np.asarray(self.locations, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "locations", locs)
        object.__setattr__(self, "weights", w)
        lo = -1.0 if self._allow_negative else 0.0
        if locs.size != w.size:
            raise ModelError("locations and weights must have equal length")
        if locs.size and (locs.min() < lo or locs.max() > 1.0):
            raise ModelError("measure locations must lie in [0,1]")
        if (w <= 0).any():
            raise ModelError("measure weights must be strictly positive")

    @staticmethod
    def atomic(atoms) -> "FiniteMeasure":
        """Build from an iterable of (location, weight) pairs."""
        atoms = list(atoms)
        return FiniteMeasure(
            np.array([a[0] for a in atoms]), np.array([a[1] for a in atoms])
        )

    @staticmethod
    def point_mass(y: float, mass: float = 1.0) -> "FiniteMeasure":
        return FiniteMeasure.atomic([(y, mass)])

    @staticmethod
    def from_density(fn, mass: float, nodes: int = 256) -> "FiniteMeasure":
        """Composite midpoint discretisation of ``fn`` on [0,1].

        ``fn`` is a shape function; weights are rescaled so that the total
        mass equals ``mass`` exactly.
        """
        if nodes < 1:
            raise ModelError("node count must be >= 1")
        h = 1.0 / nodes
        locs = (np.arange(nodes) + 0.5) * h
        raw = np.array([float(fn(t)) for t in locs]) * h
        if not np.all(np.isfinite(raw)) or (raw < 0).any():
            raise ModelError("density must be finite and nonnegative on nodes")
        total = raw.sum()
        if total <= 0:
            raise ModelError("density has zero mass")
        return FiniteMeasure(locs, raw * (mass / total))

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    def has_atom_at(self, y: float) -> bool:
        """Whether a location equals y; a midpoint node is never 0 or 1."""
        return bool(np.any(self.locations == y))

    def normalized(self) -> "FiniteMeasure":
        return FiniteMeasure(self.locations, self.weights / self.total_mass,
                             _allow_negative=self._allow_negative)

    @cached_property
    def _cdf(self) -> np.ndarray:  # normalised cumulative weights, once
        cum = np.cumsum(self.weights)
        return cum / cum[-1]

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw locations from the normalised measure."""
        return self.locations[np.searchsorted(self._cdf, rng.random(size))]


def integrate(measure: FiniteMeasure, f) -> float:
    """Integral of ``f`` against the measure (exact sum for atomic measures,
    the fixed quadrature rule for density measures)."""
    vals = np.array([float(f(y)) for y in measure.locations])
    if not np.all(np.isfinite(vals)):
        raise NonFiniteIntegrand("integrand is not finite on the measure support")
    return float(np.dot(vals, measure.weights))


def derive_env_measure(kernel: SelectionKernel, lambda_s: FiniteMeasure) -> FiniteMeasure:
    """Selection-event environment measure: density 1/m(y) w.r.t. Lambda_s.

    One pass over the atoms of Lambda_s, which also checks that the pair
    (kernel, Lambda_s) is admissible: Lambda_s must not charge 0 and m must
    be positive on its support, else ``DegenerateKernelAtAtom``.  Atoms
    where m is infinite carry zero weight and are dropped, so the integral
    of m against the result is the mass of Lambda_s where m is finite.
    """
    if lambda_s.has_atom_at(0.0):
        raise DegenerateKernelAtAtom("selection measure must not charge 0")
    ys = lambda_s.locations
    m = np.array([mean_excess(kernel, y) for y in ys.tolist()])
    if (m == 0.0).any():
        raise DegenerateKernelAtAtom(
            f"kernel is degenerate (mean excess 0) at y={ys[m == 0.0][0]}")
    keep = m < math.inf
    with np.errstate(over="ignore"):
        weights = lambda_s.weights[keep] / m[keep]
    if not np.isfinite(weights).all():
        raise InfiniteJumpIntensity("selection jump rate is infinite")
    return FiniteMeasure(ys[keep], weights)
