"""Compactly supported principal symbols with smooth cutoffs.

Cutoffs are built from the standard C-infinity generator g(t) = exp(-1/t):
the smoothstep s(t) = g(t) / (g(t) + g(1-t)) rises from 0 at t <= 0 to 1 at
t >= 1 and s(t) + s(1-t) = 1 to one rounding (it misses 1 by up to 2^-52 at
about a fifth of uniform t).  A box bump is the product over axes of a 1-d
profile (rise on [support_lo, plateau_lo], 1 on the plateau, fall on
[plateau_hi, support_hi]); it is 1 on the plateau box, 0 outside the support
box, and takes values in [0, 1] everywhere.

A symbol is a product of three box bumps, a0(x, x', theta) = u(x) chi(x')
psi(theta), all built from the symbol's boxes and one plateau fraction.  The
x cutoff u is only present on the first operator of a chain (it truncates
the incoming function and makes the box quadrature exact); all later operators
are x-independent.  chi and psi are the mandatory x'- and theta-cutoffs, so the
operator's momentum sum can be restricted to the theta support by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import ChainSpec, _evaluate, evolve_momentum

__all__ = [
    "smoothstep",
    "Box",
    "CutoffBump",
    "SymbolSpec",
    "leading_symbol_product",
    "PLATEAU_FRACTION",
]

# Fraction of each support half-width occupied by the plateau.  Fixed as a
# shared default so that acceptance numbers are reproducible.
PLATEAU_FRACTION = 0.7


def smoothstep(t):
    """C-infinity step: 0 for t <= 0, 1 for t >= 1, g(t)/(g(t)+g(1-t)) between."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    out[t >= 1.0] = 1.0
    mid = (t > 0.0) & (t < 1.0)
    if np.any(mid):
        tm = t[mid]
        # 1/tm overflows to inf for denormal tm; exp(-inf) = 0 is the right limit
        with np.errstate(over="ignore"):
            g = np.exp(-1.0 / tm)
            g1 = np.exp(-1.0 / (1.0 - tm))
        out[mid] = g / (g + g1)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class Box:
    """Axis-aligned box prod_a [lo_a, hi_a]."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        lo = tuple(float(v) for v in np.atleast_1d(self.lo))
        hi = tuple(float(v) for v in np.atleast_1d(self.hi))
        if len(lo) != len(hi):
            raise ValueError("lo and hi must have equal length")
        if any(l >= h for l, h in zip(lo, hi)):
            raise ValueError(f"degenerate box: lo={lo} hi={hi}")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dimension(self) -> int:
        return len(self.lo)

    @property
    def volume(self) -> float:
        return float(np.prod(np.array(self.hi) - np.array(self.lo)))

    def center(self) -> np.ndarray:
        return (np.array(self.lo) + np.array(self.hi)) / 2.0

    def contains(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        lo = np.array(self.lo)
        hi = np.array(self.hi)
        return np.all((pts >= lo) & (pts <= hi), axis=-1)

    def strictly_inside(self, other: "Box") -> bool:
        """True if this box sits strictly inside ``other`` on every axis."""
        return all(
            sl > ol and sh < oh for sl, sh, ol, oh in zip(self.lo, self.hi, other.lo, other.hi)
        )

    def shrink(self, fraction: float) -> "Box":
        """Concentric box whose half-widths are scaled by ``fraction``."""
        if not 0.0 < fraction < 1.0:
            raise ValueError("fraction must be in (0, 1)")
        c = self.center()
        h = (np.array(self.hi) - np.array(self.lo)) / 2.0 * fraction
        return Box(tuple(c - h), tuple(c + h))

    def pad(self, amount) -> "Box":
        """Concentric box grown by ``amount`` per side (scalar or per-axis)."""
        a = np.broadcast_to(np.asarray(amount, dtype=float), (self.dimension,))
        return Box(
            tuple(np.array(self.lo) - a),
            tuple(np.array(self.hi) + a),
        )

    def sample_lattice(self, per_axis: int) -> np.ndarray:
        """Deterministic inclusive sampling lattice, shape (per_axis^d, d)."""
        if per_axis < 2:
            raise ValueError("need at least 2 samples per axis")
        axes = [np.linspace(l, h, per_axis) for l, h in zip(self.lo, self.hi)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1).reshape(-1, self.dimension)


@dataclass(frozen=True)
class CutoffBump:
    """Smooth box bump: 1 on the plateau box, 0 outside the support box."""

    support: Box
    plateau: Box

    def __post_init__(self):
        if self.support.dimension != self.plateau.dimension:
            raise ValueError("support and plateau dimensions differ")
        if not self.plateau.strictly_inside(self.support):
            raise ValueError("plateau must lie strictly inside support")

    def __call__(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        scalar_input = pts.ndim == 1
        pts = np.atleast_2d(pts)
        out = self.product([pts[..., a] for a in range(self.support.dimension)])
        return float(out[0]) if scalar_input else out

    def product(self, coords) -> np.ndarray:
        """The bump at one broadcastable coordinate array per axis: its profiles' product."""
        out = self.profile(0, coords[0])
        for a in range(1, self.support.dimension):
            out = out * self.profile(a, coords[a])
        return out

    def profile(self, axis: int, t) -> np.ndarray:
        """The 1-d factor along `axis` at coordinates t; the bump is the product of its factors.

        On the plateau pl <= t <= ph both ratios below round to >= 1, so the
        value there is exactly 1.0 and the formula runs only off the plateau.
        """
        sl, sh = self.support.lo[axis], self.support.hi[axis]
        pl, ph = self.plateau.lo[axis], self.plateau.hi[axis]
        t = np.asarray(t, dtype=float)
        out = np.ones(t.shape)
        edge = ~((t >= pl) & (t <= ph))
        te = t[edge]
        # smoothstep is monotone, so the min of rise and fall is one smoothstep
        out[edge] = smoothstep(np.minimum((te - sl) / (pl - sl), (sh - te) / (sh - ph)))
        return out


@dataclass(frozen=True)
class SymbolSpec:
    """Principal symbol a0(x, x', theta) = u(x) * chi(x') * psi(theta) of box bumps.

    chi is the bump on omega1 (x'), psi the bump on omega2 (theta) and u the
    bump on omega (x), or None for x-independent symbols (u == 1); each has
    its plateau at ``plateau_fraction`` of its box.  So |a0| <= 1 holds by
    construction and a0 vanishes outside omega1 x omega2.
    """

    omega1: Box
    omega2: Box
    omega: Box | None = None
    plateau_fraction: float = PLATEAU_FRACTION
    chi: CutoffBump = field(init=False, repr=False)
    psi: CutoffBump = field(init=False, repr=False)
    u: CutoffBump | None = field(init=False, repr=False)

    def __post_init__(self):
        if not 0.0 < self.plateau_fraction < 1.0:
            raise ValueError(f"plateau_fraction must lie in (0, 1), got {self.plateau_fraction!r}")
        for name, box in (("chi", self.omega1), ("psi", self.omega2), ("u", self.omega)):
            bump = None if box is None else CutoffBump(box, box.shrink(self.plateau_fraction))
            object.__setattr__(self, name, bump)

    @property
    def x_independent(self) -> bool:
        return self.u is None

    def a0(self, x, xp, theta) -> np.ndarray:
        """Evaluate a0 on broadcastable batches of (x, x', theta), each of shape (..., d)."""
        def axes(p):
            return None if p is None else np.moveaxis(np.asarray(p, dtype=float), -1, 0)

        return self.a0_axes(axes(x), axes(xp), axes(theta))

    def a0_axes(self, x, xp, theta) -> np.ndarray:
        """a0 at one coordinate array per axis for each of x, x' and theta; x may be None without u."""
        v = np.asarray(self.chi.product(xp) * self.psi.product(theta))
        return v if self.u is None else np.asarray(self.u.product(x)) * v


def leading_symbol_product(
    chain: ChainSpec,
    symbols: list[SymbolSpec],
    x_n,
    xi0,
    n: int | list[int] | None = None,
    *,
    orbit: np.ndarray | None = None,
) -> np.ndarray:
    """Leading-order symbol product b0 along the backward-reconstructed orbit.

    Given the endpoint position(s) x_n and the initial momentum xi0, positions
    are reconstructed backwards through x_{j-1} = grad_p_j(xi_{j-1})^T x_j +
    grad_alpha_j(xi_{j-1}) (no matrix inversion needed), and the product

        b0 = prod_{j=1..n} a0_j(x_{j-1}, x_j, xi_{j-1})

    is accumulated.  x_n may be a single point (d,) or a batch (..., d); the
    result matches the batch shape.  xi0 may be a single momentum (d,) or a
    batch (K, d), which appends an axis of length K to the result.  x_0 is
    only formed when the first symbol has an x cutoff, the one factor that
    reads it.  Trajectories leaving the supports give 0 automatically through
    the cutoffs.  Positions are carried as d per-axis arrays and every cutoff
    is the product of its per-axis profiles.  A caller that already holds
    ``evolve_momentum(chain, xi0, max(n))`` passes it as ``orbit`` and the
    orbit is not evolved again.

    A sequence of prefix lengths n prepends an axis over them, in their order,
    all ending at x_n: one backward pass from the longest evaluates step j
    once for every prefix that has joined (at j = its length), in each
    prefix's own order of factors, so each is its one-n call bit for bit.
    """
    ns = list(n) if np.ndim(n) else [len(chain) if n is None else n]
    top = max(ns)
    if len(symbols) < top:
        raise ValueError(f"need {top} symbols, got {len(symbols)}")
    x_end = np.asarray(x_n, dtype=float)
    scalar_input = x_end.ndim == 1
    x_end = np.atleast_2d(x_end)
    d = chain.dimension
    if orbit is None:
        orbit = evolve_momentum(chain, xi0, top)
    if orbit.ndim > 3:
        raise ValueError(f"xi0 must be one momentum ({d},) or a batch (K, {d})")
    if orbit.ndim == 3:
        x_end = x_end[..., None, :]
    shape = np.broadcast_shapes(x_end.shape[:-1], orbit.shape[1:-1])
    ends = [x_end[..., a] for a in range(d)]
    # the joined prefixes, stacked on axis 0 of each position axis and of the
    # result in joining order
    joined, x, result = [], [np.empty((0,) + e.shape) for e in ends], np.empty((0,) + shape)
    for j in range(top, 0, -1):
        new = [i for i, k in enumerate(ns) if k == j]
        if new:
            joined += new
            x = [np.concatenate([xa, np.broadcast_to(e, (len(new),) + xa.shape[1:])])
                 for xa, e in zip(x, ends)]
            result = np.concatenate([result, np.ones((len(new),) + shape)])
        m, sym, xi = chain.maps[j - 1], symbols[j - 1], orbit[j - 1]
        x_prev = None
        if j > 1 or not sym.x_independent:
            grad = _evaluate(m.grad_p, xi, (d, d))
            shift = _evaluate(m.grad_alpha, xi, (d,))
            # x_prev[a] = sum_i x[i] grad[..., i, a] + grad_alpha[..., a], summed
            # in this order so a batch of momenta rounds like one momentum at a time
            x_prev = [x[0] * grad[..., 0, a] for a in range(d)]
            for a, xa in enumerate(x_prev):
                for i in range(1, d):
                    xa += x[i] * grad[..., i, a]
                xa += shift[..., a]
        result *= sym.a0_axes(x_prev, x, np.moveaxis(xi, -1, 0))
        x = x_prev
    out = result if joined == sorted(joined) else result[np.argsort(joined)]
    out = out[:, 0] if scalar_input else out
    return out if np.ndim(n) else out[0]
