"""Discretized wavefunctions on a periodic box and the hbar-scaled Fourier transform.

Conventions
-----------
Functions live on the box ``[-L, L)^d`` sampled on ``N`` points per axis:

    x_j = -L + j * dx,          dx  = 2L / N,
    xi_k = (k - N/2) * dxi,     dxi = pi * hbar / L,

so the momentum window is ``[-pi*hbar*N/(2L), pi*hbar*N/(2L))``, ``xi = 0`` is a
lattice point, and ``dx * dxi = 2*pi*hbar / N`` exactly.  With these conventions
the discrete realization of

    (F_hbar f)(xi) = (2*pi*hbar)^(-d/2) * sum_x f(x) exp(-i<xi,x>/hbar) dx^d

is unitary for the quadrature-weighted inner products: discrete Plancherel holds
to rounding error, not merely asymptotically.  ``half_width`` may differ per
axis; ``N`` is shared by all axes and must be even so the momentum lattice is
centered (powers of two are fastest but any even N is accepted).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "GridSpec",
    "Wavefunction",
    "plane_wave",
    "hbar_fourier",
    "hbar_fft",
    "hbar_inverse_fourier",
    "l2_norm",
]

POSITION = "position"
MOMENTUM = "momentum"


@dataclass(frozen=True)
class GridSpec:
    """Discretization of the box [-L, L)^d tied to a value of hbar.

    Parameters
    ----------
    dimension : int
        Spatial dimension d, between 1 and 3.
    half_width : float or tuple of float
        Box half width L per axis (a scalar is broadcast to every axis).
    n_points : int
        Lattice points per axis.  Must be even; powers of two are preferred
        for transform speed but are not required.
    hbar : float
        The semiclassical parameter, positive.
    """

    dimension: int
    half_width: tuple[float, ...]
    n_points: int
    hbar: float

    def __post_init__(self):
        if not 1 <= self.dimension <= 3:
            raise ValueError(f"dimension must be 1..3, got {self.dimension}")
        hw = self.half_width
        if np.isscalar(hw):
            hw = (float(hw),) * self.dimension
        else:
            hw = tuple(float(v) for v in hw)
        if len(hw) != self.dimension:
            raise ValueError("half_width length does not match dimension")
        if any(v <= 0 for v in hw):
            raise ValueError("half_width entries must be positive")
        object.__setattr__(self, "half_width", hw)
        if self.n_points <= 0 or self.n_points % 2 != 0:
            raise ValueError(f"n_points must be a positive even integer, got {self.n_points}")
        if self.hbar <= 0:
            raise ValueError("hbar must be positive")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n_points,) * self.dimension

    @property
    def size(self) -> int:
        return self.n_points**self.dimension

    @property
    def dx(self) -> np.ndarray:
        return np.array([2.0 * L / self.n_points for L in self.half_width])

    @property
    def dxi(self) -> np.ndarray:
        return np.array([np.pi * self.hbar / L for L in self.half_width])

    @property
    def momentum_half_width(self) -> np.ndarray:
        """Half width of the momentum window per axis, N*dxi/2."""
        return self.n_points * self.dxi / 2.0

    def position_weight(self) -> float:
        return float(np.prod(self.dx))

    def momentum_weight(self) -> float:
        return float(np.prod(self.dxi))

    def axis_positions(self, axis: int) -> np.ndarray:
        L = self.half_width[axis]
        return -L + np.arange(self.n_points) * self.dx[axis]

    def axis_momenta(self, axis: int) -> np.ndarray:
        return (np.arange(self.n_points) - self.n_points // 2) * self.dxi[axis]

    def position_points(self) -> np.ndarray:
        """All lattice positions, shape (N^d, d), C-order compatible with values.ravel()."""
        return _mesh_points(self, POSITION)

    def momentum_points(self) -> np.ndarray:
        """All momentum lattice points, shape (N^d, d), same ordering."""
        return _mesh_points(self, MOMENTUM)

    def momentum_in_window(self, xi) -> bool:
        """True if xi lies strictly inside the momentum window (per axis)."""
        xi = np.atleast_2d(np.asarray(xi, dtype=float))
        return bool(np.all(np.abs(xi) < self.momentum_half_width))


@lru_cache(maxsize=32)
def _mesh_points(grid: GridSpec, representation: str) -> np.ndarray:
    if representation == POSITION:
        axes = [grid.axis_positions(a) for a in range(grid.dimension)]
    else:
        axes = [grid.axis_momenta(a) for a in range(grid.dimension)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack(mesh, axis=-1).reshape(-1, grid.dimension)
    pts.setflags(write=False)
    return pts


@dataclass
class Wavefunction:
    """Complex lattice function together with its grid and representation tag."""

    grid: GridSpec
    values: np.ndarray
    representation: str = POSITION

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid shape {self.grid.shape}"
            )
        if self.representation not in (POSITION, MOMENTUM):
            raise ValueError(f"unknown representation {self.representation!r}")

def plane_wave(grid: GridSpec, xi0) -> Wavefunction:
    """The plane wave exp(i<xi0, x>/hbar) sampled on the position lattice.

    xi0 must lie strictly inside the momentum window; outside it the sampled
    exponential aliases to a lower lattice frequency.
    """
    xi0 = np.atleast_1d(np.asarray(xi0, dtype=float))
    if xi0.shape != (grid.dimension,):
        raise ValueError(f"xi0 must have shape ({grid.dimension},)")
    if not grid.momentum_in_window(xi0):
        raise ValueError(
            f"xi0={xi0} is outside the open momentum window "
            f"(half widths {grid.momentum_half_width}); aliasing would corrupt the sample"
        )
    phase = grid.position_points() @ xi0 / grid.hbar
    values = np.exp(1j * phase).reshape(grid.shape)
    return Wavefunction(grid, values, POSITION)


def hbar_fourier(f: Wavefunction) -> Wavefunction:
    """Forward hbar-scaled Fourier transform, position to momentum representation.

    Computes (2*pi*hbar)^(-d/2) * sum_x f(x) exp(-i<xi,x>/hbar) dx^d on the
    momentum lattice.  Because both lattices are centered and dx*dxi = 2*pi*hbar/N,
    this equals a centered FFT up to an exact scalar factor.
    """
    if f.representation != POSITION:
        raise ValueError("hbar_fourier expects a position-representation input")
    return Wavefunction(f.grid, hbar_fft(f.grid, f.values), MOMENTUM)


def hbar_fft(g: GridSpec, values: np.ndarray) -> np.ndarray:
    """`hbar_fourier` over the last d axes of `values`; leading axes are a batch."""
    axes = tuple(range(-g.dimension, 0))
    scale = g.position_weight() * (2.0 * np.pi * g.hbar) ** (-g.dimension / 2.0)
    return np.fft.fftshift(np.fft.fftn(np.fft.ifftshift(values, axes), axes=axes), axes) * scale


def hbar_inverse_fourier(f: Wavefunction) -> Wavefunction:
    """Inverse transform, momentum to position representation (exact round trip)."""
    if f.representation != MOMENTUM:
        raise ValueError("hbar_inverse_fourier expects a momentum-representation input")
    g = f.grid
    scale = g.size * g.momentum_weight() * (2.0 * np.pi * g.hbar) ** (-g.dimension / 2.0)
    vals = np.fft.fftshift(np.fft.ifftn(np.fft.ifftshift(f.values))) * scale
    return Wavefunction(g, vals, POSITION)


def _weight(f: Wavefunction) -> float:
    return f.grid.position_weight() if f.representation == POSITION else f.grid.momentum_weight()


def l2_norm(f: Wavefunction) -> float:
    """Quadrature-weighted L2 norm."""
    return float(np.sqrt(np.sum(np.abs(f.values) ** 2) * _weight(f)))
