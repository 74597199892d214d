"""Preconfigured model chains used by the experiments and the CLI.

Four families, all with analytic derivatives and calibrated supports:

* ``identity``: p = id, alpha = 0.  The chain norm must stay pinned near 1,
  which separates genuine contraction effects from quadrature drift.
* ``isotropic_contraction`` (d=1): p(xi) = exp(-lam*tau) xi with a quadratic
  phase alpha = c xi^2 / 2.  The chain determinant decays like
  exp(-n*lam*tau), so the measured norm holds near 1 for about
  |log(2 pi hbar)| / (lam*tau) steps and then decays at half that rate.
* ``surface_model`` (d=2): momentum (X, eps) with p = (exp(-tau*sqrt(2 eps)) X,
  eps).  The contraction rate depends on the conserved coordinate eps, the
  leaf map is the identity, and the block split (r = 1) feeds the refined
  bound and the cell decomposition.
* ``block_root_model``: diagonal p_i = exp(-tau * rate_i) xi_i with the
  contracted axes leading and the leaf axes trailing; leaf rates may be
  nonzero, which exercises the leaf-determinant denominator of the refined
  bound.  It shares one diagonal step p(xi) = D xi, alpha = 0, with
  ``identity`` (D = I, r = 0).

Supports are fixed fractions of the box so the validation invariants (strict
nesting, orbit containment, window clearance) hold for every hbar the
experiments use; the builders re-check them numerically and refuse silently
aliasing configurations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import _is_a
from .grid import GridSpec
from .dynamics import BlockSplit, ChainSpec, MomentumMap, evolve_momentum, jacobian_chain
from .symbols import PLATEAU_FRACTION, Box, SymbolSpec
from .fio import FioOperator

__all__ = ["ScenarioSpec", "build_scenario", "make_operators", "validate_scenario", "SCENARIOS"]

# fraction of the box half-width allotted to the position supports
_POSITION_SUPPORT_FRACTION = 0.8


@dataclass
class ScenarioSpec:
    """Everything needed to instantiate a chain of a given length.

    The symbol and the theta box are stored once, in ``symbol_first``;
    ``omega2`` is derived from it.
    """

    name: str
    grid: GridSpec
    step_map: MomentumMap
    symbol_first: SymbolSpec
    omega2_tilde: Box
    xi0: np.ndarray
    n_max: int
    params: dict
    _first_op: FioOperator | None = field(default=None, repr=False)

    @property
    def omega2(self) -> Box:
        return self.symbol_first.omega2

    def chain(self, n: int) -> ChainSpec:
        return ChainSpec.repeated(self.step_map, n)

    @property
    def has_block(self) -> bool:
        return self.step_map.block is not None


def make_operators(spec: ScenarioSpec, n: int) -> list[FioOperator]:
    """Instantiate the n-step chain; step instances are shared and cached.

    Only the first step carries the incoming x-cutoff; later steps are
    x-independent, so one operator instance (and its cached matrices and
    measured norm) serves steps 2..n: the first step's `phase_step`, which
    holds the phase side (P, its Gram matrix, links) of both.
    """
    if n < 1:
        raise ValueError("chain length must be >= 1")
    if n > spec.n_max:
        raise ValueError(
            f"chain length {n} exceeds n_max={spec.n_max}; orbit containment "
            "was only validated up to n_max"
        )
    if spec._first_op is None:
        spec._first_op = FioOperator(spec.step_map, spec.symbol_first, spec.grid)
    first = spec._first_op
    return [first] + [first.phase_step] * (n - 1)


def validate_scenario(spec: ScenarioSpec) -> None:
    """Numeric checks of the invariants every experiment relies on.

    Raises ValueError naming the violated precondition.  Checks: support
    nesting, momentum-window clearance (`FioOperator` refuses position supports
    that reach the box edge), containment of the n_max-step orbit of the theta
    support in the enlarged window, positivity of the step determinant there,
    and that xi0 sits on the theta plateau.
    """
    g = spec.grid
    if spec.n_max < 1:
        raise ValueError("n_max must be >= 1")
    if not spec.omega2.strictly_inside(spec.omega2_tilde):
        raise ValueError("omega2 must sit strictly inside omega2_tilde")
    half = g.momentum_half_width
    window = Box(tuple(-half), tuple(half))
    if not spec.omega2_tilde.strictly_inside(window):
        raise ValueError(
            f"omega2_tilde {spec.omega2_tilde} is not strictly inside the momentum "
            f"window {window}; increase n_points or decrease half_width"
        )
    samples = np.vstack([spec.omega2.sample_lattice(5), spec.omega2.center()])
    orbits = evolve_momentum(spec.chain(spec.n_max), samples)
    escaped = ~np.all(spec.omega2_tilde.contains(orbits), axis=0)
    if np.any(escaped):
        raise ValueError(
            f"the {spec.n_max}-step orbit of omega2 leaves omega2_tilde "
            f"(started at {samples[escaped][0]}); shrink n_max or enlarge the window"
        )
    lattice = spec.omega2_tilde.sample_lattice(5)
    _, det = jacobian_chain(spec.chain(1), lattice)
    images = evolve_momentum(spec.chain(1), lattice)[1]
    bad = np.flatnonzero((det <= 0.0) | ~np.all(np.abs(images) < g.momentum_half_width, axis=-1))
    if bad.size:
        xi = lattice[bad[0]]
        if det[bad[0]] <= 0.0:
            raise ValueError(f"step determinant must be positive on omega2_tilde, fails at {xi}")
        raise ValueError(f"p maps {xi} outside the momentum window; output would alias")
    if spec.symbol_first.psi(spec.xi0) < 0.9:
        raise ValueError(
            f"xi0={spec.xi0} is not on the theta plateau; the plane-wave image would "
            "be dominated by cutoff effects"
        )


_COMMON_KEYS = {"hbar", "n_points", "half_width", "n_max", "xi0", "plateau_fraction"}
# every other parameter is a number or a list of numbers
_INTEGER_KEYS = {"n_points", "n_max", "dimension"}


def _check_types(params: dict) -> None:
    """Refuse bools, strings, NaN and non-integers, which int() and float() would coerce."""
    for key, value in params.items():
        integer = key in _INTEGER_KEYS
        kind = (int, np.integer) if integer else (int, float, np.integer, np.floating)
        listed = not integer and isinstance(value, (list, tuple, np.ndarray))
        if any(not _is_a(v, kind) or not math.isfinite(v) for v in (value if listed else [value])):
            what = "an integer" if integer else "a finite number"
            raise ValueError(f"{key} must be {what}, got {value!r}")


def _resolve(params: dict, specific_defaults: dict, name: str) -> dict:
    unknown = set(params) - set(specific_defaults) - _COMMON_KEYS
    if unknown:
        raise ValueError(f"unknown parameters for scenario {name!r}: {sorted(unknown)}")
    if "hbar" not in params:
        raise ValueError("params must include 'hbar'")
    _check_types(params)
    return {**specific_defaults, **params}


def _scenario(
    name: str, p: dict, step: MomentumMap, omega2: Box, omega2_tilde: Box, *,
    n_points: int, half_width: float, xi0: tuple, n_max: int,
) -> ScenarioSpec:
    """Grid, symbols and defaults shared by every scenario, then validation.

    The keyword arguments are the scenario's defaults; the common keys of
    ``p`` override them.
    """
    n_points = int(p.get("n_points", n_points))
    grid = GridSpec(step.dimension, p.get("half_width", half_width), n_points, float(p["hbar"]))
    pf = float(p.get("plateau_fraction", PLATEAU_FRACTION))
    sup = _POSITION_SUPPORT_FRACTION * np.array(grid.half_width)
    pos_sup = Box(tuple(-sup), tuple(sup))
    spec = ScenarioSpec(
        name=name,
        grid=grid,
        step_map=step,
        symbol_first=SymbolSpec(pos_sup, omega2, omega=pos_sup, plateau_fraction=pf),
        omega2_tilde=omega2_tilde,
        xi0=np.asarray(p.get("xi0", xi0), dtype=float),
        n_max=int(p.get("n_max", n_max)),
        params=p,
    )
    validate_scenario(spec)
    return spec


def _diagonal_step(diag: np.ndarray, r: int) -> MomentumMap:
    """p(xi) = diag * xi with alpha = 0, split after its first r (contracted) axes."""
    jac, leaf, leaf_jac = np.diag(diag), diag[r:], np.diag(diag[r:])
    block = BlockSplit(
        r=r,
        tilde_p=lambda xt: leaf * xt,
        grad_tilde_p=lambda xt: leaf_jac * np.ones(xt.shape[:-1] + (1, 1)),
    )
    return MomentumMap(
        dimension=len(diag),
        p=lambda xi: diag * xi,
        grad_p=lambda xi: jac * np.ones(xi.shape[:-1] + (1, 1)),
        alpha=lambda xi: np.zeros(xi.shape[:-1]),
        grad_alpha=np.zeros_like,
        block=block,
    )


def _build_identity(params: dict) -> ScenarioSpec:
    p = _resolve(params, {"dimension": 1}, "identity")
    d = int(p["dimension"])
    step = _diagonal_step(np.ones(d), r=0)
    omega2 = Box((-0.72,) * d, (0.72,) * d)
    omega2_tilde = Box((-0.9,) * d, (0.9,) * d)
    return _scenario(
        "identity", p, step, omega2, omega2_tilde,
        n_points=128 if d == 1 else 32, half_width=1.0 if d == 1 else 0.5,
        xi0=(0.35,) * d, n_max=12,
    )


def _build_isotropic_contraction(params: dict) -> ScenarioSpec:
    p = _resolve(params, {"lam": 1.0, "tau": 0.35, "alpha_coeff": 0.4}, "isotropic_contraction")
    lam, tau, c = float(p["lam"]), float(p["tau"]), float(p["alpha_coeff"])
    factor = math.exp(-lam * tau)
    step = MomentumMap(
        dimension=1,
        p=lambda xi: factor * xi,
        grad_p=lambda xi: np.full(xi.shape + (1,), factor),
        alpha=lambda xi: 0.5 * c * xi[..., 0] ** 2,
        grad_alpha=lambda xi: c * xi,
    )
    omega2 = Box((-0.4,), (1.4,))
    omega2_tilde = Box((-0.55,), (1.55,))
    return _scenario(
        "isotropic_contraction", p, step, omega2, omega2_tilde,
        n_points=512, half_width=1.0, xi0=(1.0,), n_max=30,
    )


def _build_surface_model(params: dict) -> ScenarioSpec:
    p = _resolve(params, {"tau": 0.7, "eta": 0.4}, "surface_model")
    tau, eta = float(p["tau"]), float(p["eta"])
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must lie in (0, 1) so the energy window stays positive")

    def pmap(xi):
        X, eps = xi[..., 0], xi[..., 1]
        return np.stack([np.exp(-tau * np.sqrt(2.0 * eps)) * X, eps], axis=-1)

    def grad(xi):
        X, eps = xi[..., 0], xi[..., 1]
        a = np.sqrt(2.0 * eps)
        e = np.exp(-tau * a)
        J = np.zeros(xi.shape + (2,))
        J[..., 0, 0], J[..., 0, 1], J[..., 1, 1] = e, -tau * X * e / a, 1.0
        return J

    block = BlockSplit(
        r=1,
        tilde_p=lambda xt: xt,
        grad_tilde_p=lambda xt: np.ones(xt.shape + (1,)),
    )
    step = MomentumMap(
        dimension=2,
        p=pmap,
        grad_p=grad,
        alpha=lambda xi: np.zeros(xi.shape[:-1]),
        grad_alpha=np.zeros_like,
        block=block,
    )
    eps_lo = 0.5 * (1.0 - eta) ** 2
    eps_hi = 0.5 * (1.0 + eta) ** 2
    omega2 = Box((-0.4, eps_lo), (0.4, eps_hi))
    omega2_tilde = omega2.pad((0.1, 0.04))
    if omega2_tilde.lo[1] <= 0.0:
        raise ValueError("the enlarged energy window must stay positive")
    return _scenario(
        "surface_model", p, step, omega2, omega2_tilde,
        n_points=48, half_width=0.3, xi0=(0.15, 0.5), n_max=8,
    )


def _build_block_root_model(params: dict) -> ScenarioSpec:
    p = _resolve(
        params,
        {"contracted_rates": (1.0,), "leaf_rates": (0.0,), "tau": 0.7},
        "block_root_model",
    )
    tau = float(p["tau"])
    if not all(isinstance(p[k], (list, tuple)) for k in ("contracted_rates", "leaf_rates")):
        raise ValueError("contracted_rates and leaf_rates must be lists of numbers")
    contracted = tuple(float(v) for v in p["contracted_rates"])
    leaf = tuple(float(v) for v in p["leaf_rates"])
    r, dt = len(contracted), len(leaf)
    d = r + dt
    if d < 1 or d > 3:
        raise ValueError("total dimension must be 1..3")
    step = _diagonal_step(np.exp(-tau * np.array(contracted + leaf)), r)
    lo = (-0.4,) * r + (0.2,) * dt
    hi = (0.4,) * r + (1.0,) * dt
    omega2 = Box(lo, hi)
    omega2_tilde = omega2.pad((0.08,) * r + (0.2,) * dt)
    return _scenario(
        "block_root_model", p, step, omega2, omega2_tilde,
        n_points=32 if d <= 2 else 24, half_width=0.3,
        xi0=(0.0,) * r + (0.6,) * dt, n_max=6,
    )


SCENARIOS = {
    "identity": _build_identity,
    "isotropic_contraction": _build_isotropic_contraction,
    "surface_model": _build_surface_model,
    "block_root_model": _build_block_root_model,
}


def build_scenario(name: str, params: dict) -> ScenarioSpec:
    """Build and validate a named scenario; params must include 'hbar'."""
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; available: {sorted(SCENARIOS)}")
    return SCENARIOS[name](dict(params))
