"""Independent reference implementations used to pin the library's outputs.

Everything here is deliberately slow and structurally different from the
library code: direct quadrature sums instead of FFTs, central finite
differences instead of analytic derivatives, explicit scalar loops instead of
vectorized matrix algebra.  Tests compare the fast paths against these.
"""

from __future__ import annotations

import numpy as np

from fiochain.dynamics import ChainSpec
from fiochain.grid import POSITION, Wavefunction


def inner_product(f: Wavefunction, g: Wavefunction) -> complex:
    """Hermitian inner product <f, g>, conjugate-linear in the first argument."""
    if f.grid != g.grid:
        raise ValueError("inner_product requires matching grids")
    if f.representation != g.representation:
        raise ValueError("inner_product requires matching representations")
    weight = f.grid.position_weight() if f.representation == POSITION else f.grid.momentum_weight()
    return complex(np.vdot(f.values, g.values) * weight)


def slow_hbar_dft(values: np.ndarray, grid) -> np.ndarray:
    """Direct O(N^2) evaluation of the hbar-scaled Fourier sum, no FFT."""
    X = grid.position_points()
    Theta = grid.momentum_points()
    kernel = np.exp(-1j * (Theta @ X.T) / grid.hbar)
    out = kernel @ values.ravel() * grid.position_weight()
    out *= (2.0 * np.pi * grid.hbar) ** (-grid.dimension / 2.0)
    return out.reshape(grid.shape)


def slow_hbar_inverse_dft(values: np.ndarray, grid) -> np.ndarray:
    """Direct inverse sum over the momentum lattice."""
    X = grid.position_points()
    Theta = grid.momentum_points()
    kernel = np.exp(1j * (X @ Theta.T) / grid.hbar)
    out = kernel @ values.ravel() * grid.momentum_weight()
    out *= (2.0 * np.pi * grid.hbar) ** (-grid.dimension / 2.0)
    return out.reshape(grid.shape)


def apply_canonical(map_, x, xi) -> tuple[np.ndarray, np.ndarray]:
    """One step of the canonical transformation: (x, xi) -> (x', p(xi)).

    The generating relation x = grad_p(xi)^T x' + grad_alpha(xi) is solved for
    x', so the forward position update inverts the transposed Jacobian.
    """
    x = np.asarray(x, dtype=float).reshape(map_.dimension)
    xi = np.asarray(xi, dtype=float).reshape(map_.dimension)
    J = map_.grad_p(xi)
    x_new = np.linalg.solve(J.T, x - map_.grad_alpha(xi))
    return x_new, map_.p(xi)


def fd_gradient(f, x, h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar or vector function at x."""
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(f(x), dtype=float)
    cols = []
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        cols.append((np.asarray(f(x + e), dtype=float) - np.asarray(f(x - e), dtype=float)) / (2 * h))
    return np.stack(cols, axis=-1)


def fd_jacobian(p, xi, h: float = 1e-6) -> np.ndarray:
    """Finite-difference Jacobian J[i, j] = d p_i / d xi_j."""
    return fd_gradient(p, xi, h)


def symplectic_defect(map_, x, xi, h: float = 1e-6) -> float:
    """Max-abs entry of Dkappa^T J Dkappa - J for the full phase-space step.

    kappa(x, xi) = (x'(x, xi), p(xi)) built from apply_canonical; a canonical
    transformation makes the defect vanish up to differencing error.
    """
    d = map_.dimension
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)

    def kappa(z):
        xn, pn = apply_canonical(map_, z[:d], z[d:])
        return np.concatenate([xn, pn])

    z0 = np.concatenate([x, xi])
    M = fd_gradient(kappa, z0, h)
    J = np.zeros((2 * d, 2 * d))
    J[:d, d:] = np.eye(d)
    J[d:, :d] = -np.eye(d)
    return float(np.max(np.abs(M.T @ J @ M - J)))


def backward_positions(chain, x_n, xi0, n: int) -> list[np.ndarray]:
    """Scalar-loop backward position reconstruction [x_n, x_{n-1}, ..., x_0]."""
    orbit = [np.asarray(xi0, dtype=float)]
    for j in range(n):
        orbit.append(chain.maps[j].p(orbit[-1]))
    xs = [np.asarray(x_n, dtype=float)]
    for j in range(n, 0, -1):
        J = chain.maps[j - 1].grad_p(orbit[j - 1])
        ga = chain.maps[j - 1].grad_alpha(orbit[j - 1])
        xs.append(J.T @ xs[-1] + ga)
    return xs


def direct_symbol_product(chain, symbols, x_n, xi0, n: int) -> complex:
    """Pointwise b0 via the scalar backward loop, no vectorization."""
    orbit = [np.asarray(xi0, dtype=float)]
    for j in range(n):
        orbit.append(chain.maps[j].p(orbit[-1]))
    xs = backward_positions(chain, x_n, xi0, n)
    total = 1.0 + 0.0j
    for j in range(n, 0, -1):
        x_j = xs[n - j]
        x_prev = xs[n - j + 1]
        total *= complex(
            np.asarray(symbols[j - 1].a0(x_prev, x_j, orbit[j - 1])).reshape(())
        )
    return total


def reference_apply_dense_1d(op, f: Wavefunction) -> Wavefunction:
    """Slow d=1 reference: the defining double quadrature summed term by term.

    Sums over the full momentum lattice (no support restriction, no FFT) and
    performs the x quadrature as an explicit inner sum, so it shares no code
    path with the fast application.  Terms where the symbol vanishes
    identically in x' are skipped without evaluating the map, which keeps maps
    with restricted domains usable; those terms contribute exactly zero.
    """
    g = op.grid
    if g.dimension != 1:
        raise ValueError("the dense reference path is implemented for d=1 only")
    if f.representation != POSITION:
        raise ValueError("reference path expects a position-representation input")
    x = g.axis_positions(0)
    thetas = g.axis_momenta(0)
    hbar = g.hbar
    sym = op.symbol
    u = np.ones_like(x) if sym.u is None else np.asarray(sym.u(x[:, None]))
    fvals = f.values * u
    dx = g.position_weight()
    dxi = g.momentum_weight()
    out = np.zeros(g.n_points, dtype=complex)
    pref = (2.0 * np.pi * hbar) ** (-1.0)
    chi = np.asarray(sym.chi(x[:, None]))
    for theta in thetas:
        vv = chi * sym.psi(np.array([theta]))
        if not np.any(vv):
            continue
        inner = np.sum(fvals * np.exp(-1j * theta * x / hbar)) * dx
        p_th = op.map.p(np.array([theta]))[0]
        a_th = float(op.map.alpha(np.array([theta])))
        det = float(op.map.grad_p(np.array([theta]))[0, 0])
        out += pref * np.exp(1j * (p_th * x + a_th) / hbar) * np.sqrt(det) * vv * inner * dxi
    return Wavefunction(g, out, POSITION)


def leading_form_columns(ops, window) -> tuple[np.ndarray, np.ndarray]:
    """Leading-form columns of a chain over the lattice momenta inside `window`.

    Column theta at x' is (2 pi hbar)^(-d/2) dxi det_chain(theta)^(1/2)
    b0(x', theta) exp(i(<xi_n(theta), x'> + A_n(theta))/hbar).  Orbit, action and
    determinant come from one scalar loop over the map callables per momentum,
    and b0 from `direct_symbol_product` per entry, so nothing is shared with
    the library's block-family assembly.  Returns (theta, columns).
    """
    grid = ops[0].grid
    chain = ChainSpec(tuple(op.map for op in ops))
    symbols = [op.symbol for op in ops]
    pts = grid.momentum_points()
    theta = pts[window.contains(pts)]
    X = grid.position_points()
    hbar = grid.hbar
    pref = grid.momentum_weight() * (2.0 * np.pi * hbar) ** (-grid.dimension / 2.0)
    columns = np.zeros((len(X), len(theta)), dtype=complex)
    for s, xi0 in enumerate(theta):
        xi, action, det = xi0, 0.0, 1.0
        for m in chain.maps:
            action += float(m.alpha(xi))
            det *= float(np.linalg.det(m.grad_p(xi)))
            xi = m.p(xi)
        for i, x in enumerate(X):
            b0 = direct_symbol_product(chain, symbols, x, xi0, len(ops))
            columns[i, s] = pref * np.sqrt(det) * b0 * np.exp(1j * (x @ xi + action) / hbar)
    return theta, columns


def dense_block(family, columns, ell) -> np.ndarray:
    """Dense matrix of one block: leading-form columns weighted by the cell, times the analysis factor."""
    g = family.grid
    X = g.position_points()
    scale = g.position_weight() * (2.0 * np.pi * g.hbar) ** (-g.dimension / 2.0)
    ft_rows = np.exp(-1j * (family.theta @ X.T) / g.hbar) * scale
    d = family.weights[tuple(ell)]
    return (columns * d[None, :]) @ ft_rows


def dense_chain_norms(ops, ns) -> dict[int, float]:
    """Norms of the n-prefixes from the literal running product of dense steps.

    Multiplies the full N^d x N^d realizations first-to-last and takes the
    largest singular value of each requested prefix, with none of the library's
    factorization.
    """
    out = {}
    total = None
    for k, op in enumerate(ops, start=1):
        dense = op.to_dense().matrix
        total = dense if total is None else dense @ total
        if k in ns:
            out[k] = float(np.linalg.norm(total, 2))
    return out
