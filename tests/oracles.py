"""Independent reference implementations used to pin the library's outputs.

Everything here is deliberately slow and structurally different from the
library code: direct quadrature sums instead of FFTs, central finite
differences instead of analytic derivatives, explicit scalar loops instead of
vectorized matrix algebra.  Tests compare the fast paths against these.
"""

from __future__ import annotations

import itertools

import numpy as np

from fiochain import cotlar
from fiochain.dynamics import ChainSpec, _step_dets
from fiochain.fio import _leading_blocks
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


def log_det_chain(chain: ChainSpec, xi0, n: int | None = None) -> np.ndarray:
    """log |det| of the composed momentum map along the orbit from xi0; shape (...).

    The sum of the logs of the per-step |det grad_p_j(xi_{j-1})| of
    `_step_dets`, which the bound suprema read, with no d x d products, so it
    stays accurate at any n, where the determinant product of `jacobian_chain`
    leaves the normal range.  A singular step is refused as there.
    """
    return np.log(np.abs(_step_dets(chain, xi0, n))).sum(axis=-1)


def log_tilde_det_chain(chain: ChainSpec, xi_tilde0, n: int | None = None) -> np.ndarray:
    """log |det| of the composed autonomous block map along its own orbit; shape (...).

    The leaf determinants of `_step_dets` that `tilde_jacobian_chain`
    multiplies, summed in log space as in `log_det_chain`; a vanishing
    leaf-map determinant is refused as there.
    """
    return np.log(np.abs(_step_dets(chain, xi_tilde0, n, leaf=True))).sum(axis=-1)


def leading_form(chain: ChainSpec, symbols, theta: np.ndarray, n: int, grid) -> np.ndarray:
    """Leading-order images of the plane waves e_theta after n >= 1 steps, shape (N^d, K).

    The dense leading form, scattered from the library's row blocks
    (`fio._leading_blocks`), which evaluate only the live rows (chi_n(x) != 0)
    and live columns (psi_1(theta) != 0); every other entry is an exact 0.
    Not independent of the library: it is the dense matrix that the tests
    compare with its own direct evaluations, the WKB ansatz, each step's P
    and the Cotlar Gram matrix.
    """
    out = np.zeros((grid.size, len(theta)), dtype=complex)
    for rows, cols, (block,) in _leading_blocks(chain, symbols, theta, [n], grid):
        out[np.ix_(rows, cols)] = block
    return out


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


def family_eigvalsh_calls(family) -> int:
    """eigvalsh calls that building a `BlockFamily` takes, counted from its cells' own data.

    One per cell with a live column (its block norm, which is also its
    product norm with itself: no term counts a pair (ell, ell)), one per
    adjacent pair whose weights share a column, one batch per cell row with
    a live column, one on G, and one each for the sum and the defect where
    the weights do not add up to exactly 1.  Every row's live later cells
    must fit one batch of `cotlar._STAR_BATCH_ENTRIES`.
    """
    weights, ells = family.weights, family.ells
    width = {ell: np.count_nonzero(weights[ell]) for ell in ells}
    live = [ell for ell in ells if width[ell]]
    for i, ell in enumerate(live):
        assert width[ell] * max(width[m] for m in live[i:]) * (len(live) - i) <= cotlar._STAR_BATCH_ENTRIES
    adjacent = [
        (l, m)
        for l, m in itertools.combinations(ells, 2)
        if family.separation(l, m) == 1 and np.any(weights[l] * weights[m])
    ]
    total = sum(weights.values())
    extra = 0 if np.all(total == 1.0) else 1 + int(np.any(total))
    return 2 * len(live) + len(adjacent) + 1 + extra


def dense_chain_norms(ops, ns) -> dict[int, float]:
    """Norms of the n-prefixes from the literal running product of dense steps.

    Multiplies the full N^d x N^d realizations first-to-last and takes the
    largest singular value of each requested prefix, with none of the library's
    factorization, as the root of the top eigenvalue of A^H A: by Weyl's
    inequality that eigenvalue, and so the largest singular value, carries a
    relative error of O(eps), at a fraction of the cost of a full SVD.
    """
    out = {}
    total = None
    for k, op in enumerate(ops, start=1):
        dense = op.to_dense().matrix
        total = dense if total is None else dense @ total
        if k in ns:
            out[k] = float(np.sqrt(np.linalg.eigvalsh(total.conj().T @ total)[-1]))
    return out


def separable_chain_norms(factor_chains, ns) -> dict[int, float]:
    """Norms of the n-prefixes of a tensor-product chain from its 1-d factor chains.

    A chain whose every step is the tensor product over the axes of the steps
    of `factor_chains` (one 1-d chain per axis) has prefixes that are Kronecker
    products of the 1-d prefixes, and the largest singular value of a
    Kronecker product is the product of the factors' largest singular values.
    Each 1-d norm is `dense_chain_norms` of its literal dense product.
    """
    out = dict.fromkeys(ns, 1.0)
    for ops in factor_chains:
        norms = dense_chain_norms(ops, ns)
        for n in ns:
            out[n] *= norms[n]
    return out


def matrix_free_chain_norm(ops, tol: float = 1e-10, max_iter: int = 200, seed: int = 0) -> float:
    """Largest singular value of a chain by power iteration on A*A, one step at a time.

    A applies the steps first-to-last through `FioOperator.apply`, A* their
    adjoints last-to-first through `adjoint_apply`, and every norm is the
    quadrature-weighted L2 norm on the grid: no K x K core is formed.  Raises
    unless the certificate |A*A v - s^2 v| <= tol s^2 is met within max_iter.
    """
    grid = ops[0].grid

    def norm(v):
        return float(np.sqrt(np.vdot(v, v).real * grid.position_weight()))

    rng = np.random.default_rng(seed)
    v = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    v = v / norm(v)
    for _ in range(max_iter):
        f = Wavefunction(grid, v, POSITION)
        for op in ops:
            f = op.apply(f)
        sigma = norm(f.values)
        for op in reversed(ops):
            f = op.adjoint_apply(f)
        if norm(f.values - sigma**2 * v) <= tol * sigma**2:
            return sigma
        v = f.values / norm(f.values)
    raise AssertionError("matrix-free power iteration did not meet its certificate")
