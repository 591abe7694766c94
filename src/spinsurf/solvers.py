"""Auxiliary linear solvers: periodic Poisson and mixed-derivative quadrature."""

import numpy as np

from .errors import NonConvergence, NonZeroMeanSource
from .fields import CLAMPED, PERIODIC, ScalarField, cumtrapz, stencil

POISSON_RTOL = 1e-10
MEAN_RTOL = 1e-8


def poisson_solve(rhs):
    """Solve the discrete 5-point Laplacian L(phi) = rhs on a periodic grid.

    The inversion is spectral, diagonalizing the exact stencil symbol, so
    back-substitution through `diff` reproduces rhs to machine precision.
    The gauge is mean(phi) = 0; a source whose mean exceeds the
    solvability tolerance is rejected.
    """
    return ScalarField(rhs.grid, poisson_core(rhs.values, rhs.grid))


def poisson_core(f, g):
    """poisson_solve on a plain (ny, nx) source array; returns phi's array."""
    if g.boundary != PERIODIC or g.is_1d:
        raise ValueError("Poisson solve needs a periodic 2-D grid")
    fmax = np.abs(f).max()
    if fmax > 0 and abs(f.mean()) > MEAN_RTOL * fmax:
        raise NonZeroMeanSource(f"source mean {f.mean():.3e} exceeds "
                                f"{MEAN_RTOL:g} * max|rhs|")

    kx = np.arange(g.nx)
    ky = np.arange(g.ny)
    lam = ((2.0 * np.cos(2 * np.pi * kx[None, :] / g.nx) - 2.0) / g.dx ** 2
           + (2.0 * np.cos(2 * np.pi * ky[:, None] / g.ny) - 2.0) / g.dy ** 2)
    fhat = np.fft.fft2(f)
    fhat[0, 0] = 0.0
    lam[0, 0] = 1.0          # zero mode is gauged away, avoid 0/0
    phi = np.real(np.fft.ifft2(fhat / lam))
    phi -= phi.mean()
    phi = np.ascontiguousarray(phi)

    resid = np.abs(stencil(phi, g, "dxx") + stencil(phi, g, "dyy") - f).max()
    if fmax > 0 and resid > POISSON_RTOL * fmax:
        raise NonConvergence(1, resid / fmax)
    return phi


def mixed_integrate(f, phi_row=None, phi_col=None):
    """Invert phi_xy = f on a clamped grid by cumulative 2-D trapezoid.

    phi_row prescribes phi along the seed row y = y0 (length nx), phi_col
    along the seed column x = x0 (length ny); both default to zero. The
    corner value phi(x0, y0) is taken from phi_row[0], which must agree
    with phi_col[0]. Dxy of the result recovers f in the interior at
    second order.
    """
    return ScalarField(f.grid, mixed_integrate_core(f.values, f.grid, phi_row, phi_col))


def mixed_integrate_core(f, g, phi_row=None, phi_col=None):
    """mixed_integrate on a plain (ny, nx) source array; returns phi's array."""
    if g.boundary != CLAMPED or g.is_1d:
        raise ValueError("mixed-derivative integration needs a clamped 2-D grid")
    phi_row = np.zeros(g.nx) if phi_row is None else np.asarray(phi_row, dtype=float)
    phi_col = np.zeros(g.ny) if phi_col is None else np.asarray(phi_col, dtype=float)
    if phi_row.shape != (g.nx,) or phi_col.shape != (g.ny,):
        raise ValueError("axis data must have lengths nx and ny")
    if abs(phi_row[0] - phi_col[0]) > 1e-12 * (1 + abs(phi_row[0])):
        raise ValueError("axis data disagree at the corner node")

    double = cumtrapz(cumtrapz(f, g.dx, 1), g.dy, 0)
    return phi_row[None, :] + phi_col[:, None] - phi_row[0] + double
