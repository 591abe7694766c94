"""Auxiliary linear solvers: periodic Poisson and mixed-derivative quadrature."""

import numpy as np

from .errors import NonConvergence, NonZeroMeanSource
from .fields import CLAMPED, PERIODIC, cumtrapz, diff

POISSON_RTOL = 1e-10
MEAN_RTOL = 1e-8


def poisson_solve(f, g):
    """Solve the discrete 5-point Laplacian L(phi) = f on a periodic grid.

    f is the (ny, nx) source array; returns phi's array. The inversion is
    spectral, diagonalizing the exact stencil symbol, so back-substitution
    through `diff` reproduces f to machine precision. The gauge is
    mean(phi) = 0; a source whose mean exceeds the solvability tolerance
    is rejected.
    """
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

    resid = np.abs(diff(phi, g, "dxx") + diff(phi, g, "dyy") - f).max()
    if fmax > 0 and resid > POISSON_RTOL * fmax:
        raise NonConvergence(1, resid / fmax)
    return phi


def mixed_integrate(f, g):
    """Invert phi_xy = f on a clamped grid by cumulative 2-D trapezoid.

    f is the (ny, nx) source array; returns phi's array, gauged to zero on
    the seed row y = y0 and the seed column x = x0. Dxy of the result
    recovers f in the interior at second order.
    """
    if g.boundary != CLAMPED or g.is_1d:
        raise ValueError("mixed-derivative integration needs a clamped 2-D grid")
    # adding 0.0 turns the -0.0 that a signed zero source leaves into 0.0
    return 0.0 + cumtrapz(cumtrapz(f, g.dx, 1), g.dy, 0)
