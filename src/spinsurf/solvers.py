"""Auxiliary linear solvers: half-spectrum periodic Poisson and mixed-derivative quadrature."""

import numpy as np

from .errors import NonConvergence, NonZeroMeanSource
from .fields import CLAMPED, PERIODIC, _bind_diff, _runner, cumtrapz

POISSON_RTOL = 1e-10
MEAN_RTOL = 1e-8


def _symbol(g):
    """The 5-point Laplacian's Fourier symbol on a periodic grid, on the
    nx // 2 + 1 columns of `np.fft.rfft2`'s half spectrum, with 1 in the
    zero mode that the solve gauges away (avoiding 0/0)."""
    kx = np.arange(g.nx // 2 + 1)
    ky = np.arange(g.ny)
    lam = ((2.0 * np.cos(2 * np.pi * kx[None, :] / g.nx) - 2.0) / g.dx ** 2
           + (2.0 * np.cos(2 * np.pi * ky[:, None] / g.ny) - 2.0) / g.dy ** 2)
    lam[0, 0] = 1.0
    return lam


def _bind_poisson(f, g, phi=None):
    """`poisson_solve` bound to the source array f and to phi (made here when
    None): a run allocates only in `np.fft.rfft2` and `irfft2`."""
    if g.boundary != PERIODIC or g.is_1d:
        raise ValueError("Poisson solve needs a periodic 2-D grid")
    lam, phi = _symbol(g), np.empty(f.shape) if phi is None else phi
    r, t, d = (np.empty(f.shape) for _ in range(3))
    back = _runner([(_bind_diff(phi, r, t, g, "dxx"), ()), (_bind_diff(phi, d, t, g, "dyy"), ()),
                    (np.add, (r, d, r)), (np.subtract, (r, f, r)), (np.abs, (r, r))], r)

    def run():
        fmax = np.abs(f, out=d).max()          # d is free until back() runs
        if fmax > 0 and abs(f.mean()) > MEAN_RTOL * fmax:
            raise NonZeroMeanSource(f"source mean {f.mean():.3e} exceeds "
                                    f"{MEAN_RTOL:g} * max|rhs|")
        fhat = np.fft.rfft2(f)
        fhat[0, 0] = 0.0
        phi[...] = np.fft.irfft2(np.divide(fhat, lam, out=fhat), s=f.shape)
        np.subtract(phi, phi.mean(), out=phi)
        resid = back().max()
        if fmax > 0 and resid > POISSON_RTOL * fmax:
            raise NonConvergence(resid / fmax)
        return phi
    return run


def poisson_solve(f, g):
    """Solve the discrete 5-point Laplacian L(phi) = f on a periodic grid.

    f is the (ny, nx) source array; returns phi's array. The inversion is
    spectral, on the real FFT's half spectrum, diagonalizing the exact
    stencil symbol, so back-substitution through the stencil reproduces f to
    machine precision. The gauge is mean(phi) = 0; a source whose mean
    exceeds the solvability tolerance is rejected.
    """
    return _bind_poisson(f, g)()


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
