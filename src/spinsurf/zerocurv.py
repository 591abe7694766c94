"""Frenet-type matrix zero-curvature checks and the map to the NLSE.

Data here lives on stacks of 1-D x-slices: arrays indexed (t, x), with
3x3 matrix fields shaped (nt, nx, 3, 3). The central identity is the
zero-curvature condition C_t - D_x + [C, D] = 0 for the frame matrices

    C = [[0, k, 0], [-k, 0, tau], [0, -tau, 0]]
    D = [[0, w3, -w2], [-w3, 0, w1], [w2, w1, 0]]

built from curvature k, torsion tau, and angular-velocity entries w1..w3.
D is used exactly as printed in the source system, which is *not*
antisymmetric (the (3,2) entry is +w1); an antisymmetrize flag flips that
entry for callers who want a proper so(3) frame. The complex field
psi = (k/2) exp(-i Int tau dx) turns compatible curve data into a
solution of the focusing NLSE  i psi_t + psi_xx + 2 |psi|^2 psi = 0.
"""

import numpy as np

from .errors import Blowup, GridTooSmall
from .fields import cross, cumtrapz, diff, norm, same_grid, VecField, _d1, _d2


def _d1_any(a, h, axis):
    """First derivative along axis: second-order one-sided/central stencils,
    falling back to the plain two-point difference when only 2 slices exist."""
    n = a.shape[axis]
    if n < 2:
        raise GridTooSmall("derivative needs at least 2 samples")
    if n == 2:
        d = (np.take(a, 1, axis) - np.take(a, 0, axis)) / h
        return np.stack([d, d], axis=axis)
    return _d1(a, h, axis, periodic=False)


def build_C(k, tau):
    """Frame matrix C from curvature and torsion arrays of equal shape."""
    k, tau = np.asarray(k, dtype=float), np.asarray(tau, dtype=float)
    if k.shape != tau.shape:
        raise ValueError("k and tau must share a shape")
    c = np.zeros(k.shape + (3, 3))
    c[..., 0, 1] = k
    c[..., 1, 0] = -k
    c[..., 1, 2] = tau
    c[..., 2, 1] = -tau
    return c


def build_D(w1, w2, w3, antisymmetrize=False):
    """Frame matrix D, by default exactly as printed (D[2,1] = +w1)."""
    w1, w2, w3 = np.broadcast_arrays(*(np.asarray(w, dtype=float)
                                       for w in (w1, w2, w3)))
    d = np.zeros(w1.shape + (3, 3))
    d[..., 0, 1] = w3
    d[..., 0, 2] = -w2
    d[..., 1, 0] = -w3
    d[..., 1, 2] = w1
    d[..., 2, 0] = w2
    d[..., 2, 1] = -w1 if antisymmetrize else w1
    return d


def zc_residual(C, D, dx, dt):
    """Matrix residual C_t - D_x + [C, D] and its max entry magnitude.

    C, D: (nt, nx, 3, 3) stacks; the time axis of the stack plays the role
    of the second surface coordinate. Needs nt >= 2.
    """
    C, D = np.asarray(C, dtype=float), np.asarray(D, dtype=float)
    if C.shape != D.shape or C.ndim != 4:
        raise ValueError("C and D must be matching (nt, nx, 3, 3) stacks")
    if C.shape[0] < 2:
        raise GridTooSmall("zero-curvature residual needs >= 2 time slices")
    resid = _d1_any(C, dt, 0) - _d1_any(D, dx, 1) + C @ D - D @ C
    return resid, float(np.abs(resid).max())


def solve_D(C, D_at_x0, dx, dt):
    """Integrate D_x = C_t + [C, D] in x, per time slice, by RK4.

    C: (nt, nx, 3, 3); D_at_x0: (nt, 3, 3) initial data on the line x = x0.
    C and C_t are linearly interpolated to the RK midpoints, so the
    resulting zero-curvature residual is second-order small by
    construction.
    """
    C = np.asarray(C, dtype=float)
    nt, nx = C.shape[:2]
    Ct = _d1_any(C, dt, 0)
    D = np.zeros_like(C)
    D[:, 0] = np.broadcast_to(np.asarray(D_at_x0, dtype=float), (nt, 3, 3))

    def f(c, ct, d):
        return ct + c @ d - d @ c

    for i in range(nx - 1):
        c0, c1 = C[:, i], C[:, i + 1]
        ct0, ct1 = Ct[:, i], Ct[:, i + 1]
        cm, ctm = 0.5 * (c0 + c1), 0.5 * (ct0 + ct1)
        d = D[:, i]
        k1 = f(c0, ct0, d)
        k2 = f(cm, ctm, d + 0.5 * dx * k1)
        k3 = f(cm, ctm, d + 0.5 * dx * k2)
        k4 = f(c1, ct1, d + dx * k3)
        D[:, i + 1] = d + (dx / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    # a non-finite entry carries into all later columns: the first one is the step
    bad = ~np.isfinite(D[:, 1:]).all(axis=(0, 2, 3))
    if bad.any():
        raise Blowup(int(bad.argmax()) + 1)
    return D


def hasimoto(k, tau, dx):
    """psi = (k/2) exp(-i Int_x0^x tau dx'), cumulative trapezoid quadrature.

    Works per slice: k, tau may be (nx,) or (nt, nx). The quadrature base
    point is the first x node; moving it only shifts psi by a constant
    phase, which the NLSE tolerates.
    """
    k, tau = np.asarray(k, dtype=float), np.asarray(tau, dtype=float)
    return 0.5 * k * np.exp(-1j * cumtrapz(tau, dx, -1))


def nlse_residual(psi, dx, dt):
    """|i psi_t + psi_xx + 2 |psi|^2 psi| nodewise, central differences.

    psi: (nt, nx) complex stack, nt >= 3; edge slices use one-sided
    second-order stencils.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 2 or psi.shape[0] < 3:
        raise GridTooSmall("NLSE residual needs a (nt >= 3, nx) stack")
    psi_t = _d1(psi, dt, 0, periodic=False)
    psi_xx = _d2(psi, dx, 1, periodic=False)
    return np.abs(1j * psi_t + psi_xx + 2.0 * np.abs(psi) ** 2 * psi)


def nlse_soliton(a, x, t):
    """Standing bright soliton a sech(a x) e^{i a^2 t}.

    x: (nx,) sample points; t: scalar or (nt,) times. Returns (nx,) or
    (nt, nx).
    """
    if a <= 0:
        raise ValueError("soliton amplitude must be positive")
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    envelope = a / np.cosh(a * x)
    phase = np.exp(1j * a ** 2 * t)
    if t.ndim == 0:
        return envelope * phase
    return envelope[None, :] * phase[:, None]


def vector_zc_residual(R1, R2):
    """R1_y - R2_x + 2 R1 ^ R2 for a pair of 2-D vector fields."""
    g = same_grid(R1, R2)
    if g.is_1d:
        raise GridTooSmall("vector zero-curvature residual needs a 2-D grid")
    resid = (diff(R1.values, g, "dy") - diff(R2.values, g, "dx")
             + 2.0 * cross(R1.values, R2.values))
    return VecField(g, resid), float(norm(resid).max())
