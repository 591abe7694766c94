"""Frame zero-curvature checks in so(3) vectors, and the map to the NLSE.

Data here lives on stacks of 1-D x-slices indexed (t, x), components
first like every field of the package: a vector stack is (3, nt, nx). The
frame matrices of the zero-curvature condition C_t - D_x + [C, D] = 0 lie
in so(3), C = [[0, k, 0], [-k, 0, tau], [0, -tau, 0]] for curvature k and
torsion tau, and a matrix A of so(3) acts as A b = a x b for its vector
a = (A[2,1], A[0,2], A[1,0]), with [A, B] the matrix of a x b. So the
condition is c_t - d_x + c x d = 0 for the vectors, c = (-tau, 0, -k),
and that is how it is solved and checked here. The complex field
psi = (k/2) exp(-i Int tau dx) turns compatible curve data into a
solution of the focusing NLSE  i psi_t + psi_xx + 2 |psi|^2 psi = 0.
"""

import numpy as np

from .errors import Blowup, GridTooSmall
from .fields import cross, cumtrapz, _d1, _d2


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
    """c = (-tau, 0, -k), the vector of the frame matrix C, as a (3, ...)
    stack for k and tau of equal shape."""
    k, tau = np.asarray(k, dtype=float), np.asarray(tau, dtype=float)
    if k.shape != tau.shape:
        raise ValueError("k and tau must share a shape")
    return np.stack([-tau, np.zeros(k.shape), -k])


def require_time_slices(nt):
    """The residual's rule, which `solve_D` checks before it builds d."""
    if nt < 2:
        raise GridTooSmall("zero-curvature residual needs >= 2 time slices")


def zc_residual(c, d, dx, dt):
    """Residual c_t - d_x + c x d and its largest component magnitude, the
    largest entry of the matrix residual C_t - D_x + [C, D].

    c, d: (3, nt, nx) stacks; the time axis plays the role of the second
    surface coordinate. Needs nt >= 2.
    """
    c, d = np.asarray(c, dtype=float), np.asarray(d, dtype=float)
    if c.shape != d.shape or c.ndim != 3 or c.shape[0] != 3:
        raise ValueError("c and d must be matching (3, nt, nx) stacks")
    require_time_slices(c.shape[1])
    resid = _d1_any(c, dt, 1) - _d1_any(d, dx, 2) + cross(c, d)
    return resid, float(np.abs(resid).max())


_MAP_BLOCK = 256    # x-steps whose maps are built at once: bounds their memory


def _rk4_maps(c, ct, h):
    """Each RK4 x-step of d_x = c_t + c x d as an affine map d -> M d + v.

    c, ct: components-first (3, n + 1, nt) at n + 1 x nodes; returns M
    (n, nt, 3, 3) and v (n, nt, 3, 1). The equation is linear in d, so one
    step taken at once from the three basis vectors with c_t dropped, and
    from d = 0 with it, gives M's columns and v. c and c_t at the midpoint
    are the means of their end values.
    """
    c0, c1, b0, b1 = c[:, :-1, None], c[:, 1:, None], ct[:, :-1], ct[:, 1:]
    cm, bm = 0.5 * (c0 + c1), 0.5 * (b0 + b1)
    y = np.zeros((3, b0.shape[1], 4, b0.shape[2]))   # [I | 0]: basis vectors, then d = 0
    for i in range(3):
        y[i, :, i] = 1.0

    def f(a, b, z):
        k = cross(a, z)
        k[:, :, 3] += b
        return k

    k1 = f(c0, b0, y)
    k2 = f(cm, bm, y + 0.5 * h * k1)
    k3 = f(cm, bm, y + 0.5 * h * k2)
    k4 = f(c1, b1, y + h * k3)
    y += (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    y = y.transpose(1, 3, 0, 2)         # (n, nt, 3, 4): one x-step's maps contiguous
    return np.ascontiguousarray(y[..., :3]), np.ascontiguousarray(y[..., 3:])


def solve_D(c, d0, dx, dt):
    """Integrate d_x = c_t + c x d in x, per time slice, by RK4: the vector
    form of D_x = C_t + [C, D].

    c: (3, nt, nx), nt >= 2 as for the residual (`require_time_slices`);
    d0: (3, nt) initial data on the line x = x0, or one (3,) vector for
    every t. Returns d, (3, nt, nx). Each x-step is one affine map built
    for a block of steps at once. c and c_t are linearly interpolated to
    the RK midpoints, so the resulting zero-curvature residual is
    second-order small by construction. A non-finite value, given or
    reached, is a Blowup naming the first x column it reaches.
    """
    c = np.asarray(c, dtype=float)
    nt, nx = c.shape[1:]
    require_time_slices(nt)
    c = np.ascontiguousarray(c.swapaxes(1, 2))      # (3, nx, nt)
    ct = _d1_any(c, dt, 2)
    d = np.empty((nx, nt, 3, 1))
    d[0, ..., 0] = np.asarray(d0, dtype=float).T
    for i0 in range(0, nx - 1, _MAP_BLOCK):
        i1 = min(i0 + _MAP_BLOCK, nx - 1)
        M, v = _rk4_maps(c[:, i0:i1 + 1], ct[:, i0:i1 + 1], dx)
        for j in range(i1 - i0):
            np.matmul(M[j], d[i0 + j], out=d[i0 + j + 1])
            d[i0 + j + 1] += v[j]
    # a non-finite entry carries into all later columns: the first one is named
    bad = ~np.isfinite(d[1:]).all(axis=(1, 2, 3))
    if bad.any():
        raise Blowup(int(bad.argmax()) + 1, "x column")
    return d[..., 0].transpose(2, 1, 0)


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

    psi: (nt, nx) complex stack, nt >= 3 and nx >= 4; edge slices use
    one-sided second-order stencils.
    """
    psi = np.asarray(psi, dtype=complex)
    if psi.ndim != 2 or psi.shape[0] < 3 or psi.shape[1] < 4:
        raise GridTooSmall(f"NLSE residual needs a (nt >= 3, nx >= 4) stack, got {psi.shape}")
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
