"""Frenet-type matrix zero-curvature checks and the map to the NLSE.

Data here lives on stacks of 1-D x-slices: arrays indexed (t, x), with
3x3 matrix fields shaped (nt, nx, 3, 3). The central identity is the
zero-curvature condition C_t - D_x + [C, D] = 0 for the frame matrices

    C = [[0, k, 0], [-k, 0, tau], [0, -tau, 0]]
    D = [[0, w3, -w2], [-w3, 0, w1], [w2, w1, 0]]

built from curvature k, torsion tau, and angular-velocity entries w1..w3.
D is used exactly as printed in the source system, which is *not*
antisymmetric (the (3,2) entry is +w1); an antisymmetrize flag flips that
entry for callers who want a proper so(3) frame. `solve_D` works in so(3)
only: it takes an antisymmetric C and initial D, and returns an exactly
antisymmetric D, so it never returns the printed form. An antisymmetric
matrix A acts as A b = a x b for its vector a, and [A, B] is the matrix
of a x b, which is how `solve_D` integrates. The complex field
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
    """Frame matrix C, the so(3) matrix of (-tau, 0, -k), for k and tau of equal shape."""
    k, tau = np.asarray(k, dtype=float), np.asarray(tau, dtype=float)
    if k.shape != tau.shape:
        raise ValueError("k and tau must share a shape")
    return _hat(np.stack([-tau, np.zeros(k.shape), -k], axis=-1))


def build_D(w1, w2, w3, antisymmetrize=False):
    """Frame matrix D, by default exactly as printed (D[2,1] = +w1): the
    so(3) matrix of -(w1, w2, w3), with that one entry flipped."""
    w = np.stack(np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (w1, w2, w3))),
                 axis=-1)
    d = _hat(-w)
    if not antisymmetrize:
        d[..., 2, 1] = w[..., 0]
    return d


def require_time_slices(nt):
    """The residual's rule, which `solve_D` checks before it builds D."""
    if nt < 2:
        raise GridTooSmall("zero-curvature residual needs >= 2 time slices")


def zc_residual(C, D, dx, dt):
    """Matrix residual C_t - D_x + [C, D] and its max entry magnitude.

    C, D: (nt, nx, 3, 3) stacks; the time axis of the stack plays the role
    of the second surface coordinate. Needs nt >= 2.
    """
    C, D = np.asarray(C, dtype=float), np.asarray(D, dtype=float)
    if C.shape != D.shape or C.ndim != 4:
        raise ValueError("C and D must be matching (nt, nx, 3, 3) stacks")
    require_time_slices(C.shape[0])
    resid = _d1_any(C, dt, 0) - _d1_any(D, dx, 1) + C @ D - D @ C
    return resid, float(np.abs(resid).max())


# an so(3) matrix A and its vector a, with A b = a x b
_LOWER = (..., [2, 0, 1], [1, 2, 0])    # A[2,1], A[0,2], A[1,0]: a1, a2, a3
_UPPER = (..., [1, 2, 0], [2, 0, 1])    # their mirrors: -a1, -a2, -a3
_MAP_BLOCK = 256    # x-steps whose maps are built at once: bounds their memory


def _vee(A, name):
    """The vectors a of a stack of antisymmetric matrices A, (..., 3, 3) -> (..., 3).

    Both triangles are read, a1 = (A[2,1] - A[1,2]) / 2 and so on, and a
    non-finite diagonal entry makes its node's a NaN, so every non-finite
    entry of A reaches a. A finite entry that breaks antisymmetry is a
    ValueError naming the argument.
    """
    lo, up, diag = A[_LOWER], A[_UPPER], np.diagonal(A, axis1=-2, axis2=-1)
    if (((lo != -up) & np.isfinite(lo) & np.isfinite(up)).any()
            or ((diag != 0.0) & np.isfinite(diag)).any()):
        raise ValueError(f"{name} must be antisymmetric (in so(3)) where it is finite")
    a = 0.5 * (lo - up)
    a[~np.isfinite(diag).all(axis=-1)] = np.nan
    return a


def _hat(a):
    """The antisymmetric matrices of a stack of vectors, (..., 3) -> (..., 3, 3)."""
    A = np.zeros(a.shape + (3,))
    A[_LOWER] = a
    A[_UPPER] = -a
    return A


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


def solve_D(C, D_at_x0, dx, dt):
    """Integrate D_x = C_t + [C, D] in x, per time slice, by RK4.

    C: (nt, nx, 3, 3), nt >= 2 as for the residual (`require_time_slices`);
    D_at_x0: (nt, 3, 3) initial data on the line x = x0. Both must be
    antisymmetric wherever they are finite (a ValueError otherwise, so
    `build_D`'s printed form with w1 != 0 is refused), and the returned D
    is exactly antisymmetric. The equation is solved for the vectors,
    d_x = c_t + c x d, each x-step one affine map built for a block of
    steps at once. C and C_t are linearly interpolated to the RK midpoints,
    so the resulting zero-curvature residual is second-order small by
    construction. A non-finite entry, given or reached, is a Blowup naming
    the first x column it reaches.
    """
    C = np.asarray(C, dtype=float)
    nt, nx = C.shape[:2]
    require_time_slices(nt)
    c = np.ascontiguousarray(_vee(C, "C").transpose(2, 1, 0))     # (3, nx, nt)
    ct = _d1_any(c, dt, 2)
    d = np.empty((nx, nt, 3, 1))
    d0 = np.broadcast_to(np.asarray(D_at_x0, dtype=float), (nt, 3, 3))
    d[0, ..., 0] = _vee(d0, "D_at_x0")
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
    return _hat(d[..., 0].swapaxes(0, 1))


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


def vector_zc_residual(R1, R2):
    """R1_y - R2_x + 2 R1 ^ R2 for a pair of 2-D vector fields."""
    g = same_grid(R1, R2)
    if g.is_1d:
        raise GridTooSmall("vector zero-curvature residual needs a 2-D grid")
    resid = (diff(R1.values, g, "dy") - diff(R2.values, g, "dx")
             + 2.0 * cross(R1.values, R2.values))
    return VecField(g, resid), float(norm(resid).max())
