"""Grids, scalar/vector fields, and second-order finite-difference calculus.

Fields live on uniform 2-D grids (ny = 1 degenerates to 1-D). Node (i, j)
maps to flat index i + nx*j, i.e. arrays are stored with shape (ny, nx)
[, 3] in C order. All field objects are immutable after construction.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import GridMismatch, GridTooSmall, NearZeroNorm, NonFiniteResult

PERIODIC = "periodic"
CLAMPED = "clamped"

SPIN_NORM_TOL = 1e-12     # admission tolerance for unit spin fields
NORM_FLOOR = 1e-8         # below this, normalization is refused


@dataclass(frozen=True)
class Grid:
    """Uniform grid with nx*ny nodes at (i*dx, j*dy)."""

    nx: int
    ny: int
    dx: float
    dy: float
    boundary: str = PERIODIC

    def __post_init__(self):
        if self.nx < 2 or self.ny < 1:
            raise GridTooSmall(f"need nx >= 2 and ny >= 1, got {self.nx}x{self.ny}")
        if not (0 < self.dx < np.inf and 0 < self.dy < np.inf):
            raise ValueError("grid spacings must be positive and finite")
        if self.boundary not in (PERIODIC, CLAMPED):
            raise ValueError(f"unknown boundary mode {self.boundary!r}")

    @property
    def is_1d(self):
        return self.ny == 1

    @property
    def periodic(self):
        return self.boundary == PERIODIC

    def x(self):
        return np.arange(self.nx) * self.dx

    def y(self):
        return np.arange(self.ny) * self.dy

    def meshgrid(self):
        """(X, Y) arrays of shape (ny, nx)."""
        return np.meshgrid(self.x(), self.y())


def _frozen_array(values, shape):
    a = np.ascontiguousarray(values, dtype=float)
    if a.shape != shape:
        raise ValueError(f"expected shape {shape}, got {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteResult("field contains non-finite values")
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class ScalarField:
    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values",
                           _frozen_array(self.values, (self.grid.ny, self.grid.nx)))


@dataclass(frozen=True, eq=False)
class VecField:
    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "values",
                           _frozen_array(self.values, (self.grid.ny, self.grid.nx, 3)))


class SpinField(VecField):
    """VecField whose vectors are unit length at every node."""

    def __post_init__(self):
        super().__post_init__()
        if not is_unit(self.values):
            raise ValueError(f"spin field is not unit norm to {SPIN_NORM_TOL}")


def is_unit(a):
    """Whether every vector of a (..., 3) array has length 1 to SPIN_NORM_TOL."""
    return np.abs(norm(a) - 1.0).max() <= SPIN_NORM_TOL


def constant_field(grid, value):
    """ScalarField (scalar value) or VecField (3-vector value) of constants."""
    value = np.asarray(value, dtype=float)
    if value.ndim == 0:
        return ScalarField(grid, np.full((grid.ny, grid.nx), float(value)))
    return VecField(grid, np.broadcast_to(value, (grid.ny, grid.nx, 3)).copy())


def same_grid(*fields):
    g = fields[0].grid
    for f in fields[1:]:
        if f.grid != g:
            raise GridMismatch(f"{f.grid} != {g}")
    return g


# ---------------------------------------------------------------------------
# vector algebra (on trailing-axis-3 arrays)

def cross(a, b):
    """Right-handed cross product on (..., 3) arrays."""
    a, b = np.asarray(a), np.asarray(b)
    out = np.empty(a.shape if a.shape == b.shape else np.broadcast_shapes(a.shape, b.shape))
    out[..., 0] = a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1]
    out[..., 1] = a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2]
    out[..., 2] = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    return out


def dot(a, b):
    """Dot product on (..., 3) arrays, summed left to right like numpy's
    length-3 reduction: bit for bit np.sum(a * b, -1), without its overhead."""
    p = np.asarray(a) * np.asarray(b)
    return p[..., 0] + p[..., 1] + p[..., 2]


def triple(a, b, c):
    """Scalar triple product a . (b x c)."""
    return dot(a, cross(b, c))


def norm(a):
    """Length of (..., 3) vectors; bit for bit np.linalg.norm(a, axis=-1)."""
    return np.sqrt(dot(a, a))


def cmul(coeff, arr):
    """Multiply a coefficient (float or (ny, nx) array) into a field array."""
    if np.isscalar(coeff):
        return coeff * arr
    return coeff[..., None] * arr


# ---------------------------------------------------------------------------
# finite differences
#
# The stencils act on plain arrays of any shape and dtype, differencing
# along `axis` with basic slices of swapped-axis views, so no shifted copy
# of the input is made. They are written in difference-of-neighbours form
# so that constant fields differentiate to exactly zero in floating point.

def _d1(a, h, axis, periodic):
    if a.shape[axis] < 3:
        raise GridTooSmall("first derivative needs at least 3 nodes")
    out = np.empty_like(a)
    x, o = a.swapaxes(0, axis), out.swapaxes(0, axis)
    np.subtract(x[2:], x[:-2], out=o[1:-1])
    if periodic:
        o[0] = x[1] - x[-1]
        o[-1] = x[0] - x[-2]
    else:
        # second-order one-sided: -3f0 + 4f1 - f2 = 4(f1-f0) - (f2-f0)
        o[0] = 4.0 * (x[1] - x[0]) - (x[2] - x[0])
        o[-1] = 4.0 * (x[-1] - x[-2]) - (x[-1] - x[-3])
    out /= 2.0 * h
    return out


def _d2(a, h, axis, periodic):
    n = a.shape[axis]
    if n < 3:
        raise GridTooSmall("second derivative needs at least 3 nodes")
    if not periodic and n < 4:
        raise GridTooSmall("clamped second derivative needs at least 4 nodes")
    x = a.swapaxes(0, axis)
    # forward differences d[k] = x[k+1] - x[k], wrapping to d[n-1] = x[0] - x[n-1]
    # when periodic; the stencil is d[k] - d[k-1]
    d = np.empty_like(x if periodic else x[1:])
    np.subtract(x[1:], x[:-1], out=d[:n - 1])
    out = np.empty_like(a)
    o = out.swapaxes(0, axis)
    np.subtract(d[1:n - 1], d[:n - 2], out=o[1:-1])
    if periodic:
        d[-1] = x[0] - x[-1]
        o[0] = d[0] - d[-1]
        o[-1] = d[-1] - d[-2]
    else:
        # second-order one-sided: 2f0 - 5f1 + 4f2 - f3, in difference form
        o[0] = -2.0 * d[0] + 3.0 * d[1] - d[2]
        o[-1] = -2.0 * d[-1] + 3.0 * d[-2] - d[-3]
    out /= h * h
    return out


def diff(a, grid, which):
    """Finite difference of a plain (ny, nx) or (ny, nx, 3) array.

    which: one of "dx", "dy", "dxx", "dyy", "dxy", "dxxxx". Periodic grids
    wrap; clamped grids use one-sided second-order stencils at the edges.
    "dxy" is the composition dy(dx(a)), "dxxxx" is dxx(dxx(a)). On periodic
    grids "dxxxx" is exactly the centered 5-point stencil
    (1, -4, 6, -4, 1)/dx^4; clamped grids inherit the one-sided variants.
    """
    if which == "dx":
        return _d1(a, grid.dx, 1, grid.periodic)
    if which == "dxx":
        return _d2(a, grid.dx, 1, grid.periodic)
    if which == "dxy":
        return diff(diff(a, grid, "dx"), grid, "dy")
    if which == "dxxxx":
        if grid.nx < 5:
            raise GridTooSmall("fourth derivative needs nx >= 5")
        return diff(diff(a, grid, "dxx"), grid, "dxx")
    if which not in ("dy", "dyy"):
        raise ValueError(f"unknown derivative {which!r}")
    if grid.is_1d:
        raise GridTooSmall("y-derivative requested on a 1-D grid")
    if grid.ny < 3:
        raise GridTooSmall("y-derivatives need ny >= 3")
    if which == "dy":
        return _d1(a, grid.dy, 0, grid.periodic)
    return _d2(a, grid.dy, 0, grid.periodic)


def cumtrapz(y, d, axis):
    """Cumulative trapezoid integral of an array along axis with spacing d,
    0 at the first node, accumulating d * (y[k+1] + y[k]) / 2.0 in order."""
    y = np.swapaxes(y, 0, axis)
    s = np.cumsum(d * (y[1:] + y[:-1]) / 2.0, axis=0)
    return np.concatenate([np.zeros((1,) + s.shape[1:], s.dtype), s]).swapaxes(0, axis)


def project_sphere(v, n):
    """(..., 3) vectors v divided by their norms n, refusing near-zero norms."""
    if n.min() < NORM_FLOOR:
        j, i = np.unravel_index(np.argmin(n), n.shape)
        raise NearZeroNorm(int(i), int(j), float(n[j, i]))
    return v / n[..., None]
