"""Grids, scalar/vector fields, and second-order finite-difference calculus.

Fields live on uniform 2-D grids (ny = 1 degenerates to 1-D). Node (i, j)
maps to flat index i + nx*j in C order; scalars are (ny, nx) arrays and
vectors (3, ny, nx), components first, so x is axis -1 and y axis -2 for
both and a (ny, nx) coefficient broadcasts against a vector as it is. All
field objects are immutable after construction: a field holds a read-only
copy of a writeable array it is given, so the caller's array stays
writeable and the field does not change with it.

The stencils difference the C-order flat array at a fixed offset, so every
axis is one contiguous pass. `_bind_wedge`, S ^ S_xx (HF, catalog families
A, B, E) or S ^ (S_xx + S_yy) (LLE), sums neighbours instead: S ^ S drops
the stencil's -2 S. Each kernel has a binder, `_bind_<kernel>`, that makes
its views (flat slices, end slabs, component rows) and buffers once and
returns a `_runner` replaying its ufunc calls. Buffers are chosen only at
binding: a flow's binder (`models.section_flow`,
`magnetoelastic.catalog_flow`) binds its kernels into its own arrays once
per run, so no RK4 stage rebuilds a view, while `diff`, `cross` and `dot`
bind, run once and return a new array. `norm` and `project_sphere` take
`out=`, which `evolve` hands them at every step.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import GridTooSmall, NearZeroNorm, NonFiniteResult

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
    if a is values and a.flags.writeable:
        a = a.copy()            # freeze a copy, never the caller's array
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
                           _frozen_array(self.values, (3, self.grid.ny, self.grid.nx)))


class SpinField(VecField):
    """VecField whose vectors are unit length at every node."""

    def __post_init__(self):
        super().__post_init__()
        if not is_unit(self.values):
            raise ValueError(f"spin field is not unit norm to {SPIN_NORM_TOL}")


def is_unit(a):
    """Whether every vector of a (3, ...) array has length 1 to SPIN_NORM_TOL."""
    return np.abs(norm(a) - 1.0).max() <= SPIN_NORM_TOL


def constant_field(grid, value):
    """ScalarField (scalar value) or VecField (3-vector value) of constants."""
    value = np.asarray(value, dtype=float)
    if value.ndim == 0:
        return ScalarField(grid, np.full((grid.ny, grid.nx), float(value)))
    return VecField(grid, np.broadcast_to(value.reshape(3, 1, 1), (3, grid.ny, grid.nx)).copy())


def named_params(owner, table, given=None):
    """table (each name owner reads -> its default, None if required) updated
    with given; a name table lacks, or a required one left out, raises ValueError."""
    params, unread = {**table, **(given or {})}, sorted(set(given or {}) - set(table))
    missing = [k for k, v in params.items() if v is None]
    if unread or missing:
        raise ValueError(f"{owner} reads only {list(table)}, not {unread}" if unread
                         else f"{owner} needs {missing}")
    return params


def _runner(calls, result=None):
    """A kernel bound to its arrays: it makes the (function, args) calls in
    order and returns result."""
    def run():
        for f, args in calls:
            f(*args)
        return result
    return run


# ---------------------------------------------------------------------------
# vector algebra (on components-first (3, ...) arrays)

def _bind_cross(a, b, out=None):
    a, b = np.asarray(a), np.asarray(b)
    if out is None:
        out = np.empty(a.shape if a.shape == b.shape else np.broadcast_shapes(a.shape, b.shape))
    (a0, a1, a2), (b0, b1, b2), calls = a, b, []
    p = np.empty(out[0, ...].shape)                     # one product row
    for i, x, y, u, v in ((0, a1, b2, a2, b1), (1, a2, b0, a0, b2), (2, a0, b1, a1, b0)):
        o = out[i, ...]                                 # an array even for 3-vectors
        calls += [(np.multiply, (x, y, o)), (np.multiply, (u, v, p)), (np.subtract, (o, p, o))]
    return _runner(calls, out)


def cross(a, b):
    """Right-handed cross product on (3, ...) arrays."""
    return _bind_cross(a, b)()


def _bind_dot(a, b, out=None):
    p = np.empty(np.broadcast_shapes(np.shape(a), np.shape(b)))
    out = np.empty(p.shape[1:]) if out is None else out
    p0, p1, p2 = (p[i, ...] for i in range(3))         # arrays even for 3-vectors
    return _runner([(np.multiply, (a, b, p)), (np.add, (p0, p1, out)), (np.add, (out, p2, out))],
                   out)


def dot(a, b):
    """Dot product on (3, ...) arrays, summed left to right like numpy's
    length-3 reduction: bit for bit np.sum(a * b, 0), without its overhead
    (a NumPy scalar for two 3-vectors)."""
    return _bind_dot(a, b)()[()]


def triple(a, b, c):
    """Scalar triple product a . (b x c)."""
    return dot(a, cross(b, c))


def norm(a, out=None, sq=None):
    """Length of (3, ...) vectors, into out (shaped like a[0]) when given, with
    the squares in sq (shaped like a) when given; bit for bit
    np.linalg.norm(a, axis=0): squares summed left to right."""
    sq = np.multiply(a, a, out=sq)
    return np.sqrt(np.add.reduce(sq, axis=0, out=out), out=out)


# ---------------------------------------------------------------------------
# finite differences
#
# The stencils act on plain arrays of any shape and dtype. Along `axis`,
# neighbours sit k = out.strides[axis] / out.itemsize apart in the C-order
# flat array: one pass at offset k differences any axis with contiguous reads
# and writes. It also fills lanes that straddle the ends of the axis (garbage
# from unrelated nodes, finite below magnitudes of about 8.9e307) until the
# end slabs overwrite them. A binder takes its end slabs from the axis-first
# views v = a.swapaxes(axis, 0), where v[0] is node 0; a clamped end
# formula is written once, for node 0, and reaches node n-1 as node 0 of the
# reversed view v[::-1], where a first difference changes sign and a second
# difference does not. Difference-of-neighbours form makes constant fields
# differentiate to exactly zero. A binder's `out` receives the result and
# `tmp`, shaped like the input, the second difference's forward differences;
# each is allocated at binding when None, must be C-contiguous (a flat view
# of any other array is a copy, and the result would be lost), and may not
# overlap the input, except that `_bind_d2` may write out over its own input.

def _end_d1(o, f, s):
    """o[0] = s (-3 f0 + 4 f1 - f2), s = -1 on a reversed axis. The sign goes
    on each difference, as 4s (f1 - f0) - s (f2 - f0), so that a zero result
    keeps the sign of the unreversed form unless the input mixes -0 and +0."""
    o[0] = 4.0 * s * (f[1] - f[0]) - s * (f[2] - f[0])


def _end_d2(o, d):      # o[0] = 2f0 - 5f1 + 4f2 - f3 from forward differences d = f[1:4] - f[:3]
    o[0] = -2.0 * d[0] + 3.0 * d[1] - d[2]


def _d2_nodes(n, periodic):
    """n, the nodes on an axis that a second difference takes, refused when
    too few."""
    if n < 3:
        raise GridTooSmall("second derivative needs at least 3 nodes")
    if not periodic and n < 4:
        raise GridTooSmall("clamped second derivative needs at least 4 nodes")
    return n


def _bind_ends_d2(v, ov):
    """The clamped second difference at both ends of axis 0 of v, into ov:
    the calls taking each end's forward differences, which read v before
    anything writes ov (which may be v), and the calls, after the flat pass,
    combining them into ov."""
    ends = [(f, o, np.empty(f[:3].shape, f.dtype)) for f, o in ((v, ov), (v[::-1], ov[::-1]))]
    return ([(np.subtract, (f[1:4], f[:3], d)) for f, _, d in ends],
            [(_end_d2, (o, d)) for _, o, d in ends])


def _bind_d1(a, out, h, axis, periodic):
    n = a.shape[axis]
    if n < 3:
        raise GridTooSmall("first derivative needs at least 3 nodes")
    out = np.empty(a.shape, a.dtype) if out is None else out
    if not out.flags.c_contiguous:
        raise ValueError("out must be a C-contiguous array")
    xf, of, k = a.ravel(), out.ravel(), out.strides[axis] // out.itemsize
    v, ov = a.swapaxes(axis, 0), out.swapaxes(axis, 0)
    calls = [(np.subtract, (xf[2 * k:], xf[:-2 * k], of[k:-k]))]
    if periodic:        # out[0] = x[1] - x[n-1], out[n-1] = x[0] - x[n-2]
        calls.append((np.subtract, (v[1::-1], v[-1:-3:-1], ov[::n - 1])))
    else:
        calls += [(_end_d1, (ov, v, 1.0)), (_end_d1, (ov[::-1], v[::-1], -1.0))]
    return _runner(calls + [(np.divide, (out, 2.0 * h, out))], out)


def _d1(a, h, axis, periodic):
    return _bind_d1(a, None, h, axis, periodic)()


def _bind_d2(a, out, tmp, h, axis, periodic):
    n = _d2_nodes(a.shape[axis], periodic)
    tmp = np.empty(a.shape, a.dtype) if tmp is None else tmp
    out = np.empty(a.shape, a.dtype) if out is None else out
    if not (out.flags.c_contiguous and tmp.flags.c_contiguous):
        raise ValueError("out and tmp must be C-contiguous arrays")
    xf, df, of, k = a.ravel(), tmp.ravel(), out.ravel(), out.strides[axis] // out.itemsize
    v, ov, dv = (b.swapaxes(axis, 0) for b in (a, out, tmp))
    # forward differences d[i] = x[i+1] - x[i] in tmp, wrapping to d[n-1] =
    # x[0] - x[n-1] when periodic (clamped, the last slab of tmp is never
    # set, and the ends take their own); every read of the input comes
    # before the first write to out; then the stencil d[i] - d[i-1], and
    # when periodic out[0] = d[0] - d[n-1], out[n-1] = d[n-1] - d[n-2]
    ends, last = (([(np.subtract, (v[0], v[-1], dv[-1, ...]))],
                   [(np.subtract, (dv[::n - 1], dv[-1:-3:-1], ov[::n - 1]))]) if periodic
                  else _bind_ends_d2(v, ov))
    calls = ([(np.subtract, (xf[k:], xf[:-k], df[:-k]))] + ends
             + [(np.subtract, (df[k:-k], df[:-2 * k], of[k:-k]))] + last)
    return _runner(calls + [(np.divide, (out, h * h, out))], out)


def _d2(a, h, axis, periodic):
    return _bind_d2(a, None, None, h, axis, periodic)()


def _bind_sum(s, axis, periodic, out):
    """S_{i+1} + S_{i-1} along axis -1 (x) or -2 (y) of a (3, ..., nx) array s,
    into out (C-contiguous, not s); the ends, written over the flat pass's
    lanes across rows, wrap or hold `_d2`'s one-sided 2 S_0 - 5 S_1 + 4 S_2 - S_3."""
    n, sf, k = _d2_nodes(s.shape[axis], periodic), s.ravel(), 1 if axis == -1 else s.shape[-1]
    v, ov = s.swapaxes(axis, 0), out.swapaxes(axis, 0)
    ends, last = (([], [(np.add, (v[1::-1], v[-1:-3:-1], ov[::n - 1]))]) if periodic
                  else _bind_ends_d2(v, ov))
    return _runner(ends + [(np.add, (sf[2 * k:], sf[:-2 * k], out.ravel()[k:-k]))] + last)


def _bind_wedge(s, out, grid, y):
    """S ^ S_xx of a (3, ..., nx) array s, or S ^ (S_xx + S_yy) when y, into
    out (not s; made here when None), with the neighbour sums in an array
    like s made here. As S ^ S = 0, an axis takes S_i ^ (S_{i+1} + S_{i-1});
    axes sharing a spacing h add their sums, cross once and divide once by
    h^2. Crossing before dividing keeps constant fields exactly 0, so dx !=
    dy takes two cross products, y's into a temporary like s."""
    if y and s.shape[-2] < 3:
        raise GridTooSmall("y-derivatives need ny >= 3")
    tmp, out = np.empty(s.shape), (np.empty(s.shape) if out is None else out)
    calls = [(_bind_sum(s, -1, grid.periodic, tmp), ())]
    if y and grid.dx == grid.dy:
        calls += [(_bind_sum(s, -2, grid.periodic, out), ()), (np.add, (tmp, out, tmp))]
    calls += [(_bind_cross(s, tmp, out), ()), (np.divide, (out, grid.dx * grid.dx, out))]
    if y and grid.dx != grid.dy:            # y's cross product into a temporary c
        c = np.empty(s.shape)
        calls += [(_bind_sum(s, -2, grid.periodic, tmp), ()), (_bind_cross(s, tmp, c), ()),
                  (np.divide, (c, grid.dy * grid.dy, c)), (np.add, (out, c, out))]
    return _runner(calls, out)


def _bind_diff(a, out, tmp, grid, which):
    if which == "dx":
        return _bind_d1(a, out, grid.dx, -1, grid.periodic)
    if which == "dxx":
        return _bind_d2(a, out, tmp, grid.dx, -1, grid.periodic)
    if which in ("dxy", "dxxxx"):       # dy(dx(a)) through a temporary, dxx(dxx(a)) in out
        if which == "dxxxx" and grid.nx < 5:
            raise GridTooSmall("fourth derivative needs nx >= 5")
        out = np.empty(a.shape, a.dtype) if out is None else out
        mid = np.empty(a.shape, a.dtype) if which == "dxy" else out
        return _runner([(_bind_diff(a, mid, tmp, grid, "dx" if which == "dxy" else "dxx"), ()),
                        (_bind_diff(mid, out, tmp, grid, "dy" if which == "dxy" else "dxx"), ())],
                       out)
    if which not in ("dy", "dyy"):
        raise ValueError(f"unknown derivative {which!r}")
    if grid.is_1d:
        raise GridTooSmall("y-derivative requested on a 1-D grid")
    if grid.ny < 3:
        raise GridTooSmall("y-derivatives need ny >= 3")
    if which == "dy":
        return _bind_d1(a, out, grid.dy, -2, grid.periodic)
    return _bind_d2(a, out, tmp, grid.dy, -2, grid.periodic)


def diff(a, grid, which):
    """Finite difference of a plain (ny, nx) or (3, ny, nx) array, as a new
    array.

    which: one of "dx", "dy", "dxx", "dyy", "dxy", "dxxxx". Periodic grids
    wrap; clamped grids use one-sided second-order stencils at the edges.
    "dxy" is the composition dy(dx(a)), "dxxxx" is dxx(dxx(a)). On periodic
    grids "dxxxx" is exactly the centered 5-point stencil
    (1, -4, 6, -4, 1)/dx^4; clamped grids inherit the one-sided variants.
    Values above about 8.9e307 in magnitude may overflow, with numpy's
    warning, in lanes that the end slabs then overwrite (see the comment
    above `_end_d1`)."""
    return _bind_diff(a, None, None, grid, which)()


def cumtrapz(y, d, axis):
    """Cumulative trapezoid integral of an array along axis with spacing d,
    0 at the first node, accumulating d * (y[k+1] + y[k]) / 2.0 in order."""
    y = np.swapaxes(y, 0, axis)
    s = np.cumsum(d * (y[1:] + y[:-1]) / 2.0, axis=0)
    return np.concatenate([np.zeros((1,) + s.shape[1:], s.dtype), s]).swapaxes(0, axis)


def project_sphere(v, n, out=None):
    """(3, ...) vectors v divided by their norms n, into out (which may be v)
    when given; refuses near-zero norms."""
    if n.min() < NORM_FLOOR:
        j, i = np.unravel_index(np.argmin(n), n.shape)
        raise NearZeroNorm(int(i), int(j), float(n[j, i]))
    return np.divide(v, n, out=out)
