"""Tangent-vector synthesis, compatibility residuals, and surface reconstruction.

The central object is a ten-coefficient linear combination

    r_x = a1 S^S_x + a2 S^S_y + a3 S_x + a4 S_y + a5 S
    r_y = b1 S^S_x + b2 S^S_y + b3 S_x + b4 S_y + b5 S

(^ is the cross product) prescribing the tangent planes of an immersed
surface in terms of a unit spin field S. Classical tangent formulas
(Rodrigues, Lelieuvre, Schief) and the named spin models are particular
coefficient choices. Compatibility r_xy = r_yx is checked as a discrete
curl residual, and surfaces are rebuilt by cumulative quadrature.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DegenerateTangent, GridMismatch, NearZeroNorm
from .fields import (NORM_FLOOR, ScalarField, SpinField, VecField, cross, cumtrapz,
                     diff, dot, named_params, norm, triple)

COEFF_NAMES = ("a1", "a2", "a3", "a4", "a5", "b1", "b2", "b3", "b4", "b5")


@dataclass(frozen=True)
class CoefficientSet:
    """The ten tangent-formula coefficients, each a constant or a ScalarField."""

    a1: object = 0.0
    a2: object = 0.0
    a3: object = 0.0
    a4: object = 0.0
    a5: object = 0.0
    b1: object = 0.0
    b2: object = 0.0
    b3: object = 0.0
    b4: object = 0.0
    b5: object = 0.0

    def __post_init__(self):
        for name in COEFF_NAMES:
            c = getattr(self, name)
            if isinstance(c, ScalarField):
                continue
            c = float(c)
            if not np.isfinite(c):
                raise ValueError(f"coefficient {name} is not finite")
            object.__setattr__(self, name, c)

    def value(self, name):
        """Coefficient as a scalar float or an (ny, nx) array."""
        c = getattr(self, name)
        return c.values if isinstance(c, ScalarField) else c

    def deriv(self, name, which):
        """Discrete derivative of a coefficient; constants short-circuit to 0."""
        c = getattr(self, name)
        if isinstance(c, ScalarField):
            return diff(c.values, c.grid, which)
        return 0.0

    def check_grid(self, grid):
        for name in COEFF_NAMES:
            c = getattr(self, name)
            if isinstance(c, ScalarField) and c.grid != grid:
                raise GridMismatch(f"coefficient {name} lives on {c.grid}, "
                                   f"expected {grid}")

    def __add__(self, other):
        def add(name):
            total = self.value(name) + other.value(name)
            varying = [c for c in (getattr(self, name), getattr(other, name))
                       if isinstance(c, ScalarField)]
            return ScalarField(varying[0].grid, total) if varying else total
        return CoefficientSet(**{n: add(n) for n in COEFF_NAMES})


@dataclass(frozen=True)
class SurfaceMesh:
    """Reconstructed positions r(x, y) with implicit quad connectivity."""

    positions: VecField

    @property
    def grid(self):
        return self.positions.grid

    def quad_indices(self):
        """(n_cells, 4) array of 0-based row-major corner indices per cell."""
        nx, ny = self.grid.nx, self.grid.ny
        i, j = np.meshgrid(np.arange(nx - 1), np.arange(ny - 1))
        base = (i + nx * j).ravel()
        return np.stack([base, base + 1, base + 1 + nx, base + nx], axis=1)


@dataclass(frozen=True)
class ResidualReport:
    """Vector and scalar compatibility residuals with their norms."""

    vector_residual: VecField
    scalar_residual: ScalarField
    vector_max: float = field(init=False)
    vector_l2: float = field(init=False)
    scalar_max: float = field(init=False)
    scalar_l2: float = field(init=False)

    def __post_init__(self):
        g = self.vector_residual.grid
        w = g.dx * (g.dy if g.ny > 1 else 1.0)
        vmag = norm(self.vector_residual.values)
        smag = np.abs(self.scalar_residual.values)
        object.__setattr__(self, "vector_max", float(vmag.max()))
        object.__setattr__(self, "vector_l2", float(np.sqrt(w * np.sum(vmag ** 2))))
        object.__setattr__(self, "scalar_max", float(smag.max()))
        object.__setattr__(self, "scalar_l2", float(np.sqrt(w * np.sum(smag ** 2))))


# ---------------------------------------------------------------------------
# classical coefficient embeddings

def classical_coeffs(kind, /, **params):
    """Coefficient sets for the named classical tangent formulas.

    kind: "rodrigues" (rho1, rho2), "lelieuvre" (rho), "schief" (rho, mu),
    "hf", "lle_stationary", "mxiiia" (a1, a2, b1, b2, a3, phi), or
    "mxiiib" (same parameters). Scalar-function parameters may be floats
    or ScalarFields on the working grid (phi only a ScalarField); all are
    required, and `fields.named_params` refuses a missing or unread name.
    """
    kind = kind.lower()

    def need(*names):
        p = named_params(f"the {kind} tangent formula", dict.fromkeys(names), params)
        return [p[n] for n in names]

    if kind == "rodrigues":
        rho1, rho2 = need("rho1", "rho2")
        return CoefficientSet(a3=_neg(rho1), b4=_neg(rho2))
    if kind == "lelieuvre":
        (rho,) = need("rho")
        return CoefficientSet(a1=_neg(rho), b2=rho)
    if kind == "schief":
        rho, mu = need("rho", "mu")
        return CoefficientSet(a1=_neg(rho), b2=rho, a3=mu, b4=mu)
    if kind == "hf":
        need()
        return CoefficientSet(a5=1.0, b1=1.0)
    if kind == "lle_stationary":
        need()
        return CoefficientSet(a2=1.0, b1=-1.0)
    if kind in ("mxiiia", "mxiiib"):
        a1, a2, b1, b2, a3, phi = need("a1", "a2", "b1", "b2", "a3", "phi")
        if not isinstance(phi, ScalarField):
            raise ValueError(f"{kind} coefficients need phi as a ScalarField")
        c = CoefficientSet(a1=a1, a2=a2, b1=b1, b2=b2, a3=a3, b4=a3)
        g = phi.grid
        cx, cy = phi_drift(kind, phi.values, g)
        return replace(c, a5=ScalarField(g, c.deriv("a3", "dx") + cy),
                       b5=ScalarField(g, c.deriv("a3", "dy") - cx))
    raise ValueError(f"unknown coefficient kind {kind!r}")


def phi_drift(kind, phi, g):
    """Coefficients (cx, cy) of the M-XIIIA/B drift cx S_x + cy S_y, from
    the potential array phi: M-XIIIA pairs phi_y S_x + phi_x S_y, M-XIIIB
    phi_x S_x + phi_y S_y."""
    px, py = diff(phi, g, "dx"), diff(phi, g, "dy")
    return (py, px) if kind == "mxiiia" else (px, py)


def _neg(c):
    return replace(c, values=-c.values) if isinstance(c, ScalarField) else -c


# ---------------------------------------------------------------------------
# tangents and compatibility

def mf_tangents(S, c):
    """Tangent fields (r_x, r_y) from a spin/normal field and coefficients.

    Derivatives of S are discrete; y-derivatives are evaluated only when a
    coefficient multiplying them is nonzero, so 1-D grids work for purely
    x-type coefficient sets.
    """
    g = S.grid
    c.check_grid(g)
    s = S.values

    def zero(name):         # the constant 0, whose terms are left out
        v = c.value(name)
        return np.isscalar(v) and v == 0.0

    sx = diff(s, g, "dx")
    sy = np.zeros_like(s) if all(map(zero, ("a2", "a4", "b2", "b4"))) else diff(s, g, "dy")
    s_sx = cross(s, sx)
    s_sy = cross(s, sy)

    def side(c1, c2, c3, c4, c5):
        out = np.zeros_like(s)
        for coeff, term in ((c1, s_sx), (c2, s_sy), (c3, sx), (c4, sy), (c5, s)):
            if not zero(coeff):
                out += c.value(coeff) * term
        return out

    r_x = VecField(g, side("a1", "a2", "a3", "a4", "a5"))
    r_y = VecField(g, side("b1", "b2", "b3", "b4", "b5"))
    return r_x, r_y


def n_system_residual(N, c):
    """Compatibility residual of the tangent formulas for a field N.

    The vector residual is the discrete curl dy(r_x) - dx(r_y) of the
    assembled tangent fields, which is the fully expanded compatibility
    condition evaluated with the same stencils as everything else. The
    scalar residual is the solvability relation for the a5/b5 pair: for a
    unit spin field

        (b5_x - a5_y) - [(a1+b2) S.(S_y^S_x) + S.((a3-b4) S_xy
                         + a4 S_yy - b3 S_xx)]

    and for a general N the same bracket with the additional N.N_x, N.N_y
    terms, divided by N.N; a node with |N| < NORM_FLOOR raises NearZeroNorm,
    as `project_sphere` refuses it.
    """
    g = N.grid
    c.check_grid(g)
    r_x, r_y = mf_tangents(N, c)
    vec = VecField(g, diff(r_x.values, g, "dy") - diff(r_y.values, g, "dx"))

    n = N.values
    nx, ny, nxx, nyy, nxy = (diff(n, g, w) for w in ("dx", "dy", "dxx", "dyy", "dxy"))

    bracket = ((c.value("a1") + c.value("b2")) * triple(n, ny, nx)
               + dot(n, c.value("a3") * nxy - c.value("b4") * nxy
                     + c.value("a4") * nyy - c.value("b3") * nxx))
    if not isinstance(N, SpinField):
        nn = dot(n, n)
        small = np.sqrt(nn) < NORM_FLOOR     # |N|, bit for bit norm(n)
        if small.any():
            j, i = np.unravel_index(np.argmax(small), nn.shape)
            raise NearZeroNorm(int(i), int(j), float(np.sqrt(nn[j, i])))
        extra = ((c.deriv("a3", "dy") - c.value("b5") - c.deriv("b3", "dx")) * dot(n, nx)
                 + (c.value("a5") + c.deriv("a4", "dy") - c.deriv("b4", "dx")) * dot(n, ny))
        bracket = (bracket + extra) / nn

    lhs = (c.deriv("b5", "dx") - c.deriv("a5", "dy")) * np.ones((g.ny, g.nx))
    scal = ScalarField(g, lhs - bracket)
    return ResidualReport(vec, scal)


# ---------------------------------------------------------------------------
# surface reconstruction

def reconstruct_surface(S, c, base=(0.0, 0.0, 0.0)):
    """Integrate the tangent fields to positions r(x, y).

    Sweep A runs cumulative trapezoid quadrature of r_x along the row
    j = 0, then of r_y up each column; sweep B does columns first. The
    returned mesh is sweep A; the maximum node distance between the two
    sweeps (path_mismatch) measures how far the tangents are from
    compatible.
    """
    g = S.grid
    if g.ny < 2:
        raise ValueError("surface reconstruction needs ny >= 2")
    r_x, r_y = mf_tangents(S, c)
    base = np.asarray(base, dtype=float).reshape(3, 1, 1)

    ix = cumtrapz(r_x.values, g.dx, -1)
    iy = cumtrapz(r_y.values, g.dy, -2)

    r_a = base + ix[:, 0:1, :] + iy          # row j=0 first, then columns
    r_b = base + iy[:, :, 0:1] + ix          # column i=0 first, then rows

    mismatch = float(norm(r_a - r_b).max())
    return SurfaceMesh(VecField(g, r_a)), mismatch


def unit_normal(mesh):
    """Discrete unit normal r_x ^ r_y / |r_x ^ r_y| of a surface mesh."""
    r, g = mesh.positions.values, mesh.grid
    n = cross(diff(r, g, "dx"), diff(r, g, "dy"))
    mag = norm(n)
    if mag.min() < 1e-10:
        j, i = np.unravel_index(np.argmin(mag), mag.shape)
        raise DegenerateTangent(int(i), int(j))
    return VecField(g, n / mag)
