"""Right-hand sides and stationary residuals for the named spin systems.

Covers the isotropic Heisenberg ferromagnet (HF), the 2+1-D
Landau-Lifshitz equation (LLE), the M-XIII family (plain, A, and B
variants, the latter two carrying an auxiliary potential phi), and the
stationary Ishimori equation, whose vector part is M-XIIIA's flow at
(a1, a2, b1, b2) = (0, alpha^2, -1, 0). All right-hand sides are tangent
to the sphere up to the discrete S.S_x = O(h^2) identity.

Each formula is written once, on plain (ny, nx, 3) spin arrays with the
grid passed explicitly; `evolve` calls these functions directly, and the
stationary residuals reuse them.
"""

import numpy as np

from .errors import GridMismatch, GridTooSmall
from .fields import ScalarField, VecField, cmul, cross, diff, triple
from .geometry import CoefficientSet, ResidualReport, phi_drift
from .solvers import mixed_integrate, poisson_solve

# section model -> the parameters its formulas read and their defaults
# (None: no default); M-XIII also has b4 = a3 and b3 = a4 = 0
_AB = {"a1": 1.0, "a2": 1.0, "b1": 1.0, "b2": 1.0}
SECTION_PARAMS = {"hf": {}, "lle": {},
                  "mxiii": {"a1": 0.0, "a2": 1.0, "b1": 0.0, "b2": 0.0, "a3": 0.0,
                            "a5": 0.0, "b5": 0.0},
                  "mxiiia": _AB, "mxiiib": _AB, "ishimori": {"alpha": None}}
STATIONARY_KINDS = tuple(SECTION_PARAMS)
PHI_KINDS = ("mxiiia", "mxiiib", "ishimori")
STATIONARY_ONLY = ("ishimori",)     # no time evolution: check reads it, simulate not


def section_args(kind, params):
    """`stationary_residual`'s coeffs/alpha from a section model's named
    parameters and their defaults; a name it does not read raises ValueError."""
    table = SECTION_PARAMS[kind]
    unread = set(params) - set(table)
    if unread:
        raise ValueError(f"{kind} reads only {list(table)}, not {sorted(unread)}")
    p = {**table, **params}
    if not p or kind == "ishimori":
        return p
    return {"coeffs": CoefficientSet(b4=p.get("a3", 0.0), **p)}


def hf_rhs(s, g):
    """S ^ S_xx: the HF flow of a 1-D-in-x spin array."""
    return cross(s, diff(s, g, "dxx"))


def lle_rhs(s, g):
    """S ^ (S_xx + S_yy): the 2+1-D Landau-Lifshitz flow."""
    if g.is_1d:
        raise GridTooSmall("the 2+1-D Landau-Lifshitz flow needs a 2-D grid")
    return cross(s, diff(s, g, "dxx") + diff(s, g, "dyy"))


def _flow(s, g, sx, sy, cx, cy, a1, a2, b1, b2):
    """S ^ [a2 S_yy + (a1 - b2) S_xy - b1 S_xx] + cx S_x + cy S_y, the M-XIII
    family's wedge core plus its drift."""
    syy = diff(s, g, "dyy")
    sxy = diff(s, g, "dxy")
    inner = (cmul(a2, syy) + cmul(a1, sxy) - cmul(b2, sxy)
             - cmul(b1, diff(s, g, "dxx")))
    return cross(s, inner) + cmul(cx, sx) + cmul(cy, sy)


def mxiii_rhs(s, g, c):
    """M-XIII flow and its coefficient-constraint residual.

    The coefficient set must satisfy b3 = a4 = 0 and b4 = a3. Returns the
    evolution right-hand side and the (ny, nx) array

        (a5_y - b5_x) - (a1 + b2) S.(S_x ^ S_y)

    which the flow is supposed to keep small; it is monitored, never
    enforced.
    """
    c.check_grid(g)
    for name, want in (("b3", 0.0), ("a4", 0.0)):
        if not (c.is_constant(name) and c.value(name) == want):
            raise ValueError(f"M-XIII needs {name} = {want}")
    v3, v4 = c.value("b4"), c.value("a3")
    if not np.all(np.asarray(v3) == np.asarray(v4)):
        raise ValueError("M-XIII needs b4 = a3")

    sx = diff(s, g, "dx")
    sy = diff(s, g, "dy")
    rhs = _flow(s, g, sx, sy, c.deriv("a3", "dy") - c.value("b5"),
                c.value("a5") - c.deriv("a3", "dx"),
                c.value("a1"), c.value("a2"), c.value("b1"), c.value("b2"))
    constraint = (c.deriv("a5", "dy") - c.deriv("b5", "dx")
                  - (c.value("a1") + c.value("b2")) * triple(s, sx, sy))
    return rhs, constraint * np.ones((g.ny, g.nx))


def mxiiia_system(s, g, a1, a2, b1, b2):
    """M-XIIIA right-hand side with its potential.

    phi solves phi_xy = ((a1+b2)/2) S.(S_x ^ S_y) by mixed-derivative
    quadrature on a clamped grid, gauged to zero on the seed row and
    column. The flow is

        S ^ [a2 S_yy + (a1-b2) S_xy - b1 S_xx] + phi_y S_x + phi_x S_y.
    """
    sx = diff(s, g, "dx")
    sy = diff(s, g, "dy")
    phi = mixed_integrate(0.5 * (a1 + b2) * triple(s, sx, sy), g)
    return _flow(s, g, sx, sy, *phi_drift("mxiiia", phi, g), a1, a2, b1, b2), phi


def mxiiib_system(s, g, a1, a2, b1, b2):
    """M-XIIIB right-hand side with its potential.

    phi solves phi_xx + phi_yy = (a1+b2) S.(S_x ^ S_y) on a periodic grid
    in the zero-mean gauge. The discrete source mean (a quadrature leftover
    of the degree integral, O(h^2) for degree-zero fields) is projected out
    so the periodic solvability condition holds to machine precision. The
    flow is

        S ^ [a2 S_yy + (a1-b2) S_xy - b1 S_xx] + phi_x S_x + phi_y S_y.
    """
    sx = diff(s, g, "dx")
    sy = diff(s, g, "dy")
    raw = (a1 + b2) * triple(s, sx, sy)
    phi = poisson_solve(raw - raw.mean(), g)
    return _flow(s, g, sx, sy, *phi_drift("mxiiib", phi, g), a1, a2, b1, b2), phi


def stationary_residual(kind, S, phi=None, coeffs=None, alpha=None):
    """Residual of the stationary form of a named spin system.

    kind: "hf", "lle", "mxiii" (needs coeffs), "mxiiia"/"mxiiib" (need
    coeffs for a1, a2, b1, b2 and the potential phi), or "ishimori"
    (needs phi and alpha != 0); `section_args` builds coeffs and alpha
    from named parameters, and phi must live on S's grid. The vector part
    is the stationary equation's left-hand side; the scalar part is the
    potential/coefficient constraint written as LHS - RHS.
    """
    kind = kind.lower()
    if kind not in STATIONARY_KINDS:
        raise ValueError(f"unknown stationary kind {kind!r}")
    g, s = S.grid, S.values
    if phi is not None and phi.grid != g:
        raise GridMismatch(f"phi lives on {phi.grid}, the spin field on {g}")
    flow = {"hf": hf_rhs, "lle": lle_rhs}.get(kind)
    if flow is not None:        # no scalar part
        zeros = ScalarField(g, np.zeros((g.ny, g.nx)))
        return ResidualReport(VecField(g, flow(s, g)), zeros)
    if kind == "mxiii":
        if coeffs is None:
            raise ValueError("mxiii stationary residual needs a coefficient set")
        rhs, constraint = mxiii_rhs(s, g, coeffs)
        return ResidualReport(VecField(g, rhs), ScalarField(g, constraint))

    sx = diff(s, g, "dx")
    sy = diff(s, g, "dy")
    trip = triple(s, sx, sy)

    if kind == "ishimori":
        if phi is None or alpha is None:
            raise ValueError("ishimori stationary residual needs phi and alpha")
        if alpha == 0:
            raise ValueError("ishimori anisotropy alpha must be nonzero")
        alpha2 = alpha * alpha      # inf on overflow, where alpha ** 2 raises
        p = phi.values
        # M-XIIIA's flow at (0, alpha^2, -1, 0), its drift summed as phi_x S_y + phi_y S_x
        vec = _flow(s, g, sy, sx, diff(p, g, "dx"), diff(p, g, "dy"),
                    0.0, alpha2, -1.0, 0.0)
        scal = (alpha2 * diff(p, g, "dyy") - diff(p, g, "dxx")
                - alpha2 * trip)
        return ResidualReport(VecField(g, vec), ScalarField(g, scal))

    if coeffs is None or phi is None:
        raise ValueError(f"{kind} stationary residual needs coeffs and phi")
    a1, a2 = coeffs.value("a1"), coeffs.value("a2")
    b1, b2 = coeffs.value("b1"), coeffs.value("b2")
    vec = _flow(s, g, sx, sy, *phi_drift(kind, phi.values, g), a1, a2, b1, b2)
    if kind == "mxiiia":
        scal = diff(phi.values, g, "dxy") - 0.5 * (a1 + b2) * trip
    else:
        scal = (diff(phi.values, g, "dxx") + diff(phi.values, g, "dyy")
                - (a1 + b2) * trip)
    return ResidualReport(VecField(g, vec), ScalarField(g, scal))
