"""Right-hand sides and stationary residuals for the named spin systems.

Covers the isotropic Heisenberg ferromagnet (HF), the 2+1-D
Landau-Lifshitz equation (LLE), the M-XIII family (plain, A, and B
variants, the latter two carrying an auxiliary potential phi), and the
stationary Ishimori equation, whose vector part is M-XIIIA's flow at
(a1, a2, b1, b2) = (0, alpha^2, -1, 0). All right-hand sides are tangent
to the sphere up to the discrete S.S_x = O(h^2) identity. HF and LLE are
`fields.wedge_lap`; M-XIII's flows cross S with `diff`'s second differences.

Each formula is written once, on plain (3, ny, nx) spin arrays with the
grid passed explicitly; `section_flow` wires them into the flows that
`evolve` steps, and `stationary_residual` runs the same functions (the
M-XIII family's `_system` with phi given), bit for bit. Each right-hand
side takes an optional `work` (a `fields.Scratch` for its temporaries and
kernel plans) and `out`; without them it allocates, on the same code path.
A flow is handed the run's Scratch, so a step after the first binds no plan
and allocates no grid-sized array (but M-XIIIA/B's potential). Section
models read named parameters; `mxiii_terms` maps M-XIII's once per run.
"""

import numpy as np

from .errors import GridMismatch, GridTooSmall
from .fields import (CLAMPED, PERIODIC, ScalarField, Scratch, VecField, _bind_cross, _bind_diff,
                     _bind_wedge, diff, named_params, triple)
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


def hf_rhs(s, g, work=None, out=None):
    """S ^ S_xx: the HF flow of a 1-D-in-x spin array, into out (not s) when
    given. work, a `Scratch`, keeps the `wedge_lap` plan for s and out (and,
    without out, its result array) from call to call."""
    w = Scratch() if work is None else work
    return w.plan(_bind_wedge, s, out, w["t", s.shape], g, False)()


def lle_rhs(s, g, work=None, out=None):
    """S ^ (S_xx + S_yy): the 2+1-D Landau-Lifshitz flow; work and out as for
    hf_rhs."""
    if g.is_1d:
        raise GridTooSmall("the 2+1-D Landau-Lifshitz flow needs a 2-D grid")
    w = Scratch() if work is None else work
    return w.plan(_bind_wedge, s, out, w["t", s.shape], g, True)()


def _flow(s, g, sx, drift, a1, a2, b1, b2, w, out):
    """S ^ [a2 S_yy + (a1 - b2) S_xy - b1 S_xx] + c1 v1 + c2 v2, the M-XIII
    family's wedge core plus its drift ((c1, v1), (c2, v2)). S_xy is the
    y-difference of sx, which must be S_x; w is a `Scratch`, out as for hf_rhs."""
    t, inner, sxy = w["t", s.shape], w["inner", s.shape], w["sxy", s.shape]
    np.multiply(a2, w.plan(_bind_diff, s, inner, t, g, "dyy")(), out=inner)
    w.plan(_bind_diff, sx, sxy, None, g, "dy")()
    inner += np.multiply(a1, sxy, out=t)
    inner -= np.multiply(b2, sxy, out=t)
    inner -= np.multiply(b1, w.plan(_bind_diff, s, sxy, t, g, "dxx")(), out=sxy)
    out = w.plan(_bind_cross, s, inner, out)()
    for c, v in drift:
        out += np.multiply(c, v, out=t)
    return out


def mxiii_terms(params, g):
    """M-XIII's named parameters as its tangent coefficients (b4 = a3, b3 =
    a4 = 0), checked on grid g, reduced to ((a1, a2, b1, b2), (a3_y - b5,
    a5 - a3_x), a5_y - b5_x): the flow's coefficients, its drift coefficients
    of S_x and S_y, and the constraint's part, each a float or (ny, nx) array."""
    p = named_params("mxiii", SECTION_PARAMS["mxiii"], params)
    c = CoefficientSet(b4=p["a3"], **p)
    c.check_grid(g)
    return (tuple(c.value(n) for n in ("a1", "a2", "b1", "b2")),
            (c.deriv("a3", "dy") - c.value("b5"), c.value("a5") - c.deriv("a3", "dx")),
            c.deriv("a5", "dy") - c.deriv("b5", "dx"))


def mxiii_constraint(s, g, sx, sy, terms):
    """(a5_y - b5_x) - (a1 + b2) S.(S_x ^ S_y) on the grid, from S, its first
    differences and `mxiii_terms`: the M-XIII coefficient constraint."""
    (a1, _, _, b2), _, curl = terms
    return (curl - (a1 + b2) * triple(s, sx, sy)) * np.ones((g.ny, g.nx))


def mxiii_rhs(s, g, terms, work=None, out=None):
    """M-XIII flow from `mxiii_terms`; work and out as for hf_rhs. The flow
    is supposed to keep `mxiii_constraint` small; it is monitored, never
    enforced."""
    return _system("mxiii", s, g, terms[0], terms[1], work, out)[0]


def _source(kind, s, sx, sy, coeffs):
    """f (a1 + b2) S.(S_x ^ S_y), the right side of phi's equation for
    M-XIIIA (f = 1/2) or M-XIIIB (f = 1), from S, its first differences and
    the flow's coefficients (a1, a2, b1, b2)."""
    a1, _, _, b2 = coeffs
    return (0.5 * (a1 + b2) if kind == "mxiiia" else a1 + b2) * triple(s, sx, sy)


def mxiii_potential(kind, s, g, sx, sy, coeffs):
    """The potential phi of M-XIIIA (kind "mxiiia") or M-XIIIB (kind
    "mxiiib"), from S, its first differences and the flow's coefficients;
    see `mxiiia_system` and `mxiiib_system` for the equations it solves."""
    src = _source(kind, s, sx, sy, coeffs)
    if kind == "mxiiia":
        return mixed_integrate(src, g)
    return poisson_solve(src - src.mean(), g)


def _system(kind, s, g, coeffs, drift, work, out, phi=None):
    """The M-XIII family's flow and its potential phi, None for M-XIII, whose
    drift coefficients of S_x and S_y are drift; for A/B, phi's `phi_drift`,
    phi solved from S unless given. S_x and S_y stay in work's "sx", "sy"."""
    w = Scratch() if work is None else work
    sx = w.plan(_bind_diff, s, w["sx", s.shape], None, g, "dx")()
    sy = w.plan(_bind_diff, s, w["sy", s.shape], None, g, "dy")()
    if kind != "mxiii" and phi is None:
        phi = mxiii_potential(kind, s, g, sx, sy, coeffs)
    cx, cy = drift if phi is None else phi_drift(kind, phi, g)
    return _flow(s, g, sx, ((cx, sx), (cy, sy)), *coeffs, w, out), phi


def mxiiia_system(s, g, a1, a2, b1, b2, work=None, out=None):
    """M-XIIIA right-hand side with its potential; work and out as for hf_rhs.

    phi solves phi_xy = ((a1+b2)/2) S.(S_x ^ S_y) by mixed-derivative
    quadrature on a clamped grid, gauged to zero on the seed row and
    column. The flow is

        S ^ [a2 S_yy + (a1-b2) S_xy - b1 S_xx] + phi_y S_x + phi_x S_y.
    """
    return _system("mxiiia", s, g, (a1, a2, b1, b2), None, work, out)


def mxiiib_system(s, g, a1, a2, b1, b2, work=None, out=None):
    """M-XIIIB right-hand side with its potential; work and out as for hf_rhs.

    phi solves phi_xx + phi_yy = (a1+b2) S.(S_x ^ S_y) on a periodic grid
    in the zero-mean gauge. The discrete source mean (a quadrature leftover
    of the degree integral, O(h^2) for degree-zero fields) is projected out
    so the periodic solvability condition holds to machine precision. The
    flow is

        S ^ [a2 S_yy + (a1-b2) S_xy - b1 S_xx] + phi_x S_x + phi_y S_y.
    """
    return _system("mxiiib", s, g, (a1, a2, b1, b2), None, work, out)


def _rhs(kind):
    """The right-hand side a section model steps; the table is built per call,
    so names rebound on this module (as a tracer rebinds them) are the ones used."""
    return {"hf": hf_rhs, "lle": lle_rhs, "mxiii": mxiii_rhs,
            "mxiiia": mxiiia_system, "mxiiib": mxiiib_system}[kind]


def section_flow(kind, grid, params=None):
    """A section model's rhs(st, k, work=None), the State st's spin derivative
    into k's with work's plans (a fresh Scratch when None), and its monitor,
    st -> (fields, diagnostics) per snapshot: None for hf/lle, mxiii's
    constraint residual, mxiiia/b's phi. params: `SECTION_PARAMS[kind]`'s names."""
    if kind in STATIONARY_ONLY:
        raise ValueError(f"{kind} is stationary, with no flow; use check --model {kind}")
    need = {"mxiiia": CLAMPED, "mxiiib": PERIODIC}.get(kind, grid.boundary)
    if grid.boundary != need:
        raise ValueError(f"{kind} solves for its potential on a {need} grid, not {grid.boundary}")
    p = named_params(kind, SECTION_PARAMS[kind], params)
    flow, args, monitor = _rhs(kind), (), None
    if kind not in ("hf", "lle"):
        terms = mxiii_terms(p, grid)        # once per run
        args = (terms,) if kind == "mxiii" else terms[0]

        def monitor(st):
            s = st["S"]
            sx, sy = diff(s, grid, "dx"), diff(s, grid, "dy")
            if kind == "mxiii":
                residual = np.abs(mxiii_constraint(s, grid, sx, sy, terms)).max()
                return {}, {"constraint_residual": float(residual)}
            return {"phi": ScalarField(grid, mxiii_potential(kind, s, grid, sx, sy, terms[0]))}, {}

    return (lambda st, k, work=None: flow(st["S"], grid, *args, work, k["S"])), monitor


def stationary_residual(kind, S, phi=None, params=None):
    """Residual of the stationary form of a named spin system.

    kind: one of `STATIONARY_KINDS`; params as `section_flow` takes them
    (ishimori needs alpha != 0); the `PHI_KINDS` need the
    potential phi, on S's grid. A parameter or phi the kind does not read
    raises ValueError. The vector part is the stationary equation's
    left-hand side; the scalar part is the potential/coefficient constraint
    written as LHS - RHS.
    """
    kind = kind.lower()
    if kind not in STATIONARY_KINDS:
        raise ValueError(f"unknown stationary kind {kind!r}")
    p = named_params(kind, SECTION_PARAMS[kind], params)
    g, s = S.grid, S.values
    if (phi is None) == (kind in PHI_KINDS):
        raise ValueError(f"{kind} stationary residual needs a potential phi"
                         if phi is None else f"{kind} reads no potential phi")
    if phi is not None and phi.grid != g:
        raise GridMismatch(f"phi lives on {phi.grid}, the spin field on {g}")
    if kind in ("hf", "lle"):       # no scalar part
        zeros = ScalarField(g, np.zeros((g.ny, g.nx)))
        return ResidualReport(VecField(g, _rhs(kind)(s, g)), zeros)
    if kind == "ishimori":
        if not p["alpha"]:
            raise ValueError("ishimori stationary residual needs an alpha != 0")
        alpha2 = p["alpha"] * p["alpha"]      # inf on overflow, where ** 2 raises
        coeffs, drift = (0.0, alpha2, -1.0, 0.0), None      # M-XIIIA's row
    else:
        terms = mxiii_terms(p, g)
        coeffs, drift = terms[:2]
    w, phi = Scratch(), None if phi is None else phi.values
    vec, _ = _system("mxiiia" if kind == "ishimori" else kind, s, g, coeffs, drift, w, None, phi)
    sx, sy = w["sx", s.shape], w["sy", s.shape]
    if kind == "mxiii":
        scal = mxiii_constraint(s, g, sx, sy, terms)
    elif kind == "ishimori":
        scal = alpha2 * diff(phi, g, "dyy") - diff(phi, g, "dxx") - alpha2 * triple(s, sx, sy)
    elif kind == "mxiiia":
        scal = diff(phi, g, "dxy") - _source(kind, s, sx, sy, coeffs)
    else:
        scal = diff(phi, g, "dxx") + diff(phi, g, "dyy") - _source(kind, s, sx, sy, coeffs)
    return ResidualReport(VecField(g, vec), ScalarField(g, scal))
