"""Right-hand sides and stationary residuals for the named spin systems.

Covers the isotropic Heisenberg ferromagnet (HF), the 2+1-D
Landau-Lifshitz equation (LLE), the M-XIII family (plain, A, and B
variants, the latter two carrying an auxiliary potential phi), and the
stationary Ishimori equation, whose vector part is M-XIIIA's flow at
(a1, a2, b1, b2) = (0, alpha^2, -1, 0). All right-hand sides are tangent
to the sphere up to the discrete S.S_x = O(h^2) identity.

Each formula is written once, on plain (3, ny, nx) spin arrays with the
grid passed explicitly; `section_flow` wires them into the flows that
`evolve` steps, and the stationary residuals reuse them. Each right-hand
side takes an optional `work` (a `fields.Scratch` for its temporaries) and
`out` (for its result); without them it allocates, on the same code path,
and with them a flow's step after the first allocates no grid-sized array
(M-XIIIA/B still allocate their potential's solve). Section models read
named parameters (`named_params`); `mxiii_terms` maps M-XIII's once per run.
"""

import numpy as np

from .errors import GridMismatch, GridTooSmall
from .fields import ScalarField, Scratch, VecField, cross, diff, named_params, triple
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
    """S ^ S_xx: the HF flow of a 1-D-in-x spin array, into out (not s) when given.
    work, a `Scratch`, holds the temporaries from call to call."""
    w = Scratch() if work is None else work
    sxx = diff(s, g, "dxx", out=w["sxx", s.shape], tmp=w["t", s.shape])
    return cross(s, sxx, out=out)


def lle_rhs(s, g, work=None, out=None):
    """S ^ (S_xx + S_yy): the 2+1-D Landau-Lifshitz flow; work and out as for
    hf_rhs."""
    if g.is_1d:
        raise GridTooSmall("the 2+1-D Landau-Lifshitz flow needs a 2-D grid")
    w = Scratch() if work is None else work
    lap = diff(s, g, "dxx", out=w["sxx", s.shape], tmp=w["t", s.shape])
    lap += diff(s, g, "dyy", out=w["syy", s.shape], tmp=w["t", s.shape])
    return cross(s, lap, out=out)


def _flow(s, g, sx, drift, a1, a2, b1, b2, work=None, out=None):
    """S ^ [a2 S_yy + (a1 - b2) S_xy - b1 S_xx] + c1 v1 + c2 v2, the M-XIII
    family's wedge core plus its drift ((c1, v1), (c2, v2)). S_xy is the
    y-difference of sx, which must be S_x; work and out as for hf_rhs."""
    w = Scratch() if work is None else work
    t, inner, sxy = w["t", s.shape], w["inner", s.shape], w["sxy", s.shape]
    np.multiply(a2, diff(s, g, "dyy", out=inner, tmp=t), out=inner)
    diff(sx, g, "dy", out=sxy)
    inner += np.multiply(a1, sxy, out=t)
    inner -= np.multiply(b2, sxy, out=t)
    inner -= np.multiply(b1, diff(s, g, "dxx", out=sxy, tmp=t), out=sxy)
    out = cross(s, inner, out=out)
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


def mxiii_potential(kind, s, g, sx, sy, a1, b2):
    """The potential phi of M-XIIIA (kind "mxiiia") or M-XIIIB (kind
    "mxiiib"), from S and its first differences; see `mxiiia_system` and
    `mxiiib_system` for the equations it solves."""
    trip = triple(s, sx, sy)
    if kind == "mxiiia":
        return mixed_integrate(0.5 * (a1 + b2) * trip, g)
    raw = (a1 + b2) * trip
    return poisson_solve(raw - raw.mean(), g)


def _system(kind, s, g, coeffs, drift, work, out):
    """The M-XIII family's flow and its potential phi, None for M-XIII, whose
    drift coefficients of S_x and S_y are drift (for A/B, phi's `phi_drift`)."""
    w = Scratch() if work is None else work
    sx = diff(s, g, "dx", out=w["sx", s.shape])
    sy = diff(s, g, "dy", out=w["sy", s.shape])
    a1, a2, b1, b2 = coeffs
    phi = None if kind == "mxiii" else mxiii_potential(kind, s, g, sx, sy, a1, b2)
    cx, cy = drift if phi is None else phi_drift(kind, phi, g)
    return _flow(s, g, sx, ((cx, sx), (cy, sy)), a1, a2, b1, b2, w, out), phi


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


def _wedge_flow(kind):
    """hf_rhs or lle_rhs by kind, else None; built per call, so rebound names are seen."""
    return {"hf": hf_rhs, "lle": lle_rhs}.get(kind)


def section_flow(kind, grid, params=None):
    """A section model's rhs(st, k), writing the derivative of the State st's
    spins into k's, and its once-per-snapshot monitor, st -> (fields,
    diagnostics): None for hf and lle, the constraint residual for mxiii,
    phi for mxiiia/b. params: `SECTION_PARAMS[kind]`'s names, at its defaults."""
    if kind in STATIONARY_ONLY:
        raise ValueError(f"{kind} is stationary, with no flow; use check --model {kind}")
    p = named_params(kind, SECTION_PARAMS[kind], params)
    work, flow, args, monitor = Scratch(), _wedge_flow(kind), (), None
    if flow is None:
        terms = mxiii_terms(p, grid)        # once per run
        flow = {"mxiii": mxiii_rhs, "mxiiia": mxiiia_system, "mxiiib": mxiiib_system}[kind]
        args = (terms,) if kind == "mxiii" else terms[0]

        def monitor(st):
            s = st["S"]
            sx, sy = diff(s, grid, "dx"), diff(s, grid, "dy")
            if kind == "mxiii":
                residual = np.abs(mxiii_constraint(s, grid, sx, sy, terms)).max()
                return {}, {"constraint_residual": float(residual)}
            a1, _, _, b2 = terms[0]
            return {"phi": ScalarField(grid, mxiii_potential(kind, s, grid, sx, sy, a1, b2))}, {}

    return (lambda st, k: flow(st["S"], grid, *args, work, k["S"])), monitor


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
    flow = _wedge_flow(kind)
    if flow is not None:        # no scalar part
        zeros = ScalarField(g, np.zeros((g.ny, g.nx)))
        return ResidualReport(VecField(g, flow(s, g)), zeros)
    if kind == "ishimori":
        if not p["alpha"]:
            raise ValueError("ishimori stationary residual needs an alpha != 0")
        alpha2 = p["alpha"] * p["alpha"]      # inf on overflow, where ** 2 raises
        a1, a2, b1, b2 = 0.0, alpha2, -1.0, 0.0     # M-XIIIA's flow
    else:
        terms = mxiii_terms(p, g)
        a1, a2, b1, b2 = terms[0]

    sx, sy = diff(s, g, "dx"), diff(s, g, "dy")
    if kind == "mxiii":
        (cx, cy), scal = terms[1], mxiii_constraint(s, g, sx, sy, terms)
    else:
        p, trip = phi.values, triple(s, sx, sy)
        cx, cy = phi_drift("mxiiia" if kind == "ishimori" else kind, p, g)
        if kind == "ishimori":
            scal = alpha2 * diff(p, g, "dyy") - diff(p, g, "dxx") - alpha2 * trip
        elif kind == "mxiiia":
            scal = diff(p, g, "dxy") - 0.5 * (a1 + b2) * trip
        else:
            scal = diff(p, g, "dxx") + diff(p, g, "dyy") - (a1 + b2) * trip
    drift = ((cx, sx), (cy, sy))
    # Ishimori sums its drift as phi_x S_y + phi_y S_x
    vec = _flow(s, g, sx, drift[::-1] if kind == "ishimori" else drift, a1, a2, b1, b2)
    return ResidualReport(VecField(g, vec), ScalarField(g, scal))
