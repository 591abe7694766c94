"""Right-hand sides and stationary residuals for the named spin systems.

Covers the isotropic Heisenberg ferromagnet (HF), the 2+1-D
Landau-Lifshitz equation (LLE), the M-XIII family (plain, A, and B
variants, the latter two carrying an auxiliary potential phi), and the
stationary Ishimori equation, whose vector part is M-XIIIA's flow at
(a1, a2, b1, b2) = (0, alpha^2, -1, 0). All right-hand sides are tangent
to the sphere up to the discrete S.S_x = O(h^2) identity. HF and LLE are
`fields._bind_wedge`'s neighbour sums; M-XIII's flows cross S with `diff`'s
second differences.

Each formula is written once, on plain (3, ny, nx) spin arrays with the
grid passed explicitly, as a binder in `fields`' `_bind_*` idiom
(`_bind_wedge`, `_bind_lle`, the M-XIII family's `_bind_system` with its
potential's `_bind_potential`) that makes its views, buffers and products
once and returns a runner. `section_flow` hands `evolve` a flow that binds
them to a State and its derivative, so no RK4 stage binds or looks anything
up; only M-XIIIB's FFT pair and M-XIIIA's quadrature allocate grid-sized
arrays. The named right-hand sides (`hf_rhs`, `mxiiib_system`, ...)
bind and run once, each into a new array, and `stationary_residual` runs the
same binders (the M-XIII family's with phi given), bit for bit. Section
models read named parameters; `mxiii_terms` maps M-XIII's once per model.
"""

import numpy as np

from .errors import GridMismatch, GridTooSmall
from .fields import (CLAMPED, PERIODIC, ScalarField, VecField, _bind_cross, _bind_diff,
                     _bind_dot, _bind_wedge, _runner, diff, named_params, triple)
from .geometry import CoefficientSet, ResidualReport, _bind_phi_drift
from .solvers import _bind_poisson, mixed_integrate

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


def hf_rhs(s, g):
    """S ^ S_xx: the HF flow of a 1-D-in-x spin array."""
    return _bind_wedge(s, None, g, False)()


def _bind_lle(s, out, g):
    if g.is_1d:
        raise GridTooSmall("the 2+1-D Landau-Lifshitz flow needs a 2-D grid")
    return _bind_wedge(s, out, g, True)


def lle_rhs(s, g):
    """S ^ (S_xx + S_yy): the 2+1-D Landau-Lifshitz flow."""
    return _bind_lle(s, None, g)()


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


def mxiii_rhs(s, g, terms):
    """M-XIII flow from `mxiii_terms`. The flow is supposed to keep
    `mxiii_constraint` small; it is monitored, never enforced."""
    return _bind_system("mxiii", s, g, terms[0], terms[1])()[0]


def _bind_source(kind, s, sx, sy, coeffs, out=None):
    """f (a1 + b2) S.(S_x ^ S_y), the right side of phi's equation for
    M-XIIIA (f = 1/2) or M-XIIIB (f = 1), bound to S, its first differences
    and the flow's coefficients (a1, a2, b1, b2), into out (made here when None)."""
    a1, _, _, b2 = coeffs
    w, out = np.empty(s.shape), np.empty(s.shape[1:]) if out is None else out
    f = 0.5 * (a1 + b2) if kind == "mxiiia" else a1 + b2
    return _runner([(_bind_cross(sx, sy, w), ()), (_bind_dot(s, w, out), ()),
                    (np.multiply, (f, out, out))], out)


def _bind_potential(kind, s, g, sx, sy, coeffs, phi=None):
    """The potential phi of `mxiiia_system` or `mxiiib_system` (kind "mxiiia"
    or "mxiiib") bound to S, S_x, S_y and the flow's coefficients, into phi
    (made here when None): M-XIIIB centres its source in place for
    `solvers._bind_poisson`; M-XIIIA's quadrature allocates, copied into phi."""
    q, phi = np.empty(s.shape[1:]), np.empty(s.shape[1:]) if phi is None else phi
    solve = ([(lambda: np.copyto(phi, mixed_integrate(q, g)), ())] if kind == "mxiiia" else
             [(lambda: np.subtract(q, q.mean(), out=q), ()), (_bind_poisson(q, g, phi), ())])
    return _runner([(_bind_source(kind, s, sx, sy, coeffs, q), ())] + solve, phi)


def mxiii_potential(kind, s, g, sx, sy, coeffs):
    """`_bind_potential`'s phi of S, S_x, S_y and coeffs, as a new array."""
    return _bind_potential(kind, s, g, sx, sy, coeffs)()


def _bind_system(kind, s, g, coeffs, drift, out=None, phi=None):
    """The M-XIII family's flow S ^ [a2 S_yy + (a1 - b2) S_xy - b1 S_xx] +
    cx S_x + cy S_y bound to s and out, replaying on arrays made here; each
    run returns (out, phi, S_x, S_y). M-XIII's phi is None and its drift (cx,
    cy) is drift; for A/B, (cx, cy) is phi's `_bind_phi_drift`, with phi
    solved from S by `_bind_potential` unless given."""
    a1, a2, b1, b2 = coeffs
    sx, sy, t, inner, sxy = (np.empty(s.shape) for _ in range(5))
    out = np.empty(s.shape) if out is None else out
    calls = [(_bind_diff(s, sx, None, g, "dx"), ()), (_bind_diff(s, sy, None, g, "dy"), ()),
             (_bind_diff(s, inner, t, g, "dyy"), ()), (np.multiply, (a2, inner, inner)),
             (_bind_diff(sx, sxy, None, g, "dy"), ()),
             (np.multiply, (a1, sxy, t)), (np.add, (inner, t, inner)),
             (np.multiply, (b2, sxy, t)), (np.subtract, (inner, t, inner)),
             (_bind_diff(s, sxy, t, g, "dxx"), ()), (np.multiply, (b1, sxy, sxy)),
             (np.subtract, (inner, sxy, inner)), (_bind_cross(s, inner, out), ())]
    if kind != "mxiii":
        if phi is None:
            phi = np.empty(s.shape[1:])
            calls.append((_bind_potential(kind, s, g, sx, sy, coeffs, phi), ()))
        drift = np.empty((2,) + phi.shape)
        calls.append((_bind_phi_drift(kind, phi, g, drift), ()))
    for c, v in zip(drift, (sx, sy)):
        calls += [(np.multiply, (c, v, t)), (np.add, (out, t, out))]
    return _runner(calls, (out, phi, sx, sy))


def mxiiia_system(s, g, a1, a2, b1, b2):
    """M-XIIIA right-hand side with its potential.

    phi solves phi_xy = ((a1+b2)/2) S.(S_x ^ S_y) by mixed-derivative
    quadrature on a clamped grid, gauged to zero on the seed row and
    column. The flow is

        S ^ [a2 S_yy + (a1-b2) S_xy - b1 S_xx] + phi_y S_x + phi_x S_y.
    """
    return _bind_system("mxiiia", s, g, (a1, a2, b1, b2), None)()[:2]


def mxiiib_system(s, g, a1, a2, b1, b2):
    """M-XIIIB right-hand side with its potential.

    phi solves phi_xx + phi_yy = (a1+b2) S.(S_x ^ S_y) on a periodic grid
    in the zero-mean gauge. The discrete source mean (a quadrature leftover
    of the degree integral, O(h^2) for degree-zero fields) is projected out
    so the periodic solvability condition holds to machine precision. The
    flow is

        S ^ [a2 S_yy + (a1-b2) S_xy - b1 S_xx] + phi_x S_x + phi_y S_y.
    """
    return _bind_system("mxiiib", s, g, (a1, a2, b1, b2), None)()[:2]


def section_flow(kind, grid, params=None):
    """A section model's binder, bind(st, k) -> run, whose run() writes the
    spin derivative at the State st into k's with every array made at
    binding, and its monitor, st -> (fields, diagnostics) per snapshot: None
    for hf/lle, mxiii's constraint residual, mxiiia/b's phi. params:
    `SECTION_PARAMS[kind]`'s names."""
    if kind in STATIONARY_ONLY:
        raise ValueError(f"{kind} is stationary, with no flow; use check --model {kind}")
    need = {"mxiiia": CLAMPED, "mxiiib": PERIODIC}.get(kind, grid.boundary)
    if grid.boundary != need:
        raise ValueError(f"{kind} solves for its potential on a {need} grid, not {grid.boundary}")
    p = named_params(kind, SECTION_PARAMS[kind], params)
    if kind == "hf":
        return (lambda st, k: _bind_wedge(st["S"], k["S"], grid, False)), None
    if kind == "lle":
        return (lambda st, k: _bind_lle(st["S"], k["S"], grid)), None
    terms = mxiii_terms(p, grid)        # once per model
    drift = terms[1] if kind == "mxiii" else None

    def monitor(st):
        s = st["S"]
        sx, sy = diff(s, grid, "dx"), diff(s, grid, "dy")
        if kind == "mxiii":
            residual = np.abs(mxiii_constraint(s, grid, sx, sy, terms)).max()
            return {}, {"constraint_residual": float(residual)}
        return {"phi": ScalarField(grid, mxiii_potential(kind, s, grid, sx, sy, terms[0]))}, {}

    return (lambda st, k: _bind_system(kind, st["S"], grid, terms[0], drift, k["S"])), monitor


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
        return ResidualReport(VecField(g, (hf_rhs if kind == "hf" else lle_rhs)(s, g)), zeros)
    if kind == "ishimori":
        if not p["alpha"]:
            raise ValueError("ishimori stationary residual needs an alpha != 0")
        alpha2 = p["alpha"] * p["alpha"]      # inf on overflow, where ** 2 raises
        coeffs, drift = (0.0, alpha2, -1.0, 0.0), None      # M-XIIIA's row
    else:
        terms = mxiii_terms(p, g)
        coeffs, drift = terms[:2]
    phi = None if phi is None else phi.values
    flow = _bind_system("mxiiia" if kind == "ishimori" else kind, s, g, coeffs, drift, phi=phi)
    vec, _, sx, sy = flow()
    if kind == "mxiii":
        scal = mxiii_constraint(s, g, sx, sy, terms)
    elif kind == "ishimori":
        scal = alpha2 * diff(phi, g, "dyy") - diff(phi, g, "dxx") - alpha2 * triple(s, sx, sy)
    else:       # phi's equation, its left-hand side minus its source
        lhs = diff(phi, g, "dxy") if kind == "mxiiia" else diff(phi, g, "dxx") + diff(phi, g, "dyy")
        scal = lhs - _bind_source(kind, s, sx, sy, coeffs)()
    return ResidualReport(VecField(g, vec), ScalarField(g, scal))
