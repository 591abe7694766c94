"""Method-of-lines time integration with per-step sphere projection.

States are dicts of plain arrays ("S" always, "u"/"w" for magnetoelastic
models); `rk4_step` is the classical 4-stage Runge-Kutta update applied
componentwise. Model right-hand sides are the array functions of `models`
and `magnetoelastic`, so no field object is built inside the time loop; fields
wrap the state only when a snapshot is taken. After every full step the
spin part is renormalized (the pre-projection norm drift is recorded as
the integrator's error monitor) unless renormalization is switched off.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import Blowup, ConfigError, GridMismatch
from .fields import (ScalarField, SpinField, VecField, diff, dot, is_unit, norm,
                     project_sphere)
from .magnetoelastic import FAMILIES, catalog_lookup, me_phonon_rhs, me_spin_rhs
from .models import (STATIONARY_KINDS, STATIONARY_ONLY, hf_rhs, lle_rhs, mxiii_rhs,
                     mxiiia_system, mxiiib_system, section_args)


@dataclass(frozen=True)
class EvolveOptions:
    dt: float
    steps: int
    renormalize: bool = True
    snapshot_every: int = 1
    dt_safety: float = 0.2
    allow_unstable_dt: bool = False

    def __post_init__(self):
        if not (self.dt > 0 and self.steps > 0 and self.snapshot_every > 0):
            raise ValueError("dt, steps, snapshot_every must be positive")
        if not 0 < self.dt_safety < np.inf:
            raise ValueError(f"need a finite dt_safety > 0, got {self.dt_safety}")


@dataclass
class Trajectory:
    times: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)
    diagnostics: list = field(default_factory=list)

    def spins(self):
        return [snap["S"] for snap in self.snapshots]


@dataclass(frozen=True)
class EvolutionModel:
    """A named flow: state layout, right-hand side, and stability order."""

    name: str
    rhs: object                    # dict of arrays -> dict of arrays
    grid: object
    fields: tuple = ("S",)
    spatial_order: int = 2
    constraint: object = None      # dict of arrays -> float, monitored only
    phi_solver: object = None      # dict of arrays -> ScalarField, diagnostic


def rk4_step(state, rhs_fn, dt, step=0):
    """One classical Runge-Kutta step on a dict-of-arrays state."""
    if dt <= 0:
        raise ValueError("dt must be positive")

    def shifted(base, k, h):
        return {name: base[name] + h * k[name] for name in base}

    def stage(st):
        k = rhs_fn(st)
        if not all(np.isfinite(v).all() for v in k.values()):
            raise Blowup(step)
        return k

    k1 = stage(state)
    k2 = stage(shifted(state, k1, dt / 2.0))
    k3 = stage(shifted(state, k2, dt / 2.0))
    k4 = stage(shifted(state, k3, dt))
    out = {}
    for name in state:
        out[name] = state[name] + (dt / 6.0) * (
            k1[name] + 2.0 * k2[name] + 2.0 * k3[name] + k4[name])
        if not np.isfinite(out[name]).all():
            raise Blowup(step)
    return out


def energy_proxy(S):
    """Sum |S_x|^2 dx (+ |S_y|^2 term in 2-D). A monitoring aid only, not
    a conserved quantity of any of the flows."""
    g = S.grid
    sx = diff(S.values, g, "dx")
    e = float(np.sum(dot(sx, sx)))
    if g.is_1d:
        return e * g.dx
    sy = diff(S.values, g, "dy")
    return (e + float(np.sum(dot(sy, sy)))) * g.dx * g.dy


def diagnostics(S, drift=0.0, constraint=None):
    rec = {"max_norm_drift": float(drift), "energy_proxy": energy_proxy(S)}
    if constraint is not None:
        rec["constraint_residual"] = float(constraint)
    return rec


# ---------------------------------------------------------------------------
# model construction

def evolution_model(name, grid, params=None, external_u=None):
    """Build an EvolutionModel for a named flow on a given grid.

    name: "hf", "lle", "mxiii", "mxiiia", "mxiiib", or any implemented
    magnetoelastic catalog name; `models.STATIONARY_ONLY` names are refused.
    params are the constants its formulas read, with defaults from
    `models.SECTION_PARAMS` or `magnetoelastic.FAMILIES`; any other name
    raises ValueError. 0-type catalog models need external_u (a ScalarField,
    held fixed over the run), and no other model takes one.
    spatial_order, which sets the step bound, is the highest derivative order.
    """
    key = name.lower()
    params = params or {}
    if key in STATIONARY_ONLY:
        raise ValueError(f"{key} is stationary, with no flow; use check --model {key}")
    if external_u is not None and (key in STATIONARY_KINDS
                                   or catalog_lookup(name).phonon != "none"):
        raise ValueError(f"{name} takes no external displacement field u")
    c = section_args(key, params).get("coeffs") if key in STATIONARY_KINDS else None
    flow = {"hf": hf_rhs, "lle": lle_rhs}.get(key)
    if flow is not None:
        return EvolutionModel(key, lambda st: {"S": flow(st["S"], grid)}, grid)
    if key == "mxiii":
        def rhs(st):
            return {"S": mxiii_rhs(st["S"], grid, c)[0]}

        def constraint(st):
            return float(np.abs(mxiii_rhs(st["S"], grid, c)[1]).max())

        return EvolutionModel("mxiii", rhs, grid, constraint=constraint)

    system = {"mxiiia": mxiiia_system, "mxiiib": mxiiib_system}.get(key)
    if system is not None:
        def rhs(st):
            return {"S": system(st["S"], grid, c.a1, c.a2, c.b1, c.b2)[0]}

        def phi_solver(st):
            return ScalarField(grid, system(st["S"], grid, c.a1, c.a2, c.b1, c.b2)[1])

        return EvolutionModel(key, rhs, grid, phi_solver=phi_solver)

    # magnetoelastic catalog
    spec = catalog_lookup(name).with_params(**params)
    if not grid.is_1d:
        raise ValueError("magnetoelastic models need a 1-D grid")
    order = max(FAMILIES[spec.spin][1], FAMILIES[spec.phonon][1])

    if spec.phonon == "none":
        if external_u is None:
            raise ValueError(f"{spec.name} needs an external displacement field u")
        if external_u.grid != grid:
            raise GridMismatch(f"{external_u.grid} != {grid}")
        u = external_u.values

        def rhs(st):
            return {"S": me_spin_rhs(spec, st["S"], u, grid)}

        return EvolutionModel(spec.name, rhs, grid, spatial_order=order)

    names = ("S", "u", "w") if spec.phonon in ("wave", "boussinesq") else ("S", "u")

    def rhs(st):
        ds = me_spin_rhs(spec, st["S"], st["u"], grid)
        phonon = me_phonon_rhs(spec, st["S"], st["u"], st.get("w"), grid)
        # zip drops the None dw_dt of first-order phonon equations
        return dict(zip(names, (ds,) + phonon))

    return EvolutionModel(spec.name, rhs, grid, fields=names, spatial_order=order)


def pack_state(model, initial):
    """Copy an initial state, a dict of arrays, to float arrays, each
    checked against the shape that model.grid gives it."""
    missing = set(model.fields) - set(initial)
    if missing:
        raise ValueError(f"initial state is missing fields {sorted(missing)}")
    g, state = model.grid, {}
    for k in model.fields:
        state[k] = np.array(initial[k], dtype=float)
        want = (g.ny, g.nx, 3) if k == "S" else (g.ny, g.nx)
        if state[k].shape != want:
            raise ValueError(f"initial {k} has shape {state[k].shape}, expected {want}")
    return state


def _snapshot(model, state):
    g = model.grid
    snap = {"S": SpinField(g, state["S"]) if is_unit(state["S"])
            else VecField(g, state["S"])}
    for name in model.fields:
        if name != "S":
            snap[name] = ScalarField(g, state[name])
    if model.phi_solver is not None:
        snap["phi"] = model.phi_solver(state)
    return snap


def check_stability(model, opts):
    g = model.grid
    h = g.dx if g.is_1d else min(g.dx, g.dy)
    bound = opts.dt_safety * h ** model.spatial_order
    if opts.dt > bound and not opts.allow_unstable_dt:
        raise ConfigError(
            f"dt = {opts.dt:g} exceeds the stability bound "
            f"{opts.dt_safety:g} * h^{model.spatial_order} = {bound:g}; "
            f"pass allow_unstable_dt to override")


def evolve(model, initial, opts):
    """Integrate a flow, renormalizing the spin part after every step.

    Snapshots (including the initial state) are taken every
    opts.snapshot_every steps; each carries diagnostics with the maximum
    pre-projection norm drift seen since the previous snapshot.
    """
    check_stability(model, opts)
    state = pack_state(model, initial)

    traj = Trajectory()

    def record(t, drift):
        snap = _snapshot(model, state)
        constraint = model.constraint(state) if model.constraint else None
        traj.times.append(t)
        traj.snapshots.append(snap)
        traj.diagnostics.append(diagnostics(snap["S"], drift, constraint))

    record(0.0, 0.0)
    drift_window = 0.0
    for step in range(1, opts.steps + 1):
        state = rk4_step(state, model.rhs, opts.dt, step)
        n = norm(state["S"])
        drift_window = max(drift_window, float(np.abs(n - 1.0).max()))
        if opts.renormalize:
            state["S"] = project_sphere(state["S"], n)
            if drift_window == np.inf:      # |S|^2 overflowed; S itself is finite
                raise Blowup(step)
        if step % opts.snapshot_every == 0:
            record(step * opts.dt, drift_window)
            drift_window = 0.0
    return traj
