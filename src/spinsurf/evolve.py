"""Method-of-lines time integration with per-step sphere projection.

States are dicts of plain arrays ("S" always, "u"/"w" for magnetoelastic
models); `rk4_step` is the classical 4-stage Runge-Kutta update applied
componentwise. Model right-hand sides are the array cores of `models` and
`magnetoelastic`, so no field object is built inside the time loop; fields
wrap the state only when a snapshot is taken. After every full step the
spin part is renormalized (the pre-projection norm drift is recorded as
the integrator's error monitor) unless renormalization is switched off.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import Blowup, ConfigError, GridMismatch
from .fields import (ScalarField, SpinField, VecField, dot, is_unit, norm,
                     normalize, stencil)
from .magnetoelastic import catalog_lookup, phonon_core, spin_core, MEState
from .models import hf_core, lle_core, mx_core, mxiii_core


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
    sx = stencil(S.values, g, "dx")
    e = float(np.sum(dot(sx, sx)))
    if g.is_1d:
        return e * g.dx
    sy = stencil(S.values, g, "dy")
    return (e + float(np.sum(dot(sy, sy)))) * g.dx * g.dy


def diagnostics(S, drift=0.0, constraint=None):
    rec = {"max_norm_drift": float(drift), "energy_proxy": energy_proxy(S)}
    if constraint is not None:
        rec["constraint_residual"] = float(constraint)
    return rec


# ---------------------------------------------------------------------------
# model construction

def evolution_model(name, grid, coeffs=None, params=None, external_u=None):
    """Build an EvolutionModel for a named flow on a given grid.

    name: "hf", "lle", "mxiii" (needs coeffs), "mxiiia"/"mxiiib" (optional
    params a1, a2, b1, b2, default 1), or any implemented magnetoelastic
    catalog name. 0-type catalog models need external_u (a ScalarField,
    held fixed over the run). params for catalog models are forwarded to
    the coupling constants. Unused params raise ValueError.
    """
    key = name.lower()
    params = dict(params or {})

    if key in ("hf", "lle", "mxiii") and params:
        raise ValueError(f"{key} takes no parameters, got {sorted(params)}")
    if key in ("hf", "lle"):
        core = hf_core if key == "hf" else lle_core
        return EvolutionModel(key, lambda st: {"S": core(st["S"], grid)}, grid)
    if key == "mxiii":
        if coeffs is None:
            raise ValueError("mxiii evolution needs a coefficient set")

        def rhs(st):
            return {"S": mxiii_core(st["S"], grid, coeffs)[0]}

        def constraint(st):
            return float(np.abs(mxiii_core(st["S"], grid, coeffs)[1]).max())

        return EvolutionModel("mxiii", rhs, grid, constraint=constraint)

    if key in ("mxiiia", "mxiiib"):
        ab = [params.pop(k, 1.0) for k in ("a1", "a2", "b1", "b2")]
        if params:
            raise ValueError(f"unknown parameters {sorted(params)}")

        def rhs(st):
            return {"S": mx_core(key, st["S"], grid, *ab)[0]}

        def phi_solver(st):
            return ScalarField(grid, mx_core(key, st["S"], grid, *ab)[1])

        return EvolutionModel(key, rhs, grid, phi_solver=phi_solver)

    # magnetoelastic catalog
    spec = catalog_lookup(name)
    if not grid.is_1d:
        raise ValueError("magnetoelastic models need a 1-D grid")
    if params:
        spec = spec.with_params(**params)
    order = 4 if spec.spin == "D" or spec.phonon == "boussinesq" else 2

    if spec.phonon == "none":
        if external_u is None:
            raise ValueError(f"{spec.name} needs an external displacement field u")
        if external_u.grid != grid:
            raise GridMismatch(f"{external_u.grid} != {grid}")
        u = external_u.values

        def rhs(st):
            return {"S": spin_core(spec, st["S"], u, grid)}

        return EvolutionModel(spec.name, rhs, grid, spatial_order=order)

    names = ("S", "u", "w") if spec.phonon in ("wave", "boussinesq") else ("S", "u")

    def rhs(st):
        ds = spin_core(spec, st["S"], st["u"], grid)
        # zip drops the None dw_dt of first-order phonon equations
        return dict(zip(names, (ds,) + phonon_core(spec, st["S"], st["u"], st.get("w"), grid)))

    return EvolutionModel(spec.name, rhs, grid, fields=names, spatial_order=order)


def pack_state(model, initial):
    """Normalize an initial state (SpinField, MEState, or dict) to arrays."""
    if isinstance(initial, SpinField):
        state = {"S": initial.values}
    elif isinstance(initial, MEState):
        state = {"S": initial.S.values, "u": initial.u.values}
        if initial.w is not None:
            state["w"] = initial.w.values
    else:
        state = {k: (v.values if hasattr(v, "values") else np.asarray(v, dtype=float))
                 for k, v in initial.items()}
    missing = set(model.fields) - set(state)
    if missing:
        raise ValueError(f"initial state is missing fields {sorted(missing)}")
    return {k: np.array(state[k], dtype=float) for k in model.fields}


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
            state["S"] = normalize(state["S"], n)
            if not is_unit(state["S"]):     # |S|^2 overflowed
                raise Blowup(step)
        if step % opts.snapshot_every == 0:
            record(step * opts.dt, drift_window)
            drift_window = 0.0
    return traj
