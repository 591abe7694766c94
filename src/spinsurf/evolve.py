"""Method-of-lines time integration with per-step sphere projection.

A state is a `State`: its fields, the (3, ny, nx) spin array "S" (components
first, see `fields`) and for magnetoelastic models the (ny, nx) "u" and "w",
are named views of one contiguous float array, so `rk4_step`, the
classical 4-stage Runge-Kutta update, runs its stage, sum and finite-check
arithmetic once per stage on the whole array. Model right-hand sides are
the array functions of `models` and `magnetoelastic`, so no field object is
built inside the time loop; fields wrap the state only when a snapshot is
taken. After every full step the spin part is renormalized (the
pre-projection norm drift is recorded as the integrator's error monitor)
unless renormalization is switched off.

A model's `rhs(state, k)` writes the derivative into k, a State laid out
like the state, which RK4's workspace holds. `evolve` builds that workspace
once per run (RK4's stage, derivative, product and sum arrays, and the spin
norms) and steps the state in place. `evolve` knows no model: each family's
module wires its formulas into a flow (`models.section_flow`,
`magnetoelastic.catalog_flow`), and `evolution_model` only refuses and
dispatches. A model's `monitor`, when it has one, adds fields and
diagnostics to each snapshot.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import Blowup, ConfigError, NonFiniteResult
from .fields import (ScalarField, SpinField, VecField, diff, dot, is_unit, norm,
                     project_sphere)
from .magnetoelastic import catalog_flow, catalog_lookup
from .models import STATIONARY_KINDS, section_flow


@dataclass(frozen=True)
class EvolveOptions:
    dt: float
    steps: int
    renormalize: bool = True
    snapshot_every: int = 1
    dt_safety: float = 0.2
    allow_unstable_dt: bool = False

    def __post_init__(self):
        for name in ("dt", "steps", "snapshot_every"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.steps % self.snapshot_every:
            # the last steps would go unreported, or a trailing snapshot
            # would break the uniform time spacing of the stack
            raise ValueError(f"steps = {self.steps} is not a multiple of "
                             f"snapshot_every = {self.snapshot_every}")
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
    """A named flow: state layout, right-hand side, stability order, and
    snapshot monitor."""

    name: str
    rhs: object                    # (State, k) -> None, the derivative written into k
    grid: object
    fields: tuple = ("S",)
    spatial_order: int = 2
    monitor: object = None         # State -> (snapshot fields, diagnostics), per snapshot


class State(dict):
    """Copies of named arrays, held as views of one contiguous float array,
    `data`, in the order given."""

    def __init__(self, arrays):
        super().__init__()
        self.data = np.concatenate([np.ravel(v) for v in arrays.values()], dtype=float)
        start = 0
        for name, v in arrays.items():
            self[name] = self.data[start:start + np.size(v)].reshape(np.shape(v))
            start += np.size(v)


def rk4_workspace(state):
    """rk4_step's work for a State: the stage state, the derivative k (both
    States), a product and a sum."""
    return State(state), State(state), np.empty_like(state.data), np.empty_like(state.data)


def rk4_step(state, rhs_fn, dt, step=0, out=None, work=None):
    """One classical Runge-Kutta step on a `State`.

    rhs_fn(st, k) writes the derivative at st into the State k. The new
    state is written into out, a State (which may be state itself), and
    work is `rk4_workspace(state)`: the stage state, k, a product and the
    running sum k1 + 2 k2 + 2 k3 + k4. Either is allocated when not given.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    y, (stage, dk, p, acc) = state.data, work or rk4_workspace(state)
    out = State(state) if out is None else out
    st, k = state, dk.data
    for i, h in enumerate((dt / 2.0, dt / 2.0, dt, None)):
        rhs_fn(st, dk)
        if not np.isfinite(k).all():
            raise Blowup(step)
        if i == 0:
            np.copyto(acc, k)
        elif i == 3:
            acc += k
        else:
            acc += np.multiply(k, 2.0, out=p)
        if h is not None:
            np.add(y, np.multiply(k, h, out=p), out=stage.data)
        st = stage
    acc *= dt / 6.0
    np.add(y, acc, out=out.data)
    if not np.isfinite(out.data).all():
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


def diagnostics(S, drift=0.0):
    return {"max_norm_drift": float(drift), "energy_proxy": energy_proxy(S)}


# ---------------------------------------------------------------------------
# model construction

def evolution_model(name, grid, params=None, external_u=None):
    """Build an EvolutionModel for a named flow on a given grid.

    name: "hf", "lle", "mxiii", "mxiiia", "mxiiib" (`models.section_flow`),
    or any implemented catalog name (`magnetoelastic.catalog_flow`).
    params are the constants its formulas read, with defaults from
    `models.SECTION_PARAMS` or the catalog entry's `params`; any other name
    raises ValueError. 0-type catalog models need external_u (a ScalarField,
    held fixed over the run), and no other model takes one.
    """
    key = name.lower()
    flow = section_flow(key, grid, params) if key in STATIONARY_KINDS else None
    if external_u is not None and (flow or catalog_lookup(name).phonon != "none"):
        raise ValueError(f"{name} takes no external displacement field u")
    if flow:
        return EvolutionModel(key, flow[0], grid, monitor=flow[1])
    spec = catalog_lookup(name).with_params(**(params or {}))
    names, order, rhs = catalog_flow(spec, grid, external_u)
    return EvolutionModel(spec.name, rhs, grid, fields=names, spatial_order=order)


def pack_state(model, initial):
    """Copy an initial state, a dict of arrays, into one `State`, each field
    checked against the shape that model.grid gives it."""
    missing = set(model.fields) - set(initial)
    if missing:
        raise ValueError(f"initial state is missing fields {sorted(missing)}")
    arrays, g = {}, model.grid
    for k in model.fields:
        want = (3, g.ny, g.nx) if k == "S" else (g.ny, g.nx)
        arrays[k] = np.asarray(initial[k], dtype=float)
        if arrays[k].shape != want:
            raise ValueError(f"initial {k} has shape {arrays[k].shape}, expected {want}")
    return State(arrays)


def _snapshot(model, state):
    """A snapshot's fields and the monitor's diagnostics. Field objects copy
    the writeable arrays they are given, so the next step, which overwrites
    state, leaves the snapshot alone."""
    g = model.grid
    snap = {"S": (SpinField if is_unit(state["S"]) else VecField)(g, state["S"])}
    for name in model.fields[1:]:
        snap[name] = ScalarField(g, state[name])
    extra, diag = model.monitor(state) if model.monitor else ({}, {})
    return {**snap, **extra}, diag


def check_stability(model, opts):
    g = model.grid
    h, p = (g.dx if g.is_1d else min(g.dx, g.dy)), model.spatial_order
    try:
        bound = opts.dt_safety * h ** p
    except OverflowError:
        raise NonFiniteResult(f"the stability bound dt_safety * h^p overflows at "
                              f"h = {h:g}, p = {p}, dt_safety = {opts.dt_safety:g}") from None
    if opts.dt > bound and not opts.allow_unstable_dt:
        raise ConfigError(
            f"dt = {opts.dt:g} exceeds the stability bound "
            f"{opts.dt_safety:g} * h^{p} = {bound:g}; "
            f"pass allow_unstable_dt to override")


def evolve(model, initial, opts):
    """Integrate a flow, renormalizing the spin part after every step.

    Snapshots (including the initial state) are taken every
    opts.snapshot_every steps; each carries diagnostics with the maximum
    pre-projection norm drift seen since the previous snapshot.
    """
    check_stability(model, opts)
    state = pack_state(model, initial)
    # the run's workspace (see the module docstring); each step overwrites state
    work = rk4_workspace(state)
    n = np.empty(state["S"].shape[1:])

    traj = Trajectory()

    def record(t, drift):
        snap, diag = _snapshot(model, state)
        traj.times.append(t)
        traj.snapshots.append(snap)
        traj.diagnostics.append({**diagnostics(snap["S"], drift), **diag})

    record(0.0, 0.0)
    drift_window = 0.0
    for step in range(1, opts.steps + 1):
        rk4_step(state, model.rhs, opts.dt, step, out=state, work=work)
        norm(state["S"], out=n)
        if opts.renormalize:
            project_sphere(state["S"], n, out=state["S"])
        n -= 1.0
        drift_window = max(drift_window, float(np.abs(n, out=n).max()))
        if opts.renormalize and drift_window == np.inf:
            raise Blowup(step)              # |S|^2 overflowed; S itself is finite
        if step % opts.snapshot_every == 0:
            record(step * opts.dt, drift_window)
            drift_window = 0.0
    return traj
