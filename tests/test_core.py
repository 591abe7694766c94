"""The array-level numerical core against independent references.

The stencils are compared bit for bit with the np.roll / np.moveaxis
formulation written out below, the cumulative trapezoid with an explicit
accumulation loop, and `evolve` with a plain RK4 loop that steps through
the public right-hand sides. Bitwise equality is the contract: the
array core reorders no floating-point operation.
"""

import contextlib
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from spinsurf import (Blowup, EvolveOptions, Grid, NearZeroNorm, ScalarField,
                      SpinField, VecField, catalog_lookup,
                      diff, evolve, evolution_model, hf_rhs, lle_rhs,
                      me_phonon_rhs, me_spin_rhs, mxiii_rhs, mxiii_terms, mxiiia_system,
                      mxiiib_system,
                      norm, project_sphere, rk4_step, stationary_residual,
                      synth)
from spinsurf import fields
from spinsurf.errors import GridTooSmall
from spinsurf.evolve import EvolutionModel, State
from spinsurf.fields import SPIN_NORM_TOL, is_unit
from spinsurf.magnetoelastic import _REGISTRY


# ---------------------------------------------------------------------------
# stencils

def ref_d1(a, h, axis, periodic):
    if periodic:
        return (np.roll(a, -1, axis) - np.roll(a, 1, axis)) / (2.0 * h)
    a = np.moveaxis(a, axis, 0)
    out = np.empty_like(a)
    out[1:-1] = a[2:] - a[:-2]
    out[0] = 4.0 * (a[1] - a[0]) - (a[2] - a[0])
    out[-1] = 4.0 * (a[-1] - a[-2]) - (a[-1] - a[-3])
    return np.moveaxis(out, 0, axis) / (2.0 * h)


def ref_d2(a, h, axis, periodic):
    if periodic:
        up = np.roll(a, -1, axis)
        dn = np.roll(a, 1, axis)
        return ((up - a) - (a - dn)) / (h * h)
    a = np.moveaxis(a, axis, 0)
    out = np.empty_like(a)
    out[1:-1] = (a[2:] - a[1:-1]) - (a[1:-1] - a[:-2])
    d = np.diff(a[:4], axis=0)
    out[0] = -2.0 * d[0] + 3.0 * d[1] - d[2]
    d = np.diff(a[:-5:-1], axis=0)
    out[-1] = -2.0 * d[0] + 3.0 * d[1] - d[2]
    return np.moveaxis(out, 0, axis) / (h * h)


REFERENCE = {"dx": (ref_d1, -1), "dxx": (ref_d2, -1), "dy": (ref_d1, -2), "dyy": (ref_d2, -2)}


@st.composite
def grid_arrays(draw):
    ny, nx = draw(st.integers(4, 9)), draw(st.integers(4, 9))
    boundary = draw(st.sampled_from(["periodic", "clamped"]))
    spacing = st.floats(0.01, 3.0)
    grid = Grid(nx, ny, draw(spacing), draw(spacing), boundary)
    shape = draw(st.sampled_from([(), (3,)])) + (ny, nx)
    values = draw(hnp.arrays(np.float64, shape,
                             elements=st.floats(-1e3, 1e3, allow_subnormal=False)))
    return grid, values


@settings(max_examples=200, deadline=None)
@given(grid_arrays(), st.sampled_from(sorted(REFERENCE)))
def test_stencils_bitwise_equal_roll_reference(case, which):
    grid, a = case
    ref, axis = REFERENCE[which]
    h = grid.dx if axis == -1 else grid.dy
    want = ref(a, h, axis, grid.periodic)
    assert np.array_equal(diff(a, grid, which), want)
    field = (ScalarField if a.ndim == 2 else VecField)(grid, a)
    assert np.array_equal(diff(field.values, field.grid, which), want)


@settings(max_examples=50, deadline=None)
@given(grid_arrays())
def test_composed_stencils_bitwise(case):
    grid, a = case
    h, p = grid.dx, grid.periodic
    assert np.array_equal(diff(a, grid, "dxy"),
                          ref_d1(ref_d1(a, grid.dx, -1, p), grid.dy, -2, p))
    if grid.nx >= 5:
        assert np.array_equal(diff(a, grid, "dxxxx"),
                              ref_d2(ref_d2(a, h, -1, p), h, -1, p))


def test_stencil_leaves_input_untouched():
    a = np.arange(30.0).reshape(5, 6)
    a.flags.writeable = False
    diff(a, Grid(6, 5, 0.5, 0.5, "periodic"), "dyy")


# Every layout the package differences: grid arrays (1-D and 2-D, scalar and
# components-first vector; zc_residual's (3, nt, nx) stacks are the latter)
# and complex (nt, nx) histories as nlse_residual takes them; axis lengths
# start at 3, below the clamped second difference's minimum.
LAYOUTS = {"1-D": ((), (1,), float), "1-D vector": ((3,), (1,), float),
           "2-D": ((), None, float), "2-D vector": ((3,), None, float),
           "complex": ((), None, complex)}
DIFF_REFERENCE = {
    "dx": lambda a, g, p: ref_d1(a, g.dx, -1, p),
    "dxx": lambda a, g, p: ref_d2(a, g.dx, -1, p),
    "dy": lambda a, g, p: ref_d1(a, g.dy, -2, p),
    "dyy": lambda a, g, p: ref_d2(a, g.dy, -2, p),
    "dxy": lambda a, g, p: ref_d1(ref_d1(a, g.dx, -1, p), g.dy, -2, p),
    "dxxxx": lambda a, g, p: ref_d2(ref_d2(a, g.dx, -1, p), g.dx, -1, p),
}


@st.composite
def layout_arrays(draw):
    lead, rows, dtype = LAYOUTS[draw(st.sampled_from(sorted(LAYOUTS)))]
    n = st.integers(3, 11)
    shape = lead + (rows or (draw(n),)) + (draw(n),)
    part = hnp.arrays(np.float64, shape, elements=st.floats(-1e3, 1e3, allow_subnormal=False))
    a = draw(part) + (1j * draw(part) if dtype is complex else 0.0)
    return a, draw(st.floats(0.01, 3.0)), draw(st.booleans())


def least_nodes(stencil, periodic):
    return 4 if stencil is fields._d2 and not periodic else 3


@settings(max_examples=300, deadline=None)
@given(layout_arrays())
def test_flat_stencils_bitwise_equal_reference_on_every_axis(case):
    """_d1 and _d2 difference the flat array at an offset; on every axis of
    every layout they equal the np.roll / slice reference bit for bit, also
    for an input that is not C-contiguous, and refuse too short an axis."""
    a, h, periodic = case
    strided = np.repeat(a, 2, axis=-1)[..., ::2]
    assert not strided.flags.c_contiguous
    for stencil, ref in ((fields._d1, ref_d1), (fields._d2, ref_d2)):
        for axis in range(a.ndim):
            if a.shape[axis] < least_nodes(stencil, periodic):
                with pytest.raises(GridTooSmall):
                    stencil(a, h, axis, periodic)
                continue
            want = ref(a, h, axis, periodic)
            assert np.array_equal(stencil(a, h, axis, periodic), want)
            assert np.array_equal(stencil(strided, h, axis, periodic), want)


@settings(max_examples=300, deadline=None)
@given(layout_arrays(), st.floats(0.01, 3.0))
def test_every_diff_kind_bitwise_equal_reference(case, dy):
    a, dx, periodic = case
    if a.dtype == complex:
        return                          # diff takes (ny, nx) and (3, ny, nx) real arrays
    g = Grid(a.shape[-1], a.shape[-2], dx, dy, "periodic" if periodic else "clamped")
    d2_least = 3 if periodic else 4
    least = {"dx": (3, 0), "dxx": (d2_least, 0), "dy": (0, 3), "dyy": (0, d2_least),
             "dxy": (3, 3), "dxxxx": (5, 0)}
    for which, (nx, ny) in least.items():
        if g.nx < nx or (ny and (g.is_1d or g.ny < ny)):
            with pytest.raises(GridTooSmall):
                diff(a, g, which)
            continue
        assert np.array_equal(diff(a, g, which), DIFF_REFERENCE[which](a, g, periodic)), which


@pytest.mark.parametrize("stencil, buffer", [("_d1", "out"), ("_d2", "out"), ("_d2", "tmp")])
def test_stencil_refuses_a_buffer_that_is_not_c_contiguous(stencil, buffer, rng):
    """The flat view of such an array would be a copy, and the result lost:
    the stencil's binder refuses it at binding."""
    a = rng.standard_normal((6, 7, 3))
    bufs = {"out": None, "tmp": None, buffer: np.empty((6, 14, 3))[:, ::2]}
    given = [bufs["out"]] + ([bufs["tmp"]] if stencil == "_d2" else [])
    with pytest.raises(ValueError, match="C-contiguous"):
        getattr(fields, "_bind" + stencil)(a, *given, 0.1, 1, True)


# ---------------------------------------------------------------------------
# cumulative trapezoid quadrature

def ref_cumtrapz(y, d, axis):
    y = np.moveaxis(y, axis, 0)
    out = np.zeros(y.shape)
    acc = np.zeros(y.shape[1:])
    for i in range(1, y.shape[0]):
        acc += d * (y[i] + y[i - 1]) / 2.0
        out[i] = acc
    return np.moveaxis(out, 0, axis)


@settings(max_examples=200, deadline=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=3, max_side=9),
                  elements=st.floats(-1e6, 1e6)),
       st.floats(1e-3, 10.0), st.sampled_from([0, 1, -1]))
def test_cumtrapz_bitwise_equal_accumulation_loop(y, d, axis):
    got = fields.cumtrapz(y, d, axis)
    assert got.shape == y.shape
    assert np.array_equal(got, ref_cumtrapz(y, d, axis))


def test_cumtrapz_of_linear_integrand_is_exact():
    # dyadic nodes and coefficients keep every operation exact, so the
    # closed form 3x + x^2 must come out bit for bit
    x = np.arange(9) * 0.25
    want = 3.0 * x + x ** 2
    assert np.array_equal(fields.cumtrapz(3.0 + 2.0 * x, 0.25, 0), want)
    plane = np.stack([3.0 + 2.0 * x, -1.0 + 0.5 * x])
    assert np.array_equal(fields.cumtrapz(plane, 0.25, -1),
                          np.stack([want, -x + 0.25 * x ** 2]))


# ---------------------------------------------------------------------------
# evolve against a reference RK4 loop on the public right-hand sides

def reference_run(grid, rhs, state, dt, steps, every, drifts=None, renormalize=True, out=None):
    """The classical RK4 step with per-step sphere projection (unless not
    renormalize), each projected state admitted as a SpinField; returns the
    states at the snapshot steps, appended to out when given, and appends to
    drifts, when given, each snapshot's largest pre-projection | |S| - 1 |
    since the one before. As `rk4_step`, it raises Blowup(step) at a
    non-finite derivative of any stage or a non-finite new state."""
    def shifted(k, h):
        return {n: state[n] + h * k[n] for n in state}

    def finite(d):
        if not all(np.isfinite(d[n]).all() for n in state):
            raise Blowup(step)
        return d

    out, window = [] if out is None else out, 0.0
    out.append(dict(state))
    drifts = [] if drifts is None else drifts
    drifts.append(0.0)
    for step in range(1, steps + 1):
        k1 = finite(rhs(state))
        k2 = finite(rhs(shifted(k1, dt / 2.0)))
        k3 = finite(rhs(shifted(k2, dt / 2.0)))
        k4 = finite(rhs(shifted(k3, dt)))
        state = finite({n: state[n] + (dt / 6.0) * (k1[n] + 2.0 * k2[n] + 2.0 * k3[n] + k4[n])
                        for n in state})
        window = max(window, np.abs(np.linalg.norm(state["S"], axis=0) - 1.0).max())
        if renormalize:
            state["S"] = SpinField(grid, project_sphere(state["S"], norm(state["S"]))).values
        if step % every == 0:
            out.append(dict(state))
            drifts.append(window)
            window = 0.0
    return out


def me_reference(spec, grid):
    def rhs(st):
        du, dw = me_phonon_rhs(spec, st["S"], st["u"], st.get("w"), grid)
        return {"S": me_spin_rhs(spec, st["S"], st["u"], grid), "u": du, "w": dw}
    return rhs


G1 = Grid(32, 1, 0.2, 1.0, "periodic")
G2 = Grid(16, 16, 0.25, 0.25, "periodic")
G2C = Grid(16, 14, 0.25, 0.25, "clamped")

FLOWS = {
    "hf": (G1, lambda st: {"S": hf_rhs(st["S"], G1)}),
    "m-xxxiv": (G1, me_reference(catalog_lookup("m-xxxiv"), G1)),
    "m-lii": (G1, me_reference(catalog_lookup("m-lii"), G1)),
    "m-l": (G1, me_reference(catalog_lookup("m-l"), G1)),
    "m-xlv": (G1, me_reference(catalog_lookup("m-xlv"), G1)),
    "m-xliv": (G1, me_reference(catalog_lookup("m-xliv"), G1)),
    "m-xxxix": (G1, me_reference(catalog_lookup("m-xxxix"), G1)),
    "lle": (G2, lambda st: {"S": lle_rhs(st["S"], G2)}),
    "mxiiib": (G2, lambda st: {"S": mxiiib_system(st["S"], G2, 1.0, 1.0, 1.0, 1.0)[0]}),
    "mxiiia": (G2C, lambda st: {"S": mxiiia_system(st["S"], G2C, 1.0, 1.0, 1.0, 1.0)[0]}),
}


@pytest.mark.parametrize("name", sorted(FLOWS))
def test_evolve_bitwise_equal_field_api_loop(name):
    """evolve, which reuses its arrays, against the allocating loop; the
    snapshots are compared after the run, so no later step wrote into them."""
    grid, rhs = FLOWS[name]
    model = evolution_model(name, grid)
    dt = 0.2 * grid.dx ** model.spatial_order
    initial = {"S": synth.smooth_spin(grid, seed=5).values,
               "u": 0.3 * synth.smooth_scalar(grid, seed=6).values,
               "w": 0.1 * synth.smooth_scalar(grid, seed=7).values}
    initial = {k: initial[k] for k in model.fields}
    traj = evolve(model, initial, EvolveOptions(dt=dt, steps=24, snapshot_every=8))
    drifts = []
    want = reference_run(grid, rhs, initial, dt, 24, 8, drifts)
    assert len(traj.snapshots) == len(want) == 4
    for snap, ref in zip(traj.snapshots, want):
        assert isinstance(snap["S"], SpinField)
        for key in ref:
            assert np.array_equal(snap[key].values, ref[key])
    assert [d["max_norm_drift"] for d in traj.diagnostics] == drifts
    if name in ("mxiiia", "mxiiib"):
        system = mxiiia_system if name == "mxiiia" else mxiiib_system
        phi = system(traj.snapshots[-1]["S"].values, grid, 1.0, 1.0, 1.0, 1.0)[1]
        assert np.array_equal(traj.snapshots[-1]["phi"].values, phi)


@pytest.mark.parametrize("name", sorted(FLOWS))
def test_evolve_without_renormalization_bitwise_equal_loop(name):
    """With renormalization off, the states and each window's norm drift,
    measured on a state that is never projected, match the allocating loop
    bit for bit. Clamped M-XIIIA grows at its one-sided ends (ROADMAP item
    3) and turns non-finite at step 20: that run alone goes under
    `cli.main`'s np.errstate(all="ignore"), with the finite check of
    `rk4_step` standing in for numpy's warnings; both runs stop there with
    Blowup, and every snapshot both took, copied by evolve's monitor as it
    is taken, matches."""
    grid, rhs = FLOWS[name]
    model = evolution_model(name, grid)
    dt = 0.2 * grid.dx ** model.spatial_order
    initial = {"S": synth.smooth_spin(grid, seed=5).values,
               "u": 0.3 * synth.smooth_scalar(grid, seed=6).values,
               "w": 0.1 * synth.smooth_scalar(grid, seed=7).values}
    initial = {k: initial[k] for k in model.fields}
    taken, want, drifts = [], [], []

    def monitor(st):
        taken.append({k: st[k].copy() for k in model.fields})
        return model.monitor(st) if model.monitor else ({}, {})

    def blowup_step(run):
        try:
            return run(), None
        except Blowup as exc:
            return None, exc.step

    blows_up = name == "mxiiia"
    with np.errstate(all="ignore") if blows_up else contextlib.nullcontext():
        traj, stop = blowup_step(lambda: evolve(
            dataclasses.replace(model, monitor=monitor), initial,
            EvolveOptions(dt=dt, steps=24, snapshot_every=8, renormalize=False)))
        _, ref_stop = blowup_step(lambda: reference_run(grid, rhs, initial, dt, 24, 8, drifts,
                                                        renormalize=False, out=want))
    assert stop == ref_stop == (20 if blows_up else None)
    assert len(taken) == len(want) == (3 if blows_up else 4)
    for snap, ref in zip(taken, want):
        for key in ref:
            assert np.array_equal(snap[key], ref[key])
    if not blows_up:
        assert len(traj.snapshots) == 4
        for snap, ref in zip(traj.snapshots, want):
            for key in ref:
                assert np.array_equal(snap[key].values, ref[key])
        assert [d["max_norm_drift"] for d in traj.diagnostics] == drifts
        assert drifts[-1] > 0.0


@pytest.mark.parametrize("name, grid", [("mxiiib", G2), ("mxiiia", G2C)])
def test_evolve_with_a_varying_a1_matches_the_system_loop(name, grid):
    """A ScalarField a1 in params reaches the flow and its potential as the
    same (ny, nx) array that the allocating loop passes to the system."""
    a1 = 1.0 + 0.3 * synth.smooth_scalar(grid, seed=8).values
    system = mxiiia_system if name == "mxiiia" else mxiiib_system
    model = evolution_model(name, grid, params={"a1": ScalarField(grid, a1)})
    dt = 0.2 * grid.dx ** model.spatial_order
    initial = {"S": synth.smooth_spin(grid, seed=5).values}
    traj = evolve(model, initial, EvolveOptions(dt=dt, steps=24, snapshot_every=8))
    want = reference_run(grid, lambda st: {"S": system(st["S"], grid, a1, 1.0, 1.0, 1.0)[0]},
                         initial, dt, 24, 8)
    assert len(traj.snapshots) == len(want) == 4
    for snap, ref in zip(traj.snapshots, want):
        assert np.array_equal(snap["S"].values, ref["S"])
    phi = system(traj.snapshots[-1]["S"].values, grid, a1, 1.0, 1.0, 1.0)[1]
    assert np.array_equal(traj.snapshots[-1]["phi"].values, phi)


ZERO_TYPE = [spec.name for spec in _REGISTRY.values()
             if spec.implemented and spec.phonon == "none"]


@pytest.mark.parametrize("name", ZERO_TYPE)
def test_evolve_bitwise_equal_loop_with_external_u(name):
    """0-type models step S alone, with the given u held fixed."""
    spec = catalog_lookup(name)
    u = 0.3 * synth.smooth_scalar(G1, seed=6).values
    model = evolution_model(name, G1, external_u=ScalarField(G1, u))
    dt = 0.2 * G1.dx ** model.spatial_order
    initial = {"S": synth.smooth_spin(G1, seed=5).values}
    traj = evolve(model, initial, EvolveOptions(dt=dt, steps=24, snapshot_every=8))
    want = reference_run(G1, lambda st: {"S": me_spin_rhs(spec, st["S"], u, G1)},
                         initial, dt, 24, 8)
    assert len(traj.snapshots) == len(want) == 4
    for snap, ref in zip(traj.snapshots, want):
        assert set(snap) == {"S"}
        assert np.array_equal(snap["S"].values, ref["S"])
    assert not np.array_equal(want[-1]["S"], initial["S"])


def test_field_constructions_do_not_scale_with_steps(monkeypatch):
    calls = []
    original = fields._frozen_array
    monkeypatch.setattr(fields, "_frozen_array",
                        lambda *a: calls.append(1) or original(*a))
    model = evolution_model("m-xxxiv", G1)
    initial = {"S": synth.smooth_spin(G1, seed=2).values, "u": np.zeros((1, 32))}
    counts = []
    for steps in (5, 50):
        calls.clear()
        evolve(model, initial, EvolveOptions(dt=0.002, steps=steps, snapshot_every=steps))
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 8


@pytest.mark.parametrize("kind", ["mxiiia", "mxiiib"])
def test_stationary_residual_reuses_flow_formula(kind):
    """With the flow's own potential, the stationary vector residual is the
    flow right-hand side, bit for bit."""
    grid = Grid(20, 18, 0.2, 0.25, "clamped" if kind == "mxiiia" else "periodic")
    S = synth.smooth_spin(grid, seed=9)
    ab = (0.7, 1.1, -0.4, 0.3)
    system = mxiiia_system if kind == "mxiiia" else mxiiib_system
    rhs, phi = system(S.values, grid, *ab)
    phi = ScalarField(grid, phi)
    params = dict(zip(("a1", "a2", "b1", "b2"), ab))
    rep = stationary_residual(kind, S, phi=phi, params=params)
    assert np.array_equal(rep.vector_residual.values, rhs)


def test_stationary_residual_reuses_mxiii_flow():
    """M-XIII's stationary vector residual is its flow right-hand side from
    `mxiii_terms`, bit for bit, with a varying a3."""
    grid = Grid(20, 18, 0.2, 0.25, "periodic")
    S = synth.smooth_spin(grid, seed=9)
    a3 = ScalarField(grid, 0.2 * synth.smooth_scalar(grid, seed=4).values)
    params = {"a1": 0.7, "a2": 1.1, "b1": -0.4, "b2": 0.3, "a3": a3, "a5": 0.1, "b5": -0.3}
    rep = stationary_residual("mxiii", S, params=params)
    rhs = mxiii_rhs(S.values, grid, mxiii_terms(params, grid))
    assert np.array_equal(rep.vector_residual.values, rhs)


@pytest.mark.parametrize("boundary", ["periodic", "clamped"])
def test_ishimori_residual_is_mxiiias_row(boundary):
    """Ishimori's stationary vector residual is M-XIIIA's at (a1, a2, b1, b2)
    = (0, alpha^2, -1, 0), bit for bit, with a generic phi: M-XIIIA's own phi
    is 0 at a1 + b2 = 0, where the order of the drift terms shows nowhere."""
    grid = Grid(20, 18, 0.2, 0.25, boundary)
    S = synth.smooth_spin(grid, seed=9)
    phi = synth.smooth_scalar(grid, seed=5)
    alpha = 0.8
    ishimori = stationary_residual("ishimori", S, phi=phi, params={"alpha": alpha})
    row = {"a1": 0.0, "a2": alpha * alpha, "b1": -1.0, "b2": 0.0}
    mxiiia = stationary_residual("mxiiia", S, phi=phi, params=row)
    assert np.array_equal(ishimori.vector_residual.values, mxiiia.vector_residual.values)


# ---------------------------------------------------------------------------
# failure paths of the time loop

def counting_rhs(bad_call, bad=np.nan):
    """A binder of a zero right-hand side whose runners write bad into one
    node on run bad_call; rhs.calls counts the runs of all its runners."""
    calls = []

    def rhs(st, k):
        def run():
            calls.append(1)
            k["S"][...] = 0.0
            if len(calls) == bad_call:
                k["S"][1, 0, 3] = bad
        return run
    rhs.calls = calls
    return rhs


@pytest.mark.parametrize("stage", [1, 2, 3, 4])
def test_nan_in_one_stage_is_blowup_at_that_step(grid1d, stage):
    # four right-hand side calls per step: call 4*(7-1) + stage is in step 7
    model = EvolutionModel("nan", counting_rhs(4 * 6 + stage), grid1d)
    with pytest.raises(Blowup) as exc:
        evolve(model, {"S": synth.smooth_spin(grid1d, seed=1).values},
               EvolveOptions(dt=1e-3, steps=20))
    assert exc.value.step == 7


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("stage", [1, 2, 3, 4])
def test_rk4_step_checks_each_stage(stage, bad):
    seen = []

    def rhs(st, k):
        def run():
            seen.append(st["y"].copy())
            k["y"][...] = bad if len(seen) == stage else 1.0
        return run

    with pytest.raises(Blowup) as exc:
        rk4_step(State({"y": np.zeros((1, 1))}), rhs, 0.1, step=3)
    assert exc.value.step == 3
    assert len(seen) == stage    # no later stage ran on the non-finite k


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("stage", [1, 2, 3, 4])
def test_evolve_stops_at_the_stage_that_blew_up(grid1d, stage, bad):
    """The run's bound step checks each stage's k as rk4_step does: the
    right-hand side is not called again after the call that returned bad."""
    rhs = counting_rhs(4 * 6 + stage, bad)
    with pytest.raises(Blowup) as exc:
        evolve(EvolutionModel("bad", rhs, grid1d), {"S": synth.smooth_spin(grid1d, seed=1).values},
               EvolveOptions(dt=1e-3, steps=20))
    assert exc.value.step == 7
    assert len(rhs.calls) == 4 * 6 + stage


def test_collapsing_vector_is_near_zero_norm(grid1d):
    S0 = synth.smooth_spin(grid1d, seed=4).values
    dt = 1e-3
    k = np.zeros_like(S0)
    k[:, 0, 5] = -S0[:, 0, 5] / dt      # one step carries node 5 to the origin
    model = EvolutionModel("collapse", lambda st, dk: lambda: np.copyto(dk["S"], k), grid1d)
    with pytest.raises(NearZeroNorm) as exc:
        evolve(model, {"S": S0}, EvolveOptions(dt=dt, steps=3))
    assert (exc.value.i, exc.value.j) == (5, 0)
    assert exc.value.norm < fields.NORM_FLOOR


def test_overflowing_norm_fails_post_projection_check(grid1d):
    S0 = synth.smooth_spin(grid1d, seed=4).values
    k = np.zeros_like(S0)
    k[:, 0, 2] = 1e200                  # finite state, |S|^2 overflows
    model = EvolutionModel("overflow", lambda st, dk: lambda: np.copyto(dk["S"], k), grid1d)
    with pytest.raises(Blowup) as exc, np.errstate(over="ignore"):
        evolve(model, {"S": S0}, EvolveOptions(dt=1e-3, steps=1))
    assert exc.value.step == 1


def test_is_unit_at_tolerance():
    v = np.array([0.0, 0.0, 1.0]).reshape(3, 1, 1)
    assert is_unit(v * (1.0 + 0.5 * SPIN_NORM_TOL))
    assert not is_unit(v * (1.0 + 2.0 * SPIN_NORM_TOL))
    assert not is_unit(v * np.nan)
