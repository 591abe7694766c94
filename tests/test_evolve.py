import gc
import importlib
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from spinsurf import (Blowup, CoefficientSet, EvolveOptions, Grid, GridMismatch,
                      NonConvergence, ScalarField, SpinField, SpinsurfError, check_stability,
                      constant_field, energy_proxy, evolve, evolution_model,
                      diff, me_phonon_rhs, me_spin_rhs, mxiii_constraint, mxiii_terms,
                      rk4_step, synth)
from spinsurf import VecField
from spinsurf.evolve import State, rk4_workspace
from spinsurf.magnetoelastic import _REGISTRY

evolve_module = importlib.import_module("spinsurf.evolve")
models_module = importlib.import_module("spinsurf.models")
magnetoelastic_module = importlib.import_module("spinsurf.magnetoelastic")
fields_module = importlib.import_module("spinsurf.fields")
geometry_module = importlib.import_module("spinsurf.geometry")
solvers_module = importlib.import_module("spinsurf.solvers")


def pole(grid):
    return SpinField(grid, np.broadcast_to(np.reshape([0.0, 0.0, 1.0], (3, 1, 1)),
                                           (3, grid.ny, grid.nx)).copy())


class TestRk4Step:
    def test_zero_rhs_bitwise_unchanged(self, rng):
        state = State({"S": rng.standard_normal((3, 1, 16))})
        out = rk4_step(state, lambda st, k: lambda: k["S"].fill(0.0), 0.1)
        assert np.array_equal(out["S"], state["S"])

    def test_exponential_taylor_remainder(self):
        dt = 0.1
        state = State({"y": np.array([[1.0]])})
        out = rk4_step(state, lambda st, k: lambda: np.copyto(k["y"], st["y"]), dt)
        assert abs(out["y"][0, 0] - np.exp(dt)) <= dt ** 5

    @pytest.mark.parametrize("dt", [0.0, -0.1])
    def test_non_positive_dt_is_refused(self, dt):
        with pytest.raises(ValueError, match="dt must be positive"):
            rk4_step(State({"y": np.array([[1.0]])}), lambda st, k: lambda: None, dt)

    def test_blowup_on_nan(self):
        state = State({"y": np.array([[1.0]])})
        with pytest.raises(Blowup, match="^non-finite value at step 7$"):
            rk4_step(state, lambda st, k: lambda: np.copyto(k["y"], st["y"] * np.nan), 0.1,
                     step=7)

    def test_blowup_when_only_the_final_sum_overflows(self):
        """y' = y from 1e308: every stage and k is finite, but 2 k2 overflows
        the running sum, and the new state is refused at its step."""
        ks = []

        def rhs(st, k):
            def run():
                np.copyto(k["y"], st["y"])
                ks.append(float(k["y"][0, 0]))
            return run

        with pytest.raises(Blowup) as exc, np.errstate(over="ignore"):
            rk4_step(State({"y": np.array([[1e308]])}), rhs, 0.5, step=5)
        assert exc.value.step == 5
        assert len(ks) == 4 and np.isfinite(ks).all()

    def test_hf_self_convergence(self):
        g = Grid(48, 1, 0.2, 1.0, "periodic")
        S0 = synth.smooth_spin(g, seed=21)
        model = evolution_model("hf", g)
        T, errs = 0.064, []
        ref = None
        for steps in (640, 80, 160):
            opts = EvolveOptions(dt=T / steps, steps=steps,
                                 renormalize=False, snapshot_every=steps)
            traj = evolve(model, {"S": S0.values}, opts)
            final = traj.snapshots[-1]["S"].values
            if ref is None:
                ref = final
            else:
                errs.append(np.abs(final - ref).max())
        assert errs[0] / errs[1] > 12.0    # fourth order in time: ~16x


class TestEvolve:
    def test_constant_initial_stays_constant(self, grid1d):
        model = evolution_model("hf", grid1d)
        opts = EvolveOptions(dt=1e-3, steps=20, snapshot_every=10)
        traj = evolve(model, {"S": pole(grid1d).values}, opts)
        for snap in traj.snapshots:
            assert np.all(snap["S"].values == pole(grid1d).values)
        for rec in traj.diagnostics:
            assert rec["max_norm_drift"] == 0.0

    def test_snapshots_and_times(self, grid1d):
        model = evolution_model("hf", grid1d)
        opts = EvolveOptions(dt=1e-3, steps=10, snapshot_every=5)
        traj = evolve(model, {"S": synth.smooth_spin(grid1d, seed=2).values},
                      opts)
        assert len(traj.snapshots) == 3
        assert np.allclose(traj.times, [0.0, 5e-3, 1e-2])

    def test_renormalized_snapshots_are_spin_fields(self, grid1d):
        model = evolution_model("hf", grid1d)
        opts = EvolveOptions(dt=1e-3, steps=5)
        traj = evolve(model, {"S": synth.smooth_spin(grid1d, seed=3).values},
                      opts)
        for S in traj.spins():
            assert isinstance(S, SpinField)

    def test_catalog_model_long_run_no_blowup(self):
        g = Grid(64, 1, 0.2, 1.0, "periodic")
        model = evolution_model("m-xxxiv", g)
        dt = 0.2 * g.dx ** 2
        opts = EvolveOptions(dt=dt, steps=1000, snapshot_every=1000)
        traj = evolve(model, {"S": synth.smooth_spin(g, seed=4).values,
                              "u": np.zeros((1, g.nx))}, opts)
        assert len(traj.snapshots) == 2
        assert np.isfinite(traj.diagnostics[-1]["energy_proxy"])

    def test_wave_model_carries_velocity_field(self):
        g = Grid(64, 1, 0.2, 1.0, "periodic")
        model = evolution_model("m-lii", g)
        assert set(model.fields) == {"S", "u", "w"}
        opts = EvolveOptions(dt=1e-3, steps=10, snapshot_every=10)
        traj = evolve(model, {"S": synth.smooth_spin(g, seed=5).values,
                              "u": np.zeros((1, g.nx)),
                              "w": np.zeros((1, g.nx))}, opts)
        assert "u" in traj.snapshots[-1]

    def test_a_run_takes_the_fields_a_trajectory_holds(self):
        """An initial state of field objects runs as their values do, so a
        run can go on from another run's last snapshot."""
        g = Grid(32, 1, 0.25, 1.0, "periodic")
        model, opts = evolution_model("m-xxxiv", g), EvolveOptions(dt=1e-3, steps=4)
        first = evolve(model, {"S": synth.hasimoto_soliton(g),
                               "u": ScalarField(g, np.zeros((1, 32)))}, opts)
        again = evolve(model, first.snapshots[-1], opts)
        want = evolve(model, {k: first.snapshots[-1][k].values for k in model.fields}, opts)
        for snap, ref in zip(again.snapshots, want.snapshots):
            for k in model.fields:
                assert np.array_equal(snap[k].values, ref[k].values)

    @pytest.mark.parametrize("name", ["S", "u"])
    def test_initial_shapes_checked_against_grid(self, name):
        g = Grid(16, 1, 0.2, 1.0, "periodic")
        initial = {"S": synth.smooth_spin(g, seed=1).values, "u": np.zeros((1, 16))}
        initial[name] = np.concatenate([initial[name]] * 2)
        with pytest.raises(ValueError, match=f"initial {name} has shape"):
            evolve(evolution_model("m-xxxiv", g), initial,
                   EvolveOptions(dt=1e-4, steps=1))

    def test_initial_state_missing_a_field_is_refused(self):
        g = Grid(16, 1, 0.2, 1.0, "periodic")
        with pytest.raises(ValueError, match=r"initial state is missing fields \['u', 'w'\]"):
            evolve(evolution_model("m-lii", g), {"S": synth.smooth_spin(g, seed=1).values},
                   EvolveOptions(dt=1e-4, steps=1))

    @pytest.mark.parametrize("name", ["hf", "mxiiib", "m-xxxiv", "m-lii"])
    def test_external_u_only_for_0_type_models(self, name):
        g = Grid(16, 16 if name == "mxiiib" else 1, 0.2, 0.2, "periodic")
        with pytest.raises(ValueError, match="external displacement"):
            evolution_model(name, g, external_u=constant_field(g, 0.1))

    def test_stability_bound_enforced(self, grid1d):
        model = evolution_model("hf", grid1d)
        with pytest.raises(SpinsurfError):
            evolve(model, {"S": pole(grid1d).values},
                   EvolveOptions(dt=1.0, steps=1))
        # same dt passes with the override
        evolve(model, {"S": pole(grid1d).values},
               EvolveOptions(dt=1.0, steps=1, allow_unstable_dt=True))

    @pytest.mark.parametrize("safety", [np.nan, np.inf, 0.0, -0.2])
    def test_dt_safety_must_be_positive_and_finite(self, safety):
        # nan would switch the stability check off, a negative value invert it
        with pytest.raises(ValueError, match="dt_safety"):
            EvolveOptions(dt=1e-4, steps=1, dt_safety=safety)

    def test_fourth_order_model_tighter_bound(self):
        g = Grid(64, 1, 0.2, 1.0, "periodic")
        # family D carries a fourth derivative; 0-type models take a fixed
        # external displacement field
        model = evolution_model("m-liv", g,
                                external_u=constant_field(g, 0.1))
        assert model.spatial_order == 4
        dt2 = 0.2 * g.dx ** 2
        with pytest.raises(SpinsurfError):
            check_stability(model, EvolveOptions(dt=dt2, steps=1))


class TestEnergyProxy:
    def test_constant_zero(self, grid1d):
        assert energy_proxy(pole(grid1d)) == 0.0

    def test_equator_map_analytic(self):
        n, k = 256, 2.0
        g = Grid(n, 1, 2 * np.pi / n, 1.0, "periodic")
        S = synth.equator_spin(g, a=k)
        L = n * g.dx
        # the discrete spectrum shifts k^2 to (sin(k dx)/dx)^2: rel tol 2e-3
        assert abs(energy_proxy(S) - k ** 2 * L) < 2e-3 * k ** 2 * L


# ---------------------------------------------------------------------------
# the periodic HF chain against what its semi-discrete equations fix exactly

SPIN_WAVE_GRID = Grid(64, 1, 0.2, 1.0, "periodic")
RK4_RATIO_WINDOW = (14.0, 18.0)     # fourth-order halving window; 15.99 and 15.95 measured
SPIN_WAVE_ERROR = 2.0e-10           # at dt = 0.2 h^2 to t = 0.4; 1.06e-10 measured
ENERGY_DRIFT = 1.5e-9               # over 2,000 steps at dt = 0.2 h^2; 1.3e-10 measured
TOTAL_SPIN_DRIFT = 1.0e-10          # the same run; 9.4e-12 measured


def spin_wave(g, t, theta=0.7, mode=3):
    """S = (sin th cos ph, sin th sin ph, cos th), ph = kx - w t, with
    w = cos th (4/h^2) sin^2(kh/2): an exact solution of the periodic
    semi-discrete HF chain S_t = S ^ (S_{i+1} - 2 S_i + S_{i-1})/h^2,
    whose norm stays 1."""
    h = g.dx
    k = 2 * np.pi * mode / (g.nx * h)
    phase = k * g.x() - np.cos(theta) * (4 / h ** 2) * np.sin(k * h / 2) ** 2 * t
    return np.stack([np.sin(theta) * np.cos(phase), np.sin(theta) * np.sin(phase),
                     np.full(g.nx, np.cos(theta))])[:, None, :]


def test_hf_spin_wave_fourth_order_in_time():
    """RK4's error against the closed-form spin wave falls 16-fold per
    halving of dt: space is exact, so only the time error is left."""
    g, t_end = SPIN_WAVE_GRID, 0.4
    errs = []
    for div in (1, 2, 4):
        dt = 0.2 * g.dx ** 2 / div
        steps = round(t_end / dt)
        traj = evolve(evolution_model("hf", g), {"S": spin_wave(g, 0.0)},
                      EvolveOptions(dt=dt, steps=steps, snapshot_every=steps))
        errs.append(np.abs(traj.spins()[-1].values - spin_wave(g, steps * dt)).max())
    assert errs[0] <= SPIN_WAVE_ERROR
    for coarse, fine in zip(errs, errs[1:]):
        assert RK4_RATIO_WINDOW[0] <= coarse / fine <= RK4_RATIO_WINDOW[1]


def test_hf_chain_conserves_energy_and_total_spin():
    """The periodic HF chain conserves E = (2/h) sum(1 - S_i.S_{i+1}) and
    sum S_i h (its triple products telescope); RK4 with projection keeps
    both to within pinned drifts."""
    g = SPIN_WAVE_GRID
    traj = evolve(evolution_model("hf", g), {"S": synth.smooth_spin(g, seed=1).values},
                  EvolveOptions(dt=0.2 * g.dx ** 2, steps=2000, snapshot_every=100))
    s = np.stack([S.values for S in traj.spins()])
    energy = 2 / g.dx * np.sum(1 - np.sum(s * np.roll(s, -1, axis=-1), axis=1), axis=(1, 2))
    total = s.sum(axis=(2, 3)) * g.dx
    assert len(s) == 21 and energy[0] > 0.2
    assert np.abs(energy - energy[0]).max() <= ENERGY_DRIFT
    assert np.abs(total - total[0]).max() <= TOTAL_SPIN_DRIFT


# The periodic semi-discrete LLE, S_t = S ^ (S_xx + S_yy), conserves
# E = sum[(1 - S.S_{i+1,j}) / dx^2 + (1 - S.S_{i,j+1}) / dy^2] dx dy and
# sum S dx dy, as HF does along each axis. 2,000 steps at dt = 0.2 min(dx,
# dy)^2 from smooth_spin(seed=1) on a square-cell and a dx != dy grid (the
# two branches of `fields._bind_wedge`) measured E drifts of 3.1e-8 and
# 4.8e-8 and total-spin drifts of 2.7e-9 and 4.0e-9.
LLE_ENERGY_DRIFT = 5e-7
LLE_TOTAL_SPIN_DRIFT = 5e-8


@pytest.mark.parametrize("nx, ny, dx, dy", [(64, 64, 0.2, 0.2), (64, 48, 0.2, 0.25)],
                         ids=["square", "dx!=dy"])
def test_lle_conserves_energy_and_total_spin(nx, ny, dx, dy):
    g = Grid(nx, ny, dx, dy, "periodic")
    traj = evolve(evolution_model("lle", g), {"S": synth.smooth_spin(g, seed=1).values},
                  EvolveOptions(dt=0.2 * min(dx, dy) ** 2, steps=2000, snapshot_every=100))
    s = np.stack([S.values for S in traj.spins()])
    bonds = [1 - np.sum(s * np.roll(s, -1, axis), axis=1) for axis in (-1, -2)]
    energy = np.sum(bonds[0] / dx ** 2 + bonds[1] / dy ** 2, axis=(1, 2)) * dx * dy
    total = s.sum(axis=(2, 3)) * dx * dy
    assert len(s) == 21 and energy[0] > 1.0
    assert np.abs(energy - energy[0]).max() <= LLE_ENERGY_DRIFT
    assert np.abs(total - total[0]).max() <= LLE_TOTAL_SPIN_DRIFT


# The periodic phonon equations are in conservation form: M-XXXIV's
# u_t = -(u + lam q)_x and M-LII's w_t = (nu0^2 u + lam q)_xx / rho sum to
# zero over the chain, so sum(u) h and sum(w) h stay fixed. 64 sites,
# h = 0.1, 2,000 steps at dt = 0.2 h^2, from a u (M-XXXIV) or w (M-LII) of
# mean 0.5: 2.7e-15 and 1.3e-15 measured.
PHONON_TOTAL_DRIFT = 3e-14


@pytest.mark.parametrize("name, field", [("m-xxxiv", "u"), ("m-lii", "w")])
def test_periodic_phonons_conserve_their_total(name, field):
    g = Grid(64, 1, 0.1, 1.0, "periodic")
    model = evolution_model(name, g)
    initial = {"S": synth.smooth_spin(g, seed=1).values,
               **{f: synth.smooth_scalar(g, seed=2 + i).values for i, f in
                  enumerate(model.fields[1:])}}
    initial[field] = initial[field] + 0.5
    traj = evolve(model, initial, EvolveOptions(dt=0.2 * g.dx ** 2, steps=2000,
                                                snapshot_every=100))
    total = np.array([snap[field].values.sum() * g.dx for snap in traj.snapshots])
    assert len(total) == 21 and abs(total[0] - 3.2) < 1e-12
    assert np.abs(total - total[0]).max() <= PHONON_TOTAL_DRIFT


# ---------------------------------------------------------------------------
# step bounds from each model's highest x-derivative

CATALOG = [name for name, spec in _REGISTRY.items() if spec.implemented]
KDV_ORDER_3 = ("M-XLIX", "M-XLV", "M-XLI", "M-XXXIII")


def catalog_model(name, g):
    """evolution_model for a catalog name; 0-type models get u = 0."""
    u = constant_field(g, 0.0) if _REGISTRY[name].phonon == "none" else None
    return evolution_model(name, g, external_u=u)


def test_spatial_order_is_the_highest_derivative():
    g1, g2 = Grid(16, 1, 0.2, 1.0, "periodic"), Grid(16, 16, 0.2, 0.2, "periodic")
    g2c = Grid(16, 16, 0.2, 0.2, "clamped")         # the one M-XIIIA's potential takes
    for name in ("hf", "lle", "mxiii", "mxiiia", "mxiiib"):
        assert evolution_model(name, g2c if name == "mxiiia" else g2).spatial_order == 2
    for name in CATALOG:
        spec = _REGISTRY[name]
        # the bound before the KdV models got h^3: 4 for family D and the
        # Boussinesq phonons, else 2
        before = 4 if spec.spin == "D" or spec.phonon == "boussinesq" else 2
        want = 3 if name in KDV_ORDER_3 else before
        assert catalog_model(name, g1).spatial_order == want, name


@pytest.mark.parametrize("name", KDV_ORDER_3 + ("M-XXXVII",))
def test_kdv_models_run_at_their_admitted_dt(name):
    g = Grid(128, 1, 0.1, 1.0, "periodic")
    model = evolution_model(name, g)
    dt = 0.2 * g.dx ** model.spatial_order
    opts = EvolveOptions(dt=dt, steps=500, snapshot_every=500)
    check_stability(model, opts)
    traj = evolve(model, {"S": synth.smooth_spin(g, seed=1).values,
                          "u": np.zeros((1, 128))}, opts)
    assert np.isfinite(traj.snapshots[-1]["u"].values).all()


@pytest.mark.parametrize("params", [{}, {"a1": 0.7, "b2": 0.4}])
def test_mxiii_constraint_diagnostic(params):
    """Each snapshot's constraint_residual is max |mxiii_constraint(S)|; with the
    defaults (a1 + b2 = 0, constant a5 and b5) that constraint is zero."""
    g = Grid(16, 14, 0.25, 0.3, "periodic")
    traj = evolve(evolution_model("mxiii", g, params=params),
                  {"S": synth.smooth_spin(g, seed=3).values},
                  EvolveOptions(dt=0.002, steps=6, snapshot_every=2))
    c = mxiii_terms(params, g)
    got = [d["constraint_residual"] for d in traj.diagnostics]
    want = [float(np.abs(mxiii_constraint(s, g, diff(s, g, "dx"), diff(s, g, "dy"), c)).max())
            for s in (snap["S"].values for snap in traj.snapshots)]
    assert len(got) == 4 and got == want
    assert all(v > 0.0 for v in got) if params else all(v == 0.0 for v in got)


def test_steps_must_be_a_multiple_of_snapshot_every():
    """With 7 steps and a snapshot every 5, steps 6 and 7 would go unreported."""
    with pytest.raises(ValueError, match="steps = 7 is not a multiple of snapshot_every = 5"):
        EvolveOptions(dt=1e-4, steps=7, snapshot_every=5)


def test_field_of_a_right_hand_side_leaves_the_model_usable():
    """Wrapping the derivative k that a model's rhs wrote in a field copies
    it: k stays writeable, the next rhs call overwrites it, and the next
    evolve with the model runs."""
    g = Grid(16, 16, 0.25, 0.25, "periodic")
    model = evolution_model("lle", g)
    s = synth.smooth_spin(g, seed=1).values
    k = State({"S": np.zeros_like(s)})
    model.rhs({"S": s}, k)()
    field = VecField(g, k["S"])
    before = k["S"].copy()
    model.rhs({"S": synth.smooth_spin(g, seed=2).values}, k)()
    evolve(model, {"S": s}, EvolveOptions(dt=0.002, steps=2, snapshot_every=2))
    assert k["S"].flags.writeable and not np.array_equal(k["S"], before)
    assert np.array_equal(field.values, before)


def test_stationary_only_model_is_refused():
    with pytest.raises(ValueError, match="check --model ishimori"):
        evolution_model("ishimori", Grid(16, 16, 0.2, 0.2, "periodic"))


def test_0_type_model_needs_u_on_its_grid():
    g = Grid(16, 1, 0.2, 1.0, "periodic")
    with pytest.raises(ValueError, match="needs an external displacement"):
        evolution_model("m-lvii", g)
    with pytest.raises(GridMismatch):
        evolution_model("m-lvii", g, external_u=constant_field(Grid(16, 1, 0.4, 1.0), 0.1))


# ---------------------------------------------------------------------------
# the time loop reuses its arrays (test_core compares it bit for bit with a
# loop that allocates them)

def test_lle_steps_allocate_no_grid_sized_array(monkeypatch):
    """An LLE step on 128^2 (RK4 with its right-hand sides, projection and
    drift) allocates no (3, ny, nx) float array, the first one included: the
    run binds its flow, neighbour sums and all, before it steps, and each
    step's traced peak stays below one array."""
    g = Grid(128, 128, 0.2, 0.2, "periodic")
    grid_array = g.ny * g.nx * 3 * 8
    marks = []      # (current, peak) traced bytes as each step starts

    def marked(*args, **kwargs):
        marks.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        return rk4_step(*args, **kwargs)

    monkeypatch.setattr(evolve_module, "rk4_step", marked)
    initial = {"S": synth.smooth_spin(g, seed=1).values}
    tracemalloc.start()
    try:
        evolve(evolution_model("lle", g), initial,
               EvolveOptions(dt=0.008, steps=4, snapshot_every=4))
    finally:
        tracemalloc.stop()
    # growth above the level at its start, for steps 1-3
    growth = [peak - start for (start, _), (_, peak) in zip(marks, marks[1:])]
    assert max(growth) < grid_array
    # before step 1: the state, RK4's stage, k and k1, both neighbour sums,
    # the norms' squares and the first snapshot's copy of S
    assert marks[0][0] > 8 * grid_array


def count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: calls.append(1) or original(*a))
    return calls


def count_runs(monkeypatch, module, name):
    """Binds and runs of the binder module.name: each call appends "bind",
    and each run of a runner it returned appends "run"."""
    calls = []
    original = getattr(module, name)

    def bind(*a):
        run = original(*a)
        calls.append("bind")
        return lambda: calls.append("run") or run()

    monkeypatch.setattr(module, name, bind)
    return calls


def test_snapshot_potential_does_not_rerun_the_flow(monkeypatch):
    """The monitor solves only for phi: 20 steps are 80 flow evaluations,
    whatever the number of snapshots."""
    calls = count_runs(monkeypatch, models_module, "_bind_system")
    g = Grid(64, 64, 0.2, 0.2, "periodic")
    traj = evolve(evolution_model("mxiiib", g), {"S": synth.smooth_spin(g, seed=2).values},
                  EvolveOptions(dt=0.008, steps=20, snapshot_every=4))
    assert len(traj.snapshots) == 6 and all("phi" in snap for snap in traj.snapshots)
    assert (calls.count("bind"), calls.count("run")) == (2, 80)


def test_mxiii_constraint_does_not_rerun_the_flow(monkeypatch):
    calls = count_runs(monkeypatch, models_module, "_bind_system")
    g = Grid(16, 14, 0.25, 0.3, "periodic")
    traj = evolve(evolution_model("mxiii", g, params={"a1": 0.7}),
                  {"S": synth.smooth_spin(g, seed=3).values},
                  EvolveOptions(dt=0.002, steps=6, snapshot_every=2))
    assert len(traj.diagnostics) == 4 and (calls.count("bind"), calls.count("run")) == (2, 24)


# each named right-hand side -> the binder its flow runs
FLOW_BINDERS = {"hf_rhs": (models_module, "_bind_wedge"), "lle_rhs": (models_module, "_bind_lle"),
                "mxiiia_system": (models_module, "_bind_system"),
                "mxiiib_system": (models_module, "_bind_system"),
                "me_spin_rhs": (magnetoelastic_module, "_bind_spin"),
                "me_phonon_rhs": (magnetoelastic_module, "_bind_phonon")}


@pytest.mark.parametrize("kind, name, grid", [
    ("hf", "hf_rhs", Grid(32, 1, 0.25, 0.25, "periodic")),
    ("lle", "lle_rhs", Grid(16, 14, 0.25, 0.3, "periodic")),
    ("mxiiia", "mxiiia_system", Grid(16, 14, 0.25, 0.3, "clamped")),
    ("mxiiib", "mxiiib_system", Grid(16, 14, 0.25, 0.3, "periodic")),
    ("m-xxxiv", "me_spin_rhs", Grid(32, 1, 0.25, 0.25, "periodic")),
    ("m-xxxiv", "me_phonon_rhs", Grid(32, 1, 0.25, 0.25, "periodic")),
])
def test_a_flow_runs_its_bound_runner_not_the_named_function(monkeypatch, kind, name, grid):
    """A flow binds its formula twice per run, for the state and for RK4's
    stage array, and runs those runners 4 times a step. It never calls the
    named right-hand side on `spinsurf.models` (or `spinsurf.magnetoelastic`),
    which binds and runs the same binder once per call; for hf and lle,
    `stationary_residual` evaluates that name."""
    module = magnetoelastic_module if name.startswith("me_") else models_module
    named = count_calls(monkeypatch, module, name)
    runs = count_runs(monkeypatch, *FLOW_BINDERS[name])
    S = synth.smooth_spin(grid, seed=3)
    initial = {"S": S.values, "u": 0.1 * synth.smooth_scalar(grid, seed=4).values}
    evolve(evolution_model(kind, grid), initial, EvolveOptions(dt=0.002, steps=6, snapshot_every=3))
    assert (runs.count("bind"), runs.count("run"), len(named)) == (2, 24, 0)
    if kind in ("hf", "lle"):
        models_module.stationary_residual(kind, S)
        assert len(named) == 1


def count_binds(monkeypatch, names=("_bind_d1", "_bind_d2", "_bind_sum", "_bind_wedge",
                                    "_bind_cross")):
    """Calls of the kernel binders names, by default first and second
    differences, `_bind_wedge` with its neighbour sums, and cross products,
    patched on every module that imports them by name (a from-import escapes
    a patch on `fields` alone)."""
    calls = []
    for name in names:
        original = getattr(fields_module, name)
        for module in (fields_module, models_module, magnetoelastic_module):
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    lambda *a, name=name, f=original: calls.append(name) or f(*a))
    return calls


@pytest.mark.parametrize("name, boundary, fields", [
    ("hf", "periodic", ("S",)), ("m-xxxiv", "periodic", ("S", "u")),
    ("m-xliv", "clamped", ("S", "u", "w")), ("m-lvii", "clamped", ("S",)),
    ("m-lii", "periodic", ("S", "u", "w")), ("m-xl", "periodic", ("S", "u", "w")),
    ("lle", "clamped", ("S",)), ("mxiii", "periodic", ("S",)), ("mxiiia", "clamped", ("S",)),
    ("mxiiib", "periodic", ("S",)), ("m-xlvii", "clamped", ("S", "u", "w")),
    ("m-xli", "periodic", ("S", "u"))])
def test_stencils_bind_once_per_run_not_per_stage(monkeypatch, name, boundary, fields):
    """A flow's binder runs exactly twice per evolve call, for the state and
    for RK4's stage array, and binds the same kernels, cross products
    included, each time: 12 steps bind what 6 do. The two snapshots of each run
    (snapshot_every = steps) difference S once each. The rows cover every
    section flow, spin families A-E and phonon families none, wave,
    boussinesq, advection and kdv."""
    g = Grid(32, 1 if name.startswith(("hf", "m-")) else 12, 0.25, 0.25, boundary)
    initial = {"S": synth.smooth_spin(g, seed=5).values, "u": np.zeros((1, 32)),
               "w": np.zeros((1, 32))}
    external = ScalarField(g, 0.1 * synth.smooth_scalar(g, seed=6).values)
    counts = []
    for steps in (6, 12):
        calls = count_binds(monkeypatch)
        model = evolution_model(name, g, external_u=external if name == "m-lvii" else None)
        binds = []      # the kernel binds each call of the flow's binder made

        def bind(st, k, flow=model.rhs):
            start = len(calls)
            run = flow(st, k)
            binds.append(calls[start:])
            return run

        evolve(replace(model, rhs=bind), {k: initial[k] for k in fields},
               EvolveOptions(dt=0.2 * 0.25 ** model.spatial_order, steps=steps,
                             snapshot_every=steps))
        assert len(binds) == 2 and sorted(binds[0]) == sorted(binds[1])
        counts.append(sorted(calls))
        monkeypatch.undo()
    assert counts[0] == counts[1]
    if name == "hf":    # _bind_wedge (sums, cross) for state and stage; a diff per snapshot
        assert counts[0] == ["_bind_cross", "_bind_cross", "_bind_d1", "_bind_d1",
                             "_bind_sum", "_bind_sum", "_bind_wedge", "_bind_wedge"]
    if name in ("m-lii", "m-xl"):   # A: _bind_wedge's and S ^ e3; D: S ^ S_x and S ^ S_xxxx
        assert counts[0].count("_bind_cross") == 4


@pytest.mark.parametrize("kind, boundary", [("mxiiib", "periodic"), ("mxiiia", "clamped")])
def test_a_bound_potential_flow_replays_without_binding(monkeypatch, kind, boundary):
    """M-XIIIA/B's potential (its source, the solve and phi's drift
    differences) is bound with the rest of the flow: three steps of a bound
    RK4 step bind no difference, cross or dot product. The bound runner's k
    and phi, and the monitor's phi, are the named system's, bit for bit."""
    g = Grid(16, 14, 0.25, 0.3, boundary)
    model = evolution_model(kind, g, params=_AB)
    s = synth.smooth_spin(g, seed=7).values
    state = State({"S": s})
    step = rk4_workspace(state, model.rhs, 1e-3, State(state))
    calls = count_binds(monkeypatch, ("_bind_d1", "_bind_d2", "_bind_cross", "_bind_dot"))
    for n in (1, 2, 3):
        step(n)
    assert calls == []
    monkeypatch.undo()
    k = State({"S": np.full(s.shape, np.nan)})
    out, phi, _, _ = model.rhs(state, k)()
    named = getattr(models_module, f"{kind}_system")(s, g, *mxiii_terms(_AB, g)[0])
    assert out is k["S"] and np.array_equal(out, named[0]) and np.array_equal(phi, named[1])
    assert np.array_equal(model.monitor(state)[0]["phi"].values, phi)


def test_a_bound_potential_keeps_its_back_substitution_check(monkeypatch):
    """The bound Poisson solve checks its back-substitution at every run: with
    the symbol doubled before binding, the flow, without the monitor that
    solves at the first snapshot, fails in step 1."""
    symbol = solvers_module._symbol
    monkeypatch.setattr(solvers_module, "_symbol", lambda g: 2.0 * symbol(g))
    steps = []
    monkeypatch.setattr(evolve_module, "rk4_step",
                        lambda *a, f=rk4_step, **kw: steps.append(a[3]) or f(*a, **kw))
    g = Grid(16, 16, 0.25, 0.25, "periodic")
    model = evolution_model("mxiiib", g)
    with pytest.raises(NonConvergence):
        evolve(replace(model, monitor=None), {"S": synth.smooth_spin(g, seed=2).values},
               EvolveOptions(dt=1e-3, steps=4, snapshot_every=4))
    assert steps == [1]


def test_a_model_keeps_no_plans_between_runs():
    """Each run's runners, with the arrays bound to them, end with the run:
    after three runs of one model, no runner its binder made is alive while
    the model is."""
    runners, kept = [], []

    def remembered(bind):
        return lambda st, k: runners.append(weakref.ref(run := bind(st, k))) or run

    for name, g in (("lle", Grid(16, 16, 0.25, 0.25, "periodic")),
                    ("m-xl", Grid(32, 1, 0.25, 0.25, "periodic"))):
        model = evolution_model(name, g)
        model = replace(model, rhs=remembered(model.rhs))
        initial = {"S": synth.smooth_spin(g, seed=1).values, "u": np.zeros((1, 32)),
                   "w": np.zeros((1, 32))}
        for _ in range(3):
            evolve(model, {k: initial[k] for k in model.fields},
                   EvolveOptions(dt=0.2 * 0.25 ** model.spatial_order, steps=4, snapshot_every=4))
        kept.append(model)
    gc.collect()
    assert len(kept) == 2 and len(runners) == 12 and all(ref() is None for ref in runners)


def test_mxiii_coefficients_resolved_once_per_run(monkeypatch):
    """The coefficient set is fixed for the run: evolution_model checks it
    once and differentiates the varying a3 once per axis, and no RK4 stage
    or snapshot does either again."""
    checks = count_calls(monkeypatch, CoefficientSet, "check_grid")
    diffs = count_calls(monkeypatch, geometry_module, "diff")
    g = Grid(16, 14, 0.25, 0.3, "periodic")
    a3 = ScalarField(g, 0.2 * synth.smooth_scalar(g, seed=4).values)
    traj = evolve(evolution_model("mxiii", g, params={"a1": 0.7, "a3": a3}),
                  {"S": synth.smooth_spin(g, seed=3).values},
                  EvolveOptions(dt=0.002, steps=6, snapshot_every=2))
    assert len(traj.snapshots) == 4
    assert (len(checks), len(diffs)) == (1, 2)


def test_mxiii_constraint_once_per_snapshot(monkeypatch):
    """The constraint is a snapshot diagnostic: no RK4 stage evaluates it."""
    calls = [count_calls(monkeypatch, models_module, "mxiii_constraint")]
    g = Grid(16, 14, 0.25, 0.3, "periodic")
    traj = evolve(evolution_model("mxiii", g, params={"a1": 0.7}),
                  {"S": synth.smooth_spin(g, seed=3).values},
                  EvolveOptions(dt=0.002, steps=6, snapshot_every=2))
    assert len(traj.snapshots) == sum(map(len, calls)) == 4


# ---------------------------------------------------------------------------
# a bound flow and its named function share one binder, so the same bits

SECTION_ROWS = [("hf", "periodic"), ("hf", "clamped"), ("lle", "periodic"), ("lle", "clamped"),
                ("mxiii", "periodic"), ("mxiii", "clamped"), ("mxiiia", "clamped"),
                ("mxiiib", "periodic")]
# each section flow's constants, away from their defaults
_AB = {"a1": 0.7, "a2": 1.1, "b1": -0.5, "b2": 0.4}
ROW_PARAMS = {"hf": {}, "lle": {}, "mxiii": {**_AB, "a3": 0.3, "a5": -0.2, "b5": 0.1},
              "mxiiia": _AB, "mxiiib": _AB}


def named_section_rhs(kind, s, g, params):
    if kind in ("hf", "lle"):
        return getattr(models_module, f"{kind}_rhs")(s, g)
    terms = mxiii_terms(params, g)
    if kind == "mxiii":
        return models_module.mxiii_rhs(s, g, terms)
    return getattr(models_module, f"{kind}_system")(s, g, *terms[0])[0]


@pytest.mark.parametrize("kind, boundary", SECTION_ROWS)
def test_a_bound_section_flow_is_bitwise_its_named_function(kind, boundary):
    """Every section flow, on each boundary it accepts, at a non-constant
    state: the k that evolution_model's bound flow writes is the named
    right-hand side's result, bit for bit."""
    g = Grid(32, 1, 0.25, 0.25, boundary) if kind == "hf" else Grid(16, 14, 0.25, 0.3, boundary)
    params = ROW_PARAMS[kind]
    s = synth.smooth_spin(g, seed=7).values
    st, k = State({"S": s}), State({"S": np.full(s.shape, np.nan)})
    evolution_model(kind, g, params=params).rhs(st, k)()
    assert np.array_equal(k["S"], named_section_rhs(kind, s, g, params))


@pytest.mark.parametrize("boundary", ["periodic", "clamped"])
@pytest.mark.parametrize("name", [n for n, spec in _REGISTRY.items() if spec.implemented])
def test_a_bound_catalog_flow_is_bitwise_its_named_functions(name, boundary):
    """Every implemented catalog entry, on both boundaries, at a non-constant
    state and with constants away from 1: the k that evolution_model's bound
    flow writes is me_spin_rhs's and me_phonon_rhs's results, bit for bit."""
    g = Grid(24, 1, 0.2, 1.0, boundary)
    spec = _REGISTRY[name]
    rng = np.random.default_rng(len(name))
    params = {c: rng.uniform(0.5, 2.0) for c in spec.params}
    external = ScalarField(g, 0.3 * synth.smooth_scalar(g, seed=8).values)
    model = evolution_model(name, g, params=params,
                            external_u=external if spec.phonon == "none" else None)
    s, u = synth.smooth_spin(g, seed=5).values, 0.3 * synth.smooth_scalar(g, seed=6).values
    w = 0.2 * synth.smooth_scalar(g, seed=7).values
    st = State({n: a for n, a in (("S", s), ("u", u), ("w", w)) if n in model.fields})
    k = State({n: np.full(st[n].shape, np.nan) for n in model.fields})
    model.rhs(st, k)()
    spec = spec.with_params(**params)
    u = external.values if spec.phonon == "none" else u
    want = [me_spin_rhs(spec, s, u, g)]
    if spec.phonon != "none":
        want += me_phonon_rhs(spec, s, u, w, g)
    assert all(np.array_equal(k[n], b) for n, b in zip(("S", "u", "w"), want) if b is not None)
    assert len([b for b in want if b is not None]) == len(model.fields)
