import importlib
import tracemalloc

import numpy as np
import pytest

from spinsurf import (Blowup, CoefficientSet, EvolveOptions, Grid, GridMismatch,
                      ScalarField, SpinField, SpinsurfError, check_stability,
                      constant_field, energy_proxy, evolve, evolution_model,
                      diff, mxiii_constraint, mxiii_terms, rk4_step, synth)
from spinsurf import VecField
from spinsurf.evolve import State
from spinsurf.magnetoelastic import _REGISTRY

evolve_module = importlib.import_module("spinsurf.evolve")
models_module = importlib.import_module("spinsurf.models")
geometry_module = importlib.import_module("spinsurf.geometry")


def pole(grid):
    return SpinField(grid, np.broadcast_to(np.reshape([0.0, 0.0, 1.0], (3, 1, 1)),
                                           (3, grid.ny, grid.nx)).copy())


class TestRk4Step:
    def test_zero_rhs_bitwise_unchanged(self, rng):
        state = State({"S": rng.standard_normal((3, 1, 16))})
        out = rk4_step(state, lambda st, k: k["S"].fill(0.0), 0.1)
        assert np.array_equal(out["S"], state["S"])

    def test_exponential_taylor_remainder(self):
        dt = 0.1
        state = State({"y": np.array([[1.0]])})
        out = rk4_step(state, lambda st, k: np.copyto(k["y"], st["y"]), dt)
        assert abs(out["y"][0, 0] - np.exp(dt)) <= dt ** 5

    @pytest.mark.parametrize("dt", [0.0, -0.1])
    def test_non_positive_dt_is_refused(self, dt):
        with pytest.raises(ValueError, match="dt must be positive"):
            rk4_step(State({"y": np.array([[1.0]])}), lambda st, k: None, dt)

    def test_blowup_on_nan(self):
        state = State({"y": np.array([[1.0]])})
        with pytest.raises(Blowup):
            rk4_step(state, lambda st, k: np.copyto(k["y"], st["y"] * np.nan), 0.1, step=7)

    def test_blowup_when_only_the_final_sum_overflows(self):
        """y' = y from 1e308: every stage and k is finite, but 2 k2 overflows
        the running sum, and the new state is refused at its step."""
        ks = []

        def rhs(st, k):
            np.copyto(k["y"], st["y"])
            ks.append(float(k["y"][0, 0]))

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
    for name in ("hf", "lle", "mxiii", "mxiiia", "mxiiib"):
        assert evolution_model(name, g2).spatial_order == 2
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
    model.rhs({"S": s}, k)
    field = VecField(g, k["S"])
    before = k["S"].copy()
    model.rhs({"S": synth.smooth_spin(g, seed=2).values}, k)
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
    """After the first, an LLE step on 128^2 (RK4 with its right-hand sides,
    projection and drift) allocates no (3, ny, nx) float array: its traced
    peak stays below one."""
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
    assert growth[0] > 3 * grid_array     # the first step allocates the buffers
    assert max(growth[1:]) < grid_array


def count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: calls.append(1) or original(*a))
    return calls


def test_snapshot_potential_does_not_rerun_the_flow(monkeypatch):
    """The monitor solves only for phi: 20 steps are 80 flow evaluations,
    whatever the number of snapshots."""
    calls = count_calls(monkeypatch, models_module, "_flow")
    g = Grid(64, 64, 0.2, 0.2, "periodic")
    traj = evolve(evolution_model("mxiiib", g), {"S": synth.smooth_spin(g, seed=2).values},
                  EvolveOptions(dt=0.008, steps=20, snapshot_every=4))
    assert len(traj.snapshots) == 6 and all("phi" in snap for snap in traj.snapshots)
    assert len(calls) == 80


def test_mxiii_constraint_does_not_rerun_the_flow(monkeypatch):
    calls = count_calls(monkeypatch, models_module, "mxiii_rhs")
    g = Grid(16, 14, 0.25, 0.3, "periodic")
    traj = evolve(evolution_model("mxiii", g, params={"a1": 0.7}),
                  {"S": synth.smooth_spin(g, seed=3).values},
                  EvolveOptions(dt=0.002, steps=6, snapshot_every=2))
    assert len(traj.diagnostics) == 4 and len(calls) == 24


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
