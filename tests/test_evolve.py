import numpy as np
import pytest

from spinsurf import (Blowup, CoefficientSet, EvolveOptions, Grid, GridMismatch,
                      ScalarField, SpinField, SpinsurfError, check_stability,
                      constant_field, energy_proxy, evolve, evolution_model,
                      mxiii_rhs, rk4_step, synth)
from spinsurf.magnetoelastic import _REGISTRY


def pole(grid):
    return SpinField(grid, np.broadcast_to([0.0, 0.0, 1.0],
                                           (grid.ny, grid.nx, 3)).copy())


class TestRk4Step:
    def test_zero_rhs_bitwise_unchanged(self, rng):
        state = {"S": rng.standard_normal((1, 16, 3))}
        out = rk4_step(state, lambda st: {"S": np.zeros_like(st["S"])}, 0.1)
        assert np.array_equal(out["S"], state["S"])

    def test_exponential_taylor_remainder(self):
        dt = 0.1
        state = {"y": np.array([[1.0]])}
        out = rk4_step(state, lambda st: {"y": st["y"]}, dt)
        assert abs(out["y"][0, 0] - np.exp(dt)) <= dt ** 5

    def test_blowup_on_nan(self):
        state = {"y": np.array([[1.0]])}
        with pytest.raises(Blowup):
            rk4_step(state, lambda st: {"y": st["y"] * np.nan}, 0.1, step=7)

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
    """Each snapshot's constraint_residual is max |mxiii_rhs(S)[1]|; with the
    defaults (a1 + b2 = 0, constant a5 and b5) that constraint is zero."""
    g = Grid(16, 14, 0.25, 0.3, "periodic")
    traj = evolve(evolution_model("mxiii", g, params=params),
                  {"S": synth.smooth_spin(g, seed=3).values},
                  EvolveOptions(dt=0.002, steps=6, snapshot_every=2))
    c = CoefficientSet(a2=1.0, **params)
    got = [d["constraint_residual"] for d in traj.diagnostics]
    want = [float(np.abs(mxiii_rhs(snap["S"].values, g, c)[1]).max())
            for snap in traj.snapshots]
    assert len(got) == 4 and got == want
    assert all(v > 0.0 for v in got) if params else all(v == 0.0 for v in got)


def test_stationary_only_model_is_refused():
    with pytest.raises(ValueError, match="check --model ishimori"):
        evolution_model("ishimori", Grid(16, 16, 0.2, 0.2, "periodic"))


def test_0_type_model_needs_u_on_its_grid():
    g = Grid(16, 1, 0.2, 1.0, "periodic")
    with pytest.raises(ValueError, match="needs an external displacement"):
        evolution_model("m-lvii", g)
    with pytest.raises(GridMismatch):
        evolution_model("m-lvii", g, external_u=constant_field(Grid(16, 1, 0.4, 1.0), 0.1))
