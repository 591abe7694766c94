"""Acceptance suite: one test per release criterion, tolerances pinned.

Each test states its criterion in the docstring; tolerances and pinned
measurements are module constants so a regression shows up as a single
changed number.
"""

import numpy as np
import pytest

from spinsurf import (CLAMPED, PERIODIC, CoefficientSet, EvolveOptions, Grid,
                      ScalarField, SpinField, UnimplementedModel,
                      build_C, classical_coeffs, constant_field, cross, diff,
                      evolve, evolution_model, fileio, hasimoto, me_spin_rhs,
                      mf_tangents, mixed_integrate, n_system_residual,
                      nlse_residual, nlse_soliton, pauli_oracle_rhs,
                      poisson_solve, reconstruct_surface, solve_D,
                      stationary_residual, synth, zc_residual, catalog_lookup)
from spinsurf.cli import main
from spinsurf.magnetoelastic import _REGISTRY
from spinsurf.models import PHI_KINDS

CURL_MATCH_TOL = 1e-10            # criterion 1
RATIO_WINDOW = (3.3, 4.7)         # second-order halving window
PINNED_DRIFT_PER_STEP = 2.0e-14   # criterion 3: pre-build measurement
POISSON_TOL = 1e-10               # criterion 5
ORACLE_TOL = 1e-12                # criterion 6


def test_1_compatibility_matches_curl_oracle():
    """n_system_residual equals the discrete curl of mf_tangents on 20
    random smooth fields with random constant coefficients (64^2,
    periodic), to 1e-10."""
    g = Grid(64, 64, 0.2, 0.2, PERIODIC)
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(20):
        S = synth.smooth_spin(g, seed=100 + trial)
        c = CoefficientSet(**dict(zip(
            ("a1", "a2", "a3", "a4", "a5", "b1", "b2", "b3", "b4", "b5"),
            rng.uniform(-2, 2, 10))))
        rx, ry = mf_tangents(S, c)
        curl = diff(rx.values, g, "dy") - diff(ry.values, g, "dx")
        rep = n_system_residual(S, c)
        worst = max(worst, np.abs(rep.vector_residual.values - curl).max())
    assert worst <= CURL_MATCH_TOL


def _hf_surface_mismatch(n, steps, snapshot_every):
    g = Grid(n, 1, 12.8 / n, 1.0, PERIODIC)
    dt = 0.2 * g.dx ** 2
    model = evolution_model("hf", g)
    S0 = synth.smooth_spin(g, seed=8)
    opts = EvolveOptions(dt=dt, steps=steps, snapshot_every=snapshot_every)
    traj = evolve(model, {"S": S0.values}, opts)
    stack = np.concatenate([s["S"].values for s in traj.snapshots], axis=-2)
    hist = Grid(n, stack.shape[-2], g.dx, dt * snapshot_every, PERIODIC)
    S = SpinField(hist, stack)
    _, mismatch = reconstruct_surface(S, classical_coeffs("hf"))
    return mismatch


def test_2_hf_surface_consistency_refinement():
    """Evolve the 1-D HF flow over 200 steps, reconstruct the surface with
    HF coefficients, and check the path mismatch drops at second order
    when dx halves and dt quarters (snapshot stride chosen so the
    reconstruction spacing in the time direction also halves)."""
    coarse = _hf_surface_mismatch(128, 200, 1)
    fine = _hf_surface_mismatch(256, 800, 2)
    assert RATIO_WINDOW[0] < coarse / fine < RATIO_WINDOW[1]


def test_3_norm_preservation_1000_steps():
    """1000 renormalized HF steps keep the unit-norm invariant exact in
    snapshots; pre-projection drift per step stays within twice the pinned
    pre-build measurement."""
    g = Grid(128, 1, 0.1, 1.0, PERIODIC)
    dt = 0.2 * g.dx ** 2
    model = evolution_model("hf", g)
    opts = EvolveOptions(dt=dt, steps=1000, snapshot_every=100)
    traj = evolve(model, {"S": synth.smooth_spin(g, seed=9).values}, opts)
    for S in traj.spins():
        assert isinstance(S, SpinField)
        assert np.abs(np.linalg.norm(S.values, axis=0) - 1.0).max() <= 1e-12
    drift = max(rec["max_norm_drift"] for rec in traj.diagnostics)
    assert drift <= 2.0 * PINNED_DRIFT_PER_STEP


def test_hf_from_hasimotos_soliton_converges_at_second_order():
    """HF evolved from Hasimoto's one-soliton (`synth.hasimoto_soliton`, nu =
    1, tau = 0.5) on a periodic chain on [-20, 20), at dt = 0.1 h^2 to t =
    0.2: the max error against the closed form S = r_x falls 4-fold per
    halving of h. The signs are r = (x - A tanh nu eta, A sech nu eta cos
    theta, A sech nu eta sin theta), A = 2 nu / (nu^2 + tau^2), eta = x -
    2 tau t, theta = tau x + (nu^2 - tau^2) t, under S_t = S ^ S_xx with S =
    r_x, which is r_t = r_x ^ r_xx. Measured: 2.78e-3 and 7.01e-4, ratio
    3.97. The chain's ends sit where sech nu eta < 1e-8, so the wrap is
    smooth to that size."""
    errs = []
    for n in (400, 800):
        h = 40.0 / n
        g = Grid(n, 1, h, h, PERIODIC)
        dt = 0.1 * h * h
        steps = round(0.2 / dt)
        traj = evolve(evolution_model("hf", g), {"S": synth.hasimoto_soliton(g, x0=-20.0).values},
                      EvolveOptions(dt=dt, steps=steps, snapshot_every=steps))
        exact = synth.hasimoto_soliton(g, t=steps * dt, x0=-20.0).values
        errs.append(np.abs(traj.spins()[-1].values - exact).max())
    assert RATIO_WINDOW[0] < errs[0] / errs[1] < RATIO_WINDOW[1]


def test_4_stationary_checks():
    """The stationary LLE residual on the harmonic equator map converges
    to zero at least at second order per halving, and constant fields give
    exactly zero for all six stationary kinds.

    The literal halving ratio is ~8, not ~4: every even-order stencil
    error on this map is parallel to S and annihilated by the cross
    product, so the surviving edge term is O(h^3) (see the decisions
    ledger). The window below therefore bounds the ratio from below only.
    """
    errs = []
    for n in (48, 96):
        g = Grid(n, n, 2 * np.pi / n, 2 * np.pi / n, CLAMPED)
        S = synth.equator_spin(g, a=1.0, b=1.0)
        errs.append(stationary_residual("lle", S).vector_max)
    assert errs[0] / errs[1] > RATIO_WINDOW[0]
    assert errs[1] < 1e-3

    g = Grid(24, 24, 0.3, 0.3, PERIODIC)
    S = SpinField(g, np.broadcast_to(np.reshape([0.0, 0.0, 1.0], (3, 1, 1)), (3, 24, 24)).copy())
    phi = constant_field(g, 0.0)
    ab = {"a1": 1.0, "a2": 1.0, "b2": 0.5}
    params = {"mxiii": ab, "mxiiia": ab, "mxiiib": ab, "ishimori": {"alpha": 1.0}}
    for kind in ("hf", "lle", "mxiii", "mxiiia", "mxiiib", "ishimori"):
        rep = stationary_residual(kind, S, phi=phi if kind in PHI_KINDS else None,
                                  params=params.get(kind))
        assert rep.vector_max == 0.0 and rep.scalar_max == 0.0, kind


def test_5_poisson_and_mixed_solvers():
    """Poisson eigenfunction back-substitution within 1e-10; integrating a
    source with mixed_integrate and differentiating back recovers it at
    second order."""
    g = Grid(48, 32, 0.25, 0.5, PERIODIC)
    x, y = g.meshgrid()
    k = 2 * np.pi / (g.nx * g.dx)
    el = 2 * np.pi / (g.ny * g.dy)
    rhs = ScalarField(g, -(k ** 2 + el ** 2) * np.sin(k * x) * np.sin(el * y))
    phi = poisson_solve(rhs.values, g)
    lap = diff(phi, g, "dxx") + diff(phi, g, "dyy")
    assert np.abs(lap - rhs.values).max() <= POISSON_TOL

    errs = []
    for n in (17, 33):
        gc = Grid(n, n, 4.0 / (n - 1), 4.0 / (n - 1), CLAMPED)
        xc, yc = gc.meshgrid()
        f = ScalarField(gc, np.sin(xc) * np.cos(0.7 * yc))
        phi = mixed_integrate(f.values, gc)
        errs.append(np.abs(diff(phi, gc, "dxy") - f.values).max())
    assert RATIO_WINDOW[0] < errs[0] / errs[1] < RATIO_WINDOW[1]


def test_6_catalog_oracle_equivalence():
    """100 random states for each of the 5 spin families agree with the
    Pauli-matrix oracle to 1e-12; every implemented catalog name resolves
    and the two unimplemented entries are rejected with reasons."""
    g = Grid(48, 1, 0.25, 1.0, PERIODIC)
    family_reps = {"A": "M-LVII", "B": "M-LVI", "C": "M-LV",
                   "D": "M-LIV", "E": "M-LIII"}
    worst = 0.0
    for family, name in sorted(family_reps.items()):
        spec = catalog_lookup(name)
        for seed in range(100):
            S = synth.smooth_spin(g, seed=seed)
            u = synth.smooth_scalar(g, seed=5000 + seed)
            state = (S.values, u.values, g)
            d = np.abs(me_spin_rhs(spec, *state)
                       - pauli_oracle_rhs(spec, *state)).max()
            worst = max(worst, d)
    assert worst <= ORACLE_TOL

    implemented = [n for n, s in _REGISTRY.items() if s.implemented]
    assert len(implemented) == 25
    for name in implemented:
        assert catalog_lookup(name).implemented
    for name in ("M-LXIX", "M-V"):
        spec = catalog_lookup(name)
        assert not spec.implemented and spec.reason
        state = (synth.smooth_spin(g, seed=0).values,
                 synth.smooth_scalar(g, seed=1).values, g)
        with pytest.raises(UnimplementedModel):
            me_spin_rhs(spec, *state)


def test_7_nlse_pipeline():
    """Soliton NLSE residual decreases at second order; the curvature/
    torsion-to-wavefunction map preserves |psi| = k/2 exactly for zero
    torsion; the zero-curvature residual of (build_C, solve_D) output
    decreases at second order."""
    errs = []
    for n in (128, 256):
        x = np.linspace(-10, 10, n + 1)
        t = np.linspace(0, 0.5, n + 1)
        psi = nlse_soliton(1.0, x, t)
        errs.append(nlse_residual(psi, x[1] - x[0], t[1] - t[0]).max())
    assert RATIO_WINDOW[0] < errs[0] / errs[1] < RATIO_WINDOW[1]

    k = 2.0 * 1.3 / np.cosh(1.3 * np.linspace(-8, 8, 129))
    psi = hasimoto(k, np.zeros_like(k), 0.125)
    assert np.array_equal(np.abs(psi), k / 2.0)

    zc_errs = []
    for n in (64, 128):
        nx, nt = n + 1, n + 1
        dx, dt = 4.0 / n, 1.0 / n
        X, T = np.meshgrid(np.linspace(0, 4, nx), np.linspace(0, 1, nt))
        c = build_C(1.0 + 0.3 * np.sin(X - 2 * T), 0.2 * np.cos(X + T))
        d = solve_D(c, np.zeros((3, nt)), dx, dt)
        zc_errs.append(zc_residual(c, d, dx, dt)[1])
    assert RATIO_WINDOW[0] < zc_errs[0] / zc_errs[1] < RATIO_WINDOW[1]


def test_8_vector_zero_curvature_closed_forms():
    """Constant distinct inputs give exactly their cross product c x d;
    zero and equal-constant inputs give exactly zero. The residual is the
    so(3) one, c_t - d_x + c x d, whose bracket has factor 1: in the su(2)
    convention of half-vectors, R1_y - R2_x + 2 R1 ^ R2, the same constants
    give twice the wedge."""
    r1, r2 = np.array([0.5, -1.0, 2.0]), np.array([1.0, 0.0, -0.5])
    c, d = (np.broadcast_to(r.reshape(3, 1, 1), (3, 16, 16)) for r in (r1, r2))
    resid, _ = zc_residual(c, d, 0.5, 0.5)
    assert np.array_equal(resid, np.broadcast_to(cross(r1, r2).reshape(3, 1, 1), resid.shape))
    zero = np.zeros((3, 16, 16))
    assert np.array_equal(zc_residual(zero, zero, 0.5, 0.5)[0], zero)
    assert np.array_equal(zc_residual(c, c, 0.5, 0.5)[0], zero)


def test_9_simulate_determinism(tmp_path):
    """Two identically-configured catalog simulations produce byte-equal
    snapshot and report files."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = m-xxxiv\nnx = 48\nny = 1\ndx = 0.2\ndy = 1.0\n"
                   "boundary = periodic\ndt = 0.0005\nsteps = 40\n"
                   "snapshot_every = 20\nseed = 11\n")
    dirs = [tmp_path / "run1", tmp_path / "run2"]
    for d in dirs:
        assert main(["simulate", "--config", str(cfg),
                     "--output", str(d)]) == 0
    files = sorted(p.name for p in dirs[0].iterdir())
    assert files == sorted(p.name for p in dirs[1].iterdir())
    assert len(files) > 1
    for name in files:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
