import numpy as np
import pytest

from spinsurf import (Grid, build_C, build_D, constant_field, cross, hasimoto,
                      nlse_residual, nlse_soliton, solve_D, synth,
                      vector_zc_residual, zc_residual)
from spinsurf.errors import Blowup, GridTooSmall
from spinsurf.zerocurv import _d1_any


def solve_D_reference(C, D_at_x0, dx, dt):
    """The matrix scheme solve_D reproduces in so(3): per-node RK4 on
    D_x = C_t + [C, D], C and C_t interpolated to the midpoints."""
    C = np.asarray(C, dtype=float)
    nt, nx = C.shape[:2]
    Ct = _d1_any(C, dt, 0)
    D = np.zeros_like(C)
    D[:, 0] = np.broadcast_to(np.asarray(D_at_x0, dtype=float), (nt, 3, 3))

    def f(c, ct, d):
        return ct + c @ d - d @ c

    for i in range(nx - 1):
        c0, c1 = C[:, i], C[:, i + 1]
        ct0, ct1 = Ct[:, i], Ct[:, i + 1]
        cm, ctm = 0.5 * (c0 + c1), 0.5 * (ct0 + ct1)
        d = D[:, i]
        k1 = f(c0, ct0, d)
        k2 = f(cm, ctm, d + 0.5 * dx * k1)
        k3 = f(cm, ctm, d + 0.5 * dx * k2)
        k4 = f(c1, ct1, d + dx * k3)
        D[:, i + 1] = d + (dx / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return D


def _so3(a):
    """Antisymmetric matrices of (..., 3) vectors, built from one triangle."""
    A = np.zeros(a.shape + (3,))
    A[..., 2, 1], A[..., 0, 2], A[..., 1, 0] = a[..., 0], a[..., 1], a[..., 2]
    return A - np.swapaxes(A, -1, -2)


class TestBuildC:
    def test_zero_inputs(self):
        C = build_C(np.zeros((2, 8)), np.zeros((2, 8)))
        assert C.shape == (2, 8, 3, 3)
        assert np.all(C == 0.0)

    def test_curvature_entry_placement(self):
        """C = [[0, k, 0], [-k, 0, tau], [0, -tau, 0]], with k and tau apart."""
        k, tau = 2.0, 3.0
        C = build_C(np.full((2, 1), k), np.full((2, 1), tau))
        expect = np.array([[0.0, k, 0.0],
                           [-k, 0.0, tau],
                           [0.0, -tau, 0.0]])
        assert np.array_equal(C, np.broadcast_to(expect, (2, 1, 3, 3)))

    def test_antisymmetric(self, rng):
        C = build_C(rng.standard_normal((3, 5)), rng.standard_normal((3, 5)))
        assert np.all(C + np.swapaxes(C, -1, -2) == 0.0)


class TestBuildD:
    def test_zero_inputs(self):
        z = np.zeros((2, 4))
        assert np.all(build_D(z, z, z) == 0.0)

    @staticmethod
    def _written_out(w1, w2, w3, d21):
        """D = [[0, w3, -w2], [-w3, 0, w1], [w2, d21, 0]]."""
        return np.array([[0.0, w3, -w2],
                         [-w3, 0.0, w1],
                         [w2, d21, 0.0]])

    def test_printed_entry_placement(self):
        """As printed, D[2, 1] = +w1; w1, w2, w3 apart and broadcast together."""
        D = build_D(2.0, np.full((2, 1), 3.0), np.full((1, 4), 5.0))
        assert np.array_equal(D, np.broadcast_to(self._written_out(2.0, 3.0, 5.0, 2.0),
                                                 (2, 4, 3, 3)))

    def test_antisymmetrize_flag(self):
        D = build_D(2.0, np.full((2, 1), 3.0), np.full((1, 4), 5.0), antisymmetrize=True)
        assert np.array_equal(D, np.broadcast_to(self._written_out(2.0, 3.0, 5.0, -2.0),
                                                 (2, 4, 3, 3)))


class TestZcResidual:
    def test_zero_matrices(self):
        z = np.zeros((2, 8, 3, 3))
        _, mx = zc_residual(z, z, 0.1, 0.1)
        assert mx == 0.0

    def test_commuting_constants(self):
        C = np.broadcast_to(build_C(np.ones((1, 1)),
                                    0.5 * np.ones((1, 1)))[0, 0],
                            (4, 8, 3, 3)).copy()
        _, mx = zc_residual(C, 2.5 * C, 0.1, 0.1)
        assert mx == 0.0

    def test_needs_two_time_slices(self):
        z = np.zeros((1, 8, 3, 3))
        with pytest.raises(GridTooSmall):
            zc_residual(z, z, 0.1, 0.1)

    def test_pipeline_second_order(self):
        # smooth time-dependent curvature/torsion data: solve_D integrates
        # D_x = C_t + [C, D], then the finite-difference residual is
        # O(dx^2 + dt^2)
        errs = []
        for n in (64, 128):
            nx, nt = n + 1, n + 1
            dx, dt = 4.0 / n, 1.0 / n
            x = np.linspace(0.0, 4.0, nx)
            t = np.linspace(0.0, 1.0, nt)
            X, T = np.meshgrid(x, t)
            k = 1.0 + 0.3 * np.sin(X - 2.0 * T)
            tau = 0.2 * np.cos(X + T)
            C = build_C(k, tau)
            D = solve_D(C, np.zeros((nt, 3, 3)), dx, dt)
            errs.append(zc_residual(C, D, dx, dt)[1])
        assert 3.3 < errs[0] / errs[1] < 4.7


class TestSolveD:
    def test_zero_everything(self):
        C = np.zeros((3, 8, 3, 3))
        D = solve_D(C, np.zeros((3, 3, 3)), 0.1, 0.1)
        assert np.all(D == 0.0)

    def test_time_constant_C_keeps_zero_solution(self):
        C = np.broadcast_to(build_C(np.ones((1, 1)),
                                    np.ones((1, 1)))[0, 0],
                            (3, 8, 3, 3)).copy()
        D = solve_D(C, np.zeros((3, 3, 3)), 0.1, 0.1)
        assert np.abs(D).max() == 0.0

    @pytest.mark.parametrize("column", [1, 5, 7])
    def test_blowup_names_first_non_finite_column(self, column):
        # C[:, column] first enters the step that computes D[:, column]; an
        # entry of either triangle or of the diagonal counts
        for entry in ((0, 1), (1, 0), (2, 1), (1, 1)):
            C = build_C(np.ones((3, 8)), np.ones((3, 8)))
            C[(1, column) + entry] = np.inf
            with pytest.raises(Blowup) as exc, np.errstate(invalid="ignore"):
                solve_D(C, np.zeros((3, 3, 3)), 0.1, 0.1)
            assert exc.value.step == column, entry

    @pytest.mark.parametrize("entry", [(1, 0), (0, 2), (0, 0)])
    def test_blowup_from_non_finite_initial_data_in_any_entry(self, entry):
        D0 = np.zeros((3, 3, 3))
        D0[(1,) + entry] = np.inf
        with pytest.raises(Blowup) as exc, np.errstate(invalid="ignore"):
            solve_D(np.zeros((3, 8, 3, 3)), D0, 0.1, 0.1)
        assert exc.value.step == 1

    def test_non_finite_initial_data_is_blowup_at_step_1(self):
        D0 = np.zeros((3, 3, 3))
        D0[2, 1, 0] = np.nan
        with pytest.raises(Blowup) as exc:
            solve_D(np.zeros((3, 8, 3, 3)), D0, 0.1, 0.1)
        assert exc.value.step == 1
        assert str(exc.value) == "non-finite value at x column 1"     # not a time step


class TestSolveDAgainstMatrixScheme:
    """solve_D integrates vectors; the per-node matrix RK4 is its reference."""

    @staticmethod
    def _agree(C, D0, dx, dt):
        D = solve_D(C, D0, dx, dt)
        ref = solve_D_reference(C, D0, dx, dt)
        assert np.abs(D - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.all(D + np.swapaxes(D, -1, -2) == 0.0)
        return D

    def test_soliton_curve(self):
        # k = 2a sech(a(x - 2at)), tau = -a: the boosted NLSE soliton's curve
        a, nx, nt = 1.1, 1025, 9
        x, t = np.linspace(-20.0, 20.0, nx), np.linspace(0.0, 1.0, nt)
        X, T = np.meshgrid(x, t)
        k = 2 * a / np.cosh(a * (X - 2 * a * T))
        C = build_C(k, np.full_like(k, -a))
        D = self._agree(C, np.zeros((nt, 3, 3)), x[1] - x[0], t[1] - t[0])
        assert np.abs(D).max() > 1.0

    def test_random_so3_data_and_initial_line(self, rng):
        nt, nx = 7, 300       # more x-steps than one block of maps
        C = _so3(rng.standard_normal((nt, nx, 3)))
        D0 = _so3(rng.standard_normal((nt, 3)))
        D = self._agree(C, D0, 0.01, 0.05)
        assert np.array_equal(D[:, 0], D0)

    def test_one_initial_matrix_broadcasts_over_time(self, rng):
        C = _so3(rng.standard_normal((4, 6, 3)))
        D0 = _so3(rng.standard_normal(3))
        assert np.array_equal(solve_D(C, D0, 0.1, 0.1),
                              solve_D(C, np.broadcast_to(D0, (4, 3, 3)), 0.1, 0.1))


class TestSolveDRefusesNonSo3:
    @pytest.mark.parametrize("entry, value", [((0, 1), 2.0), ((1, 0), 0.5),
                                              ((2, 2), 1e-300), ((0, 2), 1e308)])
    def test_finite_C_off_antisymmetry(self, entry, value):
        C = build_C(np.ones((3, 8)), np.ones((3, 8)))
        C[(2, 4) + entry] = value
        with pytest.raises(ValueError, match="^C must be antisymmetric"):
            solve_D(C, np.zeros((3, 3, 3)), 0.1, 0.1)

    def test_printed_D_as_initial_data(self):
        one, zero = np.ones(3), np.zeros(3)
        D0 = build_D(one, zero, zero)            # D[2,1] = +w1, as printed
        C = build_C(np.ones((3, 8)), np.ones((3, 8)))
        with pytest.raises(ValueError, match="^D_at_x0 must be antisymmetric"):
            solve_D(C, D0, 0.1, 0.1)
        D = solve_D(C, build_D(one, zero, zero, antisymmetrize=True), 0.1, 0.1)
        assert np.all(D + np.swapaxes(D, -1, -2) == 0.0)

    def test_non_finite_off_antisymmetry_is_blowup(self):
        # a NaN whose mirror is finite is no refusal: it ends in Blowup
        C = build_C(np.ones((3, 8)), np.ones((3, 8)))
        C[0, 3, 1, 2] = np.nan
        with pytest.raises(Blowup) as exc:
            solve_D(C, np.zeros((3, 3, 3)), 0.1, 0.1)
        assert exc.value.step == 3


class TestHasimoto:
    def test_constant_curvature_no_torsion(self):
        psi = hasimoto(2.0 * np.ones(16), np.zeros(16), 0.1)
        assert np.all(psi == 1.0 + 0.0j)

    def test_constant_torsion_phase(self):
        nx, dx, c = 32, 0.25, 0.7
        x = dx * np.arange(nx)
        psi = hasimoto(2.0 * np.ones(nx), c * np.ones(nx), dx)
        assert np.abs(psi - np.exp(-1j * c * x)).max() < 1e-13

    def test_soliton_modulus(self):
        a, dx = 1.3, 0.05
        x = dx * np.arange(-200, 201)
        psi = hasimoto(2 * a / np.cosh(a * x), np.zeros_like(x), dx)
        assert np.array_equal(psi.real, a / np.cosh(a * x))
        assert np.all(psi.imag == 0.0)


class TestNlseResidual:
    def test_zero_field(self):
        assert np.all(nlse_residual(np.zeros((3, 8), complex), 0.1, 0.1) == 0.0)

    def test_plane_wave_dispersion(self):
        a, nt, dt = 1.2, 33, 0.01
        t = dt * np.arange(nt)
        psi = a * np.exp(2j * a ** 2 * t)[:, None] * np.ones((1, 8))
        r1 = nlse_residual(psi, 0.1, dt).max()
        psi2 = a * np.exp(2j * a ** 2 * (t / 2))[:, None] * np.ones((1, 8))
        r2 = nlse_residual(psi2, 0.1, dt / 2).max()
        assert 3.3 < r1 / r2 < 4.7

    def test_soliton_second_order(self):
        errs = []
        for n in (128, 256):
            x = np.linspace(-10, 10, n + 1)
            t = np.linspace(0, 0.5, n + 1)
            psi = nlse_soliton(1.0, x, t)
            errs.append(nlse_residual(psi, x[1] - x[0], t[1] - t[0]).max())
        assert 3.3 < errs[0] / errs[1] < 4.7


class TestNlseSoliton:
    def test_peak_value(self):
        assert nlse_soliton(1.0, np.array([0.0]), 0.0)[0] == 1.0 + 0.0j

    def test_even_modulus(self, rng):
        x = rng.uniform(0.1, 5.0, 16)
        a = 0.8
        left = np.abs(nlse_soliton(a, -x, 0.3))
        right = np.abs(nlse_soliton(a, x, 0.3))
        assert np.array_equal(left, right)

    def test_phase_period(self):
        a, x = 1.5, np.linspace(-2, 2, 9)
        p0 = nlse_soliton(a, x, 0.2)
        p1 = nlse_soliton(a, x, 0.2 + 2 * np.pi / a ** 2)
        assert np.abs(p0 - p1).max() < 1e-13

    def test_positive_amplitude_required(self):
        with pytest.raises(ValueError):
            nlse_soliton(-1.0, np.zeros(4), 0.0)


class TestVectorZcResidual:
    def test_zero_pair(self, grid2d):
        R = constant_field(grid2d, (0.0, 0.0, 0.0))
        _, mx = vector_zc_residual(R, R)
        assert mx == 0.0

    def test_equal_constants(self, grid2d):
        R = constant_field(grid2d, (0.4, -1.0, 2.0))
        _, mx = vector_zc_residual(R, R)
        assert mx == 0.0

    def test_distinct_constants_closed_form(self, grid2d):
        r1, r2 = np.array([1.0, 0.0, 0.0]), np.array([0.0, 2.0, 0.0])
        resid, _ = vector_zc_residual(constant_field(grid2d, r1),
                                      constant_field(grid2d, r2))
        assert np.array_equal(resid.values,
                              np.broadcast_to(2.0 * cross(r1, r2).reshape(3, 1, 1),
                                              resid.values.shape))

    def test_needs_2d(self, grid1d):
        R = constant_field(grid1d, (1.0, 0.0, 0.0))
        with pytest.raises(GridTooSmall):
            vector_zc_residual(R, R)


# ---------------------------------------------------------------------------
# refused shapes

def test_build_C_refuses_unequal_shapes():
    with pytest.raises(ValueError, match="k and tau must share a shape"):
        build_C(np.zeros((2, 8)), np.zeros((2, 7)))


def test_zc_residual_refuses_unmatched_stacks():
    C = build_C(np.zeros((3, 8)), np.zeros((3, 8)))
    with pytest.raises(ValueError, match="matching"):
        zc_residual(C, C[:, :7], 0.1, 0.1)
    with pytest.raises(ValueError, match="matching"):
        zc_residual(C[0], C[0], 0.1, 0.1)


def test_nlse_residual_needs_three_time_slices():
    with pytest.raises(GridTooSmall, match="nt >= 3"):
        nlse_residual(np.ones((2, 8), dtype=complex), 0.1, 0.1)


def test_nlse_residual_needs_four_x_nodes():
    with pytest.raises(GridTooSmall, match=r"NLSE residual needs .*nx >= 4"):
        nlse_residual(np.ones((3, 3), dtype=complex), 0.1, 0.1)


def test_solve_D_refuses_a_one_slice_stack():
    C = build_C(np.ones((1, 8)), np.zeros((1, 8)))
    with pytest.raises(GridTooSmall, match="^zero-curvature residual needs >= 2 time slices$"):
        solve_D(C, np.zeros((1, 3, 3)), 0.1, 0.1)
