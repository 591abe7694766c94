import numpy as np
import pytest

from spinsurf import (build_C, cross, hasimoto, nlse_residual, nlse_soliton, solve_D,
                      zc_residual)
from spinsurf.errors import Blowup, GridTooSmall
from spinsurf.zerocurv import _d1_any


def _hat(a):
    """The antisymmetric matrices of components-first vectors, (3, ...) ->
    (..., 3, 3): A[2,1], A[0,2], A[1,0] = a and their mirrors -a, so that
    A b = a x b."""
    a = np.moveaxis(np.asarray(a, dtype=float), 0, -1)
    A = np.zeros(a.shape + (3,))
    A[..., 2, 1], A[..., 0, 2], A[..., 1, 0] = a[..., 0], a[..., 1], a[..., 2]
    return A - np.swapaxes(A, -1, -2)


def zc_residual_reference(c, d, dx, dt):
    """The matrix residual C_t - D_x + CD - DC of C = _hat(c), D = _hat(d),
    (nt, nx, 3, 3), and the largest magnitude of its three terms C_t, D_x
    and [C, D]."""
    C, D = _hat(c), _hat(d)
    terms = _d1_any(C, dt, 0), _d1_any(D, dx, 1), C @ D - D @ C
    return terms[0] - terms[1] + terms[2], max(np.abs(t).max() for t in terms)


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


class TestBuildC:
    def test_zero_inputs(self):
        c = build_C(np.zeros((2, 8)), np.zeros((2, 8)))
        assert c.shape == (3, 2, 8)
        assert np.all(c == 0.0)

    def test_curvature_entry_placement(self):
        """c = (-tau, 0, -k), the vector of C = [[0, k, 0], [-k, 0, tau],
        [0, -tau, 0]], with k and tau apart."""
        k, tau = 2.0, 3.0
        c = build_C(np.full((2, 1), k), np.full((2, 1), tau))
        assert np.array_equal(c, np.broadcast_to([[[-tau]], [[0.0]], [[-k]]], (3, 2, 1)))
        expect = np.array([[0.0, k, 0.0],
                           [-k, 0.0, tau],
                           [0.0, -tau, 0.0]])
        assert np.array_equal(_hat(c), np.broadcast_to(expect, (2, 1, 3, 3)))

    def test_antisymmetric(self, rng):
        """The printed C is the antisymmetric matrix of c: C b = c x b."""
        k, tau, b = rng.standard_normal((3, 3, 5))
        z = np.zeros_like(k)
        C = np.array([[z, k, z], [-k, z, tau], [z, -tau, z]])
        assert np.array_equal(np.einsum("ij...,j...->i...", C, b), cross(build_C(k, tau), b))


class TestZcResidual:
    def test_zero_matrices(self):
        z = np.zeros((3, 2, 8))
        _, mx = zc_residual(z, z, 0.1, 0.1)
        assert mx == 0.0

    def test_commuting_constants(self):
        c = np.broadcast_to(build_C(np.ones((1, 1)), 0.5 * np.ones((1, 1))), (3, 4, 8))
        _, mx = zc_residual(c, 2.5 * c, 0.1, 0.1)
        assert mx == 0.0

    def test_needs_two_time_slices(self):
        z = np.zeros((3, 1, 8))
        with pytest.raises(GridTooSmall):
            zc_residual(z, z, 0.1, 0.1)

    @pytest.mark.parametrize("nt", [2, 5])
    def test_is_the_matrix_residuals_vector(self, nt, rng):
        """c_t - d_x + c x d is the vector of C_t - D_x + CD - DC, and its
        largest component the matrix's largest entry, to rounding: at nt = 2
        (the two-point time difference) and nt >= 3."""
        c, d = rng.standard_normal((2, 3, nt, 9))
        resid, mx = zc_residual(c, d, 0.1, 0.05)
        ref, scale = zc_residual_reference(c, d, 0.1, 0.05)
        assert resid.shape == (3, nt, 9)
        assert np.abs(_hat(resid) - ref).max() <= 1e-12 * scale
        assert abs(mx - np.abs(ref).max()) <= 1e-12 * scale

    def test_pipeline_second_order(self):
        # smooth time-dependent curvature/torsion data: solve_D integrates
        # d_x = c_t + c x d, then the finite-difference residual is
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
            c = build_C(k, tau)
            d = solve_D(c, np.zeros((3, nt)), dx, dt)
            errs.append(zc_residual(c, d, dx, dt)[1])
        assert 3.3 < errs[0] / errs[1] < 4.7


class TestSolveD:
    def test_zero_everything(self):
        d = solve_D(np.zeros((3, 3, 8)), np.zeros((3, 3)), 0.1, 0.1)
        assert d.shape == (3, 3, 8)
        assert np.all(d == 0.0)

    def test_time_constant_C_keeps_zero_solution(self):
        c = np.broadcast_to(build_C(np.ones((1, 1)), np.ones((1, 1))), (3, 3, 8))
        d = solve_D(c, np.zeros(3), 0.1, 0.1)
        assert np.abs(d).max() == 0.0

    @pytest.mark.parametrize("column", [1, 5, 7])
    def test_blowup_names_first_non_finite_column(self, column):
        # c[:, :, column] first enters the step that computes d[:, :, column];
        # any component counts
        for component in range(3):
            c = build_C(np.ones((3, 8)), np.ones((3, 8)))
            c[component, 1, column] = np.inf
            with pytest.raises(Blowup) as exc, np.errstate(invalid="ignore"):
                solve_D(c, np.zeros((3, 3)), 0.1, 0.1)
            assert exc.value.step == column, component

    @pytest.mark.parametrize("entry", [(0, 1), (1, 1), (2, 0)])
    def test_blowup_from_non_finite_initial_data_in_any_entry(self, entry):
        # entry: (component, time slice) of d0
        d0 = np.zeros((3, 3))
        d0[entry] = np.inf
        with pytest.raises(Blowup) as exc, np.errstate(invalid="ignore"):
            solve_D(np.zeros((3, 3, 8)), d0, 0.1, 0.1)
        assert exc.value.step == 1

    def test_non_finite_initial_data_is_blowup_at_step_1(self):
        d0 = np.zeros((3, 3))
        d0[0, 2] = np.nan
        with pytest.raises(Blowup) as exc:
            solve_D(np.zeros((3, 3, 8)), d0, 0.1, 0.1)
        assert exc.value.step == 1
        assert str(exc.value) == "non-finite value at x column 1"     # not a time step


class TestSolveDAgainstMatrixScheme:
    """solve_D integrates vectors; the per-node matrix RK4 is its reference."""

    @staticmethod
    def _agree(c, d0, dx, dt):
        d = solve_D(c, d0, dx, dt)
        ref = solve_D_reference(_hat(c), _hat(d0), dx, dt)
        assert np.abs(_hat(d) - ref).max() <= 1e-12 * np.abs(ref).max()
        return d

    def test_soliton_curve(self):
        # k = 2a sech(a(x - 2at)), tau = -a: the boosted NLSE soliton's curve
        a, nx, nt = 1.1, 1025, 9
        x, t = np.linspace(-20.0, 20.0, nx), np.linspace(0.0, 1.0, nt)
        X, T = np.meshgrid(x, t)
        k = 2 * a / np.cosh(a * (X - 2 * a * T))
        c = build_C(k, np.full_like(k, -a))
        d = self._agree(c, np.zeros((3, nt)), x[1] - x[0], t[1] - t[0])
        assert np.abs(d).max() > 1.0

    def test_random_so3_data_and_initial_line(self, rng):
        nt, nx = 7, 300       # more x-steps than one block of maps
        c = rng.standard_normal((3, nt, nx))
        d0 = rng.standard_normal((3, nt))
        d = self._agree(c, d0, 0.01, 0.05)
        assert np.array_equal(d[:, :, 0], d0)

    def test_one_initial_matrix_broadcasts_over_time(self, rng):
        c = rng.standard_normal((3, 4, 6))
        d0 = rng.standard_normal(3)
        self._agree(c, d0, 0.1, 0.1)
        assert np.array_equal(solve_D(c, d0, 0.1, 0.1),
                              solve_D(c, np.broadcast_to(d0[:, None], (3, 4)), 0.1, 0.1))


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
    """zc_residual on constant data: the so(3) bracket c x d with factor 1."""

    def test_zero_pair(self):
        z = np.zeros((3, 16, 16))
        assert zc_residual(z, z, 0.5, 0.5)[1] == 0.0

    def test_equal_constants(self):
        c = np.broadcast_to(np.array([0.4, -1.0, 2.0]).reshape(3, 1, 1), (3, 16, 16))
        assert zc_residual(c, c, 0.5, 0.5)[1] == 0.0

    def test_distinct_constants_closed_form(self):
        r1, r2 = np.array([1.0, 0.0, 0.0]), np.array([0.0, 2.0, 0.0])
        c, d = (np.broadcast_to(r.reshape(3, 1, 1), (3, 16, 16)) for r in (r1, r2))
        resid, _ = zc_residual(c, d, 0.5, 0.5)
        assert np.array_equal(resid, np.broadcast_to(cross(r1, r2).reshape(3, 1, 1),
                                                     resid.shape))


# ---------------------------------------------------------------------------
# refused shapes

def test_build_C_refuses_unequal_shapes():
    with pytest.raises(ValueError, match="k and tau must share a shape"):
        build_C(np.zeros((2, 8)), np.zeros((2, 7)))


def test_zc_residual_refuses_unmatched_stacks():
    c = build_C(np.zeros((3, 8)), np.zeros((3, 8)))
    with pytest.raises(ValueError, match="matching"):
        zc_residual(c, c[:, :, :7], 0.1, 0.1)
    with pytest.raises(ValueError, match="matching"):
        zc_residual(c[:, 0], c[:, 0], 0.1, 0.1)
    with pytest.raises(ValueError, match="matching"):
        zc_residual(c[:2], c[:2], 0.1, 0.1)


def test_nlse_residual_needs_three_time_slices():
    with pytest.raises(GridTooSmall, match="nt >= 3"):
        nlse_residual(np.ones((2, 8), dtype=complex), 0.1, 0.1)


def test_nlse_residual_needs_four_x_nodes():
    with pytest.raises(GridTooSmall, match=r"NLSE residual needs .*nx >= 4"):
        nlse_residual(np.ones((3, 3), dtype=complex), 0.1, 0.1)


def test_solve_D_refuses_a_one_slice_stack():
    c = build_C(np.ones((1, 8)), np.zeros((1, 8)))
    with pytest.raises(GridTooSmall, match="^zero-curvature residual needs >= 2 time slices$"):
        solve_D(c, np.zeros((3, 1)), 0.1, 0.1)
