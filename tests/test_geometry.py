import numpy as np
import pytest

from spinsurf import (CLAMPED, PERIODIC, CoefficientSet, DegenerateTangent,
                      Grid, GridMismatch, NearZeroNorm, ScalarField, SpinField, VecField,
                      classical_coeffs, constant_field, diff, fileio, mf_tangents,
                      n_system_residual, norm, project_sphere, reconstruct_surface,
                      synth, unit_normal)
from spinsurf import geometry
from spinsurf.geometry import phi_drift


class TestClassicalCoeffs:
    def test_hf(self):
        c = classical_coeffs("hf")
        assert c.value("a5") == 1.0 and c.value("b1") == 1.0
        for name in ("a1", "a2", "a3", "a4", "b2", "b3", "b4", "b5"):
            assert c.value(name) == 0.0

    def test_lle_stationary(self):
        c = classical_coeffs("lle_stationary")
        assert c.value("a2") == 1.0 and c.value("b1") == -1.0

    def test_lelieuvre(self):
        c = classical_coeffs("lelieuvre", rho=2.0)
        assert c.value("a1") == -2.0 and c.value("b2") == 2.0

    def test_rodrigues(self):
        c = classical_coeffs("rodrigues", rho1=3.0, rho2=0.5)
        assert c.value("a3") == -3.0 and c.value("b4") == -0.5

    def test_schief(self):
        c = classical_coeffs("schief", rho=1.0, mu=4.0)
        assert c.value("a1") == -1.0 and c.value("b2") == 1.0
        assert c.value("a3") == 4.0 and c.value("b4") == 4.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            classical_coeffs("nope")

    @pytest.mark.parametrize("kind", ["mxiiia", "mxiiib"])
    def test_mxiii_potential_kinds(self, kind):
        """b4 = a3, a5 = a3_x + c_y and b5 = a3_y - c_x, where c is the drift
        (c_x, c_y) of the potential: (phi_y, phi_x) for M-XIIIA and
        (phi_x, phi_y) for M-XIIIB, as `phi_drift` pairs them."""
        g = Grid(12, 10, 0.3, 0.25, CLAMPED)
        a3, phi = synth.smooth_scalar(g, seed=3), synth.smooth_scalar(g, seed=4)
        c = classical_coeffs(kind, a1=0.7, a2=1.3, b1=-0.4, b2=0.5, a3=a3, phi=phi)
        px, py = diff(phi.values, g, "dx"), diff(phi.values, g, "dy")
        cx, cy = (py, px) if kind == "mxiiia" else (px, py)
        assert np.array_equal(phi_drift(kind, phi.values, g), (cx, cy))
        assert [c.value(n) for n in ("a1", "a2", "b1", "b2", "a4", "b3")] == [
            0.7, 1.3, -0.4, 0.5, 0.0, 0.0]
        assert c.a3 is a3 and c.b4 is a3
        assert np.array_equal(c.value("a5"), diff(a3.values, g, "dx") + cy)
        assert np.array_equal(c.value("b5"), diff(a3.values, g, "dy") - cx)
        assert c.a5.grid == c.b5.grid == g

    def test_addition_is_componentwise(self):
        c = classical_coeffs("hf") + classical_coeffs("lle_stationary")
        assert c.value("a5") == 1.0 and c.value("a2") == 1.0
        assert c.value("b1") == 0.0


def vec(x, y, z):
    """A constant (3, 1, 1) vector, broadcasting over a (3, ny, nx) array."""
    return np.reshape([x, y, z], (3, 1, 1))


class TestMfTangents:
    def test_constant_pole_hf(self, grid2d):
        S = SpinField(grid2d, np.broadcast_to(vec(0.0, 0.0, 1.0), (3, 32, 32)).copy())
        rx, ry = mf_tangents(S, classical_coeffs("hf"))
        assert np.all(rx.values == vec(0.0, 0.0, 1.0))
        assert np.all(ry.values == 0.0)

    def test_all_zero_coefficients(self, grid2d):
        S = synth.smooth_spin(grid2d, seed=1)
        rx, ry = mf_tangents(S, CoefficientSet())
        assert np.all(rx.values == 0.0) and np.all(ry.values == 0.0)

    def test_a3_selects_sx(self, grid2d):
        S = synth.smooth_spin(grid2d, seed=2)
        rx, ry = mf_tangents(S, CoefficientSet(a3=1.0))
        assert np.array_equal(rx.values, diff(S.values, grid2d, "dx"))
        assert np.all(ry.values == 0.0)

    def test_linearity(self, grid2d, rng):
        S = synth.smooth_spin(grid2d, seed=3)
        c1 = CoefficientSet(**dict(zip(
            ("a1", "a2", "a3", "a4", "a5", "b1", "b2", "b3", "b4", "b5"),
            rng.uniform(-1, 1, 10))))
        c2 = CoefficientSet(a1=0.5, b2=-0.25, a5=2.0)
        rx1, ry1 = mf_tangents(S, c1)
        rx2, ry2 = mf_tangents(S, c2)
        rx12, ry12 = mf_tangents(S, c1 + c2)
        assert np.abs(rx12.values - rx1.values - rx2.values).max() < 1e-13
        assert np.abs(ry12.values - ry1.values - ry2.values).max() < 1e-13

    def test_1d_grid_x_only(self, grid1d):
        S = synth.smooth_spin(grid1d, seed=4)
        rx, ry = mf_tangents(S, classical_coeffs("hf"))
        assert rx.values.shape == (3, 1, 64)

    def test_no_y_coefficient_builds_no_y_cross_product(self, grid2d, monkeypatch):
        """A cross product is built only when a coefficient reads it: hf reads
        S ^ S_x and no S_y term, Rodrigues (a3 and b4) reads neither."""
        calls, cross = [], geometry.cross

        def counted(a, b):
            calls.append(1)
            return cross(a, b)

        monkeypatch.setattr(geometry, "cross", counted)
        S = synth.smooth_spin(grid2d, seed=4)
        for coeffs, crosses in ((classical_coeffs("hf"), 1),
                                (classical_coeffs("rodrigues", rho1=1.0, rho2=2.0), 0)):
            calls.clear()
            mf_tangents(S, coeffs)
            assert len(calls) == crosses


class TestNSystemResidual:
    def test_constant_field_zero(self, grid2d):
        N = constant_field(grid2d, (0.3, -1.2, 0.9))
        rep = n_system_residual(N, CoefficientSet(a1=1.0, b2=0.5, a5=-2.0))
        assert rep.vector_max == 0.0 and rep.scalar_max == 0.0

    def test_zero_norm_node_is_near_zero_norm(self, grid2d):
        n = synth.smooth_vec(grid2d, seed=7).values.copy()
        n[:, 5, 3] = 0.0
        n[:, 9, 2] = 0.0
        with pytest.raises(NearZeroNorm) as exc:
            n_system_residual(VecField(grid2d, n), CoefficientSet(a1=1.0))
        # the first zero node in row-major order, as node (i, j)
        assert (exc.value.i, exc.value.j, exc.value.norm) == (3, 5, 0.0)

    @pytest.mark.parametrize("size, refused", [(5e-8, False), (5e-9, True)])
    def test_near_zero_floor_is_project_spheres(self, size, refused):
        """n_system_residual and project_sphere refuse the same nodes: one of
        norm 5e-8 passes both, one of norm 5e-9 neither."""
        g = Grid(16, 16, 0.2, 0.2, PERIODIC)
        n = synth.smooth_spin(g, seed=7).values.copy()
        n[:, 4, 9] *= size
        checks = (lambda: project_sphere(n, norm(n)),
                  lambda: n_system_residual(VecField(g, n), CoefficientSet(a1=1.0)))
        for check in checks:
            if not refused:
                check()
                continue
            with pytest.raises(NearZeroNorm) as exc:
                check()
            assert (exc.value.i, exc.value.j, exc.value.norm) == (9, 4, norm(n)[4, 9])

    def test_matches_curl_oracle(self, grid2d, rng):
        S = synth.smooth_spin(grid2d, seed=6)
        c = CoefficientSet(**dict(zip(
            ("a1", "a2", "a3", "a4", "a5", "b1", "b2", "b3", "b4", "b5"),
            rng.uniform(-1, 1, 10))))
        rx, ry = mf_tangents(S, c)
        curl = diff(rx.values, grid2d, "dy") - diff(ry.values, grid2d, "dx")
        rep = n_system_residual(S, c)
        assert np.abs(rep.vector_residual.values - curl).max() < 1e-12


    @pytest.mark.parametrize("nx, ny, dx, dy, m, n", [
        (32, 24, 0.2, 0.25, 1, 1), (64, 40, 0.1, 0.15, 2, 3), (16, 16, 0.3, 0.3, 1, 2)])
    def test_hf_equator_closed_form(self, nx, ny, dx, dy, m, n):
        # S = (cos t, sin t, 0), t = a x + b y, periodic. With the HF
        # coefficients r_x = S and r_y = S ^ S_x = (sin(a dx)/dx) e3 is
        # constant, so the curl dy(r_x) - dx(r_y) is the central difference
        # dy(S) = (sin(b dy)/dy)(-sin t, cos t, 0); every scalar term has a
        # zero coefficient.
        g = Grid(nx, ny, dx, dy, PERIODIC)
        a, b = 2 * np.pi * m / (nx * dx), 2 * np.pi * n / (ny * dy)
        rep = n_system_residual(synth.equator_spin(g, a, b), classical_coeffs("hf"))
        exact = abs(np.sin(b * dy)) / dy
        assert abs(rep.vector_max - exact) <= 1e-12 * exact
        assert rep.scalar_max == 0.0


class TestReconstructSurface:
    def test_constant_pole_hf_line(self):
        g = Grid(16, 16, 0.25, 0.25, CLAMPED)
        S = SpinField(g, np.broadcast_to(vec(0.0, 0.0, 1.0), (3, 16, 16)).copy())
        r, mismatch = reconstruct_surface(S, classical_coeffs("hf"))
        x, _ = g.meshgrid()
        assert mismatch == 0.0
        assert isinstance(r, VecField) and r.grid == g
        assert np.abs(r.values[2] - x).max() < 1e-13
        assert np.abs(r.values[:2]).max() == 0.0

    def test_zero_coefficients_stay_at_base(self):
        g = Grid(8, 8, 0.5, 0.5, CLAMPED)
        S = synth.smooth_spin(g, seed=7)
        r, mismatch = reconstruct_surface(S, CoefficientSet(),
                                          base=(1.0, 2.0, 3.0))
        assert mismatch == 0.0
        assert np.all(r.values == vec(1.0, 2.0, 3.0))

    def test_quad_indices(self, tmp_path):
        # the OBJ of a 3x3 surface holds 4 quads, the first on nodes 1, 2, 5, 4
        g = Grid(3, 3, 1.0, 1.0, CLAMPED)
        S = SpinField(g, np.broadcast_to(vec(0.0, 0.0, 1.0), (3, 3, 3)).copy())
        r, _ = reconstruct_surface(S, classical_coeffs("hf"))
        fileio.export_mesh(tmp_path / "m.obj", r)
        faces = [ln for ln in (tmp_path / "m.obj").read_text().splitlines()
                 if ln.startswith("f ")]
        assert len(faces) == 4
        assert faces[0] == "f 1 2 5 4"


class TestUnitNormal:
    def test_planar_mesh(self):
        g = Grid(12, 10, 0.4, 0.3, CLAMPED)
        x, y = g.meshgrid()
        pos = np.stack([x, y, np.zeros_like(x)])
        n = unit_normal(VecField(g, pos))
        assert np.allclose(n.values, vec(0.0, 0.0, 1.0), rtol=0, atol=1e-13)

    def test_parallel_tangents_rejected(self):
        g = Grid(4, 4, 1.0, 1.0, CLAMPED)
        x, y = g.meshgrid()
        pos = np.stack([x + y, np.zeros_like(x), np.zeros_like(x)])
        with pytest.raises(DegenerateTangent):
            unit_normal(VecField(g, pos))

    def test_sphere_patch(self):
        errs = []
        for n in (24, 48):
            g = Grid(n, n, 0.8 / n, 0.8 / n, CLAMPED)
            x, y = g.meshgrid()
            theta, phi = 0.6 + x, 0.4 + y
            R = 2.0
            pos = R * np.stack([np.sin(theta) * np.cos(phi),
                                np.sin(theta) * np.sin(phi),
                                np.cos(theta)])
            nrm = unit_normal(VecField(g, pos)).values
            radial = pos / R
            sign = np.sign(np.sum(nrm * radial, axis=0, keepdims=True))
            errs.append(np.abs(nrm - sign * radial).max())
        assert errs[0] < 5e-3
        assert errs[1] < errs[0] / 3.0    # at least second-order accurate


class TestResidualReport:
    def test_zero_fields(self, grid2d):
        rep = n_system_residual(constant_field(grid2d, (1.0, 0.0, 0.0)),
                                CoefficientSet())
        assert rep.vector_l2 == 0.0 and rep.scalar_l2 == 0.0


# ---------------------------------------------------------------------------
# refused coefficient sets

def test_non_finite_constant_coefficient_is_refused():
    with pytest.raises(ValueError, match="coefficient a1 is not finite"):
        CoefficientSet(a1=np.nan)


def test_coefficient_field_on_another_grid_is_grid_mismatch():
    g = Grid(8, 6, 0.25, 0.25, CLAMPED)
    c = CoefficientSet(a1=constant_field(Grid(8, 6, 0.5, 0.25, CLAMPED), 1.0))
    with pytest.raises(GridMismatch, match="coefficient a1 lives on"):
        c.check_grid(g)


def test_mxiiia_coefficients_need_phi_as_a_field():
    with pytest.raises(ValueError, match="mxiiia coefficients need phi as a ScalarField"):
        classical_coeffs("mxiiia", a1=1.0, a2=1.0, b1=1.0, b2=1.0, a3=0.0, phi=1.0)
