import numpy as np
import pytest

from spinsurf import (CLAMPED, PERIODIC, CoefficientSet, Grid, ScalarField,
                      SpinField, constant_field, cross, diff, dot, hf_rhs,
                      lle_rhs, mxiii_constraint, mxiii_rhs, mxiii_terms, mxiiia_system,
                      mxiiib_system, stationary_residual, synth, triple)
from spinsurf.errors import GridMismatch, GridTooSmall

STATIONARY_KINDS = ("hf", "lle", "mxiii", "mxiiia", "mxiiib", "ishimori")


def pole(grid):
    return SpinField(grid, np.broadcast_to(np.reshape([0.0, 0.0, 1.0], (3, 1, 1)),
                                           (3, grid.ny, grid.nx)).copy())


class TestHfRhs:
    def test_constant_zero(self, grid1d):
        assert np.all(hf_rhs(pole(grid1d).values, grid1d) == 0.0)

    def test_equator_parallel(self):
        g = Grid(128, 1, 2 * np.pi / 128, 1.0, PERIODIC)
        S = synth.equator_spin(g, a=1.0)
        # S_xx = -S analytically, so S ^ S_xx vanishes up to O(dx^2)
        assert np.abs(hf_rhs(S.values, g)).max() < 5e-3

    def test_orthogonal_to_spin(self, grid1d):
        S = synth.smooth_spin(grid1d, seed=11)
        out = hf_rhs(S.values, grid1d)
        assert np.abs(dot(S.values, out)).max() < 1e-13


class TestLleRhs:
    def test_constant_zero(self, grid2d):
        assert np.all(lle_rhs(pole(grid2d).values, grid2d) == 0.0)

    def test_harmonic_equator_map(self):
        n = 96
        g = Grid(n, n, 2 * np.pi / n, 2 * np.pi / n, PERIODIC)
        S = synth.equator_spin(g, a=1.0, b=1.0)
        assert np.abs(lle_rhs(S.values, g)).max() < 1e-2

    def test_needs_2d(self, grid1d):
        with pytest.raises(GridTooSmall):
            lle_rhs(pole(grid1d).values, grid1d)

    def test_matches_brute_force(self, grid2d):
        S = synth.smooth_spin(grid2d, seed=12)
        s = S.values
        expect = cross(s, diff(s, grid2d, "dxx") + diff(s, grid2d, "dyy"))
        assert np.array_equal(lle_rhs(s, grid2d), expect)


def rhs_and_constraint(s, g, c):
    t = mxiii_terms(c, g)
    return mxiii_rhs(s, g, t), mxiii_constraint(s, g, diff(s, g, "dx"), diff(s, g, "dy"), t)


class TestMxiiiRhs:
    def test_constant_everything_zero(self, grid2d):
        rhs, constraint = rhs_and_constraint(pole(grid2d).values, grid2d,
                                             CoefficientSet(a1=1.0, b2=0.5, a2=1.0))
        assert np.all(rhs == 0.0)
        assert np.all(constraint == 0.0)

    def test_a2_selects_syy(self, grid2d):
        S = synth.smooth_spin(grid2d, seed=13)
        rhs = mxiii_rhs(S.values, grid2d, mxiii_terms(CoefficientSet(a2=1.0), grid2d))
        expect = cross(S.values, diff(S.values, grid2d, "dyy"))
        assert np.array_equal(rhs, expect)

    def test_varying_coefficients_match_formula(self):
        """Varying a3 (= b4), a5 and b5 enter through their own derivatives:
        rhs = S ^ [a2 S_yy + (a1 - b2) S_xy - b1 S_xx]
              + (a3_y - b5) S_x + (a5 - a3_x) S_y,
        constraint = (a5_y - b5_x) - (a1 + b2) S.(S_x ^ S_y)."""
        g = Grid(20, 16, 0.25, 0.3, PERIODIC)
        a3, a5, b5 = (synth.smooth_scalar(g, seed=k) for k in (21, 22, 23))
        a1, a2, b1, b2 = 0.7, 1.2, -0.4, 0.3
        c = CoefficientSet(a1=a1, a2=a2, b1=b1, b2=b2, a3=a3, b4=a3, a5=a5, b5=b5)
        s = synth.smooth_spin(g, seed=24).values
        rhs, constraint = rhs_and_constraint(s, g, c)

        def d(f, which):
            return diff(f, g, which)

        sx, sy = d(s, "dx"), d(s, "dy")
        wedge = np.cross(s, a2 * d(s, "dyy") + (a1 - b2) * d(s, "dxy") - b1 * d(s, "dxx"),
                         axis=0)
        want = (wedge + (d(a3.values, "dy") - b5.values) * sx
                + (a5.values - d(a3.values, "dx")) * sy)
        want_c = (d(a5.values, "dy") - d(b5.values, "dx")
                  - (a1 + b2) * np.einsum("k...,k...", s, np.cross(sx, sy, axis=0)))
        assert np.abs(want).max() > 0.1 and np.abs(want_c).max() > 0.1
        assert np.abs(rhs - want).max() < 1e-12 * np.abs(want).max()
        assert np.abs(constraint - want_c).max() < 1e-12 * np.abs(want_c).max()

    @pytest.mark.parametrize("bad", [{"b3": 1.0}, {"a4": 1.0}, {"b4": 2.0}])
    def test_coefficient_constraints_enforced(self, grid2d, bad):
        with pytest.raises(ValueError):
            mxiii_terms(CoefficientSet(a2=1.0, **bad), grid2d)


class TestMxiiiaSystem:
    def test_constant_spin(self, grid2d_clamped):
        rhs, phi = mxiiia_system(pole(grid2d_clamped).values, grid2d_clamped,
                                 1.0, 1.0, 0.0, 0.5)
        assert np.all(phi == 0.0)
        assert np.all(rhs == 0.0)

    def test_equator_map_coplanar(self, grid2d_clamped):
        S = synth.equator_spin(grid2d_clamped, a=0.7, b=0.3)
        rhs, phi = mxiiia_system(S.values, grid2d_clamped, 1.0, 1.0, -0.5, 0.5)
        assert np.all(phi == 0.0)

    def test_back_substitution_order_two(self):
        errs = []
        for n in (48, 96):
            g = Grid(n, n, 4.0 / n, 4.0 / n, CLAMPED)
            S = synth.smooth_spin(g, seed=14)
            a1, b2 = 0.8, 0.4
            _, phi = mxiiia_system(S.values, g, a1, 1.0, 0.0, b2)
            sx = diff(S.values, g, "dx")
            sy = diff(S.values, g, "dy")
            src = 0.5 * (a1 + b2) * triple(S.values, sx, sy)
            resid = diff(phi, g, "dxy") - src
            errs.append(np.abs(resid[2:-2, 2:-2]).max())
        assert errs[1] < errs[0] / 2.5


class TestMxiiibSystem:
    def test_constant_spin(self, grid2d):
        rhs, phi = mxiiib_system(pole(grid2d).values, grid2d, 1.0, 1.0, 0.0, 0.5)
        assert np.all(phi == 0.0)
        assert np.all(rhs == 0.0)

    def test_cancelling_coefficients_kill_potential(self, grid2d):
        S = synth.smooth_spin(grid2d, seed=15)
        rhs, phi = mxiiib_system(S.values, grid2d, 1.0, 1.0, 0.0, -1.0)
        assert np.all(phi == 0.0)

    def test_potential_back_substitution(self, grid2d):
        S = synth.smooth_spin(grid2d, seed=16)
        a1, b2 = 0.6, 0.2
        _, phi = mxiiib_system(S.values, grid2d, a1, 1.0, 0.0, b2)
        sx = diff(S.values, grid2d, "dx")
        sy = diff(S.values, grid2d, "dy")
        src = (a1 + b2) * triple(S.values, sx, sy)
        src = src - src.mean()
        lap = diff(phi, grid2d, "dxx") + diff(phi, grid2d, "dyy")
        assert np.abs(lap - src).max() < 1e-10 * max(1.0, np.abs(src).max())


class TestStationaryResidual:
    @pytest.mark.parametrize("kind", STATIONARY_KINDS)
    def test_constant_spin_all_kinds_zero(self, grid2d, kind):
        S = pole(grid2d)
        phi = constant_field(grid2d, 0.0)
        coeffs = CoefficientSet(a1=1.0, a2=1.0, b2=0.5)
        rep = stationary_residual(kind, S, phi=phi, coeffs=coeffs, alpha=1.0)
        assert rep.vector_max == 0.0 and rep.scalar_max == 0.0

    def test_lle_equator_converges(self):
        # Every even-derivative truncation error of the symmetric stencils
        # is parallel to S on this map and is annihilated by the cross
        # product, so the surviving edge error is O(h^3): the residual
        # superconverges (ratio ~8 per halving, at least second order).
        errs = []
        for n in (48, 96):
            g = Grid(n, n, 2 * np.pi / n, 2 * np.pi / n, CLAMPED)
            S = synth.equator_spin(g, a=1.0, b=1.0)
            errs.append(stationary_residual("lle", S).vector_max)
        assert errs[0] / errs[1] > 3.3
        assert errs[1] < 1e-3

    def test_ishimori_matches_brute_force(self, grid2d):
        S = synth.smooth_spin(grid2d, seed=17)
        phi = synth.smooth_scalar(grid2d, seed=18)
        alpha = 1.5
        rep = stationary_residual("ishimori", S, phi=phi, alpha=alpha)
        s, p, g = S.values, phi.values, grid2d
        sx, sy = diff(s, g, "dx"), diff(s, g, "dy")
        vec = (cross(S.values, diff(s, g, "dxx")
                     + alpha ** 2 * diff(s, g, "dyy"))
               + diff(p, g, "dx") * sy
               + diff(p, g, "dy") * sx)
        scal = (alpha ** 2 * diff(p, g, "dyy") - diff(p, g, "dxx")
                - alpha ** 2 * triple(S.values, sx, sy))
        assert np.abs(rep.vector_residual.values - vec).max() < 1e-13
        assert np.abs(rep.scalar_residual.values - scal).max() < 1e-13

    @pytest.mark.parametrize("kind", ["mxiiia", "mxiiib"])
    def test_coefficient_field_on_another_grid(self, kind):
        """A coefficient field of the right shape but another spacing is
        refused, as the potential is."""
        g = Grid(12, 10, 0.25, 0.3, CLAMPED if kind == "mxiiia" else PERIODIC)
        other = Grid(12, 10, 0.5, 0.3, g.boundary)
        coeffs = CoefficientSet(a1=synth.smooth_scalar(other, seed=1), a2=1.0)
        with pytest.raises(GridMismatch, match="coefficient a1"):
            stationary_residual(kind, synth.smooth_spin(g, seed=2),
                                phi=constant_field(g, 0.0), coeffs=coeffs)

    def test_ishimori_needs_nonzero_alpha(self, grid2d):
        with pytest.raises(ValueError):
            stationary_residual("ishimori", pole(grid2d),
                                phi=constant_field(grid2d, 0.0), alpha=0.0)

    def test_unknown_kind(self, grid2d):
        with pytest.raises(ValueError):
            stationary_residual("heat", pole(grid2d))
