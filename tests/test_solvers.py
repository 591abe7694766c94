import numpy as np
import pytest

from spinsurf import (CLAMPED, PERIODIC, Grid, NonConvergence, NonZeroMeanSource,
                      ScalarField, constant_field, diff, mixed_integrate, poisson_solve)
from spinsurf import solvers
from spinsurf.errors import GridTooSmall


def _laplacian(phi, g):
    return diff(phi, g, "dxx") + diff(phi, g, "dyy")


class TestPoisson:
    def test_zero_source(self, grid2d):
        phi = poisson_solve(constant_field(grid2d, 0.0).values, grid2d)
        assert np.all(phi == 0.0)

    def test_eigenfunction_back_substitution(self):
        g = Grid(48, 32, 0.25, 0.5, PERIODIC)
        x, y = g.meshgrid()
        k = 2 * np.pi / (g.nx * g.dx)
        el = 2 * np.pi / (g.ny * g.dy)
        rhs = ScalarField(g, -(k ** 2 + el ** 2) * np.sin(k * x) * np.sin(el * y))
        phi = poisson_solve(rhs.values, g)
        resid = np.abs(_laplacian(phi, g) - rhs.values).max()
        assert resid <= 1e-10 * max(1.0, np.abs(rhs.values).max())

    def test_zero_mean_gauge(self, grid2d, rng):
        src = rng.standard_normal((32, 32))
        src -= src.mean()
        phi = poisson_solve(src, grid2d)
        assert abs(phi.mean()) < 1e-13

    def test_nonzero_mean_rejected(self, grid2d):
        with pytest.raises(NonZeroMeanSource):
            poisson_solve(constant_field(grid2d, 1.0).values, grid2d)

    def test_clamped_rejected(self, grid2d_clamped):
        with pytest.raises(ValueError):
            poisson_solve(constant_field(grid2d_clamped, 0.0).values, grid2d_clamped)

    def test_solve_that_misses_its_source_is_non_convergence(self, grid2d, rng,
                                                             monkeypatch):
        """The back-substitution check refuses a phi whose Laplacian is not
        the source: with the symbol doubled, phi is half the solution."""
        symbol = solvers._symbol
        monkeypatch.setattr(solvers, "_symbol", lambda g: 2.0 * symbol(g))
        src = rng.standard_normal((32, 32))
        with pytest.raises(NonConvergence):
            poisson_solve(src - src.mean(), grid2d)

    def test_symbol_built_once_per_grid(self, grid2d, rng):
        """Equal grids share one read-only symbol, and a solve leaves it as
        it was."""
        lam = solvers._symbol(grid2d)
        before = lam.copy()
        src = rng.standard_normal((32, 32))
        poisson_solve(src - src.mean(), Grid(32, 32, 0.2, 0.2, PERIODIC))
        assert solvers._symbol(Grid(32, 32, 0.2, 0.2, PERIODIC)) is lam
        assert not lam.flags.writeable and np.array_equal(lam, before)
        assert lam[0, 0] == 1.0 and (lam.ravel()[1:] < 0.0).all()


class TestMixedIntegrate:
    def test_zero_source(self, grid2d_clamped):
        phi = mixed_integrate(constant_field(grid2d_clamped, 0.0).values, grid2d_clamped)
        assert np.all(phi == 0.0)

    def test_unit_source_bilinear(self):
        g = Grid(9, 7, 0.3, 0.5, CLAMPED)
        phi = mixed_integrate(constant_field(g, 1.0).values, g)
        x, y = g.meshgrid()
        assert np.abs(phi - x * y).max() < 1e-13

    def test_separable_polynomial_oracle(self):
        # f = g'(x) h'(y) with g = x^2, h = y^3; phi should converge to
        # g(x)h(y) - g(x)h(0) - g(0)h(y) + g(0)h(0) = x^2 y^3 at order 2.
        errs = []
        for n in (16, 32):
            g = Grid(n + 1, n + 1, 1.0 / n, 1.0 / n, CLAMPED)
            x, y = g.meshgrid()
            f = ScalarField(g, (2 * x) * (3 * y ** 2))
            phi = mixed_integrate(f.values, g)
            errs.append(np.abs(phi - x ** 2 * y ** 3).max())
        assert 3.3 < errs[0] / errs[1] < 4.7

    def test_axis_data_gauge(self, rng):
        # phi is pinned to zero on the seed row y = y0 and the seed column
        # x = x0, as +0.0 also where the source is a negative zero
        g = Grid(8, 7, 0.25, 0.3, CLAMPED)
        for f in (rng.standard_normal((g.ny, g.nx)), np.full((g.ny, g.nx), -0.0)):
            phi = mixed_integrate(f, g)
            for edge in (phi[0, :], phi[:, 0]):
                assert np.all(edge == 0.0) and not np.signbit(edge).any()
        assert not np.signbit(phi).any()

    def test_periodic_rejected(self, grid2d):
        with pytest.raises(ValueError):
            mixed_integrate(constant_field(grid2d, 0.0).values, grid2d)

    def test_1d_rejected(self, grid1d):
        with pytest.raises((ValueError, GridTooSmall)):
            mixed_integrate(constant_field(grid1d, 0.0).values, grid1d)
