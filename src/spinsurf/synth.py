"""Deterministic smooth random fields for tests, demos, and initial data."""

import numpy as np

from .fields import ScalarField, SpinField, VecField, norm, project_sphere


def _sines(grid, seed, amplitude):
    rng = np.random.default_rng(seed)
    x, y = grid.meshgrid()
    lx = grid.nx * grid.dx
    ly = grid.ny * grid.dy
    out = np.zeros((grid.ny, grid.nx))
    for _ in range(3):
        kx = rng.integers(-2, 3)
        ky = rng.integers(-2, 3) if grid.ny > 1 else 0
        phase = rng.uniform(0, 2 * np.pi)
        amp = amplitude * rng.uniform(0.2, 1.0)
        arg = 2 * np.pi * kx * x / lx + phase
        if grid.ny > 1:
            arg = arg + 2 * np.pi * ky * y / ly
        out += amp * np.sin(arg)
    return out


def _sines_vec(grid, seed, amplitude):
    return np.stack([_sines(grid, seed * 3 + k + 1, amplitude) for k in range(3)])


def smooth_scalar(grid, seed=0, amplitude=1.0):
    """Band-limited random scalar field, periodic in both directions: three sine waves."""
    return ScalarField(grid, _sines(grid, seed, amplitude))


def smooth_vec(grid, seed=0, amplitude=1.0):
    return VecField(grid, _sines_vec(grid, seed, amplitude))


def smooth_spin(grid, seed=0):
    """Unit spin field: a perturbed north pole, projected onto the sphere.

    The bias toward (0, 0, 1) keeps norms safely away from zero so the
    projection is well conditioned for every seed. The one array is
    projected in place and handed over read-only, which SpinField keeps
    without a copy.
    """
    v = _sines_vec(grid, seed, 0.5)
    v[2] += 2.0
    project_sphere(v, norm(v), out=v)
    v.flags.writeable = False
    return SpinField(grid, v)


def equator_spin(grid, a=1.0, b=0.0):
    """S = (cos(a x + b y), sin(a x + b y), 0), an in-plane winding field."""
    x, y = grid.meshgrid()
    theta = a * x + b * y
    s = np.stack([np.cos(theta), np.sin(theta), np.zeros_like(theta)])
    return SpinField(grid, project_sphere(s, norm(s)))


def hasimoto_soliton(grid, t=0.0, nu=1.0, tau=0.5, x0=0.0):
    """Hasimoto's one-soliton of HF, S_t = S ^ S_xx, at time t, on x = x0 +
    grid.x() (constant in y): S = r_x of the vortex filament r = (x - A tanh
    nu eta, A sech nu eta cos theta, A sech nu eta sin theta) that the
    binormal flow r_t = r_x ^ r_xx carries, with A = 2 nu / (nu^2 + tau^2),
    eta = x - 2 tau t and theta = tau x + (nu^2 - tau^2) t: curvature 2 nu
    sech nu eta, torsion tau (Hasimoto, J. Fluid Mech. 51, 1972). The
    soliton moves in +x at speed 2 tau; |S| = 1 in exact arithmetic."""
    x = x0 + grid.x()
    a, eta = 2 * nu / (nu * nu + tau * tau), x - 2 * tau * t
    theta = tau * x + (nu * nu - tau * tau) * t
    sech, tanh = 1 / np.cosh(nu * eta), np.tanh(nu * eta)
    s = np.stack([1 - a * nu * sech * sech,
                  -a * sech * (nu * tanh * np.cos(theta) + tau * np.sin(theta)),
                  -a * sech * (nu * tanh * np.sin(theta) - tau * np.cos(theta))])
    return SpinField(grid, np.broadcast_to(s[:, None, :], (3, grid.ny, grid.nx)))
