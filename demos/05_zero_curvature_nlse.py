"""From curvature/torsion data to the nonlinear Schrodinger equation.

Curvature k and torsion tau of a moving curve define an antisymmetric
matrix C, held as its so(3) vector c; a partner d solving
d_x = c_t + c x d closes the zero-curvature condition c_t - d_x + c x d = 0,
the vector form of C_t - D_x + [C, D] = 0, up to discretization error. The same k, tau feed the map psi = (k/2) exp(-i integral tau),
which for the right curve data satisfies i psi_t + psi_xx + 2|psi|^2 psi
= 0. Both residuals are computed here on the standing bright soliton and
on generic smooth data, with a refinement sweep showing the expected
second-order decay.

Run:  python3 demos/05_zero_curvature_nlse.py
"""

import numpy as np

from spinsurf import (build_C, hasimoto, nlse_residual, nlse_soliton,
                      solve_D, zc_residual)

print("NLSE residual of the standing soliton under refinement:")
for n in (64, 128, 256):
    x = np.linspace(-10, 10, n + 1)
    t = np.linspace(0, 0.5, n + 1)
    psi = nlse_soliton(1.0, x, t)
    r = nlse_residual(psi, x[1] - x[0], t[1] - t[0]).max()
    print(f"  n={n:4d}  max residual {r:.3e}")

print("\ncurvature-to-wavefunction map on soliton curve data "
      "(k = 2a sech(ax), tau = 0):")
a = 1.2
x = np.linspace(-8, 8, 161)
psi = hasimoto(2 * a / np.cosh(a * x), np.zeros_like(x), x[1] - x[0])
ref = np.abs(nlse_soliton(a, x, 0.0))
print(f"  max | |psi| - soliton modulus | = {np.abs(np.abs(psi) - ref).max():.2e}")

print("\nzero-curvature residual for smooth time-dependent (k, tau):")
for n in (32, 64, 128):
    nx = nt = n + 1
    dx, dt = 4.0 / n, 1.0 / n
    X, T = np.meshgrid(np.linspace(0, 4, nx), np.linspace(0, 1, nt))
    c = build_C(1.0 + 0.3 * np.sin(X - 2 * T), 0.2 * np.cos(X + T))
    d = solve_D(c, np.zeros((3, nt)), dx, dt)
    _, mx = zc_residual(c, d, dx, dt)
    print(f"  n={n:4d}  max residual {mx:.3e}")
