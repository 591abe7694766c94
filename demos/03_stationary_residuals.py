"""Check candidate stationary solutions against the named spin systems.

A residual report says how far a given field is from satisfying the
time-independent form of an equation. The in-plane winding field
S = (cos(ax+by), sin(ax+by), 0) solves the stationary 2+1-D
Landau-Lifshitz equation exactly in the continuum, so its discrete
residual is pure truncation error and melts away under refinement.
A random smooth field, for contrast, is nowhere near a solution and its
residual does not improve.

Run:  python3 demos/03_stationary_residuals.py
"""

import numpy as np

from spinsurf import Grid, constant_field, stationary_residual, synth

print("stationary LLE residual of the equator winding map (clamped grid):")
print(f"{'n':>6} {'max residual':>14}")
for n in (24, 48, 96):
    grid = Grid(n, n, 2 * np.pi / n, 2 * np.pi / n, "clamped")
    S = synth.equator_spin(grid, a=1.0, b=1.0)
    rep = stationary_residual("lle", S)
    print(f"{n:6d} {rep.vector_max:14.3e}")

print("\nsame check on a random smooth field (not a solution):")
for n in (24, 48):
    grid = Grid(n, n, 2 * np.pi / n, 2 * np.pi / n, "clamped")
    S = synth.smooth_spin(grid, seed=5)
    rep = stationary_residual("lle", S)
    print(f"{n:6d} {rep.vector_max:14.3e}")

print("\nstationary Ishimori residual needs the auxiliary potential phi;")
print("with phi = 0 the scalar part reports the unmet potential equation:")
grid = Grid(48, 48, 0.2, 0.2, "periodic")
S = synth.smooth_spin(grid, seed=6)
rep = stationary_residual("ishimori", S, phi=constant_field(grid, 0.0),
                          params={"alpha": 1.0})
print(f"  vector max {rep.vector_max:.3e}, scalar max {rep.scalar_max:.3e}")
