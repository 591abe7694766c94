"""Evolve a 1-D Heisenberg ferromagnet spin chain and watch its diagnostics.

The flow S_t = S ^ S_xx preserves |S| = 1; the integrator renormalizes
after every step and records how far the Runge-Kutta update drifted off
the sphere before the projection. That drift is the cheapest health
signal the run produces: it should sit near machine precision and stay
flat.

Run:  python3 demos/01_evolve_heisenberg.py
"""

import numpy as np

from spinsurf import EvolveOptions, Grid, evolve, evolution_model, synth

grid = Grid(128, 1, 0.1, 1.0, "periodic")
dt = 0.2 * grid.dx ** 2            # safely inside the RK4 stability bound

model = evolution_model("hf", grid)
S0 = synth.smooth_spin(grid, seed=3)

opts = EvolveOptions(dt=dt, steps=2000, snapshot_every=400)
traj = evolve(model, {"S": S0.values}, opts)

print(f"{'time':>8}  {'energy proxy':>14}  {'norm drift/window':>18}")
for t, rec in zip(traj.times, traj.diagnostics):
    print(f"{t:8.4f}  {rec['energy_proxy']:14.8f}  "
          f"{rec['max_norm_drift']:18.3e}")

final = traj.spins()[-1]
print("\nfinal spin at the left end:", np.round(final.values[:, 0, 0], 6))
print("max |S| deviation in the final snapshot:",
      np.abs(np.linalg.norm(final.values, axis=0) - 1.0).max())
