"""Evolve a 1-D Heisenberg ferromagnet spin chain and watch its diagnostics.

The flow S_t = S ^ S_xx preserves |S| = 1; the integrator renormalizes
after every step and records how far the Runge-Kutta update drifted off
the sphere before the projection. That drift is the cheapest health
signal the run produces: it should sit near machine precision and stay
flat. Alongside it the demo prints the periodic chain's bond energy
E = (2/h) sum(1 - S_i . S_{i+1}), which the semi-discrete flow conserves,
so RK4 with projection should hold it to many digits.

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

s = np.stack([S.values for S in traj.spins()])       # (snapshot, 3, 1, nx)
energy = 2 / grid.dx * np.sum(1 - np.sum(s * np.roll(s, -1, axis=-1), axis=1), axis=(1, 2))

print(f"{'time':>8}  {'bond energy':>14}  {'max_norm_drift':>18}")
for t, e, rec in zip(traj.times, energy, traj.diagnostics):
    print(f"{t:8.4f}  {e:14.10f}  {rec['max_norm_drift']:18.3e}")

final = traj.spins()[-1]
print("\nfinal spin at the left end:", np.round(final.values[:, 0, 0], 6))
print("max |S| deviation in the final snapshot:",
      np.abs(np.linalg.norm(final.values, axis=0) - 1.0).max())
