"""Tour the magnetoelastic catalog and cross-check it against its oracle.

Each catalog entry couples one of five spin equations (families A-E) to a
lattice-displacement equation (wave, Boussinesq, advection, or KdV type,
or none when u is prescribed externally) through a scalar source built
from the spin field. Every spin right-hand side has a second, fully
independent implementation in 2x2 Pauli-matrix form; the two must agree
to near machine precision, which is rerun here live.

Run:  python3 demos/04_magnetoelastic_catalog.py
"""

import numpy as np

from spinsurf import (EvolveOptions, Grid, catalog_lookup,
                      catalog_names, evolve, evolution_model, me_spin_rhs,
                      pauli_oracle_rhs, synth)

print("catalog:")
for name in catalog_names():
    spec = catalog_lookup(name)
    mark = " " if spec.implemented else "!"
    print(f"  {mark} {spec.name:<9} spin={spec.spin:<2} "
          f"phonon={spec.phonon:<10} source={spec.source}")
print("  (! = registered but not implemented; see spec.reason)")

grid = Grid(64, 1, 0.2, 1.0, "periodic")
# spin array, displacement array and grid: the right-hand sides' arguments
state = (synth.smooth_spin(grid, seed=1).values,
         synth.smooth_scalar(grid, seed=2).values, grid)

print("\nvector form vs Pauli-matrix oracle, one model per family:")
for name in ("M-LVII", "M-LVI", "M-LV", "M-LIV", "M-LIII"):
    spec = catalog_lookup(name)
    gap = np.abs(me_spin_rhs(spec, *state)
                 - pauli_oracle_rhs(spec, *state)).max()
    print(f"  {name:<8} family {spec.spin}: max |vector - oracle| = {gap:.2e}")

print("\nevolving M-XXXIV (spin + advected displacement) for 500 steps:")
model = evolution_model("m-xxxiv", grid)
traj = evolve(model,
              {"S": synth.smooth_spin(grid, seed=4).values,
               "u": np.zeros((1, grid.nx))},
              EvolveOptions(dt=0.2 * grid.dx ** 2, steps=500,
                            snapshot_every=100))
for t, rec in zip(traj.times, traj.diagnostics):
    print(f"  t={t:7.4f}  energy proxy {rec['energy_proxy']:.6f}")
