"""Minimize the planar functional and cross-validate against the radial solve.

The planar solver is a Newton-CG minimization of the strictly convex
discrete functional on a 2-D box grid.  Strict convexity has two visible
consequences checked here: any initial field reaches the same minimizer
(uniqueness probe), and the planar fields agree with the independently
computed radial solution along the axis.

Runs at 256^2 to stay quick; the acceptance suite runs the production
512^2 configuration.
"""

import time

import numpy as np

from vortexlab import ModelParams, PlanarGrid, radial_mesh, solve_planar, solve_radial_P
from vortexlab.verify import cross_validate, flux_integrals, uniqueness_check

params = ModelParams(N=2, n1=1, n2=1)
grid = PlanarGrid(half_width=15.0, points_per_side=256)

t0 = time.time()
sol = solve_planar(params, grid, tol=1e-8)
print(
    f"zero start: {sol.iterations} Newton steps, {sol.cg_iterations} CG iterations,"
    f" EL residual {sol.final_gradient_norm:.2e}, {time.time() - t0:.1f}s"
)
print(f"energy history: {['%.6f' % e for e in sol.energy_history]}")

out = flux_integrals(sol)
for rec in out["flux"]:
    print(f"{rec['name']}: value {rec['value']:+.6f}  target {rec['target']:+.6f}")

u1 = sol.u[0]  # derived from w on each read: bind it once
sym = max(
    float(np.max(np.abs(u1 - u1[::-1, :]))),
    float(np.max(np.abs(u1 - u1[:, ::-1]))),
)
print(f"four-fold symmetry defect: {sym:.2e}")

# Uniqueness probe: a random start lands on the same minimizer.
rng = np.random.default_rng(7)
n = grid.points_per_side
init = np.zeros((2, n, n))  # w1 = init[0], w2 = init[1]
init[:, 1:-1, 1:-1] = rng.uniform(-0.5, 0.5, (2, n - 2, n - 2))
t0 = time.time()
other = solve_planar(params, grid, tol=1e-8, initial=init)
print(
    f"random start: {other.iterations} Newton steps, {time.time() - t0:.1f}s,"
    f" sup difference {uniqueness_check(sol, other)['sup_difference']:.2e}"
)

# Cross-validation against the radial formulation.
rsol = solve_radial_P(params, radial_mesh(n=4000), tol=1e-9)
rec = cross_validate(rsol, sol)
print(f"radial-vs-planar sup difference on {rec['window']}: {rec['sup_difference']:.2e}")
