"""Solve the first-order profile system and cross-check both formulations.

The profile functions (f, f_NA, Q1, Q2) satisfy a first-order system whose
near-origin behaviour is a two-parameter series: Q1 ~ c1*r and Q2 -> c2.
The collocation solver treats (c1, c2) as unknowns alongside the mesh
values.  The same configuration maps onto the regularized formulation with
half-integer multiplicities (n1, n2) = (1/2, 0); reconstructing profiles
from that solve must agree with the direct profile solution.
"""

import numpy as np

from vortexlab import (
    ModelParams,
    ode_residual,
    radial_mesh,
    reconstruct_profiles,
    solve_profile_bps,
    solve_radial_P,
)

N = 2
ps = solve_profile_bps(N, r_max=30.0, tol=1e-10)
params = ModelParams(N=N, n1=0.5, n2=0.0, theorem_mode=False)

print(f"profile solve: {ps.iterations} Newton steps, system residual {ps.residual:.2e}")
print(f"near-origin constants: c1 = Q1'(0) = {ps.c1:.6f},  c2 = Q2(0) = {ps.c2:.6f}")
print(f"first-order system residual (central differences): {ode_residual(ps, params):.2e}")

r = ps.mesh.r
decade = (r >= r[0]) & (r <= 10 * r[0])
slope = np.polyfit(np.log(r[decade]), np.log(ps.Q1[decade]), 1)[0]
print(f"near-origin exponent of Q1: {slope:.4f} (exactly 1 in the continuum)")

for radius in (0.5, 1.0, 2.0, 5.0, 30.0):
    k = np.searchsorted(r, radius)
    print(
        f"r = {r[k]:5.2f}:  f = {ps.f[k]:+.6f}  f_NA = {ps.f_NA[k]:+.6f}"
        f"  Q1 = {ps.Q1[k]:.6f}  Q2 = {ps.Q2[k]:.6f}"
    )

# Cross-formulation check: the same vortex through the regularized system.
rsol = solve_radial_P(params, radial_mesh(n=4000), tol=1e-9)
rec = reconstruct_profiles(rsol)
print(f"\nhalf-integer radial solve: residual {rsol.residual:.2e}")
print(f"reconstructed profile residual: {ode_residual(rec, params):.2e}")
print(f"Q2(0+) from the two formulations: {ps.c2:.6f} vs {rec.Q2[0]:.6f}")
mask = rsol.mesh.r <= 10.0
interp = np.interp(rsol.mesh.r[mask], r, ps.f)
print(f"sup difference of f on [0, 10]: {np.max(np.abs(interp - rec.f[mask])):.2e}")
