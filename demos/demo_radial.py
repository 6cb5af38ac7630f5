"""Solve the radial system and verify the quantized fluxes and decay.

The regularized radial problem is a two-point BVP for the smooth parts
(P1, P2); the physical fields are u_i = u0_i + P_i.  After the damped
Newton solve this script measures the two quantized flux integrals, the
component fluxes fixed by linear algebra alone, and the exponential decay
rate of the weighted field vector, comparing each against its target.

Note the decay physics: for equal multiplicities at rank 2 the two fields
coincide and the slow decay mode is absent, so the fitted rate sits near
the fast-mode value 2; the asymmetric rank-3 run shows the generic rate 1.
Both obey the one-sided bound rate >= sqrt(lambda0).
"""

from vortexlab import ModelParams, radial_mesh, solve_radial_P
from vortexlab.verify import decay_fit, flux_integrals, pde_residual

for params in (ModelParams(N=2, n1=1, n2=1), ModelParams(N=3, n1=1, n2=2)):
    mesh = radial_mesh(r_min=1e-4, r_max=30.0, n=4000)

    sol = solve_radial_P(params, mesh, tol=1e-9)
    print(f"=== N = {params.N}, (n1, n2) = ({params.n1:g}, {params.n2:g}) ===")
    print(f"converged in {sol.iterations} Newton steps, residual {sol.residual:.2e}")
    print(f"u1 range: [{sol.u[0].min():.4f}, {sol.u[0].max():.4f}]")

    out = flux_integrals(sol)
    for rec in out["flux"]:
        tgt = rec["target"]
        print(
            f"{rec['name']}: value {rec['value']:+.6f}  target {tgt:+.6f}"
            f"  abs error {rec['abs_error']:.2e}"
        )
    comp = out["component_flux"]
    print(
        f"component fluxes: ({comp['value_E1']:.6f}, {comp['value_E2']:.6f})"
        f" vs exact ({comp['target_E1']:.6f}, {comp['target_E2']:.6f})"
    )

    for rec in decay_fit(sol):
        rate = rec["fitted_rate"]
        shown = f"{rate:.4f}" if rate is not None else f"none ({rec['warning']})"
        print(
            f"decay of {rec['quantity']:>7}: fitted {shown}"
            f"  one-sided bound {rec['paper_bound']:.4f}"
        )

    print(f"scheme-consistent PDE residual: {pde_residual(sol):.2e}")
    print()
