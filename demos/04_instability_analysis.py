"""Full instability analysis of an anisotropic homogeneous equilibrium.

The anisotropic family carries a positive momentum-anisotropy moment, so
on any period above the critical one, the magnetic-field operator picks
up negative eigenvalues at zero growth rate, while at large rates it has
none.  The truncated matrix splits into an electric pencil on (phi, b) and
this magnetic pencil on psi; the magnetic count change forces one of its
eigenvalues through zero, and at the crossing a kernel vector reconstructs
into a physical growing mode that satisfies every linearized field equation.
"""

import numpy as np

import vmspec as vm

prof, weight = vm.build_profile("weakfield_family")
quad = vm.build_velocity_quadrature(weight, kinks=prof.kinks, n_r=64, n_theta=128,
                                    n_r_tail=16)
cc = vm.check_center_conditions(prof, quad, refine_check=False)
period = 1.5 * cc.critical_period
state = vm.make_homogeneous_state(prof, period)
print(f"homogeneous anisotropic state, period {period:.4f} "
      f"(1.5 x critical {cc.critical_period:.4f})")

basis = vm.build_fourier_basis(period, 16)
n = 6
grid = vm.default_lambda_grid(period)
sw = vm.sweep(state, basis, quad, n, grid)
print(f"\nzero-rate blocks: l0 = {sw.l0:+.6f}, neg(A1) = {sw.neg_a1}, "
      f"neg(A2) = {sw.neg_a2}")
print("lowest A2 eigenvalues:", np.round(sw.modal.a2_values[:4], 4))
print(f"verdict: {sw.verdict.verdict}  ({sw.verdict.reason})")

print(f"\nsweep with n = {n}: zero-rate count {sw.k_count}, "
      f"large-rate count {sw.counts[-1].neg}")
negs = [c.neg for c in sw.counts]
print("negative counts across the grid:", negs)
for p, pn in sw.pencil_counts.items():
    print(f"  {p:8s} pencil: {pn[0]} -> {pn[-1]}")
print("count-change intervals:", [(c['pencil'], round(c['lam_lo'], 4), round(c['lam_hi'], 4))
                                  for c in sw.crossings])

cr = vm.locate_kernel_for_state(sw)
print(f"\nkernel crossing at lambda* = {cr.lambda_star:.8f} "
      f"(smallest |eigenvalue| {cr.min_abs_eig:.2e})")
print(f"kernel vector: {cr.vector.size} {cr.pencil} coordinates")

mode = vm.reconstruct(sw, cr)
rep = vm.residuals(mode)
print("\nresiduals of the reconstructed mode:")
for name in ("gauss", "ampere1", "ampere2", "continuity", "vlasov_weak"):
    print(f"  {name:12s} {getattr(rep, name):.2e}")
print(f"all within tolerance {rep.tol:g}: {rep.passed}")

print("\nfield profile of the growing mode (quarter-period samples):")
idx = np.linspace(0, mode.x.size, 5, endpoint=False, dtype=int)
print("  x:  " + " ".join(f"{mode.x[i]:8.3f}" for i in idx))
print("  E2: " + " ".join(f"{mode.e2[i]:8.4f}" for i in idx))
print("  B:  " + " ".join(f"{mode.bfield[i]:8.4f}" for i in idx))
