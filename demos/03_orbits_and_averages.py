"""Particle orbits and the path averages behind every operator.

Trajectories conserve the kinetic energy e and the canonical momentum
p = v2 - psi0(x) (species -), so on a magnetized state an orbit either
passes through the whole period or is trapped between two turning points
where v1 vanishes.  The backward average at growth rate lam weights the
path by lam*exp(lam*s): it tends to the pointwise value as lam grows
(fast growth) and to the orbit average as lam falls to 0 (slow growth).
``node_moments`` gives these averages of exp(i k w x) at every velocity
node at once.
"""

import numpy as np

import vmspec as vm

prof, weight = vm.build_profile("weakfield_family")
quad = vm.build_velocity_quadrature(weight, kinks=prof.kinks, n_r=32, n_theta=32,
                                    n_r_tail=8)
state = vm.solve_equilibrium_potential(prof, 0.1, quad)
w = 2 * np.pi / state.period
x = 0.5
print(f"magnetized state: period {state.period:.4f}, field amplitude "
      f"{state.potential.b_max:.4f}")

print("\n== orbit classes from the invariants ==")
# species -: v1^2 = e^2 - 1 - (p + psi0(x'))^2 along the orbit, which is
# trapped where this reaches 0 somewhere in the period
p = quad.v2 - state.psi0(x)
psi = state.psi0(np.linspace(0.0, state.period, 256, endpoint=False))
v1_sq_min = np.min(quad.e[:, None] ** 2 - 1 - (p[:, None] + psi[None, :]) ** 2, axis=1)
trapped = v1_sq_min < 0
print(f"at x = {x}: {np.count_nonzero(trapped)} trapped and "
      f"{np.count_nonzero(~trapped)} passing of {quad.n_nodes} velocity nodes")

print("\n== the average of 1 is 1 ==")
moments = vm.node_moments(state, 0.0, quad, 1, x)
m0 = moments[0]
print(f"max |m0[0] - 1| = {np.max(np.abs(m0[0] - 1)):.2e}")
print(f"lanes that did not close within the horizon: "
      f"{np.count_nonzero(~moments.resolved)} of {moments.resolved.size}")
print(f"largest invariant drift over the orbit pass: |de| {moments.drift['e']:.1e}, "
      f"|dp| {moments.drift['p']:.1e}")

print("\n== the backward average of cos(w x) on a trapped node ==")
j = int(np.argmin(np.where(trapped, np.hypot(quad.v1 - 0.02, quad.v2 - 0.9), np.inf)))
print(f"node v = ({quad.v1[j]:.3f}, {quad.v2[j]:.3f}), orbit closed: {moments.resolved[j]}")
print(f"{'lam':>9s} {'average':>12s}")
for lam in (100.0, 10.0, 1.0, 0.1, 0.0):
    avg = vm.node_moments(state, lam, quad, 1, x)[0][1, j].real
    print(f"{lam:9g} {avg:12.6f}" + ("   (the orbit average, slow growth)" if lam == 0 else ""))
print(f"{'value':>9s} {np.cos(w * x):12.6f}   (the fast-growth limit)")
