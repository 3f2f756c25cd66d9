"""Particle orbits and the two path averages behind every operator.

Trajectories conserve the kinetic energy and the canonical momentum;
orbits on a magnetized state split into passing and trapped classes.  The
smoothing average weights the backward path by lam*exp(lam*s) and
interpolates between the identity (fast growth) and the orbit-average
projection (slow growth).
"""

import numpy as np

import vmspec as vm
from vmspec.characteristics import PhasePoint

prof, weight = vm.build_profile("weakfield_family")
quad = vm.build_velocity_quadrature(weight, kinks=prof.kinks, n_r=32, n_theta=32,
                                    n_r_tail=8)
state = vm.solve_equilibrium_potential(prof, 0.1, quad)
print(f"magnetized state: period {state.period:.4f}, field amplitude "
      f"{state.potential.b_max:.4f}")

print("\n== conservation along a long backward path ==")
pt = PhasePoint(1.2, 0.7, -0.5)
out = vm.flow(state, "-", pt, -50.0)
print(f"energy drift   {abs(out.energy - pt.energy):.2e}")
print(f"momentum drift {abs(out.momentum(state, '-') - pt.momentum(state, '-')):.2e}")

print("\n== orbit classes ==")
for v1, v2 in ((0.7, -0.4), (0.02, 0.9), (0.0, 0.0)):
    info = vm.orbit_info(state, "-", PhasePoint(0.5, v1, v2))
    print(f"start v=({v1:5.2f},{v2:5.2f}): {info.kind:10s} period {info.period:9.4f} "
          f"winding {info.winding:+d}")

print("\n== smoothing average interpolates between limits ==")
w = 2 * np.pi / state.period
h = lambda x, v1, v2: np.cos(w * x)
pt = PhasePoint(0.5, 0.02, 0.9)          # a trapped orbit
proj = vm.ProjectionEvaluator(state).apply("-", h, pt)
print(f"{'lam':>8s} {'average':>12s}")
for lam in (10.0, 1.0, 0.1, 0.01):
    ev = vm.SmoothingEvaluator(state, lam, k_osc=1)
    print(f"{lam:8g} {ev.apply('-', h, pt):12.6f}")
print(f"{'orbit avg':>8s} {proj:12.6f}   (the slow-growth limit)")
print(f"{'value':>8s} {float(h(np.asarray(pt.x), 0, 0)):12.6f}   (the fast-growth limit)")

print("\n== the average of any function of the invariants is itself ==")
inv = lambda x, v1, v2: np.sqrt(1 + v1**2 + v2**2) + 0.3 * (v2 - state.psi0(x))
got = vm.ProjectionEvaluator(state).apply("-", inv, pt)
want = float(inv(np.asarray(pt.x), np.asarray(pt.v1), np.asarray(pt.v2)))
print(f"orbit average {got:.10f} vs pointwise value {want:.10f}")
