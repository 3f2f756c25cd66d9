"""Profiles, decay weights, and the velocity quadrature.

Walks through the named equilibrium profiles, validates them against
their decay envelopes, and reproduces the closed-form moments of the
kinked homogeneous profile with the panel-split polar rule.
"""

import numpy as np

import vmspec as vm

print("== named profiles ==")
for name in ("paper_homogeneous", "weakfield_family", "zero"):
    prof, weight = vm.build_profile(name)
    rep = vm.validate_profile(prof, weight)
    print(f"{name:18s} weight=(c={weight.c:g}, alpha={weight.alpha:g})  {rep.summary()}")

print()
print("== panel-split quadrature on the kinked profile ==")
prof, weight = vm.build_profile("paper_homogeneous")
quad = vm.build_velocity_quadrature(weight, kinks=prof.kinks, n_r=96, n_theta=256)
print(f"nodes: {quad.n_nodes}, truncation radius {quad.r_max:.1f}")
print("panel edges:", ", ".join("%.4g" % e for e in quad.panel_edges))
print("(the edge at sqrt(3) = %.6f matches the kink energy e = 2)" % np.sqrt(3.0))

print()
print("== golden moments ==")
ring = vm.integrate_velocity(quad, lambda v1, v2: np.where(
    v1**2 + v2**2 < 3.0, (v1**2 + v2**2) / (1 + v1**2 + v2**2), 0.0)) / (2 * np.pi)
print(f"ring integral      {ring:+.12f}   exact 3/2 - ln 2 = {1.5 - np.log(2):+.12f}")

m_e = vm.integrate_velocity(quad, lambda v1, v2: prof.mu_e(
    np.sqrt(1 + v1**2 + v2**2), v2))
tail = abs(m_e / (2 * np.pi) - 1.5)
print(f"tail moment        {tail:+.12f}   exact sqrt(pi)/2 + 2 = {np.sqrt(np.pi)/2 + 2:+.12f}")

l0s = vm.integrate_velocity(quad, lambda v1, v2: prof.mu_e(
    np.sqrt(1 + v1**2 + v2**2), v2) * v1**2 / (1 + v1**2 + v2**2))
print(f"energy-slope moment per species: {l0s:+.6f}  (negative: net falling density)")

print()
print("== parity exactness of the angular rule ==")
odd = vm.integrate_velocity(quad, lambda v1, v2: v1 * np.exp(-(v1**2 + v2**2)))
print(f"integral of an odd function: {odd:+.2e}")
