import numpy as np
import pytest

import vmspec as vm
from vmspec.equilibrium import OdeOptions, _scalar_spline
from vmspec.errors import OrbitError, ProfileEvaluationError, VmspecError


def test_paper_profile_validates(paper_profile):
    prof, weight = paper_profile
    rep = vm.validate_profile(prof, weight)
    assert rep.passed, rep.summary()


def test_weakfield_profile_validates(aniso_profile):
    prof, weight = aniso_profile
    rep = vm.validate_profile(prof, weight)
    assert rep.passed, rep.summary()


def test_zero_profile_validates_with_zero_maxima(zero_profile):
    prof, weight = zero_profile
    rep = vm.validate_profile(prof, weight)
    assert rep.passed
    assert rep.max_negativity == 0.0
    assert rep.max_symmetry_violation == 0.0


def test_growing_profile_fails_decay_bound():
    grow = vm.EquilibriumProfile(
        mu_minus=lambda e, p: e * np.ones_like(p),
        mu_minus_e=lambda e, p: np.ones(np.broadcast(e, p).shape),
        mu_minus_p=lambda e, p: np.zeros(np.broadcast(e, p).shape),
        name="growing")
    rep = vm.validate_profile(grow, vm.WeightSpec(c=100.0, alpha=3.0))
    assert not rep.passed
    assert rep.max_decay_violation > 0
    # the violation shows up where the weight has decayed away
    assert rep.worst_decay_point[0] > 10.0


def test_profile_evaluation_failure_carries_location():
    bad = vm.EquilibriumProfile(
        mu_minus=lambda e, p: np.where(e > 5.0, np.nan, 0.0) * np.ones_like(p),
        mu_minus_e=lambda e, p: np.zeros(np.broadcast(e, p).shape),
        mu_minus_p=lambda e, p: np.zeros(np.broadcast(e, p).shape),
        name="bad")
    with pytest.raises(ProfileEvaluationError) as err:
        vm.validate_profile(bad, vm.WeightSpec(c=1.0, alpha=3.0))
    assert err.value.e > 5.0


def test_species_reflection_integral_identity(aniso_profile, aniso_quad):
    # total |mu_e| mass of one species equals the other's after p -> -p
    prof, _ = aniso_profile
    e = aniso_quad.e
    plus = vm.integrate_velocity(aniso_quad, lambda v1, v2: np.abs(prof.mu_e(+1, e, v2)))
    minus = vm.integrate_velocity(aniso_quad, lambda v1, v2: np.abs(prof.mu_e(-1, e, -v2)))
    assert abs(plus - minus) <= 1e-10 * max(abs(plus), 1e-300)


def test_energy_floor_is_enforced(paper_profile):
    prof, _ = paper_profile
    with pytest.raises(VmspecError, match="floor"):
        prof.mu(-1, np.array([0.5]), np.array([0.0]))


# ---------------------------------------------------------------------------
# center conditions and the potential well
# ---------------------------------------------------------------------------

def test_center_conditions_even_profile(aniso_profile, aniso_quad):
    prof, _ = aniso_profile
    cc = vm.check_center_conditions(prof, aniso_quad)
    assert abs(cc.g0) <= 1e-8
    assert cc.gprime0 < 0
    assert cc.ok
    assert np.isfinite(cc.critical_period)


def test_center_slope_against_independent_moment(aniso_profile, aniso_quad):
    # g'(0) = -2 int v2hat mu_p dv moves the derivative onto the profile,
    # an independent route from the central difference
    prof, _ = aniso_profile
    cc = vm.check_center_conditions(prof, aniso_quad, refine_check=False)
    moment = vm.integrate_velocity(aniso_quad, lambda v1, v2: (
        v2 / np.sqrt(1 + v1**2 + v2**2)) * prof.mu_p(-1, np.sqrt(1 + v1**2 + v2**2), v2))
    assert abs(cc.gprime0 - (-2.0 * moment)) <= 1e-6 * abs(cc.gprime0)


def test_center_conditions_zero_profile(zero_profile, aniso_quad):
    prof, _ = zero_profile
    cc = vm.check_center_conditions(prof, aniso_quad, refine_check=False)
    assert cc.g0 == 0.0 and cc.gprime0 == 0.0
    assert not cc.ok


def test_harmonic_oscillator_hook():
    # with g = -psi the well is exactly harmonic: psi = -eps cos x, T = 2 pi
    prof, _ = vm.build_profile("zero")
    opts = OdeOptions(g_override=lambda s: -s)
    state = vm.solve_equilibrium_potential(prof, 0.3, None, opts)
    assert abs(state.period - 2 * np.pi) <= 1e-8
    x = np.linspace(0, state.period, 64, endpoint=False)
    assert np.max(np.abs(state.psi0(x) - (-0.3 * np.cos(x)))) <= 1e-8


def test_scalar_spline_matches_cubic_spline():
    # the well ODE's scalar evaluation must be the array spline, bit for bit
    from scipy.interpolate import CubicSpline
    x = np.linspace(-0.15, 0.15, 321)
    y = np.sin(7.0 * x) - x ** 3 + 0.1 * np.cos(40.0 * x)
    g, sp = _scalar_spline(x, y), CubicSpline(x, y)
    pts = np.concatenate([x, [-0.3, 0.3],            # knots, then beyond both ends
                          np.random.default_rng(0).uniform(-0.2, 0.2, 1000)])
    assert np.array_equal([g(float(s)) for s in pts], sp(pts))


def test_not_a_center_at_large_amplitude():
    prof, _ = vm.build_profile("zero")
    opts = OdeOptions(g_override=lambda s: -s + s**3)       # basin |psi| < 1
    with pytest.raises(OrbitError, match="center"):
        vm.solve_equilibrium_potential(prof, 1.5, None, opts)


def test_weakfield_family_properties(aniso_profile, aniso_quad, critical_period):
    prof, _ = aniso_profile
    rows = []
    for eps in (0.2, 0.1, 0.05):
        st = vm.solve_equilibrium_potential(prof, eps, aniso_quad)
        rows.append((eps, st.period, st.meta["c1_norm"], st.meta["residual_inf"]))
        assert st.meta["residual_inf"] <= 1e-6
        # the field is a spectral derivative, so its mean vanishes exactly
        xs = np.linspace(0, st.period, 256, endpoint=False)
        assert abs(np.mean(st.b0(xs))) <= 1e-12
        # normalization: minimum at 0, maximum at T/2
        assert abs(st.psi0(np.array([0.0]))[0] - np.min(st.psi0(xs))) <= 1e-10
        assert abs(st.psi0(np.array([st.period / 2]))[0] - np.max(st.psi0(xs))) <= 1e-6
    assert abs(rows[-1][1] / critical_period - 1.0) <= 0.02
    assert rows[0][2] > rows[1][2] > rows[2][2]


def test_find_center_amplitude_reports_positive_basin(aniso_profile, aniso_coarse_quad):
    prof, _ = aniso_profile
    eps0 = vm.find_center_amplitude(prof, aniso_coarse_quad, eps_start=0.02, eps_cap=0.5,
                                    iters=3)
    assert eps0 >= 0.5 or eps0 > 0.02
