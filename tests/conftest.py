import copy

import numpy as np
import pytest

import vmspec as vm


@pytest.fixture(scope="session")
def paper_profile():
    return vm.build_profile("paper_homogeneous")


@pytest.fixture(scope="session")
def paper_quad(paper_profile):
    prof, weight = paper_profile
    return vm.build_velocity_quadrature(weight, kinks=prof.kinks, n_r=96, n_theta=256)


@pytest.fixture(scope="session")
def paper_state(paper_profile):
    prof, _ = paper_profile
    return vm.make_homogeneous_state(prof, period=2.0 * np.pi)


@pytest.fixture(scope="session")
def aniso_profile():
    return vm.build_profile("weakfield_family")


@pytest.fixture(scope="session")
def aniso_quad(aniso_profile):
    prof, weight = aniso_profile
    return vm.build_velocity_quadrature(weight, kinks=prof.kinks, n_r=64, n_theta=128,
                                        n_r_tail=16)


@pytest.fixture(scope="session")
def aniso_coarse_quad(aniso_profile):
    prof, weight = aniso_profile
    return vm.build_velocity_quadrature(weight, kinks=prof.kinks, n_r=24, n_theta=16,
                                        n_r_tail=8)


@pytest.fixture(scope="session")
def critical_period(aniso_profile, aniso_quad):
    prof, _ = aniso_profile
    cc = vm.check_center_conditions(prof, aniso_quad, refine_check=False)
    assert cc.ok
    return cc.critical_period


@pytest.fixture(scope="session")
def aniso_state(aniso_profile, critical_period):
    # period above critical puts the lowest harmonic pair below zero
    prof, _ = aniso_profile
    return vm.make_homogeneous_state(prof, period=1.5 * critical_period)


@pytest.fixture(scope="session")
def aniso_orbit_state(aniso_state):
    # the same zero-field state, marched by the orbit engine: the reference
    # for the straight-line closed forms
    state = copy.copy(aniso_state)
    state.homogeneous = False
    return state


@pytest.fixture(scope="session")
def weak_state(aniso_profile, aniso_quad):
    prof, _ = aniso_profile
    return vm.solve_equilibrium_potential(prof, 0.05, aniso_quad)


@pytest.fixture(scope="session")
def zero_profile():
    return vm.build_profile("zero")


@pytest.fixture(scope="session")
def two_component_profile(aniso_profile):
    # weakfield_family plus a cold ring at e = 1.05: both m_e = +1.080 and
    # m_vp = +0.445 are positive, so neg(A1) > 0 (the nonmonotone case)
    base, _ = aniso_profile

    def ring(e, p):
        return 2.5 * np.exp(-((e - 1.05) / 0.02) ** 2) * np.exp(-p ** 2 / 0.05)

    prof = vm.EquilibriumProfile(
        lambda e, p: base.mu_minus(e, p) + ring(e, p),
        lambda e, p: base.mu_minus_e(e, p) - 2.0 * (e - 1.05) / 0.02 ** 2 * ring(e, p),
        lambda e, p: base.mu_minus_p(e, p) - 2.0 * p / 0.05 * ring(e, p),
        kinks=(1.01, 1.09), name="two_component")
    return prof, vm.WeightSpec(c=2e4, alpha=5.0)


@pytest.fixture(scope="session")
def two_component_sweep(two_component_profile):
    """The 48-rate sweep at n = 4 of the homogeneous two-component state on
    P = 2*pi/0.6, on its default 96/256/24 rule and the n_x = 8 basis."""
    prof, weight = two_component_profile
    quad = vm.build_velocity_quadrature(weight, kinks=prof.kinks)
    state = vm.make_homogeneous_state(prof, period=2.0 * np.pi / 0.6)
    basis = vm.build_fourier_basis(state.period, 8)
    return vm.sweep(state, basis, quad, 4, vm.default_lambda_grid(state.period))
