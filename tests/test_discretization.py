import numpy as np
import pytest

import vmspec as vm
from vmspec.errors import QuadratureError, VmspecError

RING_EXACT = 1.5 - np.log(2.0)
TAIL_MOMENT_EXACT = np.sqrt(np.pi) / 2.0 + 2.0
# dense-quadrature pin of the tail ring integral (scipy.integrate.quad,
# abs err < 4e-9), frozen before the package quadrature existed
TAIL_RING_PINNED = -2.5311167899453655


def test_constant_integrand_reproduces_disc_area(paper_quad):
    total = float(np.sum(paper_quad.w))
    assert abs(total - np.pi * paper_quad.r_max ** 2) <= 1e-12 * np.pi * paper_quad.r_max ** 2


def test_weight_integral_matches_analytic_antiderivative():
    # int w dv for alpha=3: 2 pi c int_1^inf u (1+u)^-3 du = 2 pi c * 3/8
    w = vm.WeightSpec(c=2.5, alpha=3.0)
    quad = vm.build_velocity_quadrature(w, tol_tail=1e-10, n_r=64, n_theta=64)
    got = vm.integrate_velocity(quad, lambda v1, v2: w(np.sqrt(1 + v1**2 + v2**2)))
    exact = 2.0 * np.pi * w.c * 0.375
    assert abs(got - exact) <= 1e-8 * exact


def test_indicator_area_with_unit_radius():
    w = vm.WeightSpec(c=1.0, alpha=4.0)
    quad = vm.build_velocity_quadrature(w, n_r=64, n_theta=64, r_max=1.0)
    got = vm.integrate_velocity(quad, lambda v1, v2: np.ones_like(v1))
    assert abs(got - np.pi) <= 1e-10


def test_kink_energy_puts_panel_edge_at_its_radius(paper_quad):
    assert any(abs(edge - np.sqrt(3.0)) < 1e-12 for edge in paper_quad.panel_edges)


def test_ring_integral_golden(paper_quad):
    got = vm.integrate_velocity(paper_quad, lambda v1, v2: np.where(
        v1**2 + v2**2 < 3.0, (v1**2 + v2**2) / (1 + v1**2 + v2**2), 0.0)) / (2 * np.pi)
    assert abs(got - RING_EXACT) <= 1e-8


def test_tail_moment_golden(paper_profile, paper_quad):
    prof, _ = paper_profile
    m_e = vm.integrate_velocity(paper_quad, lambda v1, v2: prof.mu_e(
        -1, np.sqrt(1 + v1**2 + v2**2), v2))
    tail = abs(m_e / (2 * np.pi) - 1.5)
    assert abs(tail - TAIL_MOMENT_EXACT) <= 1e-6


def test_tail_ring_integral_within_window_and_pin(paper_profile, paper_quad):
    prof, _ = paper_profile
    l0 = vm.integrate_velocity(paper_quad, lambda v1, v2: prof.mu_e(
        -1, np.sqrt(1 + v1**2 + v2**2), v2) * v1**2 / (1 + v1**2 + v2**2))
    tail_ring = l0 / np.pi - RING_EXACT
    assert abs(tail_ring - (-2.5)) <= 0.15
    assert abs(tail_ring - TAIL_RING_PINNED) <= 1e-6


@pytest.mark.parametrize("f", [
    lambda v1, v2: v1 * np.exp(-(v1**2 + v2**2)),
    lambda v1, v2: v2 * np.exp(-(v1**2 + v2**2)),
    lambda v1, v2: v1 * v2**2 / (1 + v1**2 + v2**2),
])
def test_odd_integrands_vanish(paper_quad, f):
    # cancellation is symmetric node pairing, so roundoff scales with the
    # integrand's absolute mass
    mass = vm.integrate_velocity(paper_quad, lambda a, b: np.abs(f(a, b)))
    assert abs(vm.integrate_velocity(paper_quad, f)) <= 1e-12 * max(mass, 1.0)


def test_refinement_stability_of_profile_moments(paper_profile, paper_quad):
    prof, _ = paper_profile
    fine = paper_quad.refined(2)

    def moments(q):
        mu_e = lambda v1, v2: prof.mu_e(-1, np.sqrt(1 + v1**2 + v2**2), v2)
        return np.array([
            vm.integrate_velocity(q, mu_e),
            vm.integrate_velocity(q, lambda a, b: mu_e(a, b) * a**2 / (1 + a**2 + b**2)),
            vm.integrate_velocity(q, lambda a, b: mu_e(a, b) * b**2 / (1 + a**2 + b**2)),
        ])

    coarse, dense = moments(paper_quad), moments(fine)
    assert np.max(np.abs(coarse - dense) / np.abs(dense)) < 1e-6


def test_non_finite_integrand_reports_node(paper_quad):
    def bad(v1, v2):
        out = np.ones_like(v1)
        out[np.argmax(v1)] = np.nan
        return out
    with pytest.raises(VmspecError, match="non-finite"):
        vm.integrate_velocity(paper_quad, bad)


def test_shallow_weight_is_rejected():
    with pytest.raises(VmspecError):
        vm.WeightSpec(c=1.0, alpha=2.0)
    with pytest.raises(QuadratureError):
        from vmspec.discretization import weight_tail_radius
        weight_tail_radius(type("W", (), {"c": 1.0, "alpha": 1.5})(), 1e-8)


def test_odd_angle_count_is_rejected():
    # theta -> pi - theta maps nodes to nodes only on an even number of angles
    with pytest.raises(QuadratureError, match="n_theta must be even"):
        vm.build_velocity_quadrature(vm.WeightSpec(c=1.0, alpha=4.0), n_r=8, n_theta=33)


# ---------------------------------------------------------------------------
# spatial basis
# ---------------------------------------------------------------------------

def test_gram_matrix_is_identity():
    basis = vm.build_fourier_basis(7.3, 16)
    G = basis.values.T @ basis.values * basis.quad_weight
    assert np.max(np.abs(G - np.eye(basis.n_functions))) <= 1e-12


def test_laplacian_is_diagonal_with_square_frequencies():
    basis = vm.build_fourier_basis(5.0, 8)
    w = 2 * np.pi / 5.0
    for j in range(basis.n_functions):
        k = basis.k_index[j]
        coeffs = np.zeros(basis.n_functions)
        coeffs[j] = 1.0
        lap = -basis.derivative_coeffs(coeffs, 2)
        assert abs(lap[j] - (k * w) ** 2) <= 1e-10 * max(1.0, (k * w) ** 2)
        lap[j] = 0.0
        assert np.max(np.abs(lap)) <= 1e-12


def test_sin_squared_integral():
    P = 11.0
    basis = vm.build_fourier_basis(P, 8)
    got = vm.integrate_spatial(basis, lambda x: np.sin(2 * np.pi * x / P) ** 2)
    assert abs(got - P / 2) <= 1e-12


def test_mean_zero_variant_excludes_constant():
    basis = vm.build_fourier_basis(3.0, 8, mean_zero=True)
    assert np.all(basis.k_index > 0)
    coeffs = basis.project(np.ones_like(basis.x_grid))
    assert np.max(np.abs(coeffs)) <= 1e-12


def test_basis_requires_even_modes_and_oversampling():
    with pytest.raises(VmspecError):
        vm.build_fourier_basis(1.0, 7)
    with pytest.raises(VmspecError):
        vm.build_fourier_basis(1.0, 8, oversample=2)
