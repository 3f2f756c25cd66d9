import ast
import os

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
    # the indicator of the rule's disc integrates to its area pi r_max^2 to roundoff
    w = vm.WeightSpec(c=1.0, alpha=4.0)
    quad = vm.build_velocity_quadrature(w, n_r=64, n_theta=64)
    got = vm.integrate_velocity(quad, lambda v1, v2: np.ones_like(v1))
    area = np.pi * quad.r_max ** 2
    assert abs(got - area) <= 1e-12 * area


def test_kink_energy_puts_panel_edge_at_its_radius(paper_quad):
    assert any(abs(edge - np.sqrt(3.0)) < 1e-12 for edge in paper_quad.panel_edges)


def test_ring_integral_golden(paper_quad):
    got = vm.integrate_velocity(paper_quad, lambda v1, v2: np.where(
        v1**2 + v2**2 < 3.0, (v1**2 + v2**2) / (1 + v1**2 + v2**2), 0.0)) / (2 * np.pi)
    assert abs(got - RING_EXACT) <= 1e-8


def test_tail_moment_golden(paper_profile, paper_quad):
    prof, _ = paper_profile
    m_e = vm.integrate_velocity(paper_quad, lambda v1, v2: prof.mu_e(
        np.sqrt(1 + v1**2 + v2**2), v2))
    tail = abs(m_e / (2 * np.pi) - 1.5)
    assert abs(tail - TAIL_MOMENT_EXACT) <= 1e-6


def test_tail_ring_integral_within_window_and_pin(paper_profile, paper_quad):
    prof, _ = paper_profile
    l0 = vm.integrate_velocity(paper_quad, lambda v1, v2: prof.mu_e(
        np.sqrt(1 + v1**2 + v2**2), v2) * v1**2 / (1 + v1**2 + v2**2))
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
    fine = paper_quad.refined()

    def moments(q):
        mu_e = lambda v1, v2: prof.mu_e(np.sqrt(1 + v1**2 + v2**2), v2)
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


def test_non_finite_weight_is_rejected():
    # an infinite weight put its tail radius, so every node, at r = 0
    for c, alpha, key in ((np.inf, 3.0, "weight.c"), (np.nan, 3.0, "weight.c"),
                          (1.0, np.inf, "weight.alpha")):
        with pytest.raises(VmspecError, match=key):
            vm.WeightSpec(c=c, alpha=alpha)


def test_odd_angle_count_is_rejected():
    # theta -> pi - theta maps nodes to nodes only on an even number of angles
    with pytest.raises(QuadratureError, match="n_theta must be even"):
        vm.build_velocity_quadrature(vm.WeightSpec(c=1.0, alpha=4.0), n_r=8, n_theta=33)


def test_only_discretization_reads_the_ring_layout():
    # the angles and radii of the polar rule, and so its rings and quarter
    # classes, are read in one module; the others go through its routines
    src = os.path.dirname(vm.__file__)
    readers = set()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                tree = ast.parse(fh.read())
            if any(isinstance(node, ast.Attribute) and node.attr in ("theta_nodes", "r_nodes")
                   for node in ast.walk(tree)):
                readers.add(name)
    assert readers == {"discretization.py"}


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


def test_wavenumbers_set_the_phases():
    basis = vm.build_fourier_basis(7.3, 16)
    k = np.arange(9)
    assert np.array_equal(basis.wavenumbers, k * (2 * np.pi / 7.3))
    want = np.exp(1j * np.outer(k * (2 * np.pi / 7.3), basis.x_grid))
    assert np.max(np.abs(basis.phases - want)) <= 1e-14


def test_sin_squared_integral():
    P = 11.0
    basis = vm.build_fourier_basis(P, 8)
    got = np.sum(np.sin(2 * np.pi * basis.x_grid / P) ** 2) * basis.quad_weight
    assert abs(got - P / 2) <= 1e-12


def test_basis_requires_even_modes_and_oversampling():
    with pytest.raises(VmspecError):
        vm.build_fourier_basis(1.0, 7)


def _is_sin(basis):
    # the order [const, cos_1, sin_1, cos_2, sin_2, ...]
    j = np.arange(basis.n_functions)
    return (j % 2 == 0) & (j > 0)


def _half_spectrum_by_function(basis, coeffs):
    c = np.zeros(basis.n_modes // 2 + 1, dtype=complex)
    P = basis.period
    for j, is_sin in enumerate(_is_sin(basis)):
        k = basis.k_index[j]
        if k == 0:
            c[0] += coeffs[j] / np.sqrt(P)
        elif is_sin:
            c[k] += -1j * coeffs[j] * np.sqrt(2.0 / P)
        else:
            c[k] += coeffs[j] * np.sqrt(2.0 / P)
    return c


def _expand_by_function(basis, T):
    G = np.empty((basis.x_grid.size, basis.n_functions))
    P = basis.period
    for j, is_sin in enumerate(_is_sin(basis)):
        k = basis.k_index[j]
        fac = (1.0 / np.sqrt(P)) if k == 0 else np.sqrt(2.0 / P)
        G[:, j] = fac * (np.imag(T[k]) if is_sin else np.real(T[k]))
    return G


def _derivative_by_swap(basis, coeffs, order):
    out = np.array(coeffs, dtype=float)
    is_sin = _is_sin(basis)
    for _ in range(order):
        new = np.zeros_like(out)
        for j in range(1, basis.n_functions):
            kw = basis.k_index[j] * basis.omega
            # d/dx cos_k = -k w sin_k ; d/dx sin_k = +k w cos_k
            if is_sin[j]:
                new[j - 1] += out[j] * kw
            else:
                new[j + 1] += -out[j] * kw
        out = new
    return out


def test_harmonic_map_matches_the_per_function_loops():
    # the weights h_j against the per-function loops they replace
    rng = np.random.default_rng(5)

    def close(got, want, rel):
        return np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))

    for n_modes in (2, 4, 32):
        basis = vm.build_fourier_basis(6.7, n_modes)
        kw = basis.k_index * basis.omega
        x = basis.x_grid[:, None]
        cols = np.where(_is_sin(basis), np.sin(kw * x), np.cos(kw * x))
        cols *= np.where(basis.k_index > 0, np.sqrt(2.0 / basis.period),
                         1.0 / np.sqrt(basis.period))
        assert close(basis.values, cols, 1e-14)
        for _ in range(3):
            a = rng.standard_normal(basis.n_functions)
            assert close(basis.half_spectrum(a), _half_spectrum_by_function(basis, a), 1e-14)
            assert close(basis.coefficients(basis.half_spectrum(a)), a, 1e-15)
            for order in (1, 2):
                assert close(basis.derivative_coeffs(a, order),
                             _derivative_by_swap(basis, a, order), 1e-14)
            T = (rng.standard_normal((n_modes // 2 + 1, basis.x_grid.size))
                 + 1j * rng.standard_normal((n_modes // 2 + 1, basis.x_grid.size)))
            assert close(basis.expand(T), _expand_by_function(basis, T), 1e-14)
