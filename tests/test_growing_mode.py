import numpy as np
import pytest

import vmspec as vm
from vmspec import cli
from vmspec.errors import VmspecError
from vmspec.operators import EvalOptions


@pytest.fixture(scope="module")
def aniso_pipeline(aniso_state, aniso_quad):
    basis = vm.build_fourier_basis(aniso_state.period, 12)
    grid = vm.default_lambda_grid(aniso_state.period, n_points=24)
    sw = vm.sweep(aniso_state, basis, aniso_quad, 4, grid)
    cr = vm.locate_kernel_for_state(aniso_state, basis, aniso_quad, sw)
    return basis, sw, cr


def test_zero_vector_reconstructs_zero_mode(aniso_state, aniso_quad):
    basis = vm.build_fourier_basis(aniso_state.period, 8)
    mode = vm.from_coefficients(aniso_state, 0.5, np.zeros(basis.n_functions),
                                np.zeros(basis.n_functions), 0.0, basis, aniso_quad)
    rep = vm.residuals(aniso_state, mode, basis, aniso_quad)
    assert not mode.nontrivial
    for r in (rep.gauss, rep.ampere1, rep.ampere2, rep.continuity, rep.vlasov_weak):
        assert r == 0.0


def test_constant_electric_potential_is_rejected(aniso_state, aniso_quad):
    basis = vm.build_fourier_basis(aniso_state.period, 8)
    phi = np.zeros(basis.n_functions)
    phi[0] = 1.0
    with pytest.raises(VmspecError, match="mean-free"):
        vm.from_coefficients(aniso_state, 0.5, phi, np.zeros_like(phi), 0.0,
                             basis, aniso_quad)


def test_vacuum_mean_field_mode_fails_first_current_equation(zero_profile, paper_quad):
    # with no particles a pure mean-field amplitude cannot grow: the
    # first current equation picks up exactly lam^2 |b|
    prof, _ = zero_profile
    state = vm.make_homogeneous_state(prof, 2 * np.pi)
    basis = vm.build_fourier_basis(state.period, 8)
    lam, b = 0.7, 1.0
    mode = vm.from_coefficients(state, lam, np.zeros(basis.n_functions),
                                np.zeros(basis.n_functions), b, basis, paper_quad)
    rep = vm.residuals(state, mode, basis, paper_quad)
    assert abs(rep.abs_ampere1 - lam**2 * abs(b)) <= 1e-12
    assert rep.ampere1 > 0.5       # relative residual saturates
    assert rep.gauss == 0.0 and rep.ampere2 == 0.0


def test_manufactured_equivalence_homogeneous(paper_state, paper_quad):
    basis = vm.build_fourier_basis(paper_state.period, 16)
    rng = np.random.default_rng(11)
    for lam in (0.5, 2.0):
        blocks = vm.assemble_blocks(paper_state, lam, basis, paper_quad)
        for _ in range(5):
            phi = rng.standard_normal(basis.n_functions)
            phi[0] = 0.0
            psi = rng.standard_normal(basis.n_functions)
            b = float(rng.standard_normal())
            mode = vm.from_coefficients(paper_state, lam, phi, psi, b, basis, paper_quad)
            d1p, d2p, d3p, dropped = vm.physical_defect_coeffs(paper_state, mode,
                                                               basis, paper_quad)
            d1o, d2o, d3o = vm.operator_defect_coeffs(blocks, mode)
            scale = max(np.max(np.abs(d1o)), np.max(np.abs(d2o)), abs(d3o), 1e-12)
            assert np.max(np.abs(d1p - d1o)) <= 1e-6 * scale
            assert np.max(np.abs(d2p - d2o)) <= 1e-6 * scale
            assert abs(d3p - d3o) <= 1e-6 * scale
            # the parity integrals dropped in the mean-current reduction
            assert abs(dropped[0]) <= 1e-8 * scale
            assert abs(dropped[1]) <= 1e-8 * scale


def test_manufactured_equivalence_magnetized(weak_state, aniso_coarse_quad):
    # the generic orbit backend satisfies the same identity, at its own
    # (coarser) integration accuracy
    basis = vm.build_fourier_basis(weak_state.period, 4)
    opts = EvalOptions(tol_sym=1e-3, n_per_period=128)
    lam = 0.6
    blocks = vm.assemble_blocks(weak_state, lam, basis, aniso_coarse_quad, opts)
    rng = np.random.default_rng(5)
    phi = rng.standard_normal(basis.n_functions)
    phi[0] = 0.0
    psi = rng.standard_normal(basis.n_functions)
    b = float(rng.standard_normal())
    mode = vm.from_coefficients(weak_state, lam, phi, psi, b, basis,
                                aniso_coarse_quad, opts)
    d1p, d2p, d3p, _ = vm.physical_defect_coeffs(weak_state, mode, basis, aniso_coarse_quad)
    d1o, d2o, d3o = vm.operator_defect_coeffs(blocks, mode)
    scale = max(np.max(np.abs(d1o)), np.max(np.abs(d2o)), abs(d3o), 1e-12)
    assert np.max(np.abs(d1p - d1o)) <= 1e-4 * scale
    assert np.max(np.abs(d2p - d2o)) <= 1e-4 * scale
    # the scalar identity leans on the time-reversal change of variables,
    # which the orbit sampling only honors to its integration accuracy
    assert abs(d3p - d3o) <= 1e-3 * scale


def test_end_to_end_mode_passes_residuals(aniso_state, aniso_quad, aniso_pipeline):
    basis, sw, cr = aniso_pipeline
    mode = vm.reconstruct(aniso_state, cr, basis, aniso_quad, sw.modal)
    rep = vm.residuals(aniso_state, mode, basis, aniso_quad)
    assert mode.nontrivial
    assert rep.passed, rep.as_dict()
    assert max(rep.gauss, rep.ampere1, rep.ampere2, rep.continuity,
               rep.vlasov_weak) <= 1e-4
    # charge neutrality of the perturbation (rho itself vanishes for a
    # magnetic-sector mode; the bound rides on the mode scale)
    assert abs(np.mean(mode.rho)) <= 1e-10 * mode.scale
    # the electric potential has no constant part
    assert abs(basis.project(mode.phi)[0]) <= 1e-12


def test_mode_rate_stable_under_doubling(aniso_state, aniso_quad, aniso_pipeline):
    basis, sw, cr = aniso_pipeline
    grid = vm.default_lambda_grid(aniso_state.period, n_points=24)
    sw2 = vm.sweep(aniso_state, basis, aniso_quad, 8, grid)
    cr2 = vm.locate_kernel_for_state(aniso_state, basis, aniso_quad, sw2)
    assert abs(cr2.lambda_star - cr.lambda_star) <= 0.05 * cr.lambda_star


def test_mode_export(tmp_path, aniso_state, aniso_quad, aniso_pipeline):
    basis, sw, cr = aniso_pipeline
    mode = vm.reconstruct(aniso_state, cr, basis, aniso_quad, sw.modal)
    rep = vm.residuals(aniso_state, mode, basis, aniso_quad)
    manifest = cli.export_mode(mode, tmp_path, report=rep, quad=aniso_quad)
    import json
    with open(manifest) as fh:
        data = json.load(fh)
    assert data["lambda"] == mode.lam
    assert data["residuals"]["passed"]
    fields = (tmp_path / "mode_fields.csv").read_text().splitlines()
    assert fields[0] == "x,phi,psi,E1,E2,B"
    assert len(fields) == 1 + basis.x_grid.size
    dist = (tmp_path / "mode_distribution.csv").read_text().splitlines()
    assert dist[0] == "x,r,theta,fplus,fminus"
    assert len(dist) > basis.x_grid.size
