import dataclasses
import tracemalloc

import numpy as np
import pytest

import vmspec as vm
import vmspec.growing_mode as gm
from vmspec import cli
from vmspec.discretization import theta_reflect_permutation
from vmspec.errors import VmspecError
from vmspec.operators import EvalOptions

from reference import species_mu_direct, species_plus_state
from test_operators import _straight_line_filter


@pytest.fixture(scope="module")
def aniso_pipeline(aniso_state, aniso_quad):
    basis = vm.build_fourier_basis(aniso_state.period, 12)
    grid = vm.default_lambda_grid(aniso_state.period, n_points=24)
    sw = vm.sweep(aniso_state, basis, aniso_quad, 4, grid)
    cr = vm.locate_kernel_for_state(sw)
    return basis, sw, cr


def test_zero_vector_reconstructs_zero_mode(aniso_state, aniso_quad):
    basis = vm.build_fourier_basis(aniso_state.period, 8)
    mode = vm.from_coefficients(aniso_state, 0.5, np.zeros(basis.n_functions),
                                np.zeros(basis.n_functions), 0.0, basis, aniso_quad)
    rep = vm.residuals(mode)
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
    rep = vm.residuals(mode)
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
            d1p, d2p, d3p, dropped = vm.physical_defect_coeffs(mode)
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
    d1p, d2p, d3p, _ = vm.physical_defect_coeffs(mode)
    d1o, d2o, d3o = vm.operator_defect_coeffs(blocks, mode)
    scale = max(np.max(np.abs(d1o)), np.max(np.abs(d2o)), abs(d3o), 1e-12)
    assert np.max(np.abs(d1p - d1o)) <= 1e-4 * scale
    assert np.max(np.abs(d2p - d2o)) <= 1e-4 * scale
    # the scalar identity leans on the time-reversal change of variables,
    # which the orbit sampling only honors to its integration accuracy
    assert abs(d3p - d3o) <= 1e-3 * scale


def test_end_to_end_mode_passes_residuals(aniso_pipeline):
    basis, sw, cr = aniso_pipeline
    mode = vm.reconstruct(sw, cr)
    rep = vm.residuals(mode)
    assert mode.nontrivial
    assert rep.passed, rep.as_dict()
    assert max(rep.gauss, rep.ampere1, rep.ampere2, rep.continuity,
               rep.vlasov_weak) <= 1e-4
    # charge neutrality of the perturbation (rho itself vanishes for a
    # magnetic-sector mode; the bound rides on the mode scale)
    assert abs(np.mean(mode.rho)) <= 1e-10 * mode.scale
    # the electric potential has no constant part
    assert abs(basis.project(mode.phi)[0]) <= 1e-12


def test_mode_records_the_sweep_inputs(aniso_pipeline):
    # the residuals and the export read the state, basis and quadrature from
    # the mode, so it must carry the very objects the sweep was built on
    _, sw, cr = aniso_pipeline
    mode = vm.reconstruct(sw, cr)
    assert mode.state is sw.state
    assert mode.basis is sw.basis
    assert mode.quad is sw.quad


def test_weak_transport_check_sees_a_wrong_rate(aniso_quad, aniso_pipeline):
    # on a homogeneous mode f+ = -f-, so the two species' weak equations
    # cancel in their sum and read 0 = 0 whatever lam is; checked species by
    # species, a rate 1% off fails
    basis, sw, cr = aniso_pipeline
    mode = vm.reconstruct(sw, cr)
    f = mode.contract(cols=np.arange(0, aniso_quad.n_nodes, 97))
    assert np.max(np.abs(f[+1] + f[-1])) <= 1e-12 * np.max(np.abs(f[-1]))
    assert vm.residuals(mode).vlasov_weak <= 1e-12
    wrong = dataclasses.replace(mode, lam=1.01 * mode.lam)
    assert vm.residuals(wrong).vlasov_weak > 1e-2


def _weak_defects(mode, f):
    """Reference for the weak transport battery from the dense f_s, at the
    mode's rate: {(species, X, q): (relative, absolute) defect}.  The
    rotation vh2 dg/dv1 - vh1 dg/dv2 of g = X q env is a central difference."""
    quad, x, w = mode.quad, mode.x, mode.basis.omega
    spatial = {"1": (np.ones_like(x), np.zeros_like(x)),
               "cos(wx)": (np.cos(w * x), -w * np.sin(w * x)),
               "sin(wx)": (np.sin(w * x), w * np.cos(w * x)),
               "cos(2wx)": (np.cos(2 * w * x), -2 * w * np.sin(2 * w * x))}
    velocity = {"1": lambda a, b: np.ones_like(a), "vh1": lambda a, b: a,
                "vh2": lambda a, b: b, "vh1*vh2": lambda a, b: a * b}

    def g(q, v1, v2):
        e = np.sqrt(1.0 + v1 * v1 + v2 * v2)
        return q(v1 / e, v2 / e) * (1.0 + e) ** -4.0

    h = 1e-5
    vh1, vh2 = quad.v1 / quad.e, quad.v2 / quad.e
    floor = 1e-3 * max(mode.scale, 1e-12)
    b0 = mode.state.b0(x)
    out = {}
    for q_name, q in velocity.items():
        gv = g(q, quad.v1, quad.v2)
        rot = (vh2 * (g(q, quad.v1 + h, quad.v2) - g(q, quad.v1 - h, quad.v2))
               - vh1 * (g(q, quad.v1, quad.v2 + h) - g(q, quad.v1, quad.v2 - h))) / (2 * h)
        for sign, (mu_e, mu_p) in species_mu_direct(mode.state, quad, x).items():
            force = -mode.e1[:, None] * mu_e * vh1 + mode.bfield[:, None] * mu_p * vh1 \
                - mode.e2[:, None] * (mu_e * vh2 + mu_p)
            for x_name, (X, dX) in spatial.items():
                lhs = np.sum(f[sign] * (mode.lam * X[:, None] * gv - dX[:, None] * vh1 * gv
                                        - sign * (b0 * X)[:, None] * rot) * quad.w)
                rhs = sign * np.sum(X[:, None] * gv * force * quad.w)
                lhs, rhs = (v * mode.basis.quad_weight for v in (lhs, rhs))
                err = abs(lhs - rhs)
                out[sign, x_name, q_name] = (err / max(abs(lhs), abs(rhs), floor), err)
    return out


@pytest.mark.parametrize("which", ["homogeneous", "magnetized"])
def test_weak_report_names_its_worst_entry(request, which):
    # the reported species and (X, q) reproduce vlasov_weak and its absolute
    # defect, and no other entry of the battery is worse; each mode is checked
    # at a rate 1% off its own, so that the defect is physical, not roundoff
    if which == "homogeneous":
        basis, sw, cr = request.getfixturevalue("aniso_pipeline")
        state, quad, opts = sw.state, sw.quad, None
        built = vm.reconstruct(sw, cr)
    else:
        state = request.getfixturevalue("weak_state")
        quad = request.getfixturevalue("aniso_coarse_quad")
        basis = vm.build_fourier_basis(state.period, 2)
        opts = EvalOptions(tol_sym=1e-3, n_per_period=128)
        rng = np.random.default_rng(3)
        phi = rng.standard_normal(basis.n_functions)
        phi[0] = 0.0
        built = vm.from_coefficients(state, 0.6, phi, rng.standard_normal(basis.n_functions),
                                     0.3, basis, quad, opts)
    mode = dataclasses.replace(built, lam=1.01 * built.lam)
    rep = vm.residuals(mode)
    ref = _weak_defects(mode, _dense_distributions(state, built, basis, quad, opts))
    rel, err = ref[(rep.vlasov_weak_species, *rep.vlasov_weak_test)]
    assert rep.vlasov_weak > 1e-2
    assert abs(rel - rep.vlasov_weak) <= 1e-6 * rep.vlasov_weak
    assert abs(err - rep.abs_vlasov_weak) <= 1e-6 * rep.abs_vlasov_weak
    assert max(r for r, _ in ref.values()) <= rep.vlasov_weak * (1 + 1e-6)
    # a NaN entry is reported as the worst, and fails the check
    nan = vm.residuals(dataclasses.replace(mode, lam=np.nan))
    assert np.isnan(nan.vlasov_weak) and np.isnan(nan.abs_vlasov_weak) and not nan.passed


@pytest.fixture(scope="module")
def two_component_modes(two_component_sweep):
    """pencil -> (crossing, mode) for each crossing of the two-component sweep."""
    sw = two_component_sweep
    out = {}
    for iv in sw.crossings:
        cr = vm.locate_kernel_for_state(dataclasses.replace(sw, crossings=[iv]))
        out[cr.pencil] = (cr, vm.reconstruct(sw, cr))
    return out


def test_two_component_state_grows_in_both_pencils(two_component_sweep, two_component_modes):
    # neg(A1) = neg(A2) = 2: the paper's coupled rule reads INCONCLUSIVE and
    # the total count is 5 at every rate, yet the electric pencil goes 3 -> 5
    # and the magnetic one 2 -> 0 in the same grid interval
    sw = two_component_sweep
    assert sw.quad.n_nodes == 129024
    assert (sw.neg_a1, sw.neg_a2, sw.k_count) == (2, 2, 5)
    assert sw.verdict.verdict == vm.INCONCLUSIVE
    assert [c.neg for c in sw.counts] == [5] * 48
    assert [(iv["pencil"], iv["neg_lo"], iv["neg_hi"]) for iv in sw.crossings] == \
        [("electric", 3, 5), ("magnetic", 2, 0)]
    for iv in sw.crossings:
        assert 0.013139 <= iv["lam_lo"] and iv["lam_hi"] <= 0.015984
    electric, mode_e = two_component_modes["electric"]
    magnetic, mode_b = two_component_modes["magnetic"]
    assert abs(electric.lambda_star - 0.0142080166) <= 1e-10
    assert abs(magnetic.lambda_star - 0.0136592289) <= 1e-10
    for mode in (mode_e, mode_b):
        rep = vm.residuals(mode)
        assert rep.passed, rep.as_dict()
        assert max(rep.gauss, rep.ampere1, rep.ampere2, rep.continuity,
                   rep.vlasov_weak) <= 1e-11
    # each mode lives on its own pencil's fields: phi alone, psi alone
    assert mode_e.b == 0.0 and not mode_e.psi_coeffs.any() and mode_e.nontrivial
    assert not mode_b.phi_coeffs.any() and mode_b.b == 0.0 and mode_b.nontrivial


def test_weak_transport_check_sees_a_wrong_electric_rate(two_component_modes):
    # the electrostatic twin of the magnetic mutation test above: on the
    # electric mode f+ = -f- too, and a rate 1% off must fail species by species
    _, mode = two_component_modes["electric"]
    f = mode.contract(cols=np.arange(0, mode.quad.n_nodes, 97))
    assert np.max(np.abs(f[+1] + f[-1])) <= 1e-12 * np.max(np.abs(f[-1]))
    assert vm.residuals(mode).vlasov_weak <= 1e-11
    wrong = dataclasses.replace(mode, lam=1.01 * mode.lam)
    assert vm.residuals(wrong).vlasov_weak > 1e-2


def test_mode_rate_stable_under_doubling(aniso_state, aniso_quad, aniso_pipeline):
    basis, sw, cr = aniso_pipeline
    grid = vm.default_lambda_grid(aniso_state.period, n_points=24)
    sw2 = vm.sweep(aniso_state, basis, aniso_quad, 8, grid)
    cr2 = vm.locate_kernel_for_state(sw2)
    assert abs(cr2.lambda_star - cr.lambda_star) <= 0.05 * cr.lambda_star


def test_mode_export(tmp_path, aniso_pipeline):
    basis, sw, cr = aniso_pipeline
    mode = vm.reconstruct(sw, cr)
    manifest = cli.export_mode(mode, tmp_path, report=vm.residuals(mode))
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


def _dense_distributions(state, mode, basis, quad, opts=None, direct=False):
    """Reference: each species' f_s as one (M, N) array, formed the direct way,
    each species' mu_e and mu_p from its own profile call.  A magnetized f+
    takes the species - orbit pass relabeled, (m0, -m1, mv1) at the v2-image of
    each node, or with ``direct`` a species + pass of its own."""
    kmax = basis.n_modes // 2
    mu = species_mu_direct(state, quad, mode.x)
    c_phi, c_psi = basis.half_spectrum(mode.phi_coeffs), basis.half_spectrum(mode.psi_coeffs)
    vh1, vh2 = quad.v1 / quad.e, quad.v2 / quad.e
    f = {}
    if state.homogeneous:
        g = _straight_line_filter(state, mode.lam, quad, kmax)
        re, im = g.real, g.imag
        p_phi, p_psi = (basis.phases.T * c[None, :] for c in (c_phi, c_psi))
        G = np.hstack([mode.phi[:, None], mode.psi[:, None], -p_phi.real, p_phi.imag,
                       p_psi.real, -p_psi.imag, np.full((mode.x.size, 1), mode.b)])
        H = np.vstack([re, im, re * vh2, im * vh2, vh1])
        for sign in (-1, +1):
            mu_e, mu_p = (sign * m[0] for m in mu[sign])
            f[sign] = G @ np.vstack([mu_e, mu_p, mu_e * H])
        return f
    m0, m1, mv1 = vm.node_moments(state, mode.lam, quad, kmax, mode.x, opts)
    perm = theta_reflect_permutation(quad)
    moments = {-1: (m0, m1, mv1),
               +1: (vm.node_moments(species_plus_state(state), mode.lam, quad, kmax, mode.x,
                                    opts) if direct
                    else (m0[..., perm], -m1[..., perm], mv1[..., perm]))}
    for sign, (m0, m1, mv1) in moments.items():
        q = (np.real(np.tensordot(c_phi, m0, axes=1) - np.tensordot(c_psi, m1, axes=1))
             - mode.b * mv1)
        mu_e, mu_p = mu[sign]
        f[sign] = sign * (mu_e * (mode.phi[:, None] - q) + mu_p * mode.psi[:, None])
    return f


def _close(got, want, rel):
    return np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


@pytest.mark.parametrize("which", ["homogeneous", "magnetized"])
def test_contraction_matches_the_dense_distributions(request, which):
    # homogeneous: the class-folded contraction against the per-node complex
    # filter, on 128 angles and on 18 (2 mod 4, whose pi/2 class is its own
    # image), at a small, a middling and a large rate
    if which == "homogeneous":
        state, (prof, weight) = (request.getfixturevalue(f)
                                 for f in ("aniso_state", "aniso_profile"))
        quad18 = vm.build_velocity_quadrature(weight, kinks=prof.kinks, n_r=24, n_theta=18,
                                              n_r_tail=8)
        w = 2 * np.pi / state.period
        cases = [(q, lam) for q in (request.getfixturevalue("aniso_quad"), quad18)
                 for lam in (1e-3, 0.6, 100.0 * w)]
        n_x, opts = 8, None
    else:
        state = request.getfixturevalue("weak_state")
        cases = [(request.getfixturevalue("aniso_coarse_quad"), 0.6)]
        n_x, opts = 2, EvalOptions(tol_sym=1e-3, n_per_period=128)
    basis = vm.build_fourier_basis(state.period, n_x)
    rng = np.random.default_rng(7)
    phi = rng.standard_normal(basis.n_functions)
    phi[0] = 0.0
    psi = rng.standard_normal(basis.n_functions)
    for quad, lam in cases:
        mode = vm.from_coefficients(state, lam, phi, psi, 0.8, basis, quad, opts)
        f = _dense_distributions(state, mode, basis, quad, opts)

        Y = rng.standard_normal((quad.n_nodes, 5))
        cols = np.arange(3, quad.n_nodes, 37)
        fY, fcols = mode.contract(lambda on: Y[on].T), mode.contract(cols=cols)
        for sign in (-1, +1):
            assert _close(fY[sign], f[sign] @ Y, 1e-13), (quad.n_nodes, lam)
            assert _close(fcols[sign], f[sign][:, cols], 1e-13), (quad.n_nodes, lam)
        vh1, vh2 = quad.v1 / quad.e, quad.v2 / quad.e
        V = np.column_stack([quad.w, quad.w * vh1, quad.w * vh2])
        # at 100 w the charge integrand cancels to 3e-4 of its size and the dense
        # reference is off by 1e-12 of max|rho|: there the unit is the integral of |f|
        units = (np.max(np.abs(f[-1]) @ np.abs(V), axis=0) if lam > 1.0
                 else [None] * 3)
        for got, want, unit in zip((mode.rho, mode.j1, mode.j2), (f[+1] @ V - f[-1] @ V).T,
                                   units):
            assert (_close(got, want, 1e-13) if unit is None
                    else np.max(np.abs(got - want)) <= 1e-13 * unit), (quad.n_nodes, lam)


def test_magnetized_species_plus_matches_a_direct_pass(monkeypatch, weak_state,
                                                      aniso_coarse_quad):
    # the mode makes one orbit pass, of species -, and reads species + as its
    # mirror; the reference is a species + orbit pass of its own with each
    # species' profile called directly.  They differ by the trajectory-level
    # mirror error: f+ by 4.0e-11 of its largest entry at lam = 0 and 7.6e-12 at
    # 0.6 measured, where the orbit moments of the two passes differ by up to
    # 1.8e-10 of max|m0| on this grid; f- agrees to 6e-16
    quad, opts = aniso_coarse_quad, EvalOptions(tol_sym=1e-3, n_per_period=128)
    basis = vm.build_fourier_basis(weak_state.period, 2)
    rng = np.random.default_rng(11)
    phi = rng.standard_normal(basis.n_functions)
    phi[0] = 0.0
    psi = rng.standard_normal(basis.n_functions)
    Y = rng.standard_normal((quad.n_nodes, 4))
    cols = np.arange(5, quad.n_nodes, 29)
    passes, node_moments = [], gm.node_moments

    def spy(state, *args):
        passes.append(state)
        return node_moments(state, *args)
    for lam in (0.0, 0.6):
        monkeypatch.setattr(gm, "node_moments", spy)
        mode = vm.from_coefficients(weak_state, lam, phi, psi, 0.8, basis, quad, opts)
        monkeypatch.undo()
        assert passes == [weak_state], passes
        passes.clear()
        f = _dense_distributions(weak_state, mode, basis, quad, opts, direct=True)
        fY, fcols = mode.contract(lambda on: Y[on].T), mode.contract(cols=cols)
        for sign in (-1, +1):
            assert _close(fY[sign], f[sign] @ Y, 1e-10), (sign, lam)
            assert _close(fcols[sign], f[sign][:, cols], 1e-10), (sign, lam)


def test_magnetized_mode_holds_no_species_plus_moment_table(weak_state, aniso_coarse_quad):
    # one species - pass and its tables, not a second, relabeled copy for species
    # +: the traced peak of one mode stays within six (kmax+1, M, N) complex
    # tables, 6.75 MiB here (5.39 MiB measured, 7.95 MiB with the copy)
    quad, opts = aniso_coarse_quad, EvalOptions(tol_sym=1e-3, n_per_period=128)
    basis = vm.build_fourier_basis(weak_state.period, 4)
    rng = np.random.default_rng(13)
    phi = rng.standard_normal(basis.n_functions)
    phi[0] = 0.0
    psi = rng.standard_normal(basis.n_functions)
    table = (basis.n_modes // 2 + 1) * basis.x_grid.size * quad.n_nodes * 16
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        vm.from_coefficients(weak_state, 0.6, phi, psi, 0.8, basis, quad, opts)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 6 * table, (peak, table)


def test_mode_stages_stay_below_one_distribution_array(tmp_path):
    # the CLI defaults: weakfield_family at P = 9.43, n_x = 32, 79,872 nodes.  Each
    # stage's traced peak, counting what earlier stages still hold, stays below
    # 2 MiB (1.1 MiB measured): the tables of a block of rings, no node-sized one,
    # against 78 MiB for one species' (M, N) array
    cfg = cli.RunConfig(profile_name="weakfield_family", period=9.43)
    profile, _, quad = cli._build_inputs(cfg)
    state = cli._build_state(cfg, profile, quad)
    sw = cli._run_sweep(cfg, state, quad)
    basis = sw.basis
    crossing = vm.locate_kernel_for_state(sw)
    assert quad.n_nodes == 79872 and basis.x_grid.size == 128
    bound = 2 * 2 ** 20
    peaks = {}

    def stage(name, fn, *args, **kwargs):
        tracemalloc.reset_peak()
        out = fn(*args, **kwargs)
        peaks[name] = tracemalloc.get_traced_memory()[1]
        return out

    tracemalloc.start()
    try:
        mode = stage("reconstruct", vm.reconstruct, sw, crossing)
        report = stage("residuals", vm.residuals, mode)
        stage("export", cli.export_mode, mode, tmp_path, report=report)
    finally:
        tracemalloc.stop()
    assert report.passed
    assert max(peaks.values()) < bound, (peaks, bound)
