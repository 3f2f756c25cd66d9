import numpy as np
import pytest

import vmspec as vm
import vmspec.operators as ops
from vmspec.characteristics import PhasePoint, default_dt
from vmspec.errors import AssemblyError, VmspecError
from vmspec.operators import EvalOptions, MomentProfiles, assembly_kernel, moment_profiles

RING_EXACT = 1.5 - np.log(2.0)
TAIL_RING_PINNED = -2.5311167899453655


# ---------------------------------------------------------------------------
# smoothing average
# ---------------------------------------------------------------------------

def test_smoothing_of_one_is_one(paper_state, weak_state):
    one = lambda x, v1, v2: np.ones_like(x)
    for state, pt in ((paper_state, PhasePoint(0.3, 0.5, 0.1)),
                      (weak_state, PhasePoint(1.1, 0.4, -0.6))):
        ev = vm.SmoothingEvaluator(state, lam=0.7)
        got = ev.apply("-", one, pt)
        assert 1.0 - 1e-9 <= got <= 1.0 + 1e-12


def test_smoothing_matches_straight_line_closed_form(paper_state):
    # along straight paths the average of cos(k w x) has the exact value
    # [lam^2 cos(w x) + lam a sin(w x)]/(lam^2+a^2), a = k w v1hat
    w = 2 * np.pi / paper_state.period
    pt = PhasePoint(0.9, 0.65, -0.2)
    a = w * pt.v1 / pt.energy
    k = lambda x, v1, v2: np.cos(w * x)
    for lam in (0.3, 1.0, 5.0):
        ev = vm.SmoothingEvaluator(paper_state, lam, EvalOptions(k_osc=2))
        got = ev.apply("-", k, pt)
        want = (lam**2 * np.cos(w * pt.x) + lam * a * np.sin(w * pt.x)) / (lam**2 + a**2)
        assert abs(got - want) <= 1e-8, (lam, got, want)


def test_smoothing_tends_to_spatial_mean_at_small_rate(paper_state):
    w = 2 * np.pi / paper_state.period
    pt = PhasePoint(0.9, 0.65, -0.2)
    k = lambda x, v1, v2: np.cos(w * x)
    ev = vm.SmoothingEvaluator(paper_state, 1e-3, EvalOptions(k_osc=2))
    assert abs(ev.apply("-", k, pt)) <= 2e-3


def test_smoothing_tends_to_identity_at_large_rate(paper_state):
    # convergence to the identity is first order in 1/lam
    w = 2 * np.pi / paper_state.period
    pt = PhasePoint(0.9, 0.65, -0.2)
    k = lambda x, v1, v2: np.cos(w * x)
    ev = vm.SmoothingEvaluator(paper_state, 1000.0, EvalOptions(k_osc=2))
    assert abs(ev.apply("-", k, pt) - np.cos(w * pt.x)) <= 1e-3


def test_smoothing_requires_positive_rate(paper_state):
    with pytest.raises(VmspecError):
        vm.SmoothingEvaluator(paper_state, 0.0)


# ---------------------------------------------------------------------------
# orbit-average projection
# ---------------------------------------------------------------------------

def test_projection_of_invariant_functions(weak_state):
    # functions of the conserved pair pass through untouched
    pt = PhasePoint(1.3, 0.5, 0.4)
    ev = vm.ProjectionEvaluator(weak_state)

    def invariant(x, v1, v2):
        e = np.sqrt(1 + v1**2 + v2**2)
        p = v2 - weak_state.psi0(x)
        return e**2 + 0.3 * p
    got = ev.apply("-", invariant, pt)
    want = float(invariant(np.asarray(pt.x), np.asarray(pt.v1), np.asarray(pt.v2)))
    assert abs(got - want) <= 1e-8 * max(1.0, abs(want))


def test_projection_kills_mean_zero_spatial_factor(paper_state):
    w = 2 * np.pi / paper_state.period
    ev = vm.ProjectionEvaluator(paper_state)
    pt = PhasePoint(0.4, 0.8, 0.3)
    got = ev.apply("-", lambda x, v1, v2: (v1 / np.sqrt(1 + v1**2 + v2**2))
                   * np.cos(w * x), pt)
    assert abs(got) <= 1e-10


def test_projection_idempotence(weak_state):
    # averaging an already orbit-averaged quantity changes nothing
    pt = PhasePoint(0.8, 0.45, -0.3)
    ev = vm.ProjectionEvaluator(weak_state)
    w = 2 * np.pi / weak_state.period
    k = lambda x, v1, v2: np.cos(w * x) * v2 / np.sqrt(1 + v1**2 + v2**2)
    first = ev.apply("-", k, pt)
    again = ev.apply("-", lambda x, v1, v2: np.full(np.shape(x), first), pt)
    assert abs(again - first) <= 1e-8


def test_projection_stationary_point_returns_value(paper_state):
    ev = vm.ProjectionEvaluator(paper_state)
    pt = PhasePoint(0.7, 0.0, 0.5)
    w = 2 * np.pi / paper_state.period
    k = lambda x, v1, v2: np.cos(w * x)
    assert abs(ev.apply("-", k, pt) - np.cos(w * pt.x)) <= 1e-14


def test_projection_preserves_v1_parity(weak_state):
    # the averaged v1hat flips sign under v1 -> -v1
    ev = vm.ProjectionEvaluator(weak_state)
    vhat1 = lambda x, v1, v2: v1 / np.sqrt(1 + v1**2 + v2**2)
    a = ev.apply("-", vhat1, PhasePoint(1.0, 0.55, 0.25))
    b = ev.apply("-", vhat1, PhasePoint(1.0, -0.55, 0.25))
    assert abs(a + b) <= 1e-6 * max(abs(a), 1e-6)


def test_projection_agrees_with_small_rate_smoothing(weak_state):
    # a trapped orbit keeps the horizon short enough for the direct rule
    pt = PhasePoint(0.5, 0.01, 0.9)
    w = 2 * np.pi / weak_state.period
    k = lambda x, v1, v2: np.cos(w * x)
    proj = vm.ProjectionEvaluator(weak_state).apply("-", k, pt)
    ev = vm.SmoothingEvaluator(weak_state, 1e-3,
                               EvalOptions(k_osc=1, tol_tail_s=1e-8, dt=0.1))
    smooth = ev.apply("-", k, pt)
    assert abs(smooth - proj) <= 1e-3


# ---------------------------------------------------------------------------
# one orbit engine
# ---------------------------------------------------------------------------

def _resolved_lanes(state, quad, x):
    """The assembly's period detector on every node: (resolved, winding)."""
    _, resolved, winding = ops._orbit_periods_batch(
        state, -1, np.full(quad.n_nodes, x), quad.v1, quad.v2, default_dt(state),
        ops.HORIZON_PERIODS * state.period, weights=quad.w)
    return resolved, winding


def test_projection_matches_batched_orbit_average(weak_state, aniso_coarse_quad):
    # at lam = 0 the pointwise projection and the assembly's per-node
    # moments come from one engine; on the heaviest resolved passing lane
    # and trapped lane each lane takes the same substeps in both, so they
    # agree to roundoff (1.7e-16 measured; a separate scalar detector gave 4.1e-9)
    quad, kmax = aniso_coarse_quad, 3
    x = 0.3 * weak_state.period
    w = 2 * np.pi / weak_state.period
    resolved, winding = _resolved_lanes(weak_state, quad, x)
    m0 = vm.node_moments(weak_state, -1, 0.0, quad, kmax, x)[0]
    ev = vm.ProjectionEvaluator(weak_state)
    for passing in (True, False):
        j = max(np.flatnonzero(resolved & ((winding != 0) == passing)), key=lambda i: quad.w[i])
        pt = PhasePoint(x, quad.v1[j], quad.v2[j])
        assert vm.orbit_info(weak_state, "-", pt).kind == ("passing" if passing else "trapped")
        for k in range(kmax + 1):
            got = ev.apply("-", lambda xs, a, b: np.cos(k * w * xs), pt)
            assert abs(got - m0[k, j].real) <= 1e-9, (passing, k, got, m0[k, j])


def test_generic_moments_match_fft_filter_reference(monkeypatch, weak_state, aniso_coarse_quad):
    # at lam > 0 the period weights fft(filter)/n equal the resolvent
    # filter applied to each harmonic's discrete Fourier series
    quad, kmax, n, lam = aniso_coarse_quad, 3, 128, 0.4
    calls = []
    stream = ops._orbit_stream

    def keep(state, sign, x0, v1, v2, h, n_samples, dt):
        seen = []
        for sample in stream(state, sign, x0, v1, v2, h, n_samples, dt):
            seen.append(sample)
            yield sample
        calls.append((v1, v2, np.broadcast_to(h, v1.shape),
                      tuple(np.array(a) for a in zip(*seen))))
    monkeypatch.setattr(ops, "_orbit_stream", keep)
    m0, m1, mv1 = vm.node_moments(weak_state, -1, lam, quad, kmax, 0.7,
                                  EvalOptions(n_per_period=n))
    omega = 2 * np.pi / weak_state.period
    node = {ab: j for j, ab in enumerate(zip(quad.v1, quad.v2))}
    checked = 0
    for v1, v2, h, (xs, v1s, v2s) in calls:
        if h[0] < 0:
            continue               # the backward window of lanes that did not close
        lanes = [node[ab] for ab in zip(v1, v2)]
        modes = np.fft.fftfreq(n, d=1.0 / n)[:, None]
        fil = lam / (lam + 1j * modes * (2 * np.pi / (h * n))[None, :])

        def filtered(f):
            return np.sum(np.fft.fft(f, axis=0) / n * fil, axis=0)
        e = np.sqrt(1 + v1s**2 + v2s**2)
        Z = np.exp(1j * omega * xs)
        pairs = [(mv1[lanes], filtered(v1s / e + 0j).real)]
        for k in range(kmax + 1):
            pairs += [(m0[k, lanes], filtered(Z**k)), (m1[k, lanes], filtered(v2s / e * Z**k))]
        for got, ref in pairs:
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        checked += len(lanes)
    assert checked == np.count_nonzero(_resolved_lanes(weak_state, quad, 0.7)[0])


def test_grouped_detector_matches_per_point_runs(weak_state, aniso_coarse_quad):
    # each collocation point stops on its own weight, so one batch over
    # three points gives every lane exactly what three separate runs give.
    # Unit weights keep the middle point's stragglers above the stop
    # threshold, so it runs on after the other two have stopped.
    quad, N = aniso_coarse_quad, aniso_coarse_quad.n_nodes
    xs = np.array([0.1, 0.45, 0.8]) * weak_state.period
    weights = [quad.w, np.ones(N), quad.w]
    dt, horizon = default_dt(weak_state), ops.HORIZON_PERIODS * weak_state.period
    got = ops._orbit_periods_batch(weak_state, -1, np.repeat(xs, N), np.tile(quad.v1, 3),
                                   np.tile(quad.v2, 3), dt, horizon,
                                   weights=np.concatenate(weights),
                                   groups=np.repeat(np.arange(3), N))
    for i, x in enumerate(xs):
        want = ops._orbit_periods_batch(weak_state, -1, np.full(N, x), quad.v1, quad.v2, dt,
                                        horizon, weights=weights[i])
        for a, b in zip(got, want):
            assert np.array_equal(a.reshape(3, N)[i], b), i


def test_node_moments_over_positions_match_per_point_calls(weak_state, aniso_coarse_quad):
    quad, kmax = aniso_coarse_quad, 3
    xs = np.array([0.1, 0.45, 0.8]) * weak_state.period
    for lam in (0.0, 0.4):
        grid = vm.node_moments(weak_state, -1, lam, quad, kmax, xs)
        assert grid[0].shape == (kmax + 1, 3, quad.n_nodes) and grid[2].shape == (3, quad.n_nodes)
        for i, x in enumerate(xs):
            for got, want in zip(grid, vm.node_moments(weak_state, -1, lam, quad, kmax, x)):
                got = got[..., i, :]
                assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want)), (lam, i)


def test_one_orbit_pass_per_assembly(monkeypatch, weak_state, aniso_coarse_quad):
    # all collocation points share one pass: doubling them leaves the
    # number of RK4 calls nearly unchanged (a loop over points doubles it)
    steps = [0]
    step = ops.rk4_step_arrays

    def counting(*args):
        steps[0] += 1
        return step(*args)
    monkeypatch.setattr(ops, "rk4_step_arrays", counting)
    opts = EvalOptions(tol_sym=1e-3)
    seen = []
    for n_x in (2, 4):
        basis = vm.build_fourier_basis(weak_state.period, n_x)
        before = steps[0]
        moment_profiles(weak_state, 0.0, aniso_coarse_quad, basis.n_modes // 2, basis.x_grid,
                        opts)
        seen.append(steps[0] - before)
    assert seen[1] <= 1.1 * seen[0], seen


def test_orbit_engine_steps_through_operators(monkeypatch, weak_state, aniso_coarse_quad):
    # the benchmark trace counts RK4 steps at operators.rk4_step_arrays,
    # so every orbit path must step through that name
    steps = [0]
    step = ops.rk4_step_arrays

    def counting(*args):
        steps[0] += 1
        return step(*args)
    monkeypatch.setattr(ops, "rk4_step_arrays", counting)
    pt = PhasePoint(1.0, 0.7, -0.4)
    seen = []
    for run in (lambda: vm.orbit_info(weak_state, "-", pt),
                lambda: vm.ProjectionEvaluator(weak_state).apply(
                    "-", lambda x, a, b: np.cos(x), pt),
                lambda: vm.node_moments(weak_state, -1, 0.0, aniso_coarse_quad, 2, 0.3)):
        before = steps[0]
        run()
        seen.append(steps[0] - before)
    assert min(seen) > 0, seen


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def test_zero_profile_assembles_free_blocks(zero_profile, paper_quad):
    prof, _ = zero_profile
    state = vm.make_homogeneous_state(prof, 2 * np.pi)
    basis = vm.build_fourier_basis(state.period, 8)
    for lam in (0.0, 0.7):
        blocks = vm.assemble_blocks(state, lam, basis, paper_quad)
        w = 2 * np.pi / state.period
        mz_k = basis.k_index[basis.k_index > 0]
        assert np.max(np.abs(blocks.A1 - np.diag((mz_k * w) ** 2))) <= 1e-12
        want = np.diag((basis.k_index * w) ** 2 + lam ** 2)
        assert np.max(np.abs(blocks.A2 - want)) <= 1e-12
        assert np.max(np.abs(blocks.B)) <= 1e-14
        assert np.max(np.abs(blocks.C)) <= 1e-14
        assert np.max(np.abs(blocks.D)) <= 1e-14
        assert abs(blocks.l) <= 1e-14


def _straight_line_filter(state, lam, quad, kmax):
    """Reference: lam/(lam + i k w v1hat) in complex arithmetic."""
    ks = np.arange(kmax + 1)[:, None]
    if lam == 0.0:
        return (ks == 0).astype(complex) * np.ones(quad.n_nodes)[None, :]
    return lam / (lam + 1j * ks * (2.0 * np.pi / state.period) * (quad.v1 / quad.e)[None, :])


def _straight_line_profiles(state, lam, quad, kmax, x_grid, opts=None, kernel=None):
    """Reference: the per-rate closed form with a complex filter and the
    profile evaluated afresh for each species."""
    vh1, vh2 = quad.v1 / quad.e, quad.v2 / quad.e
    omega = 2.0 * np.pi / state.period
    ks = np.arange(kmax + 1)[:, None]
    g = _straight_line_filter(state, lam, quad, kmax)
    tau = np.zeros((3, kmax + 1), dtype=complex)
    scal = np.zeros(6)
    for sign in (-1, +1):
        mu_e = state.profile.mu_e(sign, quad.e, quad.v2)
        mu_p = state.profile.mu_p(sign, quad.e, quad.v2)
        we = mu_e * quad.w
        tau += [g @ we, g @ (we * vh2 * vh2), g @ (we * vh2)]
        scal += [np.sum(we * vh1), np.sum(we * vh2 * vh1), np.sum(we * vh1 * vh1),
                 np.sum(we), np.sum(vh2 * mu_p * quad.w), np.sum(mu_p * quad.w)]
    phases = np.exp(1j * ks * omega * x_grid[None, :])
    T1, T2, T3 = (t[:, None] * phases for t in tau)
    return MomentProfiles(T1, T2, T3, T3, *(np.full(x_grid.size, v) for v in scal))


def test_kernel_blocks_match_per_rate_closed_form(monkeypatch, paper_state, aniso_state,
                                                  paper_quad, aniso_quad):
    # one kernel serves every rate, in real arithmetic; B, C and D vanish
    # for these mirror pairs, so they are measured against the A blocks.
    # The filter's imaginary part cancels in the blocks of v1-even
    # profiles, so the per-node filter of line_filter is checked as well.
    for state, quad in ((aniso_state, aniso_quad), (paper_state, paper_quad)):
        basis = vm.build_fourier_basis(state.period, 8)
        w = 2 * np.pi / state.period
        kern = assembly_kernel(state, quad, basis.n_modes // 2, basis.x_grid)
        for lam in (0.0, 0.01 * w, 0.8, 100.0 * w):
            got = vm.assemble_blocks(state, lam, basis, quad, kernel=kern)
            with monkeypatch.context() as mp:
                mp.setattr(ops, "moment_profiles", _straight_line_profiles)
                want = vm.assemble_blocks(state, lam, basis, quad)
            scale = max(np.max(np.abs(want.A1)), np.max(np.abs(want.A2)))
            for name in ("A1", "A2"):
                ref = getattr(want, name)
                assert np.max(np.abs(getattr(got, name) - ref)) <= 1e-12 * np.max(np.abs(ref))
            for name in ("B", "C", "D"):
                diff = np.max(np.abs(getattr(got, name) - getattr(want, name)))
                assert diff <= 1e-12 * scale, (name, lam, diff)
            assert abs(got.l - want.l) <= 1e-12 * abs(want.l), (lam, got.l, want.l)
            re, im = ops.line_filter(quad, 4, w, lam)
            ref = _straight_line_filter(state, lam, quad, 4)
            assert np.max(np.abs(re + 1j * im - ref)) <= 1e-12


def test_folded_kernel_counts_self_image_angles_once(paper_state, aniso_state, paper_profile,
                                                    aniso_profile):
    # on 18 angles (2 mod 4) the angles pi/2 and 3 pi/2 are their own images
    # under theta -> pi - theta: their class holds two nodes, each counted once
    for state, (prof, weight) in ((paper_state, paper_profile), (aniso_state, aniso_profile)):
        quad = vm.build_velocity_quadrature(weight, kinks=prof.kinks, n_r=24, n_theta=18,
                                            n_r_tail=8)
        cls, n_cls = ops._quarter_classes(quad)
        assert n_cls == 5 and cls.max() + 1 == quad.r_nodes.size * n_cls
        assert abs(np.sum(np.bincount(cls, quad.w)) - np.sum(quad.w)) <= 1e-14 * np.sum(quad.w)
        basis = vm.build_fourier_basis(state.period, 8)
        kern = assembly_kernel(state, quad, basis.n_modes // 2, basis.x_grid)
        we = sum(state.profile.mu_e(s, quad.e, quad.v2) for s in (-1, +1)) * quad.w
        assert kern.W.shape == (quad.r_nodes.size * n_cls, 2)
        assert abs(np.sum(kern.W[:, 0]) - np.sum(we)) <= 1e-13 * np.sum(np.abs(we))
        w = 2 * np.pi / state.period
        for lam in (0.0, 0.01 * w, 0.8, 100.0 * w):
            prof_lam = moment_profiles(state, lam, quad, basis.n_modes // 2, basis.x_grid,
                                       kernel=kern)
            assert not prof_lam.T3.any() and not prof_lam.T4.any()
            assert not prof_lam.c.any() and not prof_lam.d.any()
            want = _straight_line_profiles(state, lam, quad, basis.n_modes // 2, basis.x_grid)
            for name in ("T1", "T2", "lint"):
                ref = getattr(want, name)
                err = np.max(np.abs(getattr(prof_lam, name) - ref))
                assert err <= 1e-12 * np.max(np.abs(ref)), (name, lam, err)


def test_paper_profile_current_response_value(paper_state, paper_quad):
    basis = vm.build_fourier_basis(paper_state.period, 8)
    blocks = vm.assemble_blocks(paper_state, 0.0, basis, paper_quad)
    want = 2.0 * np.pi * (RING_EXACT + TAIL_RING_PINNED)   # both species
    assert blocks.l < 0
    assert abs(blocks.l - want) <= 1e-6 * abs(want)


def test_constant_mode_entry_sign_identity(paper_state, paper_quad):
    # <A2 1, 1>/P equals the full transverse inertia integral
    # sum_s int mu (1 + v1^2)/e^3 dv, which is positive for any profile;
    # obtained by moving the v2 derivative onto the density
    basis = vm.build_fourier_basis(paper_state.period, 8)
    blocks = vm.assemble_blocks(paper_state, 0.0, basis, paper_quad)
    prof = paper_state.profile
    inertia = 2.0 * vm.integrate_velocity(paper_quad, lambda v1, v2: prof.mu(
        -1, np.sqrt(1 + v1**2 + v2**2), v2) * (1 + v1**2) / (1 + v1**2 + v2**2) ** 1.5)
    # with the normalized constant u0 = 1/sqrt(P), A2[0,0] = <A2 1, 1>/P
    got = blocks.A2[0, 0]
    assert got > 0
    assert abs(got - inertia) <= 1e-8 * inertia


def test_couplings_vanish_for_mirror_pairs(paper_state, aniso_state, paper_quad, aniso_quad):
    # the v2 reflection ties the two species' paths together, so the
    # cross blocks cancel identically at every growth rate
    for state, quad in ((paper_state, paper_quad), (aniso_state, aniso_quad)):
        basis = vm.build_fourier_basis(state.period, 8)
        for lam in (0.0, 0.5):
            blocks = vm.assemble_blocks(state, lam, basis, quad)
            assert np.max(np.abs(blocks.B)) <= 1e-12
            assert np.max(np.abs(blocks.C)) <= 1e-12
            assert np.max(np.abs(blocks.D)) <= 1e-12


def test_vanishing_moment_identity(paper_state, aniso_state, paper_quad, aniso_quad):
    # sum_s int (mu_p + v2hat mu_e) dv = 0: a perfect v2 derivative
    for state, quad in ((paper_state, paper_quad), (aniso_state, aniso_quad)):
        prof = state.profile
        total = 0.0
        for sign in (-1, +1):
            total += vm.integrate_velocity(quad, lambda v1, v2, s=sign: prof.mu_p(
                s, np.sqrt(1 + v1**2 + v2**2), v2)
                + v2 / np.sqrt(1 + v1**2 + v2**2) * prof.mu_e(
                    s, np.sqrt(1 + v1**2 + v2**2), v2))
        assert abs(total) <= 1e-8


def test_constant_function_is_null_for_first_block(weak_state, aniso_coarse_quad):
    # applied to the constant, the local and averaged terms cancel
    opts = EvalOptions(tol_sym=1e-3, n_per_period=96)
    basis = vm.build_fourier_basis(weak_state.period, 4)
    prof = moment_profiles(weak_state, 0.0, aniso_coarse_quad, 2, basis.x_grid, opts)
    assert np.max(np.abs(np.real(prof.T1[0]) - prof.m_e)) <= 1e-8 * np.max(np.abs(prof.m_e))


def test_adjoint_consistency_without_symmetry_shortcut(aniso_orbit_state, aniso_coarse_quad):
    # the orbit engine on the zero-field state, without the straight-line
    # shortcut; the direct + species moments are checked against the
    # relabeled ones in test_species_relabel_matches_direct_moments
    basis = vm.build_fourier_basis(aniso_orbit_state.period, 4)
    opts = EvalOptions(tol_sym=1e-3, n_per_period=96)
    blocks = vm.assemble_blocks(aniso_orbit_state, 0.4, basis, aniso_coarse_quad, opts)
    assert blocks.defects["B_adjoint"] <= 1e-6


def test_species_relabel_matches_direct_moments(weak_state, aniso_coarse_quad):
    # the + trajectories are the v2-reflection of the - ones to roundoff
    # (1.0e-13 of m0 measured), so relabeled nodes stand in for a + pass
    quad, kmax, x = aniso_coarse_quad, 3, 0.7
    for lam in (0.0, 0.4):
        pair = ops.species_pair_moments(weak_state, lam, quad, kmax, x)
        direct = vm.node_moments(weak_state, +1, lam, quad, kmax, x)
        for got, want in zip(pair[+1], direct):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), lam


def test_generic_backend_matches_closed_forms(aniso_state, aniso_orbit_state, aniso_coarse_quad):
    basis = vm.build_fourier_basis(aniso_state.period, 4)
    lam = 0.8
    bt = vm.assemble_blocks(aniso_state, lam, basis, aniso_coarse_quad)
    bg = vm.assemble_blocks(aniso_orbit_state, lam, basis, aniso_coarse_quad,
                            EvalOptions(tol_sym=1e-4, n_per_period=192))
    assert np.max(np.abs(bt.A1 - bg.A1)) <= 1e-6 * np.max(np.abs(bt.A1))
    assert np.max(np.abs(bt.A2 - bg.A2)) <= 1e-6 * np.max(np.abs(bt.A2))
    assert abs(bt.l - bg.l) <= 1e-6 * abs(bt.l)
    assert np.max(np.abs(bg.B)) <= 1e-10
    assert np.max(np.abs(bg.D)) <= 1e-10


def test_rate_continuity_of_blocks(aniso_state, aniso_quad):
    # block entries are Lipschitz in the growth rate on [0.1, 10]
    basis = vm.build_fourier_basis(aniso_state.period, 8)
    lams = [0.1, 0.5, 1.0, 3.0, 10.0]
    blocks = {lam: vm.assemble_blocks(aniso_state, lam, basis, aniso_quad) for lam in lams}

    def dist(a, b):
        return max(np.max(np.abs(a.A1 - b.A1)), np.max(np.abs(a.A2 - b.A2)),
                   abs(a.l - b.l)) - abs(a.lam**2 - b.lam**2)

    # fit the constant on the first gap, check it bounds the rest
    c_fit = dist(blocks[0.5], blocks[0.1]) / 0.4
    for a, b in ((1.0, 0.5), (3.0, 1.0), (10.0, 3.0)):
        assert dist(blocks[a], blocks[b]) <= 4.0 * c_fit * (a - b)


def test_large_rate_limits(aniso_state, aniso_quad):
    # A1 tends to the Laplacian as lam grows.  On this mirror-paired
    # homogeneous state B, C and D are zero at every rate, so what is left
    # of them is roundoff: it is bounded, not asked to shrink.
    basis = vm.build_fourier_basis(aniso_state.period, 8)
    w = 2 * np.pi / aniso_state.period
    mz_k = basis.k_index[basis.k_index > 0]
    lap = np.diag((mz_k * w) ** 2)
    gaps = []
    for lam in (50.0 * w, 200.0 * w):
        blocks = vm.assemble_blocks(aniso_state, lam, basis, aniso_quad)
        gaps.append(np.max(np.abs(blocks.A1 - lap)))
        for name in ("B", "C", "D"):
            assert np.max(np.abs(getattr(blocks, name))) <= 1e-12, (name, lam)
    first, second = gaps
    assert second <= first     # still shrinking
    assert second <= 0.05 * np.max(np.abs(vm.assemble_blocks(
        aniso_state, 0.5, basis, aniso_quad).A1))


def test_large_rate_coupling_still_shrinking(weak_state, aniso_coarse_quad):
    # on a magnetized state C is a real coupling (4.9e-3 at lam = 0.5);
    # it must keep shrinking toward the large-rate limit
    basis = vm.build_fourier_basis(weak_state.period, 4)
    w = 2 * np.pi / weak_state.period
    opts = EvalOptions(tol_sym=1e-3)
    c = [np.max(np.abs(vm.assemble_blocks(weak_state, lam, basis, aniso_coarse_quad, opts).C))
         for lam in (0.5, 50.0 * w, 200.0 * w)]
    assert c[1] >= 1e-8, c      # far above roundoff: a coupling, not noise
    assert c[2] < c[1] < c[0], c


def test_current_response_bounded_over_sweep(aniso_state, aniso_quad):
    basis = vm.build_fourier_basis(aniso_state.period, 8)
    vals = [abs(vm.assemble_blocks(aniso_state, lam, basis, aniso_quad).l)
            for lam in np.geomspace(0.05, 50.0, 8)]
    assert max(vals) <= 10.0 * max(1e-12, abs(vals[0]))


def test_assemble_requires_full_basis(paper_state, paper_quad):
    basis = vm.build_fourier_basis(paper_state.period, 8, mean_zero=True)
    with pytest.raises(VmspecError, match="full basis"):
        vm.assemble_blocks(paper_state, 0.0, basis, paper_quad)


# ---------------------------------------------------------------------------
# truncated matrix
# ---------------------------------------------------------------------------

def test_truncated_matrix_zero_profile_spectrum(zero_profile, paper_quad):
    prof, _ = zero_profile
    state = vm.make_homogeneous_state(prof, 2 * np.pi)
    basis = vm.build_fourier_basis(state.period, 12)
    blocks0 = vm.assemble_blocks(state, 0.0, basis, paper_quad)
    # the zero profile leaves the first block with a zero-free spectrum
    modal = vm.modal_truncation(blocks0)
    lam = 0.9
    blocks = vm.assemble_blocks(state, lam, basis, paper_quad)
    n = 4
    M = vm.assemble_M(blocks, n, modal)
    w = 2 * np.pi / state.period
    got = np.sort(vm.symmetric_eigen(M).values)
    lap_mz = np.sort([(k * w) ** 2 for k in (1, 1, 2, 2)])
    lap_full = np.sort([(k * w) ** 2 for k in (0, 1, 1, 2)])     # constant included
    want = np.sort(np.concatenate([-lap_mz, lap_full + lam**2,
                                   [-state.period * lam**2]]))
    assert np.max(np.abs(got - want)) <= 1e-10


def test_truncated_matrix_is_diagonal_at_zero_rate(aniso_state, aniso_quad):
    basis = vm.build_fourier_basis(aniso_state.period, 12)
    blocks0 = vm.assemble_blocks(aniso_state, 0.0, basis, aniso_quad)
    modal = vm.modal_truncation(blocks0)
    n = 5
    M = vm.assemble_M(blocks0, n, modal)
    off = M.copy()
    off[:n, :n] -= np.diag(np.diag(off[:n, :n]))
    off[n:2*n, n:2*n] -= np.diag(np.diag(off[n:2*n, n:2*n]))
    assert np.max(np.abs(off[:n, n:])) == 0.0
    assert np.max(np.abs(off[n:2*n, 2*n])) == 0.0
    # spectrum inclusion: every eigenvalue comes from a diagonal block
    vals = vm.symmetric_eigen(M).values
    pool = np.concatenate([-modal.a1_values[:n], modal.a2_values[:n],
                           [aniso_state.period * blocks0.l]])
    for v in vals:
        assert np.min(np.abs(pool - v)) <= 1e-9 * max(1.0, abs(v))


def test_truncation_size_guard(aniso_state, aniso_quad):
    basis = vm.build_fourier_basis(aniso_state.period, 8)
    blocks0 = vm.assemble_blocks(aniso_state, 0.0, basis, aniso_quad)
    modal = vm.modal_truncation(blocks0)
    with pytest.raises(VmspecError, match="exceeds"):
        vm.assemble_M(blocks0, 99, modal)
