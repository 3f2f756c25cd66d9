import ast
import copy
import dataclasses
import functools
import importlib
import inspect
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import vmspec as vm
import vmspec.operators as ops
from reference import (PhasePoint, SmoothingEvaluator, mu_species, species_mu_direct,
                       species_plus_state)
from vmspec import characteristics, cli
from vmspec.discretization import (LOWER, UPPER, fold_quarters, ring_blocks,
                                   theta_reflect_permutation)
from vmspec.errors import AssemblyError, VmspecError
from vmspec.operators import (EvalOptions, MomentProfiles, assembly_kernel, moment_profiles,
                              species_mu)

RING_EXACT = 1.5 - np.log(2.0)
TAIL_RING_PINNED = -2.5311167899453655


# ---------------------------------------------------------------------------
# smoothing average
# ---------------------------------------------------------------------------

def test_smoothing_of_one_is_one(paper_state, weak_state):
    one = lambda x, v1, v2: np.ones_like(x)
    for state, pt in ((paper_state, PhasePoint(0.3, 0.5, 0.1)),
                      (weak_state, PhasePoint(1.1, 0.4, -0.6))):
        ev = SmoothingEvaluator(state, lam=0.7)
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
        ev = SmoothingEvaluator(paper_state, lam, k_osc=2)
        got = ev.apply("-", k, pt)
        want = (lam**2 * np.cos(w * pt.x) + lam * a * np.sin(w * pt.x)) / (lam**2 + a**2)
        assert abs(got - want) <= 1e-8, (lam, got, want)


def test_smoothing_tends_to_spatial_mean_at_small_rate(paper_state):
    w = 2 * np.pi / paper_state.period
    pt = PhasePoint(0.9, 0.65, -0.2)
    k = lambda x, v1, v2: np.cos(w * x)
    ev = SmoothingEvaluator(paper_state, 1e-3, k_osc=2)
    assert abs(ev.apply("-", k, pt)) <= 2e-3


def test_smoothing_tends_to_identity_at_large_rate(paper_state):
    # convergence to the identity is first order in 1/lam
    w = 2 * np.pi / paper_state.period
    pt = PhasePoint(0.9, 0.65, -0.2)
    k = lambda x, v1, v2: np.cos(w * x)
    ev = SmoothingEvaluator(paper_state, 1000.0, k_osc=2)
    assert abs(ev.apply("-", k, pt) - np.cos(w * pt.x)) <= 1e-3


def test_smoothing_requires_positive_rate(paper_state):
    with pytest.raises(VmspecError):
        SmoothingEvaluator(paper_state, 0.0)


# ---------------------------------------------------------------------------
# orbit-average projection
# ---------------------------------------------------------------------------

def _orbit_average(state, k, *points):
    """The engine's lam = 0 average of k(x, v1, v2) over each point's orbit
    period (the horizon where it does not close), from species -."""
    x, v1, v2 = (np.array(c, dtype=float) for c in zip(*points))
    n = EvalOptions().n_per_period
    periods, _ = ops._orbit_periods_batch(state, x, v1, v2, ops.HORIZON_PERIODS * state.period)
    samples = ops._orbit_stream(state, x, v1, v2, periods / n, n)
    return np.mean([k(xs % state.period, a, b) for xs, a, b in samples], axis=0)


def test_projection_of_invariant_functions(weak_state):
    # functions of the conserved pair pass through untouched
    pt = (1.3, 0.5, 0.4)

    def invariant(x, v1, v2):
        e = np.sqrt(1 + v1**2 + v2**2)
        p = v2 - weak_state.psi0(x)
        return e**2 + 0.3 * p
    got = _orbit_average(weak_state, invariant, pt)[0]
    want = float(invariant(*map(np.asarray, pt)))
    assert abs(got - want) <= 1e-8 * max(1.0, abs(want))


def test_projection_kills_mean_zero_spatial_factor(paper_state):
    w = 2 * np.pi / paper_state.period
    got = _orbit_average(paper_state, lambda x, v1, v2: (v1 / np.sqrt(1 + v1**2 + v2**2))
                         * np.cos(w * x), (0.4, 0.8, 0.3))[0]
    assert abs(got) <= 1e-10


def test_projection_idempotence(weak_state):
    # averaging an already orbit-averaged quantity changes nothing
    pt = (0.8, 0.45, -0.3)
    w = 2 * np.pi / weak_state.period
    k = lambda x, v1, v2: np.cos(w * x) * v2 / np.sqrt(1 + v1**2 + v2**2)
    first = _orbit_average(weak_state, k, pt)[0]
    again = _orbit_average(weak_state, lambda x, v1, v2: np.full(np.shape(x), first), pt)[0]
    assert abs(again - first) <= 1e-8


def test_projection_preserves_v1_parity(weak_state):
    # the averaged v1hat flips sign under v1 -> -v1
    vhat1 = lambda x, v1, v2: v1 / np.sqrt(1 + v1**2 + v2**2)
    a, b = _orbit_average(weak_state, vhat1, (1.0, 0.55, 0.25), (1.0, -0.55, 0.25))
    assert abs(a + b) <= 1e-6 * max(abs(a), 1e-6)


def test_projection_agrees_with_small_rate_smoothing(weak_state):
    # a trapped orbit keeps the horizon short enough for the direct rule
    pt = PhasePoint(0.5, 0.01, 0.9)
    w = 2 * np.pi / weak_state.period
    k = lambda x, v1, v2: np.cos(w * x)
    proj = _orbit_average(weak_state, k, (pt.x, pt.v1, pt.v2))[0]
    ev = SmoothingEvaluator(weak_state, 1e-3, k_osc=1, tol_tail=1e-8)
    smooth = ev.apply("-", k, pt)
    assert abs(smooth - proj) <= 1e-3


# ---------------------------------------------------------------------------
# one orbit engine
# ---------------------------------------------------------------------------

def _resolved_lanes(state, quad, x):
    """The assembly's period detector on every node: which lanes closed."""
    return ops._orbit_periods_batch(state, np.full(quad.n_nodes, x), quad.v1, quad.v2,
                                    ops.HORIZON_PERIODS * state.period, weights=quad.w)[1]


def test_generic_moments_match_fft_filter_reference(monkeypatch, weak_state, aniso_coarse_quad):
    # at lam > 0 the period weights fft(filter)/n equal the resolvent
    # filter applied to each harmonic's discrete Fourier series, with the
    # Nyquist mode split evenly between -n/2 and n/2
    quad, kmax, n, lam = aniso_coarse_quad, 3, 128, 0.4
    calls = []
    stream = ops._orbit_stream

    def keep(state, x0, v1, v2, h, n_samples):
        seen = []
        for sample in stream(state, x0, v1, v2, h, n_samples):
            seen.append(sample)
            yield sample
        calls.append((v1, v2, np.broadcast_to(h, v1.shape),
                      tuple(np.array(a) for a in zip(*seen))))
    monkeypatch.setattr(ops, "_orbit_stream", keep)
    m0, m1, mv1 = vm.node_moments(weak_state, lam, quad, kmax, 0.7,
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
        fil[n // 2] = fil[n // 2].real

        def filtered(f):
            return np.sum(np.fft.fft(f, axis=0) / n * fil, axis=0)
        e = np.sqrt(1 + v1s**2 + v2s**2)
        Z = np.exp(1j * omega * xs)
        pairs = [(mv1[lanes], filtered(v1s / e))]
        for k in range(kmax + 1):
            pairs += [(m0[k, lanes], filtered(Z**k)), (m1[k, lanes], filtered(v2s / e * Z**k))]
        for got, ref in pairs:
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        checked += len(lanes)
    assert checked == np.count_nonzero(_resolved_lanes(weak_state, quad, 0.7))


def test_period_weights_are_real():
    # the filter of mode -m is the conjugate of mode m's, and the Nyquist
    # mode, which has no partner among the n modes, is split evenly between
    # -n/2 and n/2; the unsplit filter gave |Im G| = 2.3e-4 here
    n, lam, periods = 128, 0.4, np.array([6.0, 30.0])
    G = ops._period_weights(lam, periods, n)
    modes = np.fft.fftfreq(n, d=1.0 / n)[:, None]
    fil = lam / (lam + 1j * modes * (2 * np.pi / periods)[None, :])
    fil[n // 2] = fil[n // 2].real
    ref = np.fft.fft(fil, axis=0) / n
    assert np.max(np.abs(ref.imag)) <= 1e-15
    assert np.max(np.abs(G - ref)) <= 1e-15
    # each mode of a real sampled signal gets the real part of its filter
    j = np.arange(n)[:, None]
    for m in (0, 1, 5, n // 2):
        got = G.T @ np.cos(2 * np.pi * m * j / n)
        assert np.max(np.abs(got[:, 0] - fil[m].real)) <= 1e-15, m


def test_orbit_sampling_below_64_per_period_is_rejected():
    # the projection and the assembly sample every orbit alike, at >= 64 points
    with pytest.raises(VmspecError, match="at least 64"):
        EvalOptions(n_per_period=32)


def test_node_moments_average_of_one_is_one(weak_state, aniso_coarse_quad):
    # m0[0] is the average of 1: the period weights and the backward window
    # of the lanes that did not close must each carry unit mass
    quad, x = aniso_coarse_quad, 0.7
    assert not _resolved_lanes(weak_state, quad, x).all()
    for lam in (0.01 * 2 * np.pi / weak_state.period, 0.1):
        m0 = vm.node_moments(weak_state, lam, quad, 0, x)[0]
        assert np.max(np.abs(m0[0] - 1.0)) <= 1e-12, lam


def test_node_moments_report_invariant_drift(weak_state, aniso_coarse_quad):
    # the largest |de| and |dp| between the first and the last sample of
    # every stream, the backward window of the lanes that did not close
    # included at lam > 0
    quad, x = aniso_coarse_quad, 0.7
    assert not _resolved_lanes(weak_state, quad, x).all()
    for lam in (0.0, 0.4):
        drift = vm.node_moments(weak_state, lam, quad, 1, x).drift
        assert sorted(drift) == ["e", "p"]
        assert 0.0 < drift["e"] <= 1e-9 and 0.0 < drift["p"] <= 1e-9, (lam, drift)


def test_negated_state_drift_is_species_plus_momentum(monkeypatch, weak_state,
                                                     aniso_coarse_quad):
    # species - on the negated potential conserves v2 - (-psi0(x)) = v2 + psi0(x),
    # species +'s momentum: the reported drift of p is that momentum's drift between
    # the first and the last sample of every stream, bit for bit
    quad, plus = aniso_coarse_quad, species_plus_state(weak_state)
    ends, stream = [], ops._orbit_stream

    def keep(*args):
        samples = list(stream(*args))
        ends.append((samples[0], samples[-1]))
        yield from samples
    monkeypatch.setattr(ops, "_orbit_stream", keep)
    for lam in (0.0, 0.4):
        ends.clear()
        drift = vm.node_moments(plus, lam, quad, 1, 0.7).drift
        want = max(float(np.max(np.abs((w1 + weak_state.psi0(x1)) - (w0 + weak_state.psi0(x0)))))
                   for (x0, _, w0), (x1, _, w1) in ends)
        assert drift["p"] == want and want > 0.0, (lam, drift, want)


def test_grouped_detector_matches_per_point_runs(weak_state, aniso_coarse_quad):
    # each collocation point stops on its own weight, so one batch over
    # three points gives every lane exactly what three separate runs give.
    # Unit weights keep the middle point's stragglers above the stop
    # threshold, so it runs on after the other two have stopped.
    quad, N = aniso_coarse_quad, aniso_coarse_quad.n_nodes
    xs = np.array([0.1, 0.45, 0.8]) * weak_state.period
    weights = [quad.w, np.ones(N), quad.w]
    horizon = ops.HORIZON_PERIODS * weak_state.period
    got = ops._orbit_periods_batch(weak_state, np.repeat(xs, N), np.tile(quad.v1, 3),
                                   np.tile(quad.v2, 3), horizon,
                                   weights=np.concatenate(weights),
                                   groups=np.repeat(np.arange(3), N))
    for i, x in enumerate(xs):
        want = ops._orbit_periods_batch(weak_state, np.full(N, x), quad.v1, quad.v2,
                                        horizon, weights=weights[i])
        for a, b in zip(got, want):
            assert np.array_equal(a.reshape(3, N)[i], b), i


def test_node_moments_over_positions_match_per_point_calls(weak_state, aniso_coarse_quad):
    quad, kmax = aniso_coarse_quad, 3
    xs = np.array([0.1, 0.45, 0.8]) * weak_state.period
    for lam in (0.0, 0.4):
        grid = vm.node_moments(weak_state, lam, quad, kmax, xs)
        assert grid[0].shape == (kmax + 1, 3, quad.n_nodes) and grid[2].shape == (3, quad.n_nodes)
        for i, x in enumerate(xs):
            for got, want in zip(grid, vm.node_moments(weak_state, lam, quad, kmax, x)):
                got = got[..., i, :]
                assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want)), (lam, i)


def _uneven_copy(state):
    """The same field with ``even`` off: every lane takes the direct path."""
    out = copy.copy(state)
    out.potential = copy.copy(state.potential)
    out.potential.even = False
    return out


def _counting_rk4(monkeypatch):
    """The lane count of every RK4 call at the name the engine looks up (the
    benchmark trace counts steps there too)."""
    widths = []
    step = ops.rk4_step_arrays

    def counting(*args, **kwargs):
        out = step(*args, **kwargs)
        widths.append(out[0].size)
        return out
    monkeypatch.setattr(ops, "rk4_step_arrays", counting)
    return widths


def test_mirror_pairing_matches_direct_path(monkeypatch, weak_state, aniso_coarse_quad):
    # on the even well only one lane of each x-mirror pair is integrated;
    # the direct path on the same field is the reference.  Measured: resolved
    # lanes 1.8e-10 apart at most (median 0), the lanes that did not close
    # 1.2e-9 (near-separatrix lanes amplify the field's 1e-12 odd part),
    # the profiles 2.5e-11 of their scale
    quad = aniso_coarse_quad
    direct = _uneven_copy(weak_state)
    basis = vm.build_fourier_basis(weak_state.period, 2)
    widths = _counting_rk4(monkeypatch)
    kept = []
    keep = ops.node_moments

    def keeping(*args, **kwargs):
        kept.append(keep(*args, **kwargs))
        return kept[-1]
    monkeypatch.setattr(ops, "node_moments", keeping)
    for lam in (0.0, 0.4):
        profiles, steps = [], []
        for state in (weak_state, direct):
            before = len(widths)
            profiles.append(moment_profiles(state, lam, basis, quad))
            steps.append(widths[before:])
        # every lane of the even well has its mirror, none is its own; at
        # lam > 0 the weight table's blocks of CHUNK lanes change the calls
        assert 2 * sum(steps[0]) == sum(steps[1]), lam
        if lam == 0.0:
            assert len(steps[0]) == len(steps[1])
        # one pass of species - per assembly
        assert len(kept) == 2
        paired, ref = kept
        kept.clear()
        res = paired.resolved
        assert np.array_equal(res, ref.resolved)
        assert (~res).any()
        for a, b in zip(paired, ref):
            diff = np.abs(a - b)
            assert np.max(diff[..., res]) <= 1e-9, lam
            assert np.max(diff[..., ~res]) <= 1e-8, lam
        # each family is held to the scale of its largest member
        got, want = profiles
        for names, scale in ((("T1", "T2"), "T1"), (("c", "lint"), "lint")):
            size = np.max(np.abs(getattr(want, scale)))
            for name in names:
                diff = np.max(np.abs(getattr(got, name) - getattr(want, name)))
                assert diff <= 1e-10 * size, (lam, name, diff / size)
        # the counts and the density share match exactly; the share of l reads
        # the lanes' average of vh1, so it is held like lint
        l_share = (got.cut_lanes.pop("l_share"), want.cut_lanes.pop("l_share"))
        assert got.cut_lanes == want.cut_lanes
        assert abs(l_share[0] - l_share[1]) <= 1e-10 * abs(l_share[1]), (lam, l_share)


def test_cut_lanes_report_their_share_of_l(weak_state, aniso_coarse_quad):
    # the lanes that the stop rule cuts before they close carry a small signed
    # part of l; recomputed here from the orbit pass's own moments
    quad = aniso_coarse_quad
    basis = vm.build_fourier_basis(weak_state.period, 2)
    opts = EvalOptions(tol_sym=1e-3, n_per_period=128)
    cut = vm.assemble_blocks(weak_state, 0.0, basis, quad, opts).cut_lanes
    moments = vm.node_moments(weak_state, 0.0, quad, 1, basis.x_grid, opts)
    mu_e = species_mu(weak_state, quad, basis.x_grid)[0]
    l_lanes = mu_e * quad.w * (quad.v1 / quad.e) * moments[2]
    assert cut["count"] == np.count_nonzero(~moments.resolved) > 0
    assert 0.0 < abs(cut["l_share"]) < 1e-2
    want = np.sum(l_lanes[~moments.resolved]) / np.sum(l_lanes)
    assert abs(cut["l_share"] - want) <= 1e-12 * abs(want)


def test_uneven_well_takes_the_direct_path(monkeypatch, weak_state, aniso_coarse_quad):
    # a shifted well is not even: every lane is stepped, and each position
    # gets exactly what a call on it alone gives.  These positions would
    # pair on the even well.
    quad = aniso_coarse_quad
    pot = weak_state.potential
    state = vm.EquilibriumState(weak_state.profile,
                                vm.MagneticPotential(pot.period, np.roll(pot.samples, 3)))
    assert not state.potential.even
    xs = np.array([0.0, 0.125, 0.5, 0.875]) * state.period
    widths = _counting_rk4(monkeypatch)
    grid = vm.node_moments(state, 0.0, quad, 2, xs)
    assert widths[0] == xs.size * quad.n_nodes      # the period pass starts on every lane
    for i, x in enumerate(xs):
        one = vm.node_moments(state, 0.0, quad, 2, x)
        for got, want in zip((*grid, grid.resolved), (*one, one.resolved)):
            assert np.array_equal(got[..., i, :], want), i


def test_one_orbit_pass_per_assembly(monkeypatch, weak_state, aniso_coarse_quad):
    # all collocation points share one pass: doubling them leaves the
    # number of RK4 calls nearly unchanged (a loop over points doubles it)
    widths = _counting_rk4(monkeypatch)
    opts = EvalOptions(tol_sym=1e-3)
    seen = []
    for n_x in (2, 4):
        basis = vm.build_fourier_basis(weak_state.period, n_x)
        before = len(widths)
        moment_profiles(weak_state, 0.0, basis, aniso_coarse_quad, opts)
        seen.append(len(widths) - before)
    assert seen[1] <= 1.1 * seen[0], seen


def test_orbit_engine_steps_through_operators(monkeypatch, weak_state, aniso_coarse_quad):
    # the benchmark trace counts RK4 steps at operators.rk4_step_arrays,
    # so the engine must step through that name at every rate
    widths = _counting_rk4(monkeypatch)
    seen = []
    for lam in (0.0, 0.4):
        before = len(widths)
        vm.node_moments(weak_state, lam, aniso_coarse_quad, 2, 0.3)
        seen.append(len(widths) - before)
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
        assert np.max(np.abs(blocks.C)) <= 1e-14
        assert abs(blocks.l) <= 1e-14


def _straight_line_filter(state, lam, quad, kmax):
    """Reference: lam/(lam + i k w v1hat) in complex arithmetic."""
    ks = np.arange(kmax + 1)[:, None]
    if lam == 0.0:
        return (ks == 0).astype(complex) * np.ones(quad.n_nodes)[None, :]
    return lam / (lam + 1j * ks * (2.0 * np.pi / state.period) * (quad.v1 / quad.e)[None, :])


def _straight_line_profiles(state, lam, basis, quad, opts=None):
    """Reference: the per-rate closed form with a complex filter and the
    profile evaluated afresh for each species."""
    kmax, x_grid = basis.n_modes // 2, basis.x_grid
    vh1, vh2 = quad.v1 / quad.e, quad.v2 / quad.e
    omega = 2.0 * np.pi / state.period
    ks = np.arange(kmax + 1)[:, None]
    g = _straight_line_filter(state, lam, quad, kmax)
    tau = np.zeros((2, kmax + 1), dtype=complex)
    scal = np.zeros(4)
    for sign in (-1, +1):
        mu_e, mu_p = mu_species(state.profile, sign, quad.e, quad.v2)
        we = mu_e * quad.w
        tau += [g @ we, g @ (we * vh2 * vh2)]
        scal += [np.sum(we * vh1), np.sum(we * vh1 * vh1), np.sum(we),
                 np.sum(vh2 * mu_p * quad.w)]
    phases = np.exp(1j * ks * omega * x_grid[None, :])
    T1, T2 = (t[:, None] * phases for t in tau)
    return MomentProfiles(T1, T2, *(np.full(x_grid.size, v) for v in scal))


def test_kernel_blocks_match_per_rate_closed_form(monkeypatch, paper_state, aniso_state,
                                                  paper_quad, aniso_quad):
    # one kernel serves every rate, in real arithmetic; C vanishes for these
    # mirror pairs, so it is measured against the A blocks.
    for state, quad in ((aniso_state, aniso_quad), (paper_state, paper_quad)):
        basis = vm.build_fourier_basis(state.period, 8)
        w = 2 * np.pi / state.period
        for lam in (0.0, 0.01 * w, 0.8, 100.0 * w):
            got = vm.assemble_blocks(state, lam, basis, quad)
            with monkeypatch.context() as mp:
                mp.setattr(ops, "moment_profiles", _straight_line_profiles)
                want = vm.assemble_blocks(state, lam, basis, quad)
            scale = max(np.max(np.abs(want.A1)), np.max(np.abs(want.A2)))
            for name in ("A1", "A2"):
                ref = getattr(want, name)
                assert np.max(np.abs(getattr(got, name) - ref)) <= 1e-12 * np.max(np.abs(ref))
            diff = np.max(np.abs(got.C - want.C))
            assert diff <= 1e-12 * scale, (lam, diff)
            assert abs(got.l - want.l) <= 1e-12 * abs(want.l), (lam, got.l, want.l)


def test_folded_kernel_counts_self_image_angles_once(paper_state, aniso_state, paper_profile,
                                                    aniso_profile):
    # on 18 angles (2 mod 4) the angles pi/2 and 3 pi/2 are their own images
    # under theta -> pi - theta: their class holds two nodes, each counted once
    for state, (prof, weight) in ((paper_state, paper_profile), (aniso_state, aniso_profile)):
        quad = vm.build_velocity_quadrature(weight, kinks=prof.kinks, n_r=24, n_theta=18,
                                            n_r_tail=8)
        n_cls = 5
        sizes = fold_quarters(quad, np.ones(quad.n_nodes)).reshape(-1, n_cls)
        assert (sizes == [4, 4, 4, 4, 2]).all()
        folded = fold_quarters(quad, quad.w)
        assert abs(np.sum(folded) - np.sum(quad.w)) <= 1e-14 * np.sum(quad.w)
        # every member of a class has its representative's |v1|, and the upper
        # half of a class is its nodes with v2 > 0
        v1 = np.abs(quad.v1)
        rep = fold_quarters(quad, v1, (1, 0, 0, 0))
        diff = fold_quarters(quad, v1) - sizes.ravel() * rep
        assert np.max(np.abs(diff)) <= 1e-14 * np.max(v1)
        upper = fold_quarters(quad, np.ones(quad.n_nodes), UPPER)
        assert (upper == fold_quarters(quad, 1.0 * (quad.v2 > 0), UPPER)).all()
        assert (upper + fold_quarters(quad, np.ones(quad.n_nodes), LOWER) == sizes.ravel()).all()
        assert not fold_quarters(quad, 1.0 * (quad.v2 > 0), LOWER).any()
        # the nodes of a run of whole rings fold onto that run's classes
        n = quad.theta_nodes.size
        assert (fold_quarters(quad, quad.w[5 * n:9 * n], UPPER)
                == fold_quarters(quad, quad.w, UPPER)[5 * n_cls:9 * n_cls]).all()
        # ring_blocks covers every node and every class once, in order, in runs of
        # whole rings of at most max_nodes nodes (at least one ring), and each run's
        # fold is its slice of the full fold
        nodes, classes = np.arange(quad.n_nodes), np.arange(sizes.size)
        full = fold_quarters(quad, quad.w, UPPER)
        for max_nodes in (1, n - 1, n, 3 * n + 1, 7 * n, quad.n_nodes, 10 * quad.n_nodes):
            runs = list(ring_blocks(quad, max_nodes))
            assert (np.concatenate([nodes[on] for on, _ in runs]) == nodes).all()
            assert (np.concatenate([classes[cl] for _, cl in runs]) == classes).all()
            for on, cl in runs:
                size = nodes[on].size
                assert size % n == 0 and n <= size <= max(max_nodes, n), (max_nodes, size)
                assert classes[cl].size == size // n * n_cls
                assert (fold_quarters(quad, quad.w[on], UPPER) == full[cl]).all()
        basis = vm.build_fourier_basis(state.period, 8)
        kern = assembly_kernel(state, quad)
        we = sum(mu_species(state.profile, s, quad.e, quad.v2)[0] for s in (-1, +1)) * quad.w
        assert kern.W.shape == (quad.r_nodes.size * n_cls, 2)
        assert abs(np.sum(kern.W[:, 0]) - np.sum(we)) <= 1e-13 * np.sum(np.abs(we))
        w = 2 * np.pi / state.period
        for lam in (0.0, 0.01 * w, 0.8, 100.0 * w):
            prof_lam = moment_profiles(state, lam, basis, quad)
            assert not prof_lam.c.any()
            want = _straight_line_profiles(state, lam, basis, quad)
            for name in ("T1", "T2", "lint"):
                ref = getattr(want, name)
                err = np.max(np.abs(getattr(prof_lam, name) - ref))
                assert err <= 1e-12 * np.max(np.abs(ref)), (name, lam, err)


def test_kernel_never_meets_another_rule(aniso_state, paper_state, aniso_profile,
                                         aniso_coarse_quad):
    # the kernel belongs to one state and one rule: on one state rule A, then
    # rule B, then A again, and a state with another profile on A, each assembly
    # is bit-equal to one made after the cache is cleared, and one kernel is held
    prof, weight = aniso_profile
    rule_a = aniso_coarse_quad
    rule_b = vm.build_velocity_quadrature(weight, kinks=prof.kinks, n_r=16, n_theta=32,
                                          n_r_tail=4)
    runs = [(aniso_state, rule_a), (aniso_state, rule_b), (aniso_state, rule_a),
            (paper_state, rule_a)]

    def assemble(state, quad):
        return vm.assemble_blocks(state, 0.3, vm.build_fourier_basis(state.period, 8), quad)

    want = []
    for state, quad in runs:
        assembly_kernel.cache_clear()
        want.append(assemble(state, quad))
    assembly_kernel.cache_clear()
    for (state, quad), ref in zip(runs, want):
        got = assemble(state, quad)
        for name in ("A1", "A2", "C", "l"):
            assert np.array_equal(getattr(got, name), getattr(ref, name)), name
        assert assembly_kernel(state, quad) is assembly_kernel(state, quad)
    info = assembly_kernel.cache_info()
    assert (info.misses, info.maxsize, info.currsize) == (len(runs), 1, 1), info


def test_kernel_arrays_are_read_only(aniso_state, aniso_coarse_quad):
    # moment_profiles hands out the shared kernel's m_e and m_vp as they are: a
    # write into them raises, and a later assembly is bit-equal to a fresh build
    basis = vm.build_fourier_basis(aniso_state.period, 8)
    assembly_kernel.cache_clear()
    prof = moment_profiles(aniso_state, 0.3, basis, aniso_coarse_quad)
    kern = assembly_kernel(aniso_state, aniso_coarse_quad)
    assert prof.m_e is kern.m_e and prof.m_vp is kern.m_vp
    for name in ("m_e", "m_vp", "rep", "W", "halves"):
        with pytest.raises(ValueError):
            getattr(kern, name)[...] = 0.0
    with pytest.raises(ValueError):
        prof.m_e += 1.0
    got = vm.assemble_blocks(aniso_state, 0.3, basis, aniso_coarse_quad)
    assembly_kernel.cache_clear()
    want = vm.assemble_blocks(aniso_state, 0.3, basis, aniso_coarse_quad)
    for name in ("A1", "A2", "C", "l"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def _library_trees():
    src = os.path.dirname(vm.__file__)
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                yield name, ast.parse(fh.read())


def test_library_takes_no_species():
    # species + is the mirror of species - and the library computes species - only,
    # reading species + by relabeling: no routine takes a species or a sign, none
    # forms species + moment tables, and the two-species entry points are gone
    takers, named = [], []
    for name, tree in _library_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.arguments):
                takers += [(name, a.lineno, a.arg) for a in (*node.posonlyargs, *node.args,
                                                            *node.kwonlyargs, node.vararg,
                                                            node.kwarg)
                           if a is not None and a.arg in ("species", "sign")]
            if "species_pair_moments" in {getattr(node, key, None)
                                          for key in ("id", "attr", "name")}:
                named.append((name, node.lineno))
    assert takers == [] and named == [], (takers, named)
    assert not hasattr(characteristics, "normalize_species")
    assert not hasattr(vm.EquilibriumProfile, "mu")


def test_no_parameter_without_a_second_value_and_no_field_without_a_reader(weak_state):
    # every caller stepped the engine at default_dt, built the radius-default rule
    # and refined by 2; nothing but tests read the verdict's copy of its own
    # arguments, a profile's params, meta["period"], which repeats state.period,
    # the engine's winding, an eigensolve's residual, a count's total or
    # integrate_spatial
    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert "dt" not in params(ops._orbit_periods_batch)
    assert "dt" not in params(ops._orbit_stream)
    assert "r_max" not in params(vm.build_velocity_quadrature)
    assert params(vm.VelocityQuadrature.refined) == ["self"]
    assert [f.name for f in dataclasses.fields(vm.VerdictResult)] == ["verdict", "reason"]
    assert "params" not in {f.name for f in dataclasses.fields(vm.EquilibriumProfile)}
    assert sorted(weak_state.meta) == sorted(["epsilon", "residual_inf", "period_delta",
                                              "c1_norm", "critical_period"])
    lane = (np.array([c]) for c in (1.0, 1e-4, 0.05))
    assert len(ops._orbit_periods_batch(weak_state, *lane, 10.0)) == 2
    assert [f.name for f in dataclasses.fields(vm.EigenDecomposition)] == ["values", "vectors"]
    assert not hasattr(vm.CountReport, "total")
    assert not hasattr(vm, "integrate_spatial")


def test_every_result_member_has_a_reader_outside_the_tests():
    # every dataclass field and property of a library class is loaded as an
    # attribute somewhere in the library, the benchmark or the demos; names are
    # matched, not owners.  ResidualReport is exempt: its as_dict writes every field
    library = dict(_library_trees())
    trees = list(library.values())
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for folder in ("perfbench", "demos"):
        for name in sorted(os.listdir(os.path.join(root, folder))):
            if name.endswith(".py"):
                with open(os.path.join(root, folder, name)) as fh:
                    trees.append(ast.parse(fh.read()))
    loaded = {node.attr for tree in trees for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = []
    for module in (importlib.import_module("vmspec." + name[:-3]) for name in library
                   if name != "__init__.py"):
        for cls in vars(module).values():
            if not isinstance(cls, type) or cls.__module__ != module.__name__ \
                    or cls is vm.ResidualReport:
                continue
            names = [f.name for f in dataclasses.fields(cls)] if dataclasses.is_dataclass(cls) \
                else []
            names += [k for k, v in vars(cls).items()
                      if isinstance(v, (property, functools.cached_property))]
            unread += ["%s.%s" % (cls.__name__, n) for n in names if n not in loaded]
    assert unread == []


def test_only_operators_and_the_mode_know_the_assembly_kernel():
    # the homogeneous class table is derived from the state and the rule where
    # it is read: no routine takes it as a parameter, and only the assembly and
    # the mode's contraction name it
    takers, namers = set(), set()
    for name, tree in _library_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.arguments) and any(
                    a.arg == "kernel" for a in (*node.posonlyargs, *node.args,
                                                *node.kwonlyargs, node.vararg, node.kwarg)
                    if a is not None):
                takers.add(name)
            # a Name's id, an Attribute's attr, an import's or a definition's name
            if {getattr(node, key, None) for key in ("id", "attr", "name")} & {
                    "assembly_kernel", "AssemblyKernel"}:
                namers.add(name)
    assert not takers
    assert namers == {"operators.py", "growing_mode.py"}


def test_homogeneous_kernel_keeps_one_v1_per_class():
    # the CLI defaults: weakfield_family at P = 9.43, 79,872 nodes, n_x = 32.  The
    # kernel keeps the |vh1| of each class, not a (kmax+1, classes) table of the filter,
    # and class tables only: no field holds a value per node
    cfg = cli.RunConfig(profile_name="weakfield_family", period=9.43)
    profile, _, quad = cli._build_inputs(cfg)
    state = cli._build_state(cfg, profile, quad)
    kern = assembly_kernel(state, quad)
    assert quad.n_nodes == 79872 and kern.rep.ndim == 1
    assert kern.halves.shape == (2, 3, kern.rep.size)

    def arrays(v):
        if isinstance(v, (dict, tuple)):
            return [a for u in (v.values() if isinstance(v, dict) else v) for a in arrays(u)]
        return [v] if isinstance(v, np.ndarray) else []

    held = {f.name: arrays(getattr(kern, f.name)) for f in dataclasses.fields(kern)}
    total = sum(a.nbytes for group in held.values() for a in group)
    assert total <= 1.5 * 2 ** 20, total
    for name, group in held.items():
        for a in group:
            assert a.size != quad.n_nodes and quad.n_nodes not in a.shape, (name, a.shape)


def test_homogeneous_rate_forms_its_filter_one_block_of_rings_at_a_time():
    # the CLI defaults: one rate's moment profiles take what a block of rings
    # needs (0.3 MiB traced), not a (kmax+1, classes) filter (2.6 MiB)
    cfg = cli.RunConfig(profile_name="weakfield_family", period=9.43)
    profile, _, quad = cli._build_inputs(cfg)
    state = cli._build_state(cfg, profile, quad)
    basis = vm.build_fourier_basis(state.period, cfg.n_x)
    assembly_kernel(state, quad)        # built before tracing, so the bound measures one rate
    for lam in (0.0, 0.05):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            moment_profiles(state, lam, basis, quad)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 2 ** 20, (lam, peak)


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
    inertia = 2.0 * vm.integrate_velocity(paper_quad, lambda v1, v2: prof.mu_minus(
        np.sqrt(1 + v1**2 + v2**2), v2) * (1 + v1**2) / (1 + v1**2 + v2**2) ** 1.5)
    # with the normalized constant u0 = 1/sqrt(P), A2[0,0] = <A2 1, 1>/P
    got = blocks.A2[0, 0]
    assert got > 0
    assert abs(got - inertia) <= 1e-8 * inertia


def test_couplings_vanish_for_mirror_pairs(paper_state, aniso_state, paper_quad, aniso_quad):
    # on straight lines mu_e is even in v1, so C, the coupling of phi to
    # the mean field, cancels at every growth rate (B and D vanish for every
    # mirror pair and are not formed)
    for state, quad in ((paper_state, paper_quad), (aniso_state, aniso_quad)):
        basis = vm.build_fourier_basis(state.period, 8)
        for lam in (0.0, 0.5):
            blocks = vm.assemble_blocks(state, lam, basis, quad)
            assert np.max(np.abs(blocks.C)) <= 1e-12


def test_vanishing_moment_identity(paper_state, aniso_state, paper_quad, aniso_quad):
    # sum_s int (mu_p + v2hat mu_e) dv = 0: a perfect v2 derivative
    for state, quad in ((paper_state, paper_quad), (aniso_state, aniso_quad)):
        prof = state.profile
        total = 0.0
        for sign in (-1, +1):
            def integrand(v1, v2, s=sign):
                e = np.sqrt(1 + v1**2 + v2**2)
                mu_e, mu_p = mu_species(prof, s, e, v2)
                return mu_p + v2 / e * mu_e
            total += vm.integrate_velocity(quad, integrand)
        assert abs(total) <= 1e-8


def test_constant_function_is_null_for_first_block(weak_state, aniso_coarse_quad):
    # applied to the constant, the local and averaged terms cancel
    opts = EvalOptions(tol_sym=1e-3, n_per_period=96)
    basis = vm.build_fourier_basis(weak_state.period, 4)
    prof = moment_profiles(weak_state, 0.0, basis, aniso_coarse_quad, opts)
    assert np.max(np.abs(np.real(prof.T1[0]) - prof.m_e)) <= 1e-8 * np.max(np.abs(prof.m_e))


def test_species_relabel_matches_direct_moments(weak_state, aniso_coarse_quad):
    # the + trajectories are the v2-reflection of the - ones to roundoff
    # (1.0e-13 of m0 measured at this point), so relabeled nodes stand in for a
    # + pass, here species - on the negated potential: (m0, -m1, mv1) of species
    # - at the node theta_reflect_permutation gives
    quad, kmax, x = aniso_coarse_quad, 3, 0.7
    perm = theta_reflect_permutation(quad)
    for lam in (0.0, 0.4):
        m0, m1, mv1 = vm.node_moments(weak_state, lam, quad, kmax, x)
        direct = vm.node_moments(species_plus_state(weak_state), lam, quad, kmax, x)
        for got, want in zip((m0[..., perm], -m1[..., perm], mv1[..., perm]), direct):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), lam


def test_species_relabel_over_the_collocation_grid(weak_state, aniso_coarse_quad):
    # the relabel of the single-point check above, at every lane of an n_x = 2
    # assembly's orbit pass, against species + run as species - on the negated
    # potential.  Measured, relative to each moment's largest entry: resolved
    # lanes 1.8e-10 at lam = 0 and 3.0e-11 at 0.4, the lanes that did not close
    # 4.4e-10 and 1.5e-11
    quad, kmax = aniso_coarse_quad, 3
    x = vm.build_fourier_basis(weak_state.period, 2).x_grid
    perm = theta_reflect_permutation(quad)
    bounds = {0.0: (5e-10, 1e-9), 0.4: (1e-10, 5e-11)}     # resolved, cut
    for lam, (tol_resolved, tol_cut) in bounds.items():
        minus = vm.node_moments(weak_state, lam, quad, kmax, x)
        direct = vm.node_moments(species_plus_state(weak_state), lam, quad, kmax, x)
        resolved = direct.resolved
        assert np.array_equal(minus.resolved[:, perm], resolved) and (~resolved).any()
        for name, got, want in zip(("m0", "m1", "mv1"),
                                   (minus[0][..., perm], -minus[1][..., perm],
                                    minus[2][..., perm]), direct):
            diff = np.abs(got - want) / np.max(np.abs(want))
            assert np.max(diff[..., resolved]) <= tol_resolved, (lam, name)
            assert np.max(diff[..., ~resolved]) <= tol_cut, (lam, name)


def test_species_mu_mirrors_species_minus(weak_state, aniso_state, aniso_profile,
                                         aniso_coarse_quad):
    # species_mu calls the profile for species - alone, and its values are the
    # direct profile call's bit for bit; species + is checked where it is read,
    # in the mode (test_magnetized_species_plus_matches_a_direct_pass).  On 18
    # angles (2 mod 4) the class of pi/2 is its own image under theta -> pi - theta.
    prof, weight = aniso_profile
    quad18 = vm.build_velocity_quadrature(weight, kinks=prof.kinks, n_r=24, n_theta=18,
                                          n_r_tail=8)
    for state, quad in ((weak_state, aniso_coarse_quad), (aniso_state, quad18)):
        x = vm.build_fourier_basis(state.period, 4).x_grid
        got, want = species_mu(state, quad, x), species_mu_direct(state, quad, x)
        for name, g, w in zip(("mu_e", "mu_p"), got, want[-1]):
            assert np.array_equal(np.broadcast_to(g, w.shape), w), name


def test_species_mirror_doubles_and_cancels(weak_state, aniso_coarse_quad):
    # the assembly reads species - and doubles it: under mu+(e, p) = mu-(e, -p)
    # the + pass adds what the - pass adds to T1, T2, c, lint, m_e and m_vp,
    # and cancels it in T3, T4, d and m_p, the sums of B and D
    # (docs/DECISIONS.md section 4).  Both passes are direct here, and so are
    # both species' profile values.
    quad = aniso_coarse_quad
    basis = vm.build_fourier_basis(weak_state.period, 4)
    x = basis.x_grid
    vh1, vh2 = quad.v1 / quad.e, quad.v2 / quad.e
    mu = species_mu_direct(weak_state, quad, x)
    orbits = {-1: weak_state, +1: species_plus_state(weak_state)}
    for lam in (0.0, 0.4):
        sums = {}
        for sign in (-1, +1):
            m0, m1, mv1 = vm.node_moments(orbits[sign], lam, quad, 2, x)
            mu_e, mu_p = mu[sign]
            we = mu_e * quad.w
            sums[sign] = {
                "T1": np.einsum("kmn,mn->km", m0, we),
                "T2": np.einsum("kmn,mn->km", m1, we * vh2),
                "c": np.sum(we * mv1, axis=1), "lint": np.sum(we * vh1 * mv1, axis=1),
                "m_e": np.sum(we, axis=1), "m_vp": np.sum(vh2 * mu_p * quad.w, axis=1),
                "T3": np.einsum("kmn,mn->km", m1, we),
                "T4": np.einsum("kmn,mn->km", m0, we * vh2),
                "d": np.sum(we * vh2 * mv1, axis=1), "m_p": np.sum(mu_p * quad.w, axis=1)}
        minus, plus = sums[-1], sums[+1]
        for name in ("T1", "T2", "c", "lint", "m_e", "m_vp"):
            scale = np.max(np.abs(minus[name]))
            assert np.max(np.abs(plus[name] - minus[name])) <= 1e-10 * scale, (lam, name)
        for name in ("T3", "T4", "d", "m_p"):
            scale = np.max(np.abs(minus[name]))
            assert scale > 0.0, (lam, name)
            assert np.max(np.abs(plus[name] + minus[name])) <= 1e-10 * scale, (lam, name)


def test_generic_backend_matches_closed_forms(aniso_state, aniso_orbit_state, aniso_coarse_quad):
    basis = vm.build_fourier_basis(aniso_state.period, 4)
    lam = 0.8
    bt = vm.assemble_blocks(aniso_state, lam, basis, aniso_coarse_quad)
    bg = vm.assemble_blocks(aniso_orbit_state, lam, basis, aniso_coarse_quad,
                            EvalOptions(tol_sym=1e-4, n_per_period=192))
    assert np.max(np.abs(bt.A1 - bg.A1)) <= 1e-6 * np.max(np.abs(bt.A1))
    assert np.max(np.abs(bt.A2 - bg.A2)) <= 1e-6 * np.max(np.abs(bt.A2))
    assert abs(bt.l - bg.l) <= 1e-6 * abs(bt.l)


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
    # homogeneous state C is zero at every rate, so what is left of it is
    # roundoff: it is bounded, not asked to shrink.
    basis = vm.build_fourier_basis(aniso_state.period, 8)
    w = 2 * np.pi / aniso_state.period
    mz_k = basis.k_index[basis.k_index > 0]
    lap = np.diag((mz_k * w) ** 2)
    gaps = []
    for lam in (50.0 * w, 200.0 * w):
        blocks = vm.assemble_blocks(aniso_state, lam, basis, aniso_quad)
        gaps.append(np.max(np.abs(blocks.A1 - lap)))
        assert np.max(np.abs(blocks.C)) <= 1e-12, lam
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
    electric, magnetic = vm.assemble_M(blocks, n, modal)
    assert electric.shape == (n + 1, n + 1) and magnetic.shape == (n, n)
    w = 2 * np.pi / state.period
    got = np.sort(np.concatenate([vm.symmetric_eigen(M).values for M in (electric, magnetic)]))
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
    electric, magnetic = vm.assemble_M(blocks0, n, modal)
    # the phi-b coupling is frozen out at lam = 0
    assert np.max(np.abs(electric[:n, n])) == 0.0
    assert np.max(np.abs(electric[n, :n])) == 0.0
    # spectrum inclusion: every eigenvalue of a pencil comes from its diagonal blocks
    pools = ((electric, np.concatenate([-modal.a1_values[:n], [aniso_state.period * blocks0.l]])),
             (magnetic, modal.a2_values[:n]))
    for M, pool in pools:
        for v in vm.symmetric_eigen(M).values:
            assert np.min(np.abs(pool - v)) <= 1e-9 * max(1.0, abs(v))


def test_truncation_size_guard(aniso_state, aniso_quad):
    basis = vm.build_fourier_basis(aniso_state.period, 8)
    blocks0 = vm.assemble_blocks(aniso_state, 0.0, basis, aniso_quad)
    modal = vm.modal_truncation(blocks0)
    with pytest.raises(VmspecError, match="exceeds"):
        vm.assemble_M(blocks0, 99, modal)


def test_zero_rate_coupling_error_names_its_entry():
    # synthetic lam = 0 blocks on three modes: one C entry of 5e-3 in an
    # identity modal basis, where modal and basis indices agree
    eye = np.eye(3)
    C = np.zeros(3)
    C[1] = 5e-3
    blocks = ops.OperatorBlocks(lam=0.0, n_modes=2, period=1.0, A1=eye, A2=eye, C=C, l=-1.0)
    modal = ops.ModalBasis(np.ones(3), eye, np.ones(3), eye)
    with pytest.raises(AssemblyError) as err:
        vm.assemble_M(blocks, 3, modal)
    msg = str(err.value)
    assert "coupling C" in msg and "[1]" in msg and "5.000e-03" in msg
    assert "TOL_ZERO 1.0e-06" in msg


def test_symmetrize_error_names_the_worst_entry():
    Mx = np.diag([1.0, 2.0, 3.0])
    Mx[0, 2], Mx[2, 0] = 0.5, 0.5 + 1e-3
    with pytest.raises(AssemblyError) as err:
        ops._symmetrize(Mx, "A2", 1e-8, {})
    msg = str(err.value)
    assert "A2 asymmetry 1.000e-03" in msg and "(0, 2)" in msg


def test_symmetrize_rejects_non_finite_entries():
    # NaN compares False against the asymmetry bound, so it is checked first
    Mx = np.diag([1.0, 2.0, 3.0])
    Mx[1, 2] = Mx[2, 1] = Mx[2, 2] = np.nan
    with pytest.raises(AssemblyError, match=r"A2 has 3 non-finite entries, the first nan at "
                                            r"\(1, 2\)"):
        ops._symmetrize(Mx, "A2", 1e-8, {})


def test_rate_without_a_finite_nonzero_square_is_rejected(aniso_profile, aniso_coarse_quad):
    # at lam = 1e-300 the damping lam^2/(lam^2 + a^2) of row k = 0 is 0/0
    prof, _ = aniso_profile
    state = vm.make_homogeneous_state(prof, 2 * np.pi)
    basis = vm.build_fourier_basis(state.period, 8)
    for lam in (1e-300, 1e200, np.inf, np.nan, -1.0):
        with pytest.raises(VmspecError, match="finite nonzero square"):
            vm.assemble_blocks(state, lam, basis, aniso_coarse_quad)


def test_validation_and_orbit_moments_leave_numpy_ma_unloaded():
    # np.unique imports numpy.ma on its first call, 15-18 ms a process; the
    # validation grid and the period pass's stop rule must do without it
    src = os.path.dirname(os.path.dirname(os.path.abspath(vm.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "\n".join([
        "import sys, numpy as np, vmspec as vm",
        "prof, weight = vm.build_profile('weakfield_family')",
        "assert vm.validate_profile(prof, weight).passed",
        "quad = vm.build_velocity_quadrature(weight, kinks=prof.kinks, n_r=16, n_theta=16,",
        "                                    n_r_tail=4)",
        "state = vm.solve_equilibrium_potential(prof, 0.05, quad)",
        "assert not vm.node_moments(state, 0.0, quad, 1, 0.3).resolved.all()",
        "print('numpy.ma' in sys.modules)",
    ])
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"

