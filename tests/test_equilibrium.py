import tracemalloc

import numpy as np
import pytest
import reference

import vmspec as vm
from vmspec.equilibrium import _scalar_spline, _well_samples
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
    assert "(e, p) = (%r, %r)" % (err.value.e, err.value.p) in str(err.value)


def _dipped(prof):
    """``prof`` minus a bump near e = 3 and p = 5: negative there."""
    bump = lambda e, p: 0.02 * np.exp(-(e - 3.0) ** 2 - 0.1 * (p - 5.0) ** 2)
    return vm.EquilibriumProfile(lambda e, p: prof.mu_minus(e, p) - bump(e, p),
                                 lambda e, p: prof.mu_minus_e(e, p) + 2.0 * (e - 3.0) * bump(e, p),
                                 lambda e, p: prof.mu_minus_p(e, p) + 0.2 * (p - 5.0) * bump(e, p),
                                 kinks=prof.kinks, name="dipped")


def test_blocked_validation_matches_the_one_grid_reference(paper_profile, aniso_profile):
    # the report, worst decay point included, is the whole grid's: on the two
    # named profiles, on one that goes negative and fails the decay bound, and
    # on one whose bound ties along every momentum row (the first point wins)
    grow = vm.EquilibriumProfile(lambda e, p: e * np.ones_like(p),
                                 lambda e, p: np.ones(np.broadcast(e, p).shape),
                                 lambda e, p: np.zeros(np.broadcast(e, p).shape), name="growing")
    dipped = _dipped(aniso_profile[0])
    cases = [paper_profile, aniso_profile, (dipped, aniso_profile[1]),
             (dipped, vm.WeightSpec(c=1e-3, alpha=3.0)), (grow, vm.WeightSpec(c=100.0, alpha=3.0))]
    for prof, weight in cases:
        got, want = vm.validate_profile(prof, weight), reference.validate_profile(prof, weight)
        assert got == want, (prof.name, got, want)
    assert not vm.validate_profile(dipped, aniso_profile[1]).passed
    assert vm.validate_profile(dipped, aniso_profile[1]).max_negativity > 0.0


def test_blocked_validation_names_the_first_non_finite_point():
    # the grid's order decides, function by function: mu's first NaN (at high
    # energy, in a late block) wins over mu_e's (in the first block), mu_e's
    # over mu_p's
    nan_at = lambda lo, hi: (lambda e, p: np.where((e > lo) & (e < hi) & (p > 3.0), np.nan, 0.0)
                             + 0.0 * p)
    zero = lambda e, p: np.zeros(np.broadcast(e, p).shape)
    weight = vm.WeightSpec(c=1.0, alpha=3.0)
    for fns in ((nan_at(500.0, 1e9), nan_at(1.0, 1.5), zero),
                (zero, nan_at(1.0, 1.5), nan_at(1.0, 1.2)),
                (zero, zero, nan_at(40.0, 50.0))):
        prof = vm.EquilibriumProfile(*fns, name="nan")
        with pytest.raises(ProfileEvaluationError) as got:
            vm.validate_profile(prof, weight)
        with pytest.raises(ProfileEvaluationError) as want:
            reference.validate_profile(prof, weight)
        assert (got.value.e, got.value.p) == (want.value.e, want.value.p)


def test_validation_walks_its_grid_in_small_blocks(paper_profile, aniso_profile):
    # the CLI's two profiles: the whole 503 x 241 grid of three functions took
    # 8.3 MiB traced; a block of energies takes well under 1 MiB
    for prof, weight in (paper_profile, aniso_profile):
        tracemalloc.start()
        try:
            vm.validate_profile(prof, weight)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 ** 20, (prof.name, peak)


def test_species_reflection_integral_identity(aniso_profile, aniso_quad):
    # total |mu_e| mass of one species equals the other's after p -> -p
    prof, _ = aniso_profile
    e = aniso_quad.e
    plus = vm.integrate_velocity(aniso_quad,
                                 lambda v1, v2: np.abs(reference.mu_species(prof, "+", e, v2)[0]))
    minus = vm.integrate_velocity(aniso_quad, lambda v1, v2: np.abs(prof.mu_e(e, -v2)))
    assert abs(plus - minus) <= 1e-10 * max(abs(plus), 1e-300)


def test_negated_potential_is_the_exact_mirror(paper_state, aniso_state, weak_state):
    # the tests run species + as species - on MagneticPotential(P, -samples)
    # (reference.species_plus_state); that is exact only while b, psi and d2psi come
    # out exactly negated, at the unwrapped and negative x of the orbit engine's
    # horizon of 25 periods, and for 0-d input
    rng = np.random.default_rng(3)
    pots = [s.potential for s in (weak_state, paper_state, aniso_state)]
    for pot in pots + [vm.MagneticPotential.zero(2 * np.pi)]:
        neg = vm.MagneticPotential(pot.period, -pot.samples)
        x = np.concatenate([np.linspace(-25.0, 25.0, 2001),
                            rng.uniform(-25.0, 25.0, 2000)]) * pot.period
        for name in ("b", "psi", "d2psi"):
            got, want = getattr(neg, name), getattr(pot, name)
            assert np.array_equal(got(x), -want(x)), (pot.period, name)
            assert got(np.float64(x[7])) == -want(np.float64(x[7])), (pot.period, name)
        assert (neg.even, neg.b_max) == (pot.even, pot.b_max)
    # a zero well's negated samples are -0.0, and the state is still homogeneous
    neg_zero = vm.MagneticPotential(2 * np.pi, -np.zeros(64))
    assert np.signbit(neg_zero.samples).all()
    assert vm.EquilibriumState(paper_state.profile, neg_zero).homogeneous


def test_energy_floor_is_enforced(paper_profile):
    prof, _ = paper_profile
    with pytest.raises(VmspecError, match="floor"):
        prof.mu_e(np.array([0.5]), np.array([0.0]))
    with pytest.raises(VmspecError, match="floor"):
        prof.mu_p(np.array([0.5]), np.array([0.0]))


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
        v2 / np.sqrt(1 + v1**2 + v2**2)) * prof.mu_p(np.sqrt(1 + v1**2 + v2**2), v2))
    assert abs(cc.gprime0 - (-2.0 * moment)) <= 1e-6 * abs(cc.gprime0)


def test_center_conditions_zero_profile(zero_profile, aniso_quad):
    prof, _ = zero_profile
    cc = vm.check_center_conditions(prof, aniso_quad, refine_check=False)
    assert cc.g0 == 0.0 and cc.gprime0 == 0.0
    assert not cc.ok


def test_harmonic_oscillator_hook():
    # with g = -psi the well is exactly harmonic: psi = -eps cos x, T = 2 pi
    T, samples, _ = _well_samples(lambda s: -s, 0.3, -1.0)
    assert abs(T - 2 * np.pi) <= 1e-8
    x = np.linspace(0, T, 64, endpoint=False)
    assert np.max(np.abs(vm.MagneticPotential(T, samples).psi(x) - (-0.3 * np.cos(x)))) <= 1e-8


def test_scalar_spline_matches_cubic_spline():
    # not-a-knot reproduces any cubic, on uneven knots and beyond the ends
    xc = np.sort(np.random.default_rng(1).uniform(-1.0, 1.0, 40))
    cubic = np.polynomial.Polynomial([0.3, -2.0, 0.5, 3.0])
    gc = _scalar_spline(xc, cubic(xc))
    assert max(abs(gc(float(s)) - cubic(s)) for s in np.linspace(-1.1, 1.1, 221)) <= 1e-12

    # the well ODE's spline is scipy's not-a-knot CubicSpline up to roundoff:
    # the same knot slopes, solved for another way
    from scipy.interpolate import CubicSpline
    x = np.linspace(-0.15, 0.15, 321)
    y = np.sin(7.0 * x) - x ** 3 + 0.1 * np.cos(40.0 * x)
    g, sp = _scalar_spline(x, y), CubicSpline(x, y)
    pts = np.concatenate([x, [-0.3, -0.2, 0.2, 0.3],       # knots, then beyond both ends
                          np.random.default_rng(0).uniform(-0.15, 0.15, 1000)])
    got, want = np.array([g(float(s)) for s in pts]), sp(pts)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13
    # each piece starts at its knot's value, so every knot but the last is exact
    assert np.array_equal(got[:x.size - 1], y[:-1])


def test_not_a_center_at_large_amplitude():
    with pytest.raises(OrbitError, match="center"):
        _well_samples(lambda s: -s + s**3, 1.5, -1.0)       # basin |psi| < 1


def test_well_without_a_center_raises(zero_profile):
    # g'(0) >= 0 has no linearized period: an error, not a division by zero
    for gprime0 in (1.0, 0.0):
        with pytest.raises(OrbitError, match="not a center"):
            _well_samples(lambda s: s, 0.1, gprime0)
    prof, weight = zero_profile
    quad = vm.build_velocity_quadrature(weight, kinks=prof.kinks, n_r=16, n_theta=16, n_r_tail=4)
    with pytest.raises(OrbitError):
        vm.find_center_amplitude(prof, quad)


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


def _synth_by_harmonic(pot, x, order):
    """The per-harmonic loop the Horner tables replaced, kept as the
    reference; returns the value and sum |a_k| of the terms it adds."""
    n = pot.samples.size
    coef = np.fft.rfft(pot.samples) / n
    scale = max(1.0, float(np.abs(coef).max()))
    keep = np.abs(coef) > 1e-14 * scale
    keep[0] = True
    keep[n // 2:] = False
    omega = 2.0 * np.pi / pot.period
    x = np.asarray(x, dtype=float)
    acc = np.zeros(np.shape(x), dtype=complex)
    z = np.exp(1j * omega * x)
    pw = np.ones_like(z)
    kprev, size = 0, 0.0
    for k in np.nonzero(keep)[0]:
        for _ in range(k - kprev):
            pw = pw * z
        kprev = k
        a = (1j * k * omega) ** order * (coef[k] if k == 0 else 2.0 * coef[k])
        acc = acc + a * pw
        size += abs(a)
    return np.real(acc), size


def test_horner_synthesis_matches_the_harmonic_loop(weak_state, aniso_profile,
                                                   aniso_coarse_quad):
    # psi and d2psi sum about 2K roundings of sum |a_k| in float64; b reads
    # a degree-6 Taylor table whose remainder bound is 2^-60 of b_max and
    # whose rows carry the inverse FFT's roundoff.  Either is a few 1e-15 of
    # sum |a_k|, here with K = 9, 20 and 145 harmonics (weak field, eps 0.4
    # and 1.025), so 1e-13 leaves a wide margin.  x is not wrapped, as in
    # the period detector.  The zero potential's field is exactly 0.
    prof, _ = aniso_profile
    pots = [weak_state.potential, vm.MagneticPotential.zero(6.0)]
    pots += [vm.solve_equilibrium_potential(prof, eps, aniso_coarse_quad).potential
             for eps in (0.4, 1.025)]
    assert [p._tables[1].size - 1 for p in pots[2:]] == [20, 145]
    rng = np.random.default_rng(3)
    for pot in pots:
        P = pot.period
        inputs = [np.float64(0.37 * P), 25.0 * P, np.array([-2.9 * P]),
                  rng.uniform(-3.0 * P, 25.0 * P, size=(7, 40))]
        for order, fn in enumerate((pot.psi, pot.b, pot.d2psi)):
            for x in inputs:
                got = fn(x)
                want, size = _synth_by_harmonic(pot, x, order)
                assert np.shape(got) == np.shape(x)
                assert np.max(np.abs(got - want)) <= 1e-13 * size
        # the field is a spectral derivative: its mean over one period vanishes
        _, size = _synth_by_harmonic(pot, 0.0, 1)
        assert abs(np.mean(pot.b(pot.samples_x))) <= 1e-13 * size
        assert pot.b_max == np.max(np.abs(pot.b(pot.samples_x)))
        # a non-finite position gives NaN, with no warning (warnings are errors)
        assert np.isnan(pot.b(np.nan))
        assert np.isnan(pot.b(np.array([0.3, np.nan]))[1])
    assert pots[1].b_max == 0.0
    assert not np.any(pots[1].b(rng.uniform(-20.0, 200.0, size=300)))
    # one full-size harmonic at k = 180 needs the largest table, L = 2^16;
    # at k = 200 no table up to that size meets the remainder bound
    wave = lambda k: np.cos(2.0 * np.pi * k * np.arange(1024) / 1024)
    assert vm.MagneticPotential(6.0, wave(180))._table_size == 2 ** 16
    with pytest.raises(VmspecError, match="field table"):
        vm.MagneticPotential(6.0, wave(200))


def test_find_center_amplitude_reports_positive_basin(aniso_profile, aniso_coarse_quad):
    prof, _ = aniso_profile
    eps0 = vm.find_center_amplitude(prof, aniso_coarse_quad, eps_start=0.02, eps_cap=0.5,
                                    iters=3)
    assert eps0 >= 0.5 or eps0 > 0.02


def test_find_center_amplitude_bisects_below_the_cap(aniso_profile, aniso_coarse_quad):
    # doubling from 0.05 closes at 0.8 and fails at 1.6, well below the cap of 2,
    # so the result comes from bisecting [0.8, 1.6): 1.1 after 4 halvings and
    # 1.1375 after 8, which must stay inside the 4-halving bracket
    prof, _ = aniso_profile
    coarse, fine = (vm.find_center_amplitude(prof, aniso_coarse_quad, eps_start=0.05,
                                             eps_cap=2.0, iters=k) for k in (4, 8))
    assert 0.8 <= coarse < 2.0
    assert coarse <= fine < coarse + (1.6 - 0.8) / 2 ** 4


def test_even_flags_wells_sampled_from_a_turning_point(aniso_profile, aniso_coarse_quad):
    # the well starts at its turning point x = 0, so psi0 is even about it;
    # the odd part of the samples is roundoff (2.4e-12 on the benchmark's
    # 832-node rule), far inside the 1e-9 representation bound
    prof, _ = aniso_profile
    for eps in (0.049, 0.0495, 0.05):
        pot = vm.solve_equilibrium_potential(prof, eps, aniso_coarse_quad).potential
        assert pot.even, eps
    # two cells of the same well are even about x = 0 as well
    two = vm.MagneticPotential(2 * pot.period, np.tile(pot.samples, 2))
    assert two.even
    # a shifted well is not
    assert not vm.MagneticPotential(pot.period, np.roll(pot.samples, 3)).even
