"""Acceptance criteria, one test per criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.

Two sub-claims inherited from the published homogeneous example are
expected to fail and are left failing on purpose, in three sub-checks:
c2.neg_a2_at_least_one, c2.verdict_unstable and c4.crossing_exists.  Any
other [FAIL] line is a bug.  The analysis lives in the
decisions ledger, docs/DECISIONS.md.  In short: for any mirror-paired
homogeneous equilibrium the constant-direction entry of the second field
operator equals the full transverse inertia sum_s int mu (1+v1^2)/e^3 dv,
which is strictly positive, so that operator cannot have a negative
eigenvalue for an energy-only profile and the counting criterion cannot
fire for it.  The proof uses straight-line paths; for magnetized states
the identity is open (on weak_state at lam = 0, A2[0,0] = 0.9285 against
an inertia of 0.9437) until the lam = 0 magnetized blocks are accurate.
The machinery itself is exercised end to end by the anisotropic member of
the weak-field family (see test_growing_mode.py), which is genuinely
unstable and passes every residual at the same tolerances.
"""

import time

import numpy as np
import pytest

import vmspec as vm
from reference import PhasePoint, SmoothingEvaluator, flow, mu_species
from vmspec.operators import EvalOptions

RING_EXACT = 1.5 - np.log(2.0)
TAIL_MOMENT_EXACT = np.sqrt(np.pi) / 2.0 + 2.0
TAIL_RING_PINNED = -2.5311167899453655     # pre-build dense-quadrature oracle


def _report(name, ok, detail=""):
    print("[%s] %s %s" % ("PASS" if ok else "FAIL", name, detail))
    return ok


# ---------------------------------------------------------------------------
# criterion 1: golden integrals of the kinked homogeneous profile
# ---------------------------------------------------------------------------

def test_criterion_1_golden_integrals(paper_profile, paper_quad):
    t0 = time.monotonic()
    prof, _ = paper_profile

    ring = vm.integrate_velocity(paper_quad, lambda v1, v2: np.where(
        v1**2 + v2**2 < 3.0, (v1**2 + v2**2) / (1 + v1**2 + v2**2), 0.0)) / (2 * np.pi)
    m_e = vm.integrate_velocity(paper_quad, lambda v1, v2: prof.mu_e(
        np.sqrt(1 + v1**2 + v2**2), v2))
    tail_moment = abs(m_e / (2 * np.pi) - 1.5)
    l0s = vm.integrate_velocity(paper_quad, lambda v1, v2: prof.mu_e(
        np.sqrt(1 + v1**2 + v2**2), v2) * v1**2 / (1 + v1**2 + v2**2))
    tail_ring = l0s / np.pi - RING_EXACT
    elapsed = time.monotonic() - t0

    ok = True
    ok &= _report("c1.ring_integral", abs(ring - RING_EXACT) <= 1e-8,
                  "got %.12f want %.12f" % (ring, RING_EXACT))
    ok &= _report("c1.tail_moment", abs(tail_moment - TAIL_MOMENT_EXACT) <= 1e-6,
                  "got %.12f want %.12f" % (tail_moment, TAIL_MOMENT_EXACT))
    ok &= _report("c1.tail_ring_window", abs(tail_ring - (-2.5)) <= 0.15,
                  "got %.6f" % tail_ring)
    ok &= _report("c1.tail_ring_pinned", abs(tail_ring - TAIL_RING_PINNED) <= 1e-6,
                  "got %.12f pin %.12f" % (tail_ring, TAIL_RING_PINNED))
    ok &= _report("c1.runtime", elapsed < 5.0, "%.2fs" % elapsed)
    assert ok


# ---------------------------------------------------------------------------
# criterion 2: counting criterion on the kinked homogeneous profile
# ---------------------------------------------------------------------------

def test_criterion_2_homogeneous_criterion(paper_profile):
    t0 = time.monotonic()
    prof, weight = paper_profile
    state = vm.make_homogeneous_state(prof, period=2 * np.pi)
    results = {}
    for tag, (n_r, n_th, n_x) in (("base", (96, 256, 32)), ("doubled", (192, 512, 64))):
        quad = vm.build_velocity_quadrature(weight, kinks=prof.kinks, n_r=n_r,
                                            n_theta=n_th)
        basis = vm.build_fourier_basis(state.period, n_x)
        blocks0 = vm.assemble_blocks(state, 0.0, basis, quad)
        modal = vm.modal_truncation(blocks0)
        neg_a1 = vm.count_eigenvalues(modal.a1_values).neg
        neg_a2 = vm.count_eigenvalues(modal.a2_values).neg
        ker_triv = vm.a2_kernel_trivial(modal.a2_values, state.homogeneous)
        v = vm.verdict(neg_a1, neg_a2, blocks0.l, ker_triv)
        results[tag] = (blocks0.l, neg_a1, neg_a2, v.verdict)
    elapsed = time.monotonic() - t0

    base, doubled = results["base"], results["doubled"]
    l0, neg_a1, neg_a2, verdict = base
    ok = True
    ok &= _report("c2.l0_negative", l0 < 0, "l0=%.6f" % l0)
    ok &= _report("c2.neg_a1_zero", neg_a1 == 0, "neg(A1)=%d" % neg_a1)
    # counts and verdict must agree exactly; l0 comes from two different
    # quadratures, so it is held to the relative 1e-6 that pins l elsewhere
    ok &= _report("c2.stable_under_doubling",
                  base[1:] == doubled[1:] and abs(doubled[0] - l0) <= 1e-6 * abs(l0),
                  "%s vs %s" % (base, doubled))
    ok &= _report("c2.runtime", elapsed < 120.0, "%.1fs" % elapsed)
    ok &= _report("c2.neg_a2_at_least_one", neg_a2 >= 1,
                  "neg(A2)=%d; the constant-mode entry is the positive "
                  "transverse inertia, see notes" % neg_a2)
    ok &= _report("c2.verdict_unstable", verdict == vm.UNSTABLE_T1,
                  "verdict=%s" % verdict)
    assert ok, ("the published homogeneous example cannot satisfy the counting "
                "criterion under the internally consistent operator signs; "
                "see the decisions ledger")


# ---------------------------------------------------------------------------
# criterion 3: counting identity and the large-rate count
# ---------------------------------------------------------------------------

def test_criterion_3_counting_identity(paper_profile, paper_quad):
    prof, _ = paper_profile
    state = vm.make_homogeneous_state(prof, period=2 * np.pi)
    basis = vm.build_fourier_basis(state.period, 32)
    blocks0 = vm.assemble_blocks(state, 0.0, basis, paper_quad)
    modal = vm.modal_truncation(blocks0)
    neg_a1 = vm.count_eigenvalues(modal.a1_values).neg
    neg_a2 = vm.count_eigenvalues(modal.a2_values).neg
    neg_l0 = 1 if blocks0.l < 0 else 0
    lam_max = 100.0 * 2 * np.pi / state.period
    blocks_max = vm.assemble_blocks(state, lam_max, basis, paper_quad)

    def total_neg(blocks, n):
        # both pencils, counted in the zero band of their joint spectrum
        return vm.count_eigenvalues(np.concatenate(
            [vm.symmetric_eigen(M).values for M in vm.assemble_M(blocks, n, modal)])).neg

    ok = True
    for n in (4, 8, 16):
        got = total_neg(blocks0, n)
        want = n - min(n, neg_a1) + min(n, neg_a2) + neg_l0
        ok &= _report("c3.identity_n%d" % n, got == want, "neg=%d want=%d" % (got, want))
        got_max = total_neg(blocks_max, n)
        ok &= _report("c3.large_rate_n%d" % n, got_max == n + 1,
                      "neg=%d want=%d" % (got_max, n + 1))
    assert ok


# ---------------------------------------------------------------------------
# criterion 4: kernel crossing end to end on the kinked profile
# ---------------------------------------------------------------------------

def test_criterion_4_kernel_crossing_end_to_end(paper_profile, paper_quad):
    prof, _ = paper_profile
    state = vm.make_homogeneous_state(prof, period=2 * np.pi)
    basis = vm.build_fourier_basis(state.period, 32)
    n = 8
    grid = vm.default_lambda_grid(state.period)
    sw = vm.sweep(state, basis, paper_quad, n, grid)
    found = bool(sw.crossings)
    _report("c4.crossing_exists", found,
            "counts over the sweep: %s" % sorted({c.neg for c in sw.counts}))
    if not found:
        assert found, ("no negative-count change anywhere on the sweep: the "
                       "energy-only profile has no kernel crossing at any rate "
                       "(the anisotropic family exercises this path instead); "
                       "see the decisions ledger")
    cr = vm.locate_kernel_for_state(sw)
    ok = _report("c4.lambda_star_interior", grid[0] < cr.lambda_star < grid[-1],
                 "lambda*=%.6f" % cr.lambda_star)
    mode = vm.reconstruct(sw, cr)
    rep = vm.residuals(mode, tol_residual=1e-4)
    ok &= _report("c4.residuals", rep.passed, str(rep.as_dict()))
    sw2 = vm.sweep(state, basis, paper_quad, 2 * n, grid)
    cr2 = vm.locate_kernel_for_state(sw2)
    ok &= _report("c4.rate_stability", abs(cr2.lambda_star - cr.lambda_star)
                  <= 0.05 * cr.lambda_star,
                  "%.6f vs %.6f" % (cr.lambda_star, cr2.lambda_star))
    assert ok


# ---------------------------------------------------------------------------
# criterion 5: operator property suite
# ---------------------------------------------------------------------------

def test_criterion_5_operator_properties(paper_profile, paper_state, paper_quad,
                                         weak_state):
    prof, _ = paper_profile
    ok = True

    # smoothing of the constant function
    ev = SmoothingEvaluator(paper_state, 1.0)
    got = ev.apply("-", lambda x, a, b: np.ones_like(x), PhasePoint(0.4, 0.6, -0.1))
    ok &= _report("c5.unit_average", abs(got - 1.0) <= 1e-9, "got %.12f" % got)

    # sampled operator norm
    w = 2 * np.pi / paper_state.period
    xs = np.linspace(0, paper_state.period, 4, endpoint=False)
    rng = np.random.default_rng(2)
    idx = rng.choice(paper_quad.n_nodes, size=24, replace=False)
    worst = 0.0
    for kfun in (lambda x, a, b: np.cos(w * x) * (1 + 0.5 * b / np.sqrt(1 + a*a + b*b)),
                 lambda x, a, b: np.sin(w * x) + 0.2 * np.cos(2 * w * x)):
        num = den = 0.0
        for x in xs:
            for j in idx:
                pt = PhasePoint(float(x), float(paper_quad.v1[j]), float(paper_quad.v2[j]))
                qv = ev.apply("-", kfun, pt)
                kv = float(kfun(np.asarray(pt.x), np.asarray(pt.v1), np.asarray(pt.v2)))
                wgt = paper_quad.w[j]
                num += wgt * qv * qv
                den += wgt * kv * kv
        worst = max(worst, np.sqrt(num / den))
    ok &= _report("c5.sampled_norm", worst <= 1.0 + 1e-6, "max ratio %.8f" % worst)

    # strong convergence towards the orbit average as the rate shrinks
    h = lambda x, a, b: np.cos(w * x)
    pts = [PhasePoint(float(x), float(paper_quad.v1[j]), float(paper_quad.v2[j]))
           for x in xs for j in idx[:8]]
    norms = []
    for lam in (1.0, 1e-1, 1e-2, 1e-3):
        evl = SmoothingEvaluator(paper_state, lam, k_osc=1)
        vals = [evl.apply("-", h, pt) ** 2 for pt in pts]
        norms.append(np.sqrt(np.mean(vals)))
    ok &= _report("c5.vanishing_rate_monotone", all(np.diff(norms) < 0),
                  "norms " + " ".join("%.2e" % v for v in norms))

    # trajectory conservation over a long window
    drift = 0.0
    for pt in (PhasePoint(0.7, 0.8, 0.3), PhasePoint(2.4, -0.5, 0.9)):
        out = flow(weak_state, "-", pt, -50.0)
        drift = max(drift, abs(out.energy - pt.energy),
                    abs(out.momentum(weak_state, "-") - pt.momentum(weak_state, "-")))
    ok &= _report("c5.conservation", drift <= 1e-8, "max drift %.2e" % drift)

    # assembled-matrix symmetry defect
    basis = vm.build_fourier_basis(paper_state.period, 32)
    blocks = vm.assemble_blocks(paper_state, 1.0, basis, paper_quad)
    defect = max(blocks.defects["A1"], blocks.defects["A2"])
    ok &= _report("c5.symmetry_defect", defect <= 1e-8, "relative %.2e" % defect)

    # perfect-derivative moment
    total = 0.0
    for sign in (-1, +1):
        def integrand(v1, v2, s=sign):
            e = np.sqrt(1 + v1**2 + v2**2)
            mu_e, mu_p = mu_species(prof, s, e, v2)
            return mu_p + v2 / e * mu_e
        total += vm.integrate_velocity(paper_quad, integrand)
    ok &= _report("c5.vanishing_moment", abs(total) <= 1e-8, "%.2e" % total)

    # the coupling at zero rate (B and D vanish under the species mirror)
    blocks0 = vm.assemble_blocks(paper_state, 0.0, basis, paper_quad)
    worst0 = np.max(np.abs(blocks0.C))
    ok &= _report("c5.couplings_vanish", worst0 <= 1e-6, "max %.2e" % worst0)
    assert ok


# ---------------------------------------------------------------------------
# criterion 6: manufactured-solution equivalence
# ---------------------------------------------------------------------------

def test_criterion_6_manufactured_equivalence(paper_state, paper_quad):
    basis = vm.build_fourier_basis(paper_state.period, 32)
    rng = np.random.default_rng(42)
    worst = 0.0
    for lam in (0.5, 2.0):
        blocks = vm.assemble_blocks(paper_state, lam, basis, paper_quad)
        for _ in range(10):
            phi = rng.standard_normal(basis.n_functions)
            phi[0] = 0.0
            psi = rng.standard_normal(basis.n_functions)
            b = float(rng.standard_normal())
            mode = vm.from_coefficients(paper_state, lam, phi, psi, b, basis, paper_quad)
            d1p, d2p, d3p, _ = vm.physical_defect_coeffs(mode)
            d1o, d2o, d3o = vm.operator_defect_coeffs(blocks, mode)
            scale = max(np.max(np.abs(d1o)), np.max(np.abs(d2o)), abs(d3o), 1e-12)
            worst = max(worst, np.max(np.abs(d1p - d1o)) / scale,
                        np.max(np.abs(d2p - d2o)) / scale, abs(d3p - d3o) / scale)
    assert _report("c6.equivalence", worst <= 1e-6,
                   "20 random vectors at two rates, worst %.2e" % worst)


# ---------------------------------------------------------------------------
# criterion 7: weak-field family
# ---------------------------------------------------------------------------

def test_criterion_7_weakfield_family(aniso_profile):
    prof, weight = aniso_profile
    quad = vm.build_velocity_quadrature(weight, kinks=prof.kinks, n_r=32, n_theta=32,
                                        n_r_tail=8)
    cc = vm.check_center_conditions(prof, quad)
    ok = _report("c7.center_conditions", cc.ok,
                 "g0=%.2e g'(0)=%.6f critical period %.6f"
                 % (cc.g0, cc.gprime0, cc.critical_period))
    periods = []
    for eps in (0.2, 0.1, 0.05):
        st = vm.solve_equilibrium_potential(prof, eps, quad)
        periods.append(st.period)
        ok &= _report("c7.residual_eps%g" % eps, st.meta["residual_inf"] <= 1e-6,
                      "%.2e" % st.meta["residual_inf"])
    ok &= _report("c7.period_convergence",
                  abs(periods[-1] / cc.critical_period - 1.0) <= 0.02,
                  "T/Pcr = %.6f" % (periods[-1] / cc.critical_period))

    # smallness condition: evaluated and reported, not asserted
    sup_mu_e = float(np.max(prof.mu_e(quad.e, quad.v2)))
    bad = prof.mu_e(quad.e, quad.v2) > 0
    s_b = float(np.sum(quad.w[bad]))
    bound = np.pi**2 / (3.0 * cc.critical_period**2 * s_b)
    _report("c7.smallness_reported", True,
            "sup mu_e = %.4f vs pi^2/(3 Pcr^2 |S_b|) = %.4f -> %s"
            % (sup_mu_e, bound, "holds" if sup_mu_e < bound else "fails"))

    # verdict at the configured amplitude: reported, not asserted
    state = vm.solve_equilibrium_potential(prof, 0.05, quad)
    basis = vm.build_fourier_basis(state.period, 8)
    opts = EvalOptions(tol_sym=1e-3, n_per_period=128)
    blocks0 = vm.assemble_blocks(state, 0.0, basis, quad, opts)
    modal = vm.modal_truncation(blocks0)
    neg_a1 = vm.count_eigenvalues(modal.a1_values).neg
    neg_a2 = vm.count_eigenvalues(modal.a2_values).neg
    ker_triv = vm.a2_kernel_trivial(modal.a2_values, state.homogeneous)
    try:
        v = vm.verdict(neg_a1, neg_a2, blocks0.l, ker_triv)
        verdict_line = v.verdict + " | " + v.reason
    except vm.errors.HypothesisError as exc:
        verdict_line = "INCONCLUSIVE | " + str(exc)
    _report("c7.verdict_reported", True,
            "eps=0.05: l0=%.6f neg(A1)=%d neg(A2)=%d -> %s"
            % (blocks0.l, neg_a1, neg_a2, verdict_line))
    assert ok
