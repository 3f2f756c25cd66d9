"""Equilibrium inputs: distribution profiles, magnetic potentials, states.

A profile is the electron-side density mu_minus(e, p) together with its
partial derivatives; the ion side is always the mirror mu_plus(e, p) =
mu_minus(e, -p), which guarantees zero equilibrium charge density.  States
pair a profile with a periodic magnetic potential psi0(x); the homogeneous
members have psi0 identically zero.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .discretization import BLOCK_NODES, integrate_velocity
from .errors import OrbitError, ProfileEvaluationError, QuadratureError, VmspecError

ENERGY_FLOOR = 1.0
TOL_EQUIL = 1e-6            # sup |psi0'' - g(psi0)| allowed on the residual points
RESIDUAL_POINTS = 64
_ROUNDER = 1.5 * 2.0 ** 52     # x + _ROUNDER - _ROUNDER == rint(x) for |x| < 2^51


@dataclass(frozen=True)
class WeightSpec:
    """Decay envelope w(e) = c (1+|e|)^(-alpha); alpha > 2 keeps it integrable."""

    c: float
    alpha: float

    def __post_init__(self):
        if not 0 < self.c < np.inf:
            raise VmspecError("weight.c must be finite and positive, got %r" % (self.c,))
        if not 2.0 < self.alpha < np.inf:
            raise VmspecError("weight.alpha must be finite and exceed 2, got %r" % (self.alpha,))

    def __call__(self, e):
        return self.c * (1.0 + np.abs(e)) ** (-self.alpha)


@dataclass(frozen=True)
class EquilibriumProfile:
    """mu_minus(e, p) >= 0 with derivatives, plus declared kink energies.

    ``mu_e`` and ``mu_p`` evaluate species -'s derivatives above the energy
    floor.  The ions are the mirror mu_plus(e, p) = mu_minus(e, -p), which is
    never evaluated: every reader takes species + from species - by relabeling.
    ``kinks`` lists energies where the profile is only piecewise smooth;
    radial quadratures split panels there instead of smoothing the profile.
    """

    mu_minus: callable
    mu_minus_e: callable
    mu_minus_p: callable
    kinks: tuple = ()
    name: str = "custom"

    def _check(self, e):
        e = np.asarray(e, dtype=float)
        if np.any(e < ENERGY_FLOOR - 1e-12):
            raise VmspecError("energy below the relativistic floor e >= 1")
        return e

    def mu_e(self, e, p):
        return self.mu_minus_e(self._check(e), p)

    def mu_p(self, e, p):
        return self.mu_minus_p(self._check(e), p)


# ---------------------------------------------------------------------------
# profile validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationReport:
    max_negativity: float
    max_decay_violation: float
    tol: float
    passed: bool
    worst_decay_point: tuple = None

    def summary(self):
        return ("negativity=%.3e decay=%.3e -> %s"
                % (self.max_negativity, self.max_decay_violation,
                   "pass" if self.passed else "FAIL"))


def validate_profile(profile, weight, tol_validate=1e-12):
    """Check nonnegativity and the decay bound on a grid, a block of energies at a time:
    500 energies up to where w drops by 1e12, 241 momenta on [-40, 40]."""
    e_max = (1.0 + ENERGY_FLOOR) * (1e12) ** (1.0 / weight.alpha)   # w(e_max) < 1e-12 w(1)
    # log-spaced energies resolve the near-floor region; kink neighborhoods added
    e = np.sort(np.concatenate([
        1.0 + np.geomspace(1e-9, e_max - 1.0, 500),
        np.concatenate([[k - 1e-9, k, k + 1e-9] for k in profile.kinks]) if profile.kinks else [],
        [ENERGY_FLOOR],
    ]))
    e = e[np.r_[True, e[1:] != e[:-1]]]     # drop repeats (np.unique loads numpy.ma)
    p = np.linspace(-40.0, 40.0, 241)
    rows = max(1, BLOCK_NODES // p.size)
    neg, top, worst, bad = 0.0, -np.inf, None, {}
    for lo in range(0, e.size, rows):
        E, Pm = np.meshgrid(e[lo:lo + rows], p, indexing="ij")
        mu, mu_e, mu_p = vals = [np.asarray(fn(E, Pm), dtype=float) for fn in
                                 (profile.mu_minus, profile.mu_minus_e, profile.mu_minus_p)]
        for j, v in enumerate(vals):             # mu's first non-finite point wins, then mu_e's
            if j not in bad and not np.all(np.isfinite(v)):
                i = tuple(np.argwhere(~np.isfinite(v))[0])
                bad[j] = (float(E[i]), float(Pm[i]))
        if not bad:
            neg = max(neg, float(np.max(-mu)))
            bound = np.abs(mu_e) + np.abs(mu_p) - weight(E)
            i = np.unravel_index(np.argmax(bound), bound.shape)
            if bound[i] > top:
                top, worst = float(bound[i]), (float(E[i]), float(Pm[i]))
    if bad:
        raise ProfileEvaluationError("profile evaluation failure", *bad[min(bad)])
    decay = max(0.0, top)
    passed = (neg <= tol_validate) and (decay <= tol_validate)
    return ValidationReport(neg, decay, tol_validate, passed, worst_decay_point=worst)


# ---------------------------------------------------------------------------
# magnetic potential and state
# ---------------------------------------------------------------------------

class MagneticPotential:
    """Periodic psi0 represented by uniform samples and truncated harmonics.

    The field b0 = dpsi0/dx is the exact spectral derivative, so its mean
    over one period vanishes identically.  One coefficient table per
    derivative order, a_k = (1 if k == 0 else 2) (i k omega)^order c_k on
    k = 0..max kept k with zeros at dropped harmonics, is built once here.
    ``psi`` and ``d2psi`` sum it directly, one exp(i omega x) and one
    Horner pass over the harmonics (``_synth``, the spectral reference).
    ``b``, which the orbit marches call at every RK4 stage, reads a local
    Taylor table instead: rows b0^(m)(x_j)/m!, m = 0..6, at L uniform
    points x_j = jP/L, each row one inverse FFT.  L is the smallest power
    of two >= 256 whose remainder bound sum_k |b_k| (k omega P/2L)^7/7!
    is at most 2^-60 of max |b| (docs/DECISIONS.md section 8), so an
    evaluation is a gather and a degree-6 Horner pass in x - x_j, whatever
    the number of harmonics.  ``b_max`` is max |b| on the samples, also
    computed once.  ``even`` says that psi0 is even about x = 0 (so b0 is
    odd): the odd part of the samples, max |Im c_k|, is within the
    representation bound 1e-9.
    """

    TAYLOR_ORDER = 6
    MAX_TABLE = 2 ** 16

    def __init__(self, period, samples):
        self.period = float(period)
        samples = np.asarray(samples, dtype=float)
        if samples.ndim != 1 or samples.size < 8:
            raise VmspecError("potential needs at least 8 uniform samples")
        self.samples = samples
        n = samples.size
        coef = np.fft.rfft(samples) / n
        # representation error proxy: energy in the top quarter of the
        # spectrum plus the Nyquist coefficient, which the synthesis drops
        scale = max(1.0, float(np.abs(coef).max()))
        tail = float(np.sum(np.abs(coef[(3 * n) // 8:])))
        if tail > 1e-9 * scale:
            raise VmspecError("potential sample representation above 1e-9: %.3e" % tail)
        self.even = float(np.max(np.abs(coef.imag))) <= 1e-9 * scale
        keep = np.abs(coef) > 1e-14 * scale
        keep[0] = True
        keep[n // 2:] = False      # drop the ambiguous Nyquist term
        kmax = np.flatnonzero(keep)[-1]
        a = np.where(keep, coef, 0.0)[:kmax + 1]
        a[1:] *= 2.0
        k = np.arange(kmax + 1)
        self._omega = 2.0 * np.pi / self.period
        self._tables = [a * (1j * k * self._omega) ** order for order in range(3)]
        self._build_field_table()
        self.b_max = float(np.max(np.abs(self.b(self.samples_x))))

    def _build_field_table(self):
        """Rows b0^(m)(x_j)/m! at x_j = jP/L, m = 0..TAYLOR_ORDER, for the
        smallest admissible L (see the class docstring)."""
        bk = self._tables[1]
        k = np.arange(bk.size)
        # the rule's scale: max |b| on the samples, spectrally
        n = self.samples.size
        b_ref = float(np.max(np.abs(np.fft.irfft(0.5 * bk, n) * n)))
        # the Taylor remainder at |x - x_j| <= P/2L is at most tail / L^(order+1);
        # L > 2K keeps every harmonic below the table's Nyquist
        order = self.TAYLOR_ORDER
        tail = float(np.sum(np.abs(bk) * (np.pi * k) ** (order + 1))) / math.factorial(order + 1)
        L = 256
        while L <= 2 * k[-1] or tail / L ** (order + 1) > 2.0 ** -60 * b_ref:
            L *= 2
            if L > self.MAX_TABLE:
                raise VmspecError("field table needs more than %d points for %d harmonics"
                                  % (self.MAX_TABLE, k[-1]))
        m = np.arange(order + 1)[:, None]
        fact = np.array([math.factorial(i) for i in range(order + 1)])[:, None]
        # Re sum_k c_k exp(2 pi i k j / L) = L irfft(c / 2) for k >= 1; b_0 = 0
        rows = np.fft.irfft(0.5 * bk * (1j * k * self._omega) ** m / fact, L, axis=1) * L
        self._rows = tuple(rows)
        self._table_size = L
        self._spacing = self.period / L
        self._per_point = L / self.period

    def _synth(self, x, order):
        a = self._tables[order]
        z = np.exp(1j * self._omega * np.asarray(x, dtype=float))
        acc = np.full(z.shape, a[-1])
        for c in a[-2::-1]:
            acc = acc * z      # not in place: 0-d input then stays a numpy
            acc += c           # scalar, far cheaper than a 0-d array
        return acc.real

    def psi(self, x):
        return self._synth(x, 0)

    def b(self, x):
        """b0 at ``x`` (any shape, unwrapped or negative) from the Taylor
        table: j = rint(x / h) and d = x - j h with h = P/L, then Horner in
        d over the rows gathered at j mod L.  Adding 1.5 * 2^52 rounds x / h
        to the nearest integer in the low mantissa bits, where the int64
        view reads j mod L with no float-to-int cast, so a NaN x gives NaN
        with no warning; exact for |x / h| < 2^51."""
        y = np.multiply(x, self._per_point) + _ROUNDER
        i = y.view(np.int64) & (self._table_size - 1)
        d = x - (y - _ROUNDER) * self._spacing
        rows = self._rows
        acc = rows[-1].take(i)
        for row in rows[-2::-1]:
            acc *= d           # a fresh array, or a numpy scalar on 0-d input
            acc += row.take(i)
        return acc

    def d2psi(self, x):
        return self._synth(x, 2)

    @property
    def samples_x(self):
        n = self.samples.size
        return np.arange(n) * self.period / n

    @classmethod
    def zero(cls, period):
        return cls(period, np.zeros(64))


class EquilibriumState:
    """Profile plus periodic potential; the object every evaluator consumes."""

    def __init__(self, profile, potential, meta=None):
        self.profile = profile
        self.potential = potential
        self.homogeneous = bool(np.all(potential.samples == 0.0))
        self.meta = dict(meta or {})

    @property
    def period(self):
        return self.potential.period

    def psi0(self, x):
        return self.potential.psi(x)

    def b0(self, x):
        return self.potential.b(x)

    def __repr__(self):
        kind = "homogeneous" if self.homogeneous else "magnetized"
        return "EquilibriumState(%s, profile=%r, P=%.6g)" % (kind, self.profile.name, self.period)


def make_homogeneous_state(profile, period):
    return EquilibriumState(profile, MagneticPotential.zero(period))


# ---------------------------------------------------------------------------
# potential well construction for the weak-field family
# ---------------------------------------------------------------------------

def source_term(profile, quad, psi):
    """g(psi) = 2 * integral of v2hat * mu_minus(e, v2 - psi) dv."""
    def f(v1, v2):
        e = np.sqrt(1.0 + v1 * v1 + v2 * v2)
        return (v2 / e) * profile.mu_minus(e, v2 - psi)
    return 2.0 * integrate_velocity(quad, f)


@dataclass(frozen=True)
class CenterConditions:
    g0: float
    gprime0: float
    ok: bool
    critical_period: float = float("nan")


def check_center_conditions(profile, quad, refine_check=True):
    """Evaluate g(0) and g'(0); ok iff |g(0)| <= 1e-8 and g'(0) < -1e-8.

    g'(0) uses a central difference whose step h = 1e-4 rides above the
    quadrature noise floor; a doubled quadrature cross-checks convergence.
    """
    h = 1e-4
    g0 = source_term(profile, quad, 0.0)
    gh = source_term(profile, quad, h)
    gmh = source_term(profile, quad, -h)
    gp = (gh - gmh) / (2.0 * h)
    if refine_check:
        # the gate compares the g evaluations themselves; dividing by the
        # difference step would amplify pure quadrature noise
        fine = quad.refined()
        g0f = source_term(profile, fine, 0.0)
        ghf = source_term(profile, fine, h)
        gmhf = source_term(profile, fine, -h)
        scale = max(1.0, abs(gh), abs(gmh))
        worst = max(abs(g0 - g0f), abs(gh - ghf), abs(gmh - gmhf))
        if worst > 1e-6 * scale:
            raise QuadratureError("quadrature failure: refinement changes g by %.3e" % worst)
        g0, gp = g0f, (ghf - gmhf) / (2.0 * h)
    ok = (abs(g0) <= 1e-8) and (gp < -1e-8)
    pcr = 2.0 * np.pi / math.sqrt(-gp) if gp < 0 else float("nan")
    return CenterConditions(g0=g0, gprime0=gp, ok=bool(ok), critical_period=pcr)


def _scalar_spline(x, y):
    """Not-a-knot cubic spline of ``y(x)`` (n >= 4 knots) on one float: the
    knot slopes and power coefficients of scipy's ``CubicSpline``, so the two
    agree to roundoff.  Bisect for the piece (ends extrapolate), then take the
    ascending power sum in ``s - x_i``."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    h = np.diff(x)
    m = np.diff(y) / h
    # inner rows keep y'' continuous; the end rows are not-a-knot, one cubic
    # across the first (last) two pieces
    d0, d1, n = x[2] - x[0], x[-1] - x[-3], x.size
    A = np.zeros((n, n))                   # the three diagonals, filled in place
    A.flat[::n + 1] = np.r_[h[1], 2.0 * (h[:-1] + h[1:]), h[-2]]
    A.flat[1::n + 1], A.flat[n::n + 1] = np.r_[d0, h[:-1]], np.r_[h[1:], d1]
    yp = np.linalg.solve(A, np.r_[((h[0] + 2.0 * d0) * h[1] * m[0] + h[0] ** 2 * m[1]) / d0,
                                  3.0 * (h[1:] * m[:-1] + h[:-1] * m[1:]),
                                  (h[-1] ** 2 * m[-2] + (2.0 * d1 + h[-1]) * h[-2] * m[-1]) / d1])
    t = (yp[:-1] + yp[1:] - 2.0 * m) / h
    pieces = np.column_stack([t / h, (m - yp[:-1]) / h - t, yp[:-1], y[:-1]]).tolist()
    knots, last = x.tolist(), x.size - 2

    def g(s):
        i = min(max(bisect.bisect_right(knots, s) - 1, 0), last)
        c3, c2, c1, c0 = pieces[i]
        d = s - knots[i]
        return c0 + c1 * d + c2 * (d * d) + c3 * (d * d * d)
    return g


def _g_spline(profile, quad, span, n):
    """Spline of g on ``n`` uniform points of [-span, span]: the quadrature
    is too slow to call inside the stepper."""
    grid = np.linspace(-span, span, n)
    return _scalar_spline(grid, np.array([source_term(profile, quad, s) for s in grid]))


def _well_samples(g, epsilon, gprime0, n_steps=4096, n_samples=1024):
    """One orbit of the well equation psi'' = g(psi) from its turning point.

    From (psi, psi') = (-epsilon, 0), RK4 runs the orbit at step
    h = T0 / n_steps and at h / 2, with T0 = 2 pi / sqrt(-g'(0)) the
    linearized period; the period is twice the time between the first two
    sign changes of psi' (each interpolated linearly within its step), and
    the finer one is kept.  One period is then resampled at ``n_samples``
    uniform points.  Returns (period, samples, |difference of the two
    periods|); raises OrbitError when g'(0) is not negative (no center),
    when the orbit escapes |psi|, |psi'| < 1e6 or when it does not turn
    twice within 20 T0.
    """
    if not gprime0 < 0.0:
        raise OrbitError("not a center: g'(0) = %r is not negative" % gprime0)

    def step(psi, u, h):
        k1p, k1u = u, g(psi)
        k2p, k2u = u + 0.5 * h * k1u, g(psi + 0.5 * h * k1p)
        k3p, k3u = u + 0.5 * h * k2u, g(psi + 0.5 * h * k2p)
        k4p, k4u = u + h * k3u, g(psi + h * k3p)
        return (psi + (h / 6.0) * (k1p + 2 * k2p + 2 * k3p + k4p),
                u + (h / 6.0) * (k1u + 2 * k2u + 2 * k3u + k4u))

    def period(h):
        psi, u, t = -epsilon, 0.0, 0.0
        turns = []
        for _ in range(int(20.0 * t0 / h)):
            psi_n, u_n = step(psi, u, h)
            if not (abs(psi_n) < 1e6 and abs(u_n) < 1e6):
                break                  # escaped the well
            if u != 0.0 and u_n != 0.0 and (u_n < 0.0) != (u < 0.0):
                turns.append(t + u / (u - u_n) * h)
                if len(turns) == 2:
                    return 2.0 * (turns[1] - turns[0])
            psi, u, t = psi_n, u_n, t + h
        raise OrbitError("not a center at this amplitude: orbit fails to close")

    t0 = 2.0 * np.pi / math.sqrt(-gprime0)
    h = t0 / n_steps
    coarse, T = period(h), period(h / 2.0)
    h = T / n_samples
    psi, u = -epsilon, 0.0
    samples = np.empty(n_samples)
    for i in range(n_samples):
        samples[i] = psi
        psi, u = step(psi, u, h)
    return T, samples, abs(coarse - T)


def solve_equilibrium_potential(profile, epsilon, quad):
    """Periodic potential of amplitude epsilon from the phase-plane center.

    Checks the center conditions, splines g on 321 points of
    [-3 epsilon, 3 epsilon] and takes one orbit of the well equation from
    ``_well_samples`` (4,096 steps per linearized period, 1,024 samples).
    The potential must meet psi0'' = g(psi0), with g from the quadrature
    rather than the spline, within TOL_EQUIL on RESIDUAL_POINTS points.
    The returned state's ``meta`` carries epsilon, that residual, the
    period's convergence estimate, the C1 size of the potential and the
    critical period 2 pi / sqrt(-g'(0)); the period is ``state.period``.
    """
    if epsilon <= 0:
        raise VmspecError("epsilon must be positive")
    cc = check_center_conditions(profile, quad, refine_check=False)
    if not cc.ok:
        raise VmspecError("center conditions fail: g0=%.3e g'(0)=%.3e" % (cc.g0, cc.gprime0))
    T, samples, period_delta = _well_samples(_g_spline(profile, quad, 3.0 * epsilon, 321),
                                             epsilon, cc.gprime0)
    pot = MagneticPotential(T, samples)
    xs = np.linspace(0.0, T, RESIDUAL_POINTS, endpoint=False)
    gtrue = np.array([source_term(profile, quad, s) for s in pot.psi(xs)])
    residual = float(np.max(np.abs(pot.d2psi(xs) - gtrue)))
    if residual > TOL_EQUIL:
        raise VmspecError("equilibrium residual %.3e above tol %.1e" % (residual, TOL_EQUIL))

    c1 = float(np.max(np.abs(samples)) + np.max(np.abs(pot.b(xs))))
    return EquilibriumState(profile, pot, meta=dict(
        epsilon=float(epsilon), residual_inf=residual, period_delta=period_delta,
        c1_norm=c1, critical_period=cc.critical_period))


def find_center_amplitude(profile, quad, eps_start=0.01, eps_cap=10.0, iters=12):
    """Bisection estimate of the largest amplitude with a closing orbit.

    One spline of g on 641 points of [-1.5 eps_cap, 1.5 eps_cap] is built up
    front, with g'(0) from its central difference at +-1e-6.  A trial
    amplitude passes when ``_well_samples`` (1,024 steps, 256 samples)
    closes its orbit and the samples build a ``MagneticPotential``.
    """
    gsp = _g_spline(profile, quad, 1.5 * eps_cap, 641)
    h = 1e-6
    gp0 = (gsp(h) - gsp(-h)) / (2.0 * h)

    def closes(eps):
        try:
            T, samples, _ = _well_samples(gsp, eps, gp0, 1024, 256)
            MagneticPotential(T, samples)
            return True
        except VmspecError:
            return False

    good = eps_start
    if not (good > 0 and closes(good)):
        raise OrbitError("no closing orbit even at the starting amplitude")
    while good < eps_cap:
        trial = min(good * 2.0, eps_cap)
        if closes(trial):
            good = trial
        else:
            break
    if good >= eps_cap:
        return eps_cap
    bad = min(good * 2.0, eps_cap)
    for _ in range(iters):
        mid = 0.5 * (good + bad)
        if closes(mid):
            good = mid
        else:
            bad = mid
    return good


# ---------------------------------------------------------------------------
# named profiles
# ---------------------------------------------------------------------------

def _homogeneous_kinked():
    """Isotropic ramp-plus-gaussian-tail density, piecewise smooth at e = 2."""
    def mu(e, p):
        e = np.asarray(e, dtype=float)
        out = np.where((e >= 1.0) & (e < 2.0), e - 1.0, 0.0)
        out = out + np.where(e >= 2.0, np.exp(-(e - 2.0) ** 2), 0.0)
        return out * np.ones_like(np.asarray(p, dtype=float))

    def mu_e(e, p):
        e = np.asarray(e, dtype=float)
        out = np.where((e >= 1.0) & (e < 2.0), 1.0, 0.0)
        out = out + np.where(e >= 2.0, -2.0 * (e - 2.0) * np.exp(-(e - 2.0) ** 2), 0.0)
        return out * np.ones_like(np.asarray(p, dtype=float))

    def mu_p(e, p):
        return np.zeros(np.broadcast(np.asarray(e), np.asarray(p)).shape)

    prof = EquilibriumProfile(mu, mu_e, mu_p, kinks=(2.0,), name="paper_homogeneous")
    return prof, WeightSpec(c=4000.0, alpha=6.0)


# tuned so the anisotropy moment 2*int v2hat mu_p dv is 0.9987 (critical
# period 6.2874) while the energy moments stay negative; nonmonotone in e
_WF = dict(amp=21.6, t_p=2.0, decay=5.0, bump_amp=3.0, bump_rate=3.0)


def _weakfield(params=None):
    q = dict(_WF)
    q.update(params or {})
    amp, t_p, a, ka, qr = q["amp"], q["t_p"], q["decay"], q["bump_amp"], q["bump_rate"]

    def envelope(e):
        return (1.0 + e) ** (-a) * (1.0 + ka * (e - 1.0) * np.exp(-qr * (e - 1.0)))

    def envelope_e(e):
        b = 1.0 + ka * (e - 1.0) * np.exp(-qr * (e - 1.0))
        db = ka * (1.0 - qr * (e - 1.0)) * np.exp(-qr * (e - 1.0))
        return -a * (1.0 + e) ** (-a - 1.0) * b + (1.0 + e) ** (-a) * db

    def mu(e, p):
        return amp * p ** 2 * np.exp(-p ** 2 / t_p) * envelope(np.asarray(e, dtype=float))

    def mu_e(e, p):
        return amp * p ** 2 * np.exp(-p ** 2 / t_p) * envelope_e(np.asarray(e, dtype=float))

    def mu_p(e, p):
        return amp * (2.0 * p - 2.0 * p ** 3 / t_p) * np.exp(-p ** 2 / t_p) * envelope(np.asarray(e, dtype=float))

    prof = EquilibriumProfile(mu, mu_e, mu_p, kinks=(), name="weakfield_family")
    return prof, WeightSpec(c=80.0, alpha=5.0)


def _zero():
    z = lambda e, p: np.zeros(np.broadcast(np.asarray(e), np.asarray(p)).shape)
    return EquilibriumProfile(z, z, z, kinks=(), name="zero"), WeightSpec(c=1.0, alpha=3.0)


def build_profile(name, params=None):
    """Named profiles; returns (profile, default WeightSpec).  Only
    weakfield_family takes parameters, the keys of ``_WF``."""
    takes = {"paper_homogeneous": (), "weakfield_family": tuple(_WF), "zero": ()}
    if name not in takes:
        raise VmspecError("unknown profile %r (expected %s)" % (name, ", ".join(takes)))
    unknown = sorted(set(params or ()) - set(takes[name]))
    if unknown:
        raise VmspecError("profile %s has no parameter %s (it takes %s)"
                          % (name, ", ".join(map(repr, unknown)),
                             ", ".join(takes[name]) or "none"))
    if name == "weakfield_family":
        return _weakfield(params)
    return _homogeneous_kinked() if name == "paper_homogeneous" else _zero()
