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
from dataclasses import dataclass, field

import numpy as np

from .discretization import integrate_velocity
from .errors import OrbitError, ProfileEvaluationError, QuadratureError, VmspecError

ENERGY_FLOOR = 1.0


@dataclass(frozen=True)
class WeightSpec:
    """Decay envelope w(e) = c (1+|e|)^(-alpha); alpha > 2 keeps it integrable."""

    c: float
    alpha: float

    def __post_init__(self):
        if self.c <= 0:
            raise VmspecError("weight scale c must be positive")
        if self.alpha <= 2.0:
            raise VmspecError("weight exponent alpha must exceed 2")

    def __call__(self, e):
        return self.c * (1.0 + np.abs(e)) ** (-self.alpha)


@dataclass(frozen=True)
class EquilibriumProfile:
    """mu_minus(e, p) >= 0 with derivatives, plus declared kink energies.

    ``kinks`` lists energies where the profile is only piecewise smooth;
    radial quadratures split panels there instead of smoothing the profile.
    """

    mu_minus: callable
    mu_minus_e: callable
    mu_minus_p: callable
    kinks: tuple = ()
    name: str = "custom"
    params: dict = field(default_factory=dict)

    def _check(self, e):
        e = np.asarray(e, dtype=float)
        if np.any(e < ENERGY_FLOOR - 1e-12):
            raise VmspecError("energy below the relativistic floor e >= 1")
        return e

    def mu(self, sign, e, p):
        """Species density: sign=-1 electrons, sign=+1 the mirrored ions."""
        e = self._check(e)
        return self.mu_minus(e, -p) if sign > 0 else self.mu_minus(e, p)

    def mu_e(self, sign, e, p):
        e = self._check(e)
        return self.mu_minus_e(e, -p) if sign > 0 else self.mu_minus_e(e, p)

    def mu_p(self, sign, e, p):
        e = self._check(e)
        return -self.mu_minus_p(e, -p) if sign > 0 else self.mu_minus_p(e, p)


# ---------------------------------------------------------------------------
# profile validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationGrid:
    n_e: int = 500
    n_p: int = 241
    p_max: float = 40.0
    e_max: float = None            # default: where w drops by 1e12


@dataclass(frozen=True)
class ValidationReport:
    max_negativity: float
    max_decay_violation: float
    max_symmetry_violation: float
    tol: float
    passed: bool
    worst_decay_point: tuple = None

    def summary(self):
        return ("negativity=%.3e decay=%.3e symmetry=%.3e -> %s"
                % (self.max_negativity, self.max_decay_violation,
                   self.max_symmetry_violation, "pass" if self.passed else "FAIL"))


def validate_profile(profile, weight, grid=None, tol_validate=1e-12):
    """Check nonnegativity, the decay bound and the mirror symmetry on a grid."""
    grid = grid or ValidationGrid()
    e_max = grid.e_max
    if e_max is None:
        # w(e_max) < 1e-12 w(1)
        e_max = (1.0 + ENERGY_FLOOR) * (1e12) ** (1.0 / weight.alpha)
    # log-spaced energies resolve the near-floor region; kink neighborhoods added
    e = np.unique(np.concatenate([
        1.0 + np.geomspace(1e-9, e_max - 1.0, grid.n_e),
        np.concatenate([[k - 1e-9, k, k + 1e-9] for k in profile.kinks]) if profile.kinks else [],
        [ENERGY_FLOOR],
    ]))
    p = np.linspace(-grid.p_max, grid.p_max, grid.n_p)
    E, Pm = np.meshgrid(e, p, indexing="ij")

    vals = {}
    for nm, fn in (("mu", profile.mu_minus), ("mu_e", profile.mu_minus_e),
                   ("mu_p", profile.mu_minus_p)):
        v = np.asarray(fn(E, Pm), dtype=float)
        if not np.all(np.isfinite(v)):
            i = np.argwhere(~np.isfinite(v))[0]
            raise ProfileEvaluationError("profile evaluation failure",
                                         e=float(E[tuple(i)]), p=float(Pm[tuple(i)]))
        vals[nm] = v

    neg = max(0.0, float(np.max(-vals["mu"])))
    bound = np.abs(vals["mu_e"]) + np.abs(vals["mu_p"]) - weight(E)
    decay = max(0.0, float(np.max(bound)))
    iworst = np.unravel_index(np.argmax(bound), bound.shape)
    # mirror identity mu_plus(e, p) = mu_minus(e, -p), evaluated both ways
    sym = float(np.max(np.abs(profile.mu(+1, E, Pm) - profile.mu(-1, E, -Pm))))
    passed = (neg <= tol_validate) and (decay <= tol_validate) and (sym <= tol_validate)
    return ValidationReport(neg, decay, sym, tol_validate, passed,
                            worst_decay_point=(float(E[iworst]), float(Pm[iworst])))


# ---------------------------------------------------------------------------
# magnetic potential and state
# ---------------------------------------------------------------------------

class MagneticPotential:
    """Periodic psi0 represented by uniform samples and truncated harmonics.

    The field b0 = dpsi0/dx is the exact spectral derivative, so its mean
    over one period vanishes identically.
    """

    def __init__(self, period, samples, tol_interp=1e-9, drop_below=1e-14):
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
        if tail > tol_interp * scale:
            raise VmspecError("potential sample representation above tol_interp: %.3e" % tail)
        keep = np.abs(coef) > drop_below * scale
        keep[0] = True
        keep[n // 2:] = False      # drop the ambiguous Nyquist term
        self._k = np.nonzero(keep)[0]
        self._coef = coef[self._k]
        self._omega = 2.0 * np.pi / self.period
        self.tol_interp = tol_interp
        self.interp_error = tail

    def _synth(self, x, order):
        x = np.asarray(x, dtype=float)
        acc = np.zeros(np.shape(x), dtype=complex)
        z = np.exp(1j * self._omega * x)   # one transcendental; powers after
        pw = np.ones_like(z)
        kprev = 0
        for k, c in zip(self._k, self._coef):
            for _ in range(k - kprev):
                pw = pw * z
            kprev = k
            fac = (1j * k * self._omega) ** order
            acc = acc + (fac * c if k == 0 else 2.0 * fac * c) * pw
        return np.real(acc)

    def psi(self, x):
        return self._synth(x, 0)

    def b(self, x):
        return self._synth(x, 1)

    def d2psi(self, x):
        return self._synth(x, 2)

    @property
    def b_max(self):
        return float(np.max(np.abs(self.b(self.samples_x))))

    @property
    def samples_x(self):
        n = self.samples.size
        return np.arange(n) * self.period / n

    @classmethod
    def zero(cls, period, n=64):
        return cls(period, np.zeros(n))


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
        if self.homogeneous:
            return np.zeros(np.shape(x))
        return self.potential.psi(x)

    def b0(self, x):
        if self.homogeneous:
            return np.zeros(np.shape(x))
        return self.potential.b(x)

    def momentum(self, sign, x, v2):
        """Conserved canonical momentum p = v2 + sign * psi0(x)."""
        return v2 + sign * self.psi0(x)

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
    tol_g: float
    critical_period: float = float("nan")


def check_center_conditions(profile, quad, tol_g=1e-8, h_g=None, refine_check=True):
    """Evaluate g(0) and g'(0); ok iff g(0) ~ 0 and g'(0) < 0.

    g'(0) uses a central difference whose step rides above the quadrature
    noise floor; a doubled quadrature cross-checks convergence.
    """
    h = h_g if h_g is not None else 1e-4
    g0 = source_term(profile, quad, 0.0)
    gh = source_term(profile, quad, h)
    gmh = source_term(profile, quad, -h)
    gp = (gh - gmh) / (2.0 * h)
    if refine_check:
        # the gate compares the g evaluations themselves; dividing by the
        # difference step would amplify pure quadrature noise
        fine = quad.refined(2)
        g0f = source_term(profile, fine, 0.0)
        ghf = source_term(profile, fine, h)
        gmhf = source_term(profile, fine, -h)
        scale = max(1.0, abs(gh), abs(gmh))
        worst = max(abs(g0 - g0f), abs(gh - ghf), abs(gmh - gmhf))
        if worst > 1e-6 * scale:
            raise QuadratureError("quadrature failure: refinement changes g by %.3e" % worst)
        g0, gp = g0f, (ghf - gmhf) / (2.0 * h)
    ok = (abs(g0) <= tol_g) and (gp < -tol_g)
    pcr = 2.0 * np.pi / math.sqrt(-gp) if gp < 0 else float("nan")
    return CenterConditions(g0=g0, gprime0=gp, ok=bool(ok), tol_g=tol_g, critical_period=pcr)


@dataclass(frozen=True)
class OdeOptions:
    n_steps: int = 4096
    n_samples: int = 1024
    tol_equil: float = 1e-6
    tol_period: float = 1e-8
    psi_grid: int = 321
    max_orbit_factor: float = 20.0
    g_override: callable = None    # test hook: analytic g(psi) bypassing quadrature
    residual_points: int = 64


def _scalar_spline(x, y):
    """``CubicSpline(x, y)`` on one float, bit for bit without the array call:
    bisect for the piece (ends extrapolate), then PPoly's ascending power sum."""
    from scipy.interpolate import CubicSpline     # only the well ODE needs it
    sp = CubicSpline(x, y)
    knots, pieces, last = sp.x.tolist(), sp.c.T.tolist(), sp.x.size - 2

    def g(s):
        i = min(max(bisect.bisect_right(knots, s) - 1, 0), last)
        c3, c2, c1, c0 = pieces[i]
        d = s - knots[i]
        return c0 + c1 * d + c2 * (d * d) + c3 * (d * d * d)
    return g


def _well_step(g, psi, u, h):
    """One RK4 step of (psi, u)' = (u, g(psi))."""
    k1p, k1u = u, g(psi)
    k2p, k2u = u + 0.5 * h * k1u, g(psi + 0.5 * h * k1p)
    k3p, k3u = u + 0.5 * h * k2u, g(psi + 0.5 * h * k2p)
    k4p, k4u = u + h * k3u, g(psi + h * k3p)
    return (psi + (h / 6.0) * (k1p + 2 * k2p + 2 * k3p + k4p),
            u + (h / 6.0) * (k1u + 2 * k2u + 2 * k3u + k4u))


def _rk4_well(g, y0, h, n_max):
    """Integrate (psi, u)' = (u, g(psi)) recording u-sign changes.

    Returns (samples, zero_crossing_times); stops after the second crossing.
    """
    psi, u = y0
    crossings = []
    traj = [(0.0, psi, u)]
    t = 0.0
    for _ in range(n_max):
        psi_n, u_n = _well_step(g, psi, u, h)
        t_n = t + h
        if not (abs(psi_n) < 1e6 and abs(u_n) < 1e6):
            break                  # escaped the well; no closed orbit here
        if u != 0.0 and (np.sign(u_n) != np.sign(u)) and u_n != 0.0:
            # linear interpolation of the turning time
            frac = u / (u - u_n)
            crossings.append(t + frac * h)
            if len(crossings) == 2:
                traj.append((t_n, psi_n, u_n))
                return traj, crossings
        psi, u, t = psi_n, u_n, t_n
        traj.append((t, psi, u))
    return traj, crossings


def solve_equilibrium_potential(profile, epsilon, quad, opts=None):
    """Periodic potential of amplitude epsilon from the phase-plane center.

    Starts at (psi, dpsi) = (-epsilon, 0), integrates one full orbit of
    d2psi = g(psi) and returns the state with the orbit time as its period.
    The returned state's ``meta`` carries the achieved residual, the period
    convergence estimate and the C1 size of the potential.
    """
    opts = opts or OdeOptions()
    if epsilon <= 0:
        raise VmspecError("epsilon must be positive")

    if opts.g_override is not None:
        g = opts.g_override
        h_probe = 1e-6
        gp0 = (g(h_probe) - g(-h_probe)) / (2.0 * h_probe)
    else:
        cc = check_center_conditions(profile, quad, refine_check=False)
        if not cc.ok:
            raise VmspecError("center conditions fail: g0=%.3e g'(0)=%.3e" % (cc.g0, cc.gprime0))
        gp0 = cc.gprime0
        # spline of g over the reachable psi range; quadrature is too slow
        # to call inside the stepper
        span = 3.0 * epsilon
        grid = np.linspace(-span, span, opts.psi_grid)
        gvals = np.array([source_term(profile, quad, s) for s in grid])
        g = _scalar_spline(grid, gvals)

    t_guess = 2.0 * np.pi / math.sqrt(-gp0)

    def one_orbit(h):
        traj, crossings = _rk4_well(g, (-epsilon, 0.0), h, int(opts.max_orbit_factor * t_guess / h))
        if len(crossings) < 2:
            raise OrbitError("not a center at this amplitude: orbit fails to close")
        return 2.0 * (crossings[1] - crossings[0]), crossings[1] + (crossings[1] - crossings[0])

    # the full period is twice the half-period between turning points; the
    # second estimate (time of second turning) agrees for a symmetric well
    h = t_guess / opts.n_steps
    T1, _ = one_orbit(h)
    T2, _ = one_orbit(h / 2.0)
    period_delta = abs(T1 - T2)
    T = T2

    # resample on exactly one period
    h2 = T / opts.n_samples
    psi, u = -epsilon, 0.0
    samples = np.empty(opts.n_samples)
    for i in range(opts.n_samples):
        samples[i] = psi
        psi, u = _well_step(g, psi, u, h2)

    pot = MagneticPotential(T, samples)
    state = EquilibriumState(profile, pot)

    # residual against the true quadrature-backed g, not the spline
    xs = np.linspace(0.0, T, opts.residual_points, endpoint=False)
    d2 = pot.d2psi(xs)
    if opts.g_override is not None:
        gtrue = np.array([g(s) for s in pot.psi(xs)])
    else:
        gtrue = np.array([source_term(profile, quad, s) for s in pot.psi(xs)])
    residual = float(np.max(np.abs(d2 - gtrue)))
    if residual > opts.tol_equil:
        raise VmspecError("equilibrium residual %.3e above tol %.1e" % (residual, opts.tol_equil))

    c1 = float(np.max(np.abs(samples)) + np.max(np.abs(pot.b(xs))))
    state.meta.update(epsilon=float(epsilon), residual_inf=residual,
                      period=T, period_delta=period_delta, c1_norm=c1,
                      critical_period=2.0 * np.pi / math.sqrt(-gp0))
    return state


def find_center_amplitude(profile, quad, eps_start=0.01, eps_cap=10.0, iters=12):
    """Bisection estimate of the largest amplitude with a closing orbit.

    One spline of g over the whole candidate range is built up front and
    reused by every trial solve.
    """
    grid = np.linspace(-1.5 * eps_cap, 1.5 * eps_cap, 641)
    gvals = np.array([source_term(profile, quad, s) for s in grid])
    gsp = _scalar_spline(grid, gvals)
    opts = OdeOptions(n_steps=1024, n_samples=256, residual_points=4,
                      tol_equil=float("inf"), g_override=gsp)

    def closes(eps):
        try:
            solve_equilibrium_potential(profile, eps, quad, opts)
            return True
        except (OrbitError, VmspecError):
            return False

    good = eps_start
    if not closes(good):
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

    prof = EquilibriumProfile(mu, mu_e, mu_p, kinks=(), name="weakfield_family", params=q)
    return prof, WeightSpec(c=80.0, alpha=5.0)


def _zero():
    z = lambda e, p: np.zeros(np.broadcast(np.asarray(e), np.asarray(p)).shape)
    return EquilibriumProfile(z, z, z, kinks=(), name="zero"), WeightSpec(c=1.0, alpha=3.0)


def build_profile(name, params=None):
    """Named profiles; returns (profile, default WeightSpec)."""
    if name == "paper_homogeneous":
        if params:
            raise VmspecError("paper_homogeneous takes no parameters")
        return _homogeneous_kinked()
    if name == "weakfield_family":
        return _weakfield(params)
    if name == "zero":
        return _zero()
    raise VmspecError("unknown profile %r (expected paper_homogeneous, weakfield_family, zero)"
                      % (name,))
