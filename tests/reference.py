"""Single-lane reference paths that the tests compare the orbit engine against.

``flow`` and ``backward_path`` march one phase point with the library's
``rk4_step_arrays``, one continuous integration with steps of at most
``dt``; ``flow`` halves its step until the drift of the two invariants,
the kinetic energy <v> and the canonical momentum v2 + s*psi0(x), sits
below tolerance, and raises ``ConservationError`` when it cannot.
Homogeneous states (B0 = 0) take the exact straight-line translation.
The library steps species - only; species s is named "-" or "+" (or -1,
+1) here, and species + runs as species - on ``species_plus_state``, the
state with the negated potential -psi0.

``SmoothingEvaluator`` is the backward average at lam > 0 by a direct
composite Gauss-Legendre rule on the ``backward_path`` samples, the
independent reference for the engine's Fourier-series filter and for the
small-rate limit.  ``mu_species`` evaluates the profile for either
species, species + as the mirror mu+(e, p) = mu-(e, -p), and
``species_mu_direct`` for both at once: the reference for the library's
``species_mu``, which returns species - alone, and for the mode's species
+, which the library reads as the mirror of species -.
``validate_profile`` is the profile check on one dense (energy, momentum)
grid, which the library's walk over blocks of energies must reproduce.  None of this is used by the library.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from vmspec.characteristics import default_dt, rk4_step_arrays
from vmspec.equilibrium import ENERGY_FLOOR, EquilibriumState, MagneticPotential, ValidationReport
from vmspec.errors import ProfileEvaluationError, VmspecError

STATIONARY_EPS = 1e-14
N_S_MIN = 128          # node floor of the smoothing rule
NODES_PER_WAVE = 8.0   # smoothing-rule nodes per oscillation along the path


def _species(label):
    """+1 or -1 from "+"/"-" (or +1/-1)."""
    if label in ("+", "-", +1, -1):
        return -1 if label in ("-", -1) else +1
    raise VmspecError("species must be '+'/'-' or +1/-1, got %r" % (label,))


def species_plus_state(state):
    """The state whose species - orbits are species +'s on ``state``: the
    potential -psi0, so the force -(v2/<v>)(-B0) and the momentum
    v2 - (-psi0) are species +'s, bit for bit (docs/DECISIONS.md section 4)."""
    return EquilibriumState(state.profile, MagneticPotential(state.period,
                                                             -state.potential.samples))


def _orbit_state(state, species):
    return state if _species(species) < 0 else species_plus_state(state)


def mu_species(profile, species, e, p):
    """(mu_e, mu_p) of a species at (e, p): species -'s own, species + the
    mirror mu+(e, p) = mu-(e, -p), whose p-derivative is -mu-_p(e, -p)."""
    if _species(species) < 0:
        return profile.mu_e(e, p), profile.mu_p(e, p)
    return profile.mu_e(e, -p), -profile.mu_p(e, -p)


class ConservationError(VmspecError):
    """Trajectory integration could not keep invariants below tolerance."""

    def __init__(self, message, drift_e=None, drift_p=None):
        super().__init__(message)
        self.drift_e = drift_e
        self.drift_p = drift_p


@dataclass(frozen=True)
class PhasePoint:
    x: float
    v1: float
    v2: float

    def __post_init__(self):
        if not (np.isfinite(self.x) and np.isfinite(self.v1) and np.isfinite(self.v2)):
            raise VmspecError("non-finite phase point")

    @property
    def energy(self):
        return math.sqrt(1.0 + self.v1 ** 2 + self.v2 ** 2)

    def momentum(self, state, species):
        return self.v2 + _species(species) * float(state.psi0(self.x))


@dataclass(frozen=True)
class StepOptions:
    dt: float = None               # None: pick from the state's field strength
    tol_cons: float = 1e-10
    max_halvings: int = 8


def _integrate_to(state, x, v1, v2, t_target, dt):
    """March species - from time 0 to t_target (either sign) with |steps| <= dt."""
    if t_target == 0.0:
        return x, v1, v2
    n = max(1, int(math.ceil(abs(t_target) / dt)))
    h = t_target / n
    for _ in range(n):
        x, v1, v2 = rk4_step_arrays(state, x, v1, v2, h)
    return x, v1, v2


def flow(state, species, start, s, opts=None):
    """Phase point reached after time s along the species' trajectory.

    Negative s is the backward flow of the smoothing averages; positive s
    is accepted for the reversal identities.
    """
    if s == 0.0:
        return start
    # stationary fixed point: zero velocity along x and no rotation drive
    e = start.energy
    if abs(start.v1 / e) < STATIONARY_EPS and abs((start.v2 / e) * state.b0(start.x)) < STATIONARY_EPS:
        return start
    x, v1, v2 = _checked_path(_orbit_state(state, species), start, np.array([float(s)]),
                              opts or StepOptions())
    return PhasePoint(float(x[0]), float(v1[0]), float(v2[0]))


def backward_path(state, species, start, s_nodes, dt=None):
    """States at the times ``s_nodes``, descending and <= 0 on a backward
    path, one continuous integration with steps of at most ``dt``;
    positions are wrapped."""
    state = _orbit_state(state, species)
    n = s_nodes.size
    if state.homogeneous:
        e = start.energy
        x = (start.x + (start.v1 / e) * s_nodes) % state.period
        return x, np.full(n, start.v1), np.full(n, start.v2)
    dt = dt if dt is not None else default_dt(state)
    xs, v1s, v2s = np.empty(n), np.empty(n), np.empty(n)
    x, v1, v2 = np.float64(start.x), np.float64(start.v1), np.float64(start.v2)
    t = 0.0
    for i, s in enumerate(s_nodes):
        x, v1, v2 = _integrate_to(state, x, v1, v2, s - t, dt)
        t = s
        xs[i], v1s[i], v2s[i] = x, v1, v2
    return xs % state.period, v1s, v2s


def _checked_path(state, start, s_nodes, opts):
    """Species -'s ``backward_path`` with the step halved until the drift of
    both invariants sits below ``opts.tol_cons``; returns (x, v1, v2)."""
    dt = opts.dt if opts.dt is not None else default_dt(state)
    e0 = start.energy
    p0 = start.momentum(state, "-")
    for _ in range(opts.max_halvings + 1):
        xs, v1s, v2s = backward_path(state, "-", start, s_nodes, dt)
        de = float(np.max(np.abs(np.sqrt(1.0 + v1s ** 2 + v2s ** 2) - e0)))
        dp = float(np.max(np.abs(v2s - state.psi0(xs) - p0)))
        if de <= opts.tol_cons and dp <= opts.tol_cons:
            return xs, v1s, v2s
        dt *= 0.5
    raise ConservationError(
        "conservation failure: |de|=%.3e |dp|=%.3e after %d halvings" % (de, dp, opts.max_halvings),
        drift_e=de, drift_p=dp)


def species_mu_direct(state, quad, x):
    """Each species' (mu_e, mu_p) at the points x, as (M, N) arrays, each
    species from its own profile call at p = v2 + s*psi0(x)."""
    e, out = quad.e[None, :], {}
    for sign in (-1, +1):
        p = quad.v2[None, :] + sign * state.psi0(np.atleast_1d(x))[:, None]
        out[sign] = mu_species(state.profile, sign, e, p)
    return out


class SmoothingEvaluator:
    """Exponentially weighted backward-path average at fixed lam > 0.

    ``tol_tail`` is the weight e^(-lam S) cut off beyond the horizon S;
    ``k_osc`` is the highest spatial harmonic the integrands are assumed
    to carry, which sets the density of the rule.
    """

    def __init__(self, state, lam, k_osc=16, tol_tail=1e-10):
        if lam <= 0:
            raise VmspecError("smoothing average needs lam > 0")
        self.state = state
        self.lam = float(lam)
        self.horizon = -math.log(tol_tail) / self.lam
        self._cache = {}
        # composite rule: enough panels for both the exponential scale and
        # the fastest expected oscillation along the path
        waves = k_osc * self.horizon / state.period
        n_nodes = max(N_S_MIN, int(NODES_PER_WAVE * waves))
        per_panel = 16
        self.n_panels = max(4, int(math.ceil(n_nodes / per_panel)))
        xs, ws = leggauss(per_panel)
        edges = np.linspace(0.0, -self.horizon, self.n_panels + 1)
        nodes, weights = [], []
        for a, b in zip(edges[:-1], edges[1:]):
            half = 0.5 * (b - a)
            nodes.append(half * xs + 0.5 * (a + b))
            weights.append(np.abs(half) * ws)
        # descending already: panels run from 0 down, and half < 0 within each
        self.s_nodes = np.concatenate(nodes)
        self.weights = np.concatenate(weights) * self.lam * np.exp(self.lam * self.s_nodes)

    def path(self, species, point):
        key = (_species(species), point.x, point.v1, point.v2)
        if key not in self._cache:
            self._cache[key] = backward_path(self.state, key[0], point, self.s_nodes)
        return self._cache[key]

    def apply(self, species, k, point):
        """Weighted average of k(x, v1, v2) along the backward path from point."""
        xs, v1s, v2s = self.path(species, point)
        vals = np.asarray(k(xs, v1s, v2s), dtype=float)
        return float(np.sum(self.weights * vals))


def validate_profile(profile, weight, tol_validate=1e-12):
    """Nonnegativity and the decay bound on the whole grid at once: 500
    energies up to where w drops by 1e12, 241 momenta on [-40, 40]."""
    e_max = (1.0 + ENERGY_FLOOR) * (1e12) ** (1.0 / weight.alpha)
    e = np.sort(np.concatenate([
        1.0 + np.geomspace(1e-9, e_max - 1.0, 500),
        np.concatenate([[k - 1e-9, k, k + 1e-9] for k in profile.kinks]) if profile.kinks else [],
        [ENERGY_FLOOR],
    ]))
    e = e[np.r_[True, e[1:] != e[:-1]]]
    p = np.linspace(-40.0, 40.0, 241)
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
    passed = (neg <= tol_validate) and (decay <= tol_validate)
    return ValidationReport(neg, decay, tol_validate, passed,
                            worst_decay_point=(float(E[iworst]), float(Pm[iworst])))
