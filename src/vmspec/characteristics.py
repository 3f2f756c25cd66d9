"""Backward particle trajectories of the equilibrium transport field.

Species sign s = +1/-1 fixes the rotation sense: dx/ds = v1/<v>,
dv1/ds = s * (v2/<v>) * B0(x), dv2/ds = -s * (v1/<v>) * B0(x).  The
kinetic energy <v> and the canonical momentum v2 + s*psi0(x) are exact
invariants; the integrator monitors both and halves its step until their
drift sits below tolerance.

Homogeneous states (B0 = 0) use the exact straight-line flow, written once
in ``backward_path``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConservationError, VmspecError

STATIONARY_EPS = 1e-14


def normalize_species(species):
    if species in (+1, -1):
        return int(species)
    if species in ("+", "plus", "ion"):
        return +1
    if species in ("-", "minus", "electron"):
        return -1
    raise VmspecError("species must be '+'/'-' or +1/-1, got %r" % (species,))


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

    @property
    def vhat(self):
        e = self.energy
        return (self.v1 / e, self.v2 / e)

    def momentum(self, state, species):
        s = normalize_species(species)
        return self.v2 + s * float(state.psi0(self.x))


@dataclass(frozen=True)
class StepOptions:
    dt: float = None               # None: pick from the state's field strength
    tol_cons: float = 1e-10
    max_halvings: int = 8


def default_dt(state):
    """Step resolving both the gyration and the field's spatial scale.

    Trajectories move at most one unit of x per unit of s, so P/64 tracks
    the field's spatial variation; the 1/b bound covers strong rotation.
    """
    if state.homogeneous:
        return state.period / 64.0
    bmax = max(state.potential.b_max, 1e-6)
    return min(0.25, state.period / 64.0, 0.25 / bmax)


def rk4_step_arrays(state, sign, x, v1, v2, h):
    """One RK4 step for arrays of lanes; ``h`` may be scalar or per-lane."""
    def rhs(x_, v1_, v2_):
        e = np.sqrt(1.0 + v1_ * v1_ + v2_ * v2_)
        b = state.b0(x_)
        return v1_ / e, sign * (v2_ / e) * b, -sign * (v1_ / e) * b

    k1x, k1u, k1w = rhs(x, v1, v2)
    k2x, k2u, k2w = rhs(x + 0.5 * h * k1x, v1 + 0.5 * h * k1u, v2 + 0.5 * h * k1w)
    k3x, k3u, k3w = rhs(x + 0.5 * h * k2x, v1 + 0.5 * h * k2u, v2 + 0.5 * h * k2w)
    k4x, k4u, k4w = rhs(x + h * k3x, v1 + h * k3u, v2 + h * k3w)
    x_n = x + (h / 6.0) * (k1x + 2 * k2x + 2 * k3x + k4x)
    v1_n = v1 + (h / 6.0) * (k1u + 2 * k2u + 2 * k3u + k4u)
    v2_n = v2 + (h / 6.0) * (k1w + 2 * k2w + 2 * k3w + k4w)
    return x_n, v1_n, v2_n


def _integrate_to(state, sign, x, v1, v2, t_target, dt):
    """March from time 0 to t_target (either sign) with |steps| <= dt."""
    if t_target == 0.0:
        return x, v1, v2
    n = max(1, int(math.ceil(abs(t_target) / dt)))
    h = t_target / n
    for _ in range(n):
        x, v1, v2 = rk4_step_arrays(state, sign, x, v1, v2, h)
    return x, v1, v2


def flow(state, species, start, s, opts=None):
    """Phase point reached after time s along the species' trajectory.

    Negative s is the backward flow used everywhere in the smoothing
    averages; positive s is accepted for the reversal identities.
    """
    if s == 0.0:
        return start
    # stationary fixed point: zero velocity along x and no rotation drive
    e = start.energy
    if abs(start.v1 / e) < STATIONARY_EPS and abs((start.v2 / e) * state.b0(start.x)) < STATIONARY_EPS:
        return start
    x, v1, v2, _, _ = _checked_path(state, normalize_species(species), start,
                                    np.array([float(s)]), opts or StepOptions())
    return PhasePoint(float(x[0]), float(v1[0]), float(v2[0]))


def backward_gauss_nodes(horizon, n_nodes):
    """Gauss-Legendre abscissae and weights mapped to [-horizon, 0]."""
    xs, ws = leggauss(n_nodes)
    s = -0.5 * horizon * (xs + 1.0)        # descending from ~0 to ~-horizon
    w = 0.5 * horizon * ws
    order = np.argsort(-s)
    return s[order], w[order]


@dataclass(frozen=True)
class TrajectorySample:
    species: int
    s_nodes: np.ndarray            # decreasing, all <= 0
    x: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    drift_e: float
    drift_p: float


def backward_path(state, species, start, s_nodes, dt=None):
    """States at the times ``s_nodes``, descending and <= 0 on a backward
    path, one continuous integration with steps of at most ``dt``;
    positions are wrapped."""
    sign = normalize_species(species)
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
        x, v1, v2 = _integrate_to(state, sign, x, v1, v2, s - t, dt)
        t = s
        xs[i], v1s[i], v2s[i] = x, v1, v2
    return xs % state.period, v1s, v2s


def _checked_path(state, sign, start, s_nodes, opts):
    """``backward_path`` with the step halved until the drift of both
    invariants sits below ``opts.tol_cons``; returns (x, v1, v2, de, dp)."""
    dt = opts.dt if opts.dt is not None else default_dt(state)
    e0 = start.energy
    p0 = start.momentum(state, sign)
    for _ in range(opts.max_halvings + 1):
        xs, v1s, v2s = backward_path(state, sign, start, s_nodes, dt)
        de = float(np.max(np.abs(np.sqrt(1.0 + v1s ** 2 + v2s ** 2) - e0)))
        dp = float(np.max(np.abs(v2s + sign * state.psi0(xs) - p0)))
        if de <= opts.tol_cons and dp <= opts.tol_cons:
            return xs, v1s, v2s, de, dp
        dt *= 0.5
    raise ConservationError(
        "conservation failure: |de|=%.3e |dp|=%.3e after %d halvings" % (de, dp, opts.max_halvings),
        drift_e=de, drift_p=dp)


def sample_backward(state, species, start, horizon, n_nodes, opts=None):
    """States at Gauss nodes on [-horizon, 0]; the step halves until the
    drift of both invariants sits below ``opts.tol_cons``."""
    sign = normalize_species(species)
    if n_nodes < 2:
        raise VmspecError("sample_backward needs at least 2 nodes")
    s_nodes, _ = backward_gauss_nodes(horizon, n_nodes)
    return TrajectorySample(sign, s_nodes,
                            *_checked_path(state, sign, start, s_nodes, opts or StepOptions()))
