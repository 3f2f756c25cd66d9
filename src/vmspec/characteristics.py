"""Backward particle trajectories of the equilibrium transport field.

Species sign s = +1/-1 fixes the rotation sense: dx/ds = v1/<v>,
dv1/ds = s * (v2/<v>) * B0(x), dv2/ds = -s * (v1/<v>) * B0(x).  The
kinetic energy <v> and the canonical momentum v2 + s*psi0(x) are exact
invariants, checked by ``flow`` alone (it halves its step until their drift
is below tolerance): ``backward_path``, so ``SmoothingEvaluator``, and the
orbit engine in ``operators`` check no drift.

Homogeneous states (B0 = 0) use the exact straight-line flow, written once
in ``backward_path``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
    bmax = max(state.potential.b_max, 1e-6)
    return min(0.25, state.period / 64.0, 0.25 / bmax)


def rk4_step_arrays(state, sign, x, v1, v2, h, b0=None):
    """One RK4 step for arrays of lanes; ``h`` may be scalar or per-lane.

    ``b0``, when given, is ``state.b0(x)`` at the start, which the first
    stage then uses instead of evaluating the field again.  The species
    sign rides in r = sign/<v>, so the x slope v1 r carries it too and the
    x stages step by sign*h; the stages carry w = -dv2/ds and subtract it.
    Inputs may also be 0-d numpy scalars.
    """
    def rhs(x_, v1_, v2_, b_):
        r = sign / np.sqrt(1.0 + v1_ * v1_ + v2_ * v2_)
        q = r * b_
        return v1_ * r, v2_ * q, v1_ * q

    hh, h6 = 0.5 * h, h / 6.0
    hs, hx, h6x = (h, hh, h6) if sign > 0 else (-h, -hh, -h6)
    k1x, k1u, k1w = rhs(x, v1, v2, state.b0(x) if b0 is None else b0)
    x2 = x + hx * k1x
    k2x, k2u, k2w = rhs(x2, v1 + hh * k1u, v2 - hh * k1w, state.b0(x2))
    x3 = x + hx * k2x
    k3x, k3u, k3w = rhs(x3, v1 + hh * k2u, v2 - hh * k2w, state.b0(x3))
    x4 = x + hs * k3x
    k4x, k4u, k4w = rhs(x4, v1 + h * k3u, v2 - h * k3w, state.b0(x4))
    # k1 + 2 k2 + 2 k3 + k4 = 2 (k2 + k3) + k1 + k4, summed in place in the
    # stage-2 slopes, which rhs made fresh (0-d slopes rebind instead)
    sx, su, sw = (_slope_sum(*k) for k in ((k1x, k2x, k3x, k4x), (k1u, k2u, k3u, k4u),
                                           (k1w, k2w, k3w, k4w)))
    return x + h6x * sx, v1 + h6 * su, v2 - h6 * sw


def _slope_sum(k1, k2, k3, k4):
    k2 += k3
    k2 += k2
    k2 += k1
    k2 += k4
    return k2


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
    x, v1, v2 = _checked_path(state, normalize_species(species), start,
                              np.array([float(s)]), opts or StepOptions())
    return PhasePoint(float(x[0]), float(v1[0]), float(v2[0]))


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
    invariants sits below ``opts.tol_cons``; returns (x, v1, v2)."""
    dt = opts.dt if opts.dt is not None else default_dt(state)
    e0 = start.energy
    p0 = start.momentum(state, sign)
    for _ in range(opts.max_halvings + 1):
        xs, v1s, v2s = backward_path(state, sign, start, s_nodes, dt)
        de = float(np.max(np.abs(np.sqrt(1.0 + v1s ** 2 + v2s ** 2) - e0)))
        dp = float(np.max(np.abs(v2s + sign * state.psi0(xs) - p0)))
        if de <= opts.tol_cons and dp <= opts.tol_cons:
            return xs, v1s, v2s
        dt *= 0.5
    raise ConservationError(
        "conservation failure: |de|=%.3e |dp|=%.3e after %d halvings" % (de, dp, opts.max_halvings),
        drift_e=de, drift_p=dp)
