"""The equilibrium transport field of species - and its RK4 step.

dx/ds = v1/<v>, dv1/ds = -(v2/<v>) B0(x), dv2/ds = (v1/<v>) B0(x).  The
kinetic energy <v> and the canonical momentum v2 - psi0(x) are exact
invariants.  Species + is species - on the negated potential -psi0, bit for
bit, and the library never forms it (docs/DECISIONS.md section 4).
``rk4_step_arrays`` advances any number of lanes at once; the orbit engine
in ``operators`` is its only caller, and reports the drift of both
invariants over each of its streams (``NodeMoments.drift``).
"""

from __future__ import annotations

import numpy as np


def default_dt(state):
    """Step resolving both the gyration and the field's spatial scale.

    Trajectories move at most one unit of x per unit of s, so P/64 tracks
    the field's spatial variation; the 1/b bound covers strong rotation.
    """
    bmax = max(state.potential.b_max, 1e-6)
    return min(0.25, state.period / 64.0, 0.25 / bmax)


def rk4_step_arrays(state, x, v1, v2, h, b0=None):
    """One RK4 step of species - for arrays of lanes; ``h`` may be scalar or per-lane.

    ``b0``, when given, is ``state.b0(x)`` at the start, which the first
    stage then uses instead of evaluating the field again.  The stages
    carry u = (v2/<v>) B0 = -dv1/ds and w = dv2/ds, and subtract u.  Inputs
    may also be 0-d numpy scalars.
    """
    def rhs(x_, v1_, v2_, b_):
        r = 1.0 / np.sqrt(1.0 + v1_ * v1_ + v2_ * v2_)
        q = r * b_
        return v1_ * r, v2_ * q, v1_ * q

    hh, h6 = 0.5 * h, h / 6.0
    k1x, k1u, k1w = rhs(x, v1, v2, state.b0(x) if b0 is None else b0)
    x2 = x + hh * k1x
    k2x, k2u, k2w = rhs(x2, v1 - hh * k1u, v2 + hh * k1w, state.b0(x2))
    x3 = x + hh * k2x
    k3x, k3u, k3w = rhs(x3, v1 - hh * k2u, v2 + hh * k2w, state.b0(x3))
    x4 = x + h * k3x
    k4x, k4u, k4w = rhs(x4, v1 - h * k3u, v2 + h * k3w, state.b0(x4))
    # k1 + 2 k2 + 2 k3 + k4 = 2 (k2 + k3) + k1 + k4, summed in place in the
    # stage-2 slopes, which rhs made fresh (0-d slopes rebind instead)
    sx, su, sw = (_slope_sum(*k) for k in ((k1x, k2x, k3x, k4x), (k1u, k2u, k3u, k4u),
                                           (k1w, k2w, k3w, k4w)))
    return x + h6 * sx, v1 - h6 * su, v2 + h6 * sw


def _slope_sum(k1, k2, k3, k4):
    k2 += k3
    k2 += k2
    k2 += k1
    k2 += k4
    return k2
