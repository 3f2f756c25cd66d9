"""Path averages and Galerkin assembly of the wave-operator blocks.

Every operator is built from averages of a function kappa along backward
particle paths: the exponentially weighted average lam e^(lam s) on
(-inf, 0] at growth rate lam > 0, and its lam = 0 limit, the average over
one orbit period, which is the projection onto flow-invariant functions.

Magnetized orbits come from one engine, and one assembly makes one pass
over every lane: M collocation points times N velocity nodes.
``_orbit_periods_batch`` measures each lane's period, or reports that the
lane did not close within the horizon; each point stops on its own weight
and only live lanes are stepped.  ``_orbit_stream`` then yields the
samples of every lane, each lane taking its own number of substeps per
sample.  One streaming reducer, ``_weighted_moments``, adds each sample,
with its weight G, into the three moment families that enter the
assembly,

    m0[k] = sum_j G_j Z_j^k,   m1[k] = sum_j G_j vh2_j Z_j^k,
    mv1 = Re sum_j G_j vh1_j,  with Z = exp(i w X),

and the rate enters only through G:

* 1/n at lam = 0, the plain orbit average, one number for every lane;
* fft(lam/(lam + i m Omega))/n on a closed orbit at lam > 0, which is the
  resolvent filter applied to the orbit's discrete Fourier series and
  stays accurate uniformly in lam; this (n, lanes) table is built per
  block of ``CHUNK`` lanes;
* the exponential window weights on [-S, 0] for a lane whose orbit did
  not close, sampled backward.

``orbit_info``, ``ProjectionEvaluator`` and ``node_moments`` are views on
the same engine, for any state.  ``SmoothingEvaluator`` keeps a direct
composite Gauss-Legendre rule on the RK4 path of ``characteristics``, as
the independent reference for the small-rate limit.

The state picks the path.  Homogeneous states (no potential) use the
straight-line closed form instead of the engine: ``line_filter`` per node,
and its fold onto the classes of ``AssemblyKernel`` for the assembly.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .characteristics import (STATIONARY_EPS, backward_path, default_dt, normalize_species,
                              rk4_step_arrays)
from .discretization import theta_reflect_permutation
from .errors import AssemblyError, OrbitError, VmspecError

N_S_MIN = 128          # node floor of the smoothing rule
NODES_PER_WAVE = 8.0   # smoothing-rule nodes per oscillation along the path
MAX_PERIOD = 1e4       # default search limit of ``orbit_info``
CHUNK = 1024           # lanes per block of the lam > 0 period-weight table
HORIZON_PERIODS = 25.0  # horizon, in periods, of an orbit that does not close
TOL_ZERO = 1e-6        # lam = 0 couplings above this fail the block-diagonal check


@dataclass(frozen=True)
class EvalOptions:
    """Knobs shared by the evaluators and the assembly.

    None of them picks the path: straight lines on homogeneous states, in
    ``line_filter`` and the fold of ``AssemblyKernel``, the orbit engine on
    every other state.
    """

    tol_tail_s: float = 1e-10      # truncation weight for the backward horizon
    k_osc: int = 16                # assumed highest spatial harmonic of integrands
    n_per_period: int = 128        # orbit samples per period (>= 64)
    dt: float = None
    tol_sym: float = 1e-8


# ---------------------------------------------------------------------------
# pointwise smoothing average
# ---------------------------------------------------------------------------

class SmoothingEvaluator:
    """Exponentially weighted backward-path average at fixed lam > 0."""

    def __init__(self, state, lam, opts=None):
        if lam <= 0:
            raise VmspecError("smoothing average needs lam > 0")
        self.state = state
        self.lam = float(lam)
        self.opts = opts or EvalOptions()
        self.horizon = -math.log(self.opts.tol_tail_s) / self.lam
        self._cache = {}
        # composite rule: enough panels for both the exponential scale and
        # the fastest expected oscillation along the path
        waves = self.opts.k_osc * self.horizon / state.period
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
        s = np.concatenate(nodes)
        w = np.concatenate(weights)
        order = np.argsort(-s)
        self.s_nodes = s[order]
        self.weights = w[order] * self.lam * np.exp(self.lam * self.s_nodes)

    def path(self, species, point):
        key = (normalize_species(species), point.x, point.v1, point.v2)
        if key not in self._cache:
            self._cache[key] = backward_path(self.state, key[0], point, self.s_nodes,
                                             self.opts.dt)
        return self._cache[key]

    def apply(self, species, k, point):
        """Weighted average of k(x, v1, v2) along the backward path from point."""
        xs, v1s, v2s = self.path(species, point)
        vals = np.asarray(k(xs, v1s, v2s), dtype=float)
        return float(np.sum(self.weights * vals))


# ---------------------------------------------------------------------------
# the orbit engine: periods, samples, one weighted reducer
# ---------------------------------------------------------------------------

def _hermite_root(F0, F1, D0, D1, h):
    """Crossing time in [0, h] of a function with endpoint values/slopes.

    Newton iterations on the cubic Hermite interpolant, seeded by the
    secant estimate; everything vectorized and clipped to the step.
    """
    denom = np.where(F0 == F1, 1.0, F0 - F1)
    tau = np.clip(F0 / denom, 0.0, 1.0)
    hD0, hD1 = h * D0, h * D1
    for _ in range(3):
        t2, t3 = tau * tau, tau * tau * tau
        H = ((2 * t3 - 3 * t2 + 1) * F0 + (t3 - 2 * t2 + tau) * hD0
             + (-2 * t3 + 3 * t2) * F1 + (t3 - t2) * hD1)
        dH = ((6 * t2 - 6 * tau) * F0 + (3 * t2 - 4 * tau + 1) * hD0
              + (-6 * t2 + 6 * tau) * F1 + (3 * t2 - 2 * tau) * hD1)
        dH = np.where(np.abs(dH) < 1e-300, 1.0, dH)
        tau = np.clip(tau - H / dH, 0.0, 1.0)
    return tau * h


def _orbit_periods_batch(state, sign, x0, v1, v2, dt, horizon, weights=None, groups=None):
    """Periods for a batch of lanes; unresolved lanes get the horizon.

    Passing lanes close after advancing one spatial period (the unwrapped
    coordinate tracks that exactly), trapped lanes after twice the spacing
    of consecutive turning points; event times are Hermite-refined.
    ``groups`` labels each lane with its collocation point (0, 1, ...):
    each group stops on its own weight, so every lane ends exactly as in a
    run of its group alone.  Only live lanes are stepped.
    Returns (periods, resolved, winding): winding is the direction (+1 or
    -1) of a lane that closed by passing, 0 otherwise.
    """
    n = x0.size
    P = state.period
    periods = np.full(n, horizon)
    resolved = np.zeros(n, dtype=bool)
    winding = np.zeros(n, dtype=int)
    # per stepped lane; compacted together once most lanes are done
    lane = np.arange(n)
    g = np.zeros(n, dtype=int) if groups is None else np.asarray(groups)
    wt = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    total = [float(np.sum(wt[g == k])) for k in range(int(g.max()) + 1)]
    xs = x0.astype(float)
    x = xs.copy()                  # never wrapped: the field is periodic anyway
    u = v1.astype(float).copy()
    w = v2.astype(float).copy()
    t1 = np.full(n, np.nan)        # first turning time
    t1[u == 0.0] = 0.0
    live = np.ones(n, dtype=bool)
    e = np.sqrt(1.0 + u * u + w * w)
    vh = u / e
    du = sign * (w / e) * state.b0(x)
    t = 0.0
    n_steps = int(math.ceil(horizon / dt))
    min_t = 8.0 * state.period     # give trapped lanes time to close
    for _ in range(n_steps):
        # the stragglers (near-separatrix and grazing lanes) fall back to
        # the horizon treatment anyway; a group stops once they hold
        # negligible mass of its weight
        if t > min_t:
            for k in np.unique(g[live]):
                mine = live & (g == k)
                if float(np.sum(wt[mine])) < 5e-4 * total[k]:
                    live &= ~mine
            if not live.any():
                break
        xn, un, wn = rk4_step_arrays(state, sign, x, u, w, dt)
        en = np.sqrt(1.0 + un * un + wn * wn)
        vh_new = un / en
        du_new = sign * (wn / en) * state.b0(xn)
        # passing closure: |x - x0| reaches one spatial period
        F0 = np.abs(x - xs) - P
        F1 = np.abs(xn - xs) - P
        hit = live & (F1 >= 0.0) & (F0 < 0.0)
        if hit.any():
            s_dir = np.sign(xn - xs)
            tau = _hermite_root(F0[hit], F1[hit], (s_dir * vh)[hit], (s_dir * vh_new)[hit], dt)
            periods[lane[hit]] = t + tau
            resolved[lane[hit]] = True
            winding[lane[hit]] = s_dir[hit]
        # turning points: twice the spacing of consecutive turnings
        flip = live & (np.sign(un) != np.sign(u)) & (u != 0.0) & (un != 0.0)
        if flip.any():
            tf = t + _hermite_root(u[flip], un[flip], du[flip], du_new[flip], dt)
            first = t1[flip]
            fresh = np.isnan(first)
            t1[np.flatnonzero(flip)[fresh]] = tf[fresh]
            second = lane[flip][~fresh]
            periods[second] = 2.0 * (tf[~fresh] - first[~fresh])
            resolved[second] = True
        live &= ~resolved[lane]
        if not live.any():
            break
        x, u, w, vh, du, t = xn, un, wn, vh_new, du_new, t + dt
        if 2 * np.count_nonzero(live) < live.size:
            lane, g, wt, xs, x, u, w, t1, vh, du = (
                a[live] for a in (lane, g, wt, xs, x, u, w, t1, vh, du))
            live = live[live]
    return periods, resolved, winding


def _orbit_stream(state, sign, x0, v1, v2, h, n_samples, dt):
    """Yield (x, v1, v2) of every lane at n_samples times h[lane] apart,
    starting at the lane's start (h < 0 runs backward).

    Each lane takes its own ceil(|h|/dt) substeps per sample.  With the
    lanes sorted by that count, substep j advances the suffix of lanes
    that need more than j, so no lane steps finer than it has to.
    """
    h = np.broadcast_to(np.asarray(h, dtype=float), x0.shape)
    m = np.maximum(1, np.ceil(np.abs(h) / dt).astype(int))
    order = np.argsort(m, kind="stable")
    back = np.argsort(order)
    m = m[order]
    sub = h[order] / m
    starts = np.searchsorted(m, np.arange(m[-1]), side="right")
    x, u, w = (np.asarray(a, dtype=float)[order] for a in (x0, v1, v2))
    for j in range(n_samples):
        yield x[back], u[back], w[back]
        if j == n_samples - 1:
            break
        for lo in starts:
            x[lo:], u[lo:], w[lo:] = rk4_step_arrays(state, sign, x[lo:], u[lo:], w[lo:],
                                                     sub[lo:])


def _weighted_moments(samples, G, kmax, omega):
    """m0[k] = sum_j G_j Z_j^k, m1[k] = sum_j G_j vh2_j Z_j^k and
    mv1 = Re sum_j G_j vh1_j, accumulated over a stream of samples; row
    G[j] weighs sample j and broadcasts over the lanes."""
    for j, (x, u, w) in enumerate(samples):
        if j == 0:
            m0 = np.zeros((kmax + 1, x.size), dtype=complex)
            m1 = np.zeros_like(m0)
            mv1 = np.zeros(x.size)
        e = np.sqrt(1.0 + u * u + w * w)
        Z = np.exp(1j * omega * x)
        vh2 = w / e
        pw = np.broadcast_to(G[j], Z.shape).astype(complex)
        mv1 += np.real(pw * (u / e))
        for k in range(kmax + 1):
            m0[k] += pw
            m1[k] += vh2 * pw
            if k < kmax:
                pw = pw * Z
    return m0, m1, mv1


def _period_weights(lam, periods, n):
    """Weights of n samples over one period of each lane.

    At lam = 0 every sample weighs 1/n: one column that broadcasts over
    the lanes.  At lam > 0 the samples run forward in own-period time; for a periodic
    signal kappa(s) = sum_m c_m exp(i m Omega s), c_m = fft(samples)/n, the
    backward average is sum_m c_m lam/(lam + i m Omega), which moves onto
    the samples as the weights fft(lam/(lam + i m Omega))/n.
    """
    if lam == 0.0:
        return np.full((n, 1), 1.0 / n)
    m = np.fft.fftfreq(n, d=1.0 / n)[:, None]          # signed integer modes
    fil = lam / (lam + 1j * m * (2.0 * np.pi / periods)[None, :])
    return np.fft.fft(fil, axis=0) / n


def _window_weights(lam, S, n_d):
    """Weights of n_d + 1 backward samples on [-S, 0] for lam e^(lam s).

    Piecewise-linear-in-kappa weights integrate the exponential factor
    exactly, so coarse steps do not distort the lam e^(lam s) profile.
    """
    u = lam * (S / n_d)
    alpha = (u * math.exp(u) - math.exp(u) + 1.0) / u
    beta = (math.exp(u) - 1.0 - u) / u
    decay = np.exp(-u * np.arange(n_d + 1))
    W = np.empty(n_d + 1)
    W[0] = decay[1] * alpha
    W[1:-1] = decay[2:] * alpha + decay[1:-1] * beta
    W[-1] = decay[-1] * beta
    return W[:, None]


def _one_lane(point):
    return np.array([point.x]), np.array([point.v1]), np.array([point.v2])


@dataclass(frozen=True)
class OrbitInfo:
    kind: str                      # "stationary" | "passing" | "trapped"
    period: float
    winding: int


def orbit_info(state, species, start, max_period=MAX_PERIOD, opts=None):
    """Classify the orbit through ``start`` and measure its minimal period.

    A one-lane run of ``_orbit_periods_batch``: passing orbits close after
    advancing x by one period P, trapped orbits after twice the gap
    between consecutive turnings, whatever the starting phase.
    """
    sign = normalize_species(species)
    e = start.energy
    if abs(start.v1 / e) < STATIONARY_EPS and \
            abs((start.v2 / e) * state.b0(start.x)) < STATIONARY_EPS:
        return OrbitInfo("stationary", 0.0, 0)
    dt = opts.dt if opts is not None and opts.dt is not None else default_dt(state)
    periods, resolved, winding = _orbit_periods_batch(state, sign, *_one_lane(start), dt,
                                                      max_period)
    if not resolved[0]:
        raise OrbitError("orbit not resolved within max_period=%.3g" % max_period)
    return OrbitInfo("passing" if winding[0] else "trapped", float(periods[0]),
                     int(winding[0]))


class ProjectionEvaluator:
    """Average over one orbit period; stationary points are left in place.

    The assembly's engine on one lane: the period from ``orbit_info``, or
    ``HORIZON_PERIODS * P`` when the orbit does not close within that
    horizon, then ``n_per_period`` samples and their mean.
    """

    def __init__(self, state, opts=None):
        self.state = state
        self.opts = opts or EvalOptions()

    def apply(self, species, k, point):
        sign = normalize_species(species)
        state, opts = self.state, self.opts
        horizon = HORIZON_PERIODS * state.period
        try:
            info = orbit_info(state, sign, point, horizon, opts)
        except OrbitError:
            info = None
        if info is not None and info.kind == "stationary":
            return float(k(np.asarray(point.x), np.asarray(point.v1), np.asarray(point.v2)))
        period = info.period if info is not None else horizon
        n = max(64, opts.n_per_period)
        dt = opts.dt if opts.dt is not None else default_dt(state)
        xs, v1s, v2s = (np.concatenate(c) for c in zip(
            *_orbit_stream(state, sign, *_one_lane(point), period / n, n, dt)))
        return float(np.mean(k(xs % state.period, v1s, v2s)))


# ---------------------------------------------------------------------------
# per-node moments for the assembly
# ---------------------------------------------------------------------------

def node_moments(state, species, lam, quad, kmax, x, opts=None):
    """Orbit-engine moments m0[k], m1[k], mv1 of every velocity node at one
    position or an array of M.

    One period pass and one sampling pass cover all positions at once.
    Each lane is sampled over one period (the horizon when it did not
    close) and reduced with the period weights.  At lam > 0 a lane that
    did not close has no Fourier series; it is sampled backward over the
    window [-S, 0] and reduced with the window weights instead.
    Returns m0, m1 of shape (kmax+1, M, N) and mv1 of shape (M, N); a
    scalar ``x`` drops the M axis.
    """
    sign = normalize_species(species)
    opts = opts or EvalOptions()
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    dt = opts.dt if opts.dt is not None else default_dt(state)
    horizon = HORIZON_PERIODS * state.period
    omega = 2.0 * np.pi / state.period
    n = opts.n_per_period
    M, N = xs.size, quad.n_nodes
    x0 = np.repeat(xs, N)
    v1, v2 = np.tile(quad.v1, M), np.tile(quad.v2, M)
    periods, resolved, _ = _orbit_periods_batch(state, sign, x0, v1, v2, dt, horizon,
                                                weights=np.tile(quad.w, M),
                                                groups=np.repeat(np.arange(M), N))
    m0 = np.empty((kmax + 1, M * N), dtype=complex)
    m1 = np.empty_like(m0)
    mv1 = np.empty(M * N)

    def reduce(lanes, h, n_samples, G):
        samples = _orbit_stream(state, sign, x0[lanes], v1[lanes], v2[lanes], h, n_samples, dt)
        m0[:, lanes], m1[:, lanes], mv1[lanes] = _weighted_moments(samples, G, kmax, omega)

    # at lam = 0 a lane that did not close is averaged over the horizon
    periodic = np.flatnonzero(resolved | (lam == 0.0))
    # at lam = 0 the weight is one number and every lane streams at once; at
    # lam > 0 the (n, lanes) weight table is built per block of CHUNK lanes,
    # taken in period order so that each block's substep counts are alike
    block = CHUNK if lam > 0.0 else max(periodic.size, 1)
    periodic = periodic[np.argsort(periods[periodic], kind="stable")]
    for lo in range(0, periodic.size, block):
        sl = periodic[lo:lo + block]
        reduce(sl, periods[sl] / n, n, _period_weights(lam, periods[sl], n))
    if lam > 0.0 and not resolved.all():
        S = min(horizon, -math.log(opts.tol_tail_s) / lam)
        n_d = 4 * n
        un = np.flatnonzero(~resolved)
        reduce(un, -S / n_d, n_d + 1, _window_weights(lam, S, n_d))
    if np.ndim(x) == 0:
        return m0.reshape(kmax + 1, N), m1.reshape(kmax + 1, N), mv1
    return m0.reshape(kmax + 1, M, N), m1.reshape(kmax + 1, M, N), mv1.reshape(M, N)


def species_pair_moments(state, lam, quad, kmax, x, opts=None):
    """Moments for both species at one position or an array of them.

    Under the mirror pairing the + trajectories are the v2-reflection of
    the - trajectories, to roundoff, so the + moments are the - ones with
    the nodes (the last axis) relabeled: half the trajectory work.
    ``node_moments(state, +1, ...)`` is the direct reference.
    """
    m0, m1, mv1 = node_moments(state, -1, lam, quad, kmax, x, opts)
    perm = theta_reflect_permutation(quad)
    return {-1: (m0, m1, mv1), +1: (m0[..., perm], -m1[..., perm], mv1[..., perm])}


# ---------------------------------------------------------------------------
# velocity-integrated moment profiles and Galerkin assembly
# ---------------------------------------------------------------------------

def _damping(lam, a2):
    """lam^2/(lam^2 + a^2), the real part of lam/(lam + i a); at lam = 0 only row k = 0 is 1."""
    if lam == 0.0:
        return np.eye(len(a2), 1) * np.ones_like(a2)
    re = a2 + lam * lam            # the divide runs in place: one fresh array, not two
    return np.divide(lam * lam, re, out=re)


def line_filter(quad, kmax, omega, lam):
    """lam/(lam + i k omega vh1) on every node, as (real, imag) of shape (kmax+1, N):
    the straight-line path average of exp(i k omega X) divided by its x-phase."""
    a = np.arange(kmax + 1)[:, None] * omega * (quad.v1 / quad.e)[None, :]
    re = _damping(lam, a * a)
    return re, (-(a / lam) * re if lam > 0.0 else np.zeros_like(a))


def _quarter_classes(quad):
    """Class of every node under theta -> -theta and theta -> pi - theta; class
    j < ceil(n_theta/4) of a ring is angle j and its images.  At n_theta = 2
    (mod 4) the angle pi/2 is its own image: its class holds two nodes."""
    n = quad.theta_nodes.size
    j = np.minimum(np.arange(n), np.arange(n)[::-1])      # theta -> -theta
    j = np.minimum(j, n // 2 - 1 - j)                     # theta -> pi - theta
    n_cls = (n + 3) // 4
    return (np.arange(quad.r_nodes.size)[:, None] * n_cls + j[None, :]).ravel(), n_cls


@dataclass
class AssemblyKernel:
    """The lam-independent part of the assembly on one state and grid.

    ``mu[s]`` holds species s's (mu_e, mu_p) at the M collocation points
    and m_e, m_vp, m_p the local moments.  On straight-line (homogeneous)
    states the filter lam^2/(lam^2 + a^2), a = k w vh1, and the summed mu_e w
    are even in v1 and v2 (ions mirror electrons), so per class of
    ``_quarter_classes`` it keeps a2 = a^2 and W = [mu_e w, mu_e vh2^2 w]: a
    rate costs one filter on a quarter of the nodes.  T3, T4, c and d are 0.
    """

    vh1: np.ndarray
    vh2: np.ndarray
    phases: np.ndarray             # exp(i k w x_m), (kmax+1, M)
    mu: dict
    m_e: np.ndarray
    m_vp: np.ndarray
    m_p: np.ndarray
    a2: np.ndarray = None          # (kmax+1, classes)
    W: np.ndarray = None           # (classes, 2)
    lint: float = 0.0


def assembly_kernel(state, quad, kmax, x_grid):
    """Evaluate the profile once; build per state, quadrature, grid and kmax."""
    x_grid = np.asarray(x_grid, dtype=float)
    M = x_grid.size
    vh1, vh2 = quad.v1 / quad.e, quad.v2 / quad.e
    ks = np.arange(kmax + 1)[:, None] * (2.0 * np.pi / state.period)
    # without a potential the fields do not depend on x: one row, viewed M times
    rows = x_grid[:1] if state.homogeneous else x_grid
    kern = AssemblyKernel(vh1=vh1, vh2=vh2, phases=np.exp(1j * ks * x_grid[None, :]), mu={},
                          m_e=0.0, m_vp=0.0, m_p=0.0)
    for sign in (-1, +1):
        p = quad.v2[None, :] + sign * state.psi0(rows)[:, None]
        mu_e = state.profile.mu_e(sign, quad.e[None, :], p)
        mu_p = state.profile.mu_p(sign, quad.e[None, :], p)
        kern.mu[sign] = (np.broadcast_to(mu_e, (M, quad.n_nodes)),
                         np.broadcast_to(mu_p, (M, quad.n_nodes)))
        kern.m_e = kern.m_e + np.sum(mu_e * quad.w, axis=1)
        kern.m_vp = kern.m_vp + np.sum(vh2 * mu_p * quad.w, axis=1)
        kern.m_p = kern.m_p + np.sum(mu_p * quad.w, axis=1)
    if state.homogeneous:
        we = (kern.mu[-1][0][0] + kern.mu[+1][0][0]) * quad.w      # species-summed mu_e w
        cls, n_cls = _quarter_classes(quad)
        kern.W = np.column_stack([np.bincount(cls, f) for f in (we, we * vh2 * vh2)])
        rep = vh1.reshape(-1, quad.theta_nodes.size)[:, :n_cls].ravel()
        kern.a2 = (ks * rep[None, :]) ** 2
        kern.lint = float(kern.W[:, 0] @ (rep * rep))
    kern.m_e, kern.m_vp, kern.m_p = (np.broadcast_to(v, M)
                                     for v in (kern.m_e, kern.m_vp, kern.m_p))
    return kern


@dataclass
class MomentProfiles:
    """Velocity integrals of the path moments on the collocation grid.

    T1[k,m] = sum_s int mu_e^s   * avg(exp(ikwX)) dv        at x_m
    T2[k,m] = sum_s int mu_e^s v2hat * avg(V2hat exp(ikwX)) dv
    T3[k,m] = sum_s int mu_e^s   * avg(V2hat exp(ikwX)) dv
    T4[k,m] = sum_s int mu_e^s v2hat * avg(exp(ikwX)) dv
    c, d, lint are the avg(V1hat) integrals against mu_e, v2hat*mu_e and
    v1hat*mu_e; m_e, m_vp, m_p are the local (average-free) moments.
    """

    T1: np.ndarray
    T2: np.ndarray
    T3: np.ndarray
    T4: np.ndarray
    c: np.ndarray
    d: np.ndarray
    lint: np.ndarray
    m_e: np.ndarray
    m_vp: np.ndarray
    m_p: np.ndarray


def moment_profiles(state, lam, quad, kmax, x_grid, opts=None, kernel=None):
    """Moment profiles at one rate; ``kernel`` is built here when not given."""
    if kernel is None:
        kernel = assembly_kernel(state, quad, kmax, x_grid)
    M = x_grid.size

    if state.homogeneous:
        # translation invariance: velocity integrals once, phases per x; on
        # the folded table the filter's v1-odd imaginary part is gone
        tau = _damping(lam, kernel.a2) @ kernel.W
        T1, T2 = (tau[:, j:j + 1] * kernel.phases for j in range(2))
        zero = np.zeros_like(T1)
        return MomentProfiles(T1, T2, zero, zero, np.zeros(M), np.zeros(M),
                              np.full(M, kernel.lint), kernel.m_e, kernel.m_vp, kernel.m_p)

    # every collocation point in one orbit pass, then contractions over the nodes
    vh1, vh2 = kernel.vh1, kernel.vh2
    T = np.zeros((4, kmax + 1, M), dtype=complex)
    c, d, lint = np.zeros(M), np.zeros(M), np.zeros(M)
    for sign, (m0, m1, mv1) in species_pair_moments(state, lam, quad, kmax, x_grid,
                                                    opts).items():
        we = kernel.mu[sign][0] * quad.w
        T[0] += np.einsum("kmn,mn->km", m0, we)
        T[1] += np.einsum("kmn,mn->km", m1, we * vh2)
        T[2] += np.einsum("kmn,mn->km", m1, we)
        T[3] += np.einsum("kmn,mn->km", m0, we * vh2)
        c += np.sum(we * mv1, axis=1)
        d += np.sum(we * vh2 * mv1, axis=1)
        lint += np.sum(we * vh1 * mv1, axis=1)
    return MomentProfiles(*T, c, d, lint, kernel.m_e, kernel.m_vp, kernel.m_p)


@dataclass
class OperatorBlocks:
    """Galerkin matrices of the linearized field system at one lam.

    A1 acts on the zero-mean electric potential, A2 on the full magnetic
    potential, B couples them, C and D couple to the mean-field amplitude
    and l is the current-response scalar.  ``defects`` records the
    pre-symmetrization asymmetry; ``raw`` keeps the one-sided assemblies.
    """

    lam: float
    n_modes: int
    period: float
    A1: np.ndarray
    A2: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    l: float
    defects: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)


def _expand_profile(T, basis, columns):
    """Grid profiles of Q-applied basis functions: column j from harmonic k."""
    M = basis.x_grid.size
    G = np.empty((M, len(columns)))
    P = basis.period
    for jj, j in enumerate(columns):
        k = basis.k_index[j]
        fac = (1.0 / np.sqrt(P)) if k == 0 else np.sqrt(2.0 / P)
        row = T[k, :]
        G[:, jj] = fac * (np.imag(row) if basis.is_sin[j] else np.real(row))
    return G


def _symmetrize(Mx, name, tol_sym, defects):
    defect = float(np.max(np.abs(Mx - Mx.T)))
    scale = max(float(np.max(np.abs(Mx))), 1e-300)
    defects[name] = defect / scale
    if defect > tol_sym * scale:
        raise AssemblyError("assembly inconsistency: %s asymmetry %.3e (relative %.3e)"
                            % (name, defect, defect / scale))
    return 0.5 * (Mx + Mx.T)


def assemble_blocks(state, lam, basis, quad, opts=None, kernel=None):
    """All operator blocks at a single growth parameter lam >= 0.

    ``kernel`` is the state's ``AssemblyKernel`` on this basis and
    quadrature; callers that assemble at many rates build it once.
    """
    if basis.mean_zero:
        raise VmspecError("assemble_blocks needs the full basis (constant included)")
    if lam < 0:
        raise VmspecError("lam must be nonnegative")
    opts = opts or EvalOptions()
    kmax = basis.n_modes // 2
    x = basis.x_grid
    w = basis.quad_weight
    prof = moment_profiles(state, lam, quad, kmax, x, opts, kernel)

    Uf = basis.values                       # (M, N+1)
    mz = [j for j in range(basis.n_functions) if basis.k_index[j] > 0]
    Umz = Uf[:, mz]
    lap_full = basis.laplacian_diagonal()
    lap_mz = lap_full[mz]

    G1 = _expand_profile(prof.T1, basis, mz)
    G2 = _expand_profile(prof.T2, basis, range(basis.n_functions))
    G3 = _expand_profile(prof.T3, basis, range(basis.n_functions))
    G4 = _expand_profile(prof.T4, basis, mz)

    A1 = np.diag(lap_mz) + w * (Umz.T @ (-prof.m_e[:, None] * Umz)) + w * (Umz.T @ G1)
    A2 = (np.diag(lap_full) + lam ** 2 * np.eye(basis.n_functions)
          + w * (Uf.T @ (-prof.m_vp[:, None] * Uf)) - w * (Uf.T @ G2))
    B_raw = w * (Umz.T @ (prof.m_p[:, None] * Uf + G3))
    Bstar_raw = w * (Uf.T @ (prof.m_p[:, None] * Umz + G4))
    C = w * (Umz.T @ prof.c)
    D = w * (Uf.T @ prof.d)
    l = float(w * np.sum(prof.lint) / state.period)

    defects = {}
    A1 = _symmetrize(A1, "A1", opts.tol_sym, defects)
    A2 = _symmetrize(A2, "A2", opts.tol_sym, defects)
    scale = max(float(np.max(np.abs(B_raw))), float(np.max(np.abs(Bstar_raw))), 1.0)
    defects["B_adjoint"] = float(np.max(np.abs(B_raw - Bstar_raw.T))) / scale
    B = 0.5 * (B_raw + Bstar_raw.T)

    return OperatorBlocks(lam=float(lam), n_modes=basis.n_modes, period=state.period,
                          A1=A1, A2=A2, B=B, C=C, D=D, l=l, defects=defects,
                          raw={"B": B_raw, "Bstar": Bstar_raw})


@dataclass(frozen=True)
class ModalBasis:
    """Ascending-ordered eigenpairs of the lam = 0 diagonal blocks.

    Columns of ``a1_vectors`` live in the zero-mean basis, columns of
    ``a2_vectors`` in the full basis; signs follow the first-significant-
    coefficient convention so truncations are reproducible.
    """

    a1_values: np.ndarray
    a1_vectors: np.ndarray
    a2_values: np.ndarray
    a2_vectors: np.ndarray

    @property
    def n_available(self):
        return min(self.a1_values.size, self.a2_values.size)


def assemble_M(blocks, n, modal):
    """Truncated symmetric matrix of size 2n+1 in the modal coordinates.

    At lam = 0 the couplings must already be at quadrature-noise level;
    they are checked against TOL_ZERO and frozen out, which realizes the
    exact block-diagonal form the counting argument relies on.
    """
    if n > modal.n_available:
        raise VmspecError("truncation n=%d exceeds available modes %d" % (n, modal.n_available))
    if n < 1:
        raise VmspecError("truncation must keep at least one mode")
    Xi = modal.a1_vectors[:, :n]
    Ze = modal.a2_vectors[:, :n]
    M11 = -(Xi.T @ blocks.A1 @ Xi)
    M22 = Ze.T @ blocks.A2 @ Ze
    M12 = Xi.T @ blocks.B @ Ze
    M13 = Xi.T @ blocks.C
    M23 = -(Ze.T @ blocks.D)
    M33 = -blocks.period * (blocks.lam ** 2 - blocks.l)
    if blocks.lam == 0.0:
        worst = max(float(np.max(np.abs(M12))) if M12.size else 0.0,
                    float(np.max(np.abs(M13))) if M13.size else 0.0,
                    float(np.max(np.abs(M23))) if M23.size else 0.0)
        if worst > TOL_ZERO:
            raise AssemblyError("couplings fail to vanish at lam=0: %.3e" % worst)
        M12 = np.zeros_like(M12)
        M13 = np.zeros_like(M13)
        M23 = np.zeros_like(M23)
    out = np.zeros((2 * n + 1, 2 * n + 1))
    out[:n, :n] = 0.5 * (M11 + M11.T)
    out[n:2 * n, n:2 * n] = 0.5 * (M22 + M22.T)
    out[:n, n:2 * n] = M12
    out[n:2 * n, :n] = M12.T
    out[:n, 2 * n] = M13
    out[2 * n, :n] = M13
    out[n:2 * n, 2 * n] = M23
    out[2 * n, n:2 * n] = M23
    out[2 * n, 2 * n] = M33
    return out


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def write_matrix_csv(path, mat):
    mat = np.atleast_2d(np.asarray(mat))
    with open(path, "w", newline="") as fh:
        wtr = csv.writer(fh)
        wtr.writerow(["row", "col", "value"])
        for i in range(mat.shape[0]):
            for j in range(mat.shape[1]):
                wtr.writerow([i, j, repr(float(mat[i, j]))])


def export_blocks(blocks, outdir, stem="blocks", tolerances=None, extra=None):
    """CSV matrices plus a JSON manifest; returns the manifest path."""
    import os
    os.makedirs(outdir, exist_ok=True)
    names = {"A1": blocks.A1, "A2": blocks.A2, "B": blocks.B,
             "C": blocks.C, "D": blocks.D}
    for name, mat in names.items():
        write_matrix_csv(os.path.join(outdir, "%s_%s.csv" % (stem, name)), mat)
    manifest = {
        "lambda": blocks.lam,
        "n_modes": blocks.n_modes,
        "period": blocks.period,
        "l": blocks.l,
        "defects": blocks.defects,
        "tolerances": tolerances or {},
    }
    manifest.update(extra or {})
    mpath = os.path.join(outdir, "%s_manifest.json" % stem)
    with open(mpath, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return mpath
