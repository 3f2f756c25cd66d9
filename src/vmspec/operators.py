"""Path averages and Galerkin assembly of the wave-operator blocks.

Every operator is built from averages of a function kappa along backward
particle paths: the exponentially weighted average lam e^(lam s) on
(-inf, 0] at growth rate lam > 0, and its lam = 0 limit, the average over
one orbit period, which is the projection onto flow-invariant functions.

Magnetized orbits come from one engine, and one assembly makes one pass
over the lanes, the M collocation points times the N velocity nodes.  On
an even well a lane and its x-mirror image share one integration
(``_mirror_lanes``), which halves the lanes.
``_orbit_periods_batch`` measures each lane's period, or reports that the
lane did not close within the horizon; each point (or mirror pair of
points) stops on its own weight and only live lanes are stepped.
``_orbit_stream`` then yields the samples of every lane, each lane taking
its own number of substeps per sample.  One streaming reducer,
``_weighted_moments``, adds each sample, with its weight G, into the three
moment families that enter the assembly,

    m0[k] = sum_j G_j Z_j^k,   m1[k] = sum_j G_j vh2_j Z_j^k,
    mv1 = sum_j G_j vh1_j,  with Z = exp(i w X),

and the rate enters only through the real weights G:

* 1/n at lam = 0, the plain orbit average, one number for every lane;
* fft(lam/(lam + i m Omega))/n on a closed orbit at lam > 0, which is the
  resolvent filter applied to the orbit's discrete Fourier series and
  stays accurate uniformly in lam; this (n, lanes) table is built per
  block of ``CHUNK`` lanes;
* the exponential window weights on [-S, 0] for a lane whose orbit did
  not close, sampled backward and normalized to unit mass, so that the
  average of 1 is 1 even where the window cuts the tail e^(-lam S).

``node_moments`` is the engine's public view, for any state.  It also
reports the largest drift of the two invariants, e and v2 - psi0(x),
between the first and the last sample of every stream.

Every orbit is one of species -; every reader takes species + from it by
relabeling the nodes at their v2-images (docs/DECISIONS.md section 4).

The state picks the path.  Homogeneous states (no potential) use the
straight-line filter ``damping`` instead of the engine, on the quarter
classes of ``discretization.fold_quarters``, where it is constant: the
assembly and the mode's contraction in ``growing_mode`` read the class table
``AssemblyKernel`` from ``assembly_kernel``, which keeps the last one built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .characteristics import default_dt, rk4_step_arrays
from .discretization import fold_quarters, ring_blocks, v1_reflect_permutation
from .errors import AssemblyError, VmspecError

CHUNK = 1024           # lanes per block of the lam > 0 period-weight table
HORIZON_PERIODS = 25.0  # horizon, in periods, of an orbit that does not close
TOL_WINDOW = 1e-10     # tail weight e^(-lam S) that the lam > 0 backward window leaves out
TOL_ZERO = 1e-6        # lam = 0 couplings above this fail the block-diagonal check


@dataclass(frozen=True)
class EvalOptions:
    """The two knobs the orbit engine and the assembly read.

    Neither picks the path: straight lines on homogeneous states, on the
    classes of ``fold_quarters``, the orbit engine on every other state.
    Neither sets the step: the engine reads ``default_dt(state)`` itself.
    """

    n_per_period: int = 128        # orbit samples per period (>= 64)
    tol_sym: float = 1e-8

    def __post_init__(self):
        if self.n_per_period < 64:
            raise VmspecError("n_per_period must be at least 64, got %r" % self.n_per_period)


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


def _orbit_periods_batch(state, x0, v1, v2, horizon, weights=None, groups=None):
    """Periods for a batch of lanes; unresolved lanes get the horizon.

    Passing lanes close after advancing one spatial period (the unwrapped
    coordinate tracks that exactly), trapped lanes after twice the spacing
    of consecutive turning points; event times are Hermite-refined.
    ``groups`` labels each lane with its collocation point (0, 1, ...):
    each group stops on its own weight, so every lane ends exactly as in a
    run of its group alone.  Only live lanes are stepped.
    Returns (periods, resolved).  Lanes step at ``default_dt(state)``.
    """
    n = x0.size
    P = state.period
    dt = default_dt(state)
    periods = np.full(n, horizon)
    resolved = np.zeros(n, dtype=bool)
    # per stepped lane; compacted together once most lanes are done
    lane = np.arange(n)
    g = np.zeros(n, dtype=int) if groups is None else np.asarray(groups)
    wt = np.ones(n) if weights is None else np.asarray(weights, dtype=float)
    total = np.bincount(g, wt)
    xs = x0.astype(float)
    x = xs.copy()                  # never wrapped: the field is periodic anyway
    u = v1.astype(float).copy()
    w = v2.astype(float).copy()
    t1 = np.full(n, np.nan)        # first turning time
    t1[u == 0.0] = 0.0
    live = np.ones(n, dtype=bool)
    e = np.sqrt(1.0 + u * u + w * w)
    vh = u / e
    b = state.b0(x)
    du = -(w / e) * b
    t = 0.0
    n_steps = int(math.ceil(horizon / dt))
    min_t = 8.0 * state.period     # give trapped lanes time to close
    for _ in range(n_steps):
        # the stragglers (near-separatrix and grazing lanes) fall back to
        # the horizon treatment anyway; a group stops once they hold
        # negligible mass of its weight
        if t > min_t:
            spent = np.bincount(g[live], wt[live], minlength=total.size) < 5e-4 * total
            live &= ~spent[g]
            if not live.any():
                break
        xn, un, wn = rk4_step_arrays(state, x, u, w, dt, b)
        en = np.sqrt(1.0 + un * un + wn * wn)
        vh_new = un / en
        bn = state.b0(xn)
        du_new = -(wn / en) * bn
        # passing closure: |x - x0| reaches one spatial period
        F0 = np.abs(x - xs) - P
        F1 = np.abs(xn - xs) - P
        hit = live & (F1 >= 0.0) & (F0 < 0.0)
        if hit.any():
            s_dir = np.sign(xn - xs)
            tau = _hermite_root(F0[hit], F1[hit], (s_dir * vh)[hit], (s_dir * vh_new)[hit], dt)
            periods[lane[hit]] = t + tau
            resolved[lane[hit]] = True
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
        x, u, w, vh, du, b, t = xn, un, wn, vh_new, du_new, bn, t + dt
        if 2 * np.count_nonzero(live) < live.size:
            lane, g, wt, xs, x, u, w, t1, vh, du, b = (
                a[live] for a in (lane, g, wt, xs, x, u, w, t1, vh, du, b))
            live = live[live]
    return periods, resolved


def _orbit_stream(state, x0, v1, v2, h, n_samples):
    """Yield (x, v1, v2) of every lane at n_samples times h[lane] apart,
    starting at the lane's start (h < 0 runs backward).

    Each lane takes its own ceil(|h|/dt) substeps per sample, with
    dt = ``default_dt(state)``.  With the lanes sorted by that count,
    substep j advances the suffix of lanes that need more than j, so no
    lane steps finer than it has to.
    """
    h = np.broadcast_to(np.asarray(h, dtype=float), x0.shape)
    m = np.maximum(1, np.ceil(np.abs(h) / default_dt(state)).astype(int))
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
            x[lo:], u[lo:], w[lo:] = rk4_step_arrays(state, x[lo:], u[lo:], w[lo:], sub[lo:])


def _weighted_moments(samples, G, kmax, omega):
    """m0[k] = sum_j G_j Z_j^k, m1[k] = sum_j G_j vh2_j Z_j^k and
    mv1 = sum_j G_j vh1_j, accumulated over a stream of samples; row
    G[j] weighs sample j and broadcasts over the lanes.  The stream's last
    sample (x, v1, v2) comes fourth."""
    for j, (x, u, w) in enumerate(samples):
        if j == 0:
            m0 = np.zeros((kmax + 1, x.size), dtype=complex)
            m1 = np.zeros_like(m0)
            mv1 = np.zeros(x.size)
        e = np.sqrt(1.0 + u * u + w * w)
        Z = np.exp(1j * omega * x)
        vh2 = w / e
        pw = np.broadcast_to(G[j], Z.shape)
        mv1 += pw * (u / e)
        for k in range(kmax + 1):
            m0[k] += pw
            m1[k] += vh2 * pw
            if k < kmax:
                pw = pw * Z
    return m0, m1, mv1, (x, u, w)


def _period_weights(lam, periods, n):
    """Weights of n samples over one period of each lane.

    At lam = 0 every sample weighs 1/n: one column that broadcasts over
    the lanes.  At lam > 0 the samples run forward in own-period time; for a periodic
    signal kappa(s) = sum_m c_m exp(i m Omega s), c_m = fft(samples)/n, the
    backward average is sum_m c_m lam/(lam + i m Omega), which moves onto
    the samples as the weights fft(lam/(lam + i m Omega))/n.  ``hfft``
    gives mode -m the conjugate filter of mode m and the Nyquist mode the
    real part of its own, split evenly between -n/2 and n/2: G is real.
    """
    if lam == 0.0:
        return np.full((n, 1), 1.0 / n)
    m = np.arange(n // 2 + 1)[:, None]
    fil = lam / (lam + 1j * m * (2.0 * np.pi / periods)[None, :])
    return np.fft.hfft(fil, n, axis=0) / n


def _window_weights(lam, S, n_d):
    """Weights of n_d + 1 backward samples on [-S, 0] for lam e^(lam s).

    Piecewise-linear-in-kappa weights integrate the exponential factor
    exactly, so coarse steps do not distort the lam e^(lam s) profile.
    They sum to 1 - e^(-lam S) and are divided by that sum: the window
    carries unit mass however much tail it cuts.
    """
    u = lam * (S / n_d)
    alpha = (u * math.exp(u) - math.exp(u) + 1.0) / u
    beta = (math.exp(u) - 1.0 - u) / u
    decay = np.exp(-u * np.arange(n_d + 1))
    W = np.empty(n_d + 1)
    W[0] = decay[1] * alpha
    W[1:-1] = decay[2:] * alpha + decay[1:-1] * beta
    W[-1] = decay[-1] * beta
    return (W / np.sum(W))[:, None]


# ---------------------------------------------------------------------------
# per-node moments for the assembly
# ---------------------------------------------------------------------------

class NodeMoments(tuple):
    """(m0, m1, mv1) as ``node_moments`` returns them; ``resolved`` marks the
    lanes whose orbit closed within the horizon, shaped like mv1, and
    ``drift`` holds the largest |de| and |dp| of the orbit pass."""

    def __new__(cls, m0, m1, mv1, resolved, drift):
        out = super().__new__(cls, (m0, m1, mv1))
        out.resolved = resolved
        out.drift = drift
        return out


def _mirror_lanes(state, xs, quad):
    """Mirror of each of the M*N lanes (point-major), or -1 where it has none.

    When b0 is odd (``state.potential.even``), (x, v1, v2) -> (-x, -v1, v2)
    maps orbits onto orbits, with no time reversal:
    lane (x_a, n) mirrors lane (x_b, perm[n]) when x_a + x_b = 0 mod P,
    with perm the relabeling theta -> pi - theta.  A lane at x = 0 or P/2
    may be its own mirror.
    """
    M, N = xs.size, quad.n_nodes
    mirror = np.full((M, N), -1)
    if state.potential.even:
        d = (xs[:, None] + xs[None, :]) / state.period
        a, b = np.nonzero(np.abs(d - np.round(d)) <= 1e-12)
        mirror[a] = b[:, None] * N + v1_reflect_permutation(quad)[None, :]
    mirror = mirror.ravel()
    # repeated positions can break the pairing; their lanes stay unpaired
    ok = mirror >= 0
    ok[ok] = mirror[mirror[ok]] == np.flatnonzero(ok)
    return np.where(ok, mirror, -1)


def node_moments(state, lam, quad, kmax, x, opts=None):
    """Orbit-engine moments m0[k], m1[k], mv1 of species - at every velocity
    node, at one position or an array of M.

    One period pass and one sampling pass cover all positions at once.
    Each lane is sampled over one period (the horizon when it did not
    close) and reduced with the period weights.  At lam > 0 a lane that
    did not close has no Fourier series; it is sampled backward over the
    window [-S, 0] and reduced with the window weights instead.

    Of each pair of ``_mirror_lanes`` one lane is integrated, with weight
    2 in its class (a point and its mirror point).  Along the mirror orbit
    Z -> conj(Z), vh1 -> -vh1 and vh2 stays, so the image's m0 and m1 are
    the conjugates and its mv1 the negative (docs/DECISIONS.md section 6).

    Returns ``NodeMoments``: m0, m1 of shape (kmax+1, M, N) and mv1 and
    ``resolved`` of shape (M, N); a scalar ``x`` drops the M axis.  Its
    ``drift`` is {"e": max |de|, "p": max |dp|} between the first and the
    last sample of every stream, with p = v2 - psi0(x).
    """
    opts = opts or EvalOptions()
    xs = np.atleast_1d(np.asarray(x, dtype=float))
    horizon = HORIZON_PERIODS * state.period
    omega = 2.0 * np.pi / state.period
    n = opts.n_per_period
    M, N = xs.size, quad.n_nodes
    # integrate one representative per mirror pair: the lower-numbered lane
    mirror = _mirror_lanes(state, xs, quad)
    rep = np.flatnonzero((mirror < 0) | (mirror >= np.arange(M * N)))
    twin = mirror[rep]
    paired = twin > rep
    x0 = np.repeat(xs, N)[rep]
    v1, v2 = np.tile(quad.v1, M)[rep], np.tile(quad.v2, M)[rep]
    # a class is labeled by its lower point, which holds its representatives
    periods, resolved = _orbit_periods_batch(state, x0, v1, v2, horizon,
                                             weights=np.tile(quad.w, M)[rep]
                                             * np.where(paired, 2.0, 1.0),
                                             groups=rep // N)
    m0 = np.empty((kmax + 1, rep.size), dtype=complex)
    m1 = np.empty_like(m0)
    mv1 = np.empty(rep.size)
    drift = {"e": 0.0, "p": 0.0}

    def invariants(x_, u, w):
        return np.sqrt(1.0 + u * u + w * w), w - state.psi0(x_)

    def reduce(lanes, h, n_samples, G):
        start = x0[lanes], v1[lanes], v2[lanes]
        samples = _orbit_stream(state, *start, h, n_samples)
        m0[:, lanes], m1[:, lanes], mv1[lanes], end = _weighted_moments(samples, G, kmax, omega)
        for key, a, b in zip("ep", invariants(*start), invariants(*end)):
            drift[key] = max(drift[key], float(np.max(np.abs(b - a))))

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
        S = min(horizon, -math.log(TOL_WINDOW) / lam)
        n_d = 4 * n
        un = np.flatnonzero(~resolved)
        reduce(un, -S / n_d, n_d + 1, _window_weights(lam, S, n_d))
    # every lane from its representative, the mirror images by conjugation
    images = twin[paired]
    src = np.empty(M * N, dtype=int)
    src[rep] = np.arange(rep.size)
    src[images] = np.flatnonzero(paired)
    m0, m1, mv1, resolved = m0[:, src], m1[:, src], mv1[src], resolved[src]
    m0[:, images], m1[:, images], mv1[images] = (m0[:, images].conj(), m1[:, images].conj(),
                                                 -mv1[images])
    shape = (N,) if np.ndim(x) == 0 else (M, N)
    return NodeMoments(m0.reshape(kmax + 1, *shape), m1.reshape(kmax + 1, *shape),
                       mv1.reshape(shape), resolved.reshape(shape), drift)


# ---------------------------------------------------------------------------
# velocity-integrated moment profiles and Galerkin assembly
# ---------------------------------------------------------------------------

def damping(lam, kw, freq):
    """lam^2/(lam^2 + (kw freq)^2) on the (kw, freq) grid, the real part of the straight-line
    filter lam/(lam + i kw freq), formed in one array; at lam = 0 only row k = 0 is 1."""
    out = np.multiply.outer(kw, freq)
    if lam == 0.0:
        out[1:], out[0] = 0.0, 1.0
        return out
    np.square(out, out=out)
    out += lam * lam
    return np.divide(lam * lam, out, out=out)


@dataclass(frozen=True)
class AssemblyKernel:
    """The lam-independent part of the assembly on a homogeneous state.

    On straight lines ``damping`` and vh2^2 are constant on each class of
    ``fold_quarters``, and vh2, mu_e, mu_p on each half of one, so the kernel
    keeps class tables only, built a block of ``ring_blocks`` at a time:
    ``rep``, the |vh1| of each class, the sums W = [2 mu_e w, 2 mu_e vh2^2 w],
    and ``halves``, the rows (vh2, mu_e, mu_p) of species - at each class's
    upper and lower representative.  m_e, m_vp and lint are twice those of
    species -, and species + is the mirror of the rows (the species mirror,
    docs/DECISIONS.md section 4).  A rate costs one filter on a quarter of the
    nodes; mu_e is even in v1, so c is 0.  Every reader shares the one kernel, so
    its arrays are read-only.  A magnetized state keeps no kernel.
    """

    m_e: np.ndarray
    m_vp: np.ndarray
    rep: np.ndarray                # (classes,)
    W: np.ndarray                  # (classes, 2)
    halves: np.ndarray             # (2, 3, classes): upper, lower
    lint: float


def species_mu(state, quad, x):
    """Species -'s (mu_e, mu_p) at the points x, as (M, N) arrays; without a
    potential they do not depend on x, and one row (1, N) serves every x.
    Species + is its mirror, (mu_e, -mu_p) at the node ``theta_reflect_permutation``
    gives, which every reader takes by relabeling its own nodes."""
    rows = x[:1] if state.homogeneous else x
    e, p = quad.e[None, :], quad.v2[None, :] - state.psi0(rows)[:, None]
    return state.profile.mu_e(e, p), state.profile.mu_p(e, p)


@lru_cache(maxsize=1)
def assembly_kernel(state, quad):
    """A homogeneous state's ``AssemblyKernel``: the profile once per node, for species -.
    The last one built is returned to the same state and quadrature objects; any other
    pair builds afresh, so a sweep, its search and its mode share one build."""
    prof, blocks = state.profile, list(ring_blocks(quad))
    n_cls = blocks[-1][1].stop
    rep, W, halves, m_vp = np.empty(n_cls), np.empty((n_cls, 2)), np.empty((2, 3, n_cls)), 0.0
    for on, cl in blocks:
        e, v2, w = quad.e[on], quad.v2[on], quad.w[on]
        R = np.array([v2 / e, prof.mu_e(e, v2), prof.mu_p(e, v2)])
        we = 2.0 * R[1] * w
        W[cl] = np.column_stack([fold_quarters(quad, f) for f in (we, we * R[0] * R[0])])
        rep[cl] = fold_quarters(quad, quad.v1[on] / e, (1, 0, 0, 0))
        halves[..., cl] = [fold_quarters(quad, R, h) for h in ((1, 0, 0, 0), (0, 0, 1, 0))]
        m_vp += 2.0 * np.sum(R[0] * R[2] * w)
    tables = np.sum(W[:, :1], axis=0), np.array([m_vp]), rep, W, halves
    for a in tables:
        a.setflags(write=False)
    return AssemblyKernel(*tables, float(W[:, 0] @ rep ** 2))


@dataclass
class MomentProfiles:
    """Velocity integrals of the path moments on the collocation grid.

    T1[k,m] = sum_s int mu_e^s   * avg(exp(ikwX)) dv        at x_m
    T2[k,m] = sum_s int mu_e^s v2hat * avg(V2hat exp(ikwX)) dv
    c and lint are the avg(V1hat) integrals against mu_e and v1hat*mu_e;
    m_e, m_vp are the local (average-free) moments.  Each is twice its
    species - term (docs/DECISIONS.md section 4).  ``cut_lanes`` counts the
    - lanes whose orbit did not close and gives their share of sum |mu_e| w
    and their signed share of l (the + lanes are their mirror images), and
    ``drift`` is the orbit pass's ``NodeMoments.drift``; both are None on
    straight lines.
    """

    T1: np.ndarray
    T2: np.ndarray
    c: np.ndarray
    lint: np.ndarray
    m_e: np.ndarray
    m_vp: np.ndarray
    cut_lanes: dict = None
    drift: dict = None


def moment_profiles(state, lam, basis, quad, opts=None):
    """Moment profiles at one rate; a homogeneous state reads its ``assembly_kernel``."""
    kmax, x_grid = basis.n_modes // 2, basis.x_grid
    M = x_grid.size

    if state.homogeneous:
        kernel = assembly_kernel(state, quad)
        # translation invariance: velocity integrals once, phases per x; on
        # the folded table the filter's v1-odd imaginary part is gone, and
        # the filter is formed one block of rings at a time
        tau = sum(damping(lam, basis.wavenumbers, kernel.rep[cl]) @ kernel.W[cl]
                  for _, cl in ring_blocks(quad))
        T1, T2 = (tau[:, j:j + 1] * basis.phases for j in range(2))
        return MomentProfiles(T1, T2, np.zeros(M), np.full(M, kernel.lint), kernel.m_e,
                              kernel.m_vp)

    # every collocation point in one orbit pass of species -, then
    # contractions over the nodes, doubled for species +
    moments = node_moments(state, lam, quad, kmax, x_grid, opts)
    m0, m1, mv1 = moments
    (mu_e, mu_p), vh2 = species_mu(state, quad, x_grid), quad.v2 / quad.e
    we = 2.0 * mu_e * quad.w
    T1 = np.einsum("kmn,mn->km", m0, we)
    T2 = np.einsum("kmn,mn->km", m1, we * vh2)
    c = np.sum(we * mv1, axis=1)
    l_lanes = we * (quad.v1 / quad.e) * mv1
    lint = np.sum(l_lanes, axis=1)
    cut = ~moments.resolved
    dens = np.abs(we)
    total, l_sum = float(np.sum(dens)), float(np.sum(lint))
    cut_lanes = {"count": int(np.count_nonzero(cut)), "lanes": cut.size,
                 "mu_e_share": float(np.sum(dens[cut])) / total if total > 0.0 else 0.0,
                 "l_share": float(np.sum(l_lanes[cut])) / l_sum if l_sum != 0.0 else 0.0}
    return MomentProfiles(T1, T2, c, lint, np.sum(we, axis=1),
                          2.0 * np.sum(vh2 * mu_p * quad.w, axis=1), cut_lanes, moments.drift)


@dataclass
class OperatorBlocks:
    """Galerkin matrices of the linearized field system at one lam.

    A1 acts on the zero-mean electric potential, A2 on the full magnetic
    potential, C couples the first to the mean-field amplitude and l is the
    current-response scalar; the species mirror makes psi's couplings zero
    (docs/DECISIONS.md section 4).  ``defects`` records the
    pre-symmetrization asymmetry, ``cut_lanes`` the orbits that did not
    close and ``drift`` the invariant drift of the orbit pass (as in
    ``MomentProfiles``); ``worst`` holds the (row, col) of each block's
    largest asymmetry.
    """

    lam: float
    n_modes: int
    period: float
    A1: np.ndarray
    A2: np.ndarray
    C: np.ndarray
    l: float
    defects: dict = field(default_factory=dict)
    cut_lanes: dict = None
    worst: dict = field(default_factory=dict)
    drift: dict = None


def _symmetrize(Mx, name, tol_sym, defects):
    """(Mx + Mx.T)/2 and the (row, col) of the asymmetry it records in ``defects``."""
    bad = np.argwhere(~np.isfinite(Mx))
    if bad.size:
        i, j = bad[0]
        raise AssemblyError("assembly failure: %s has %d non-finite entries, the first %g at "
                            "(%d, %d)" % (name, len(bad), Mx[i, j], i, j))
    asym = np.abs(Mx - Mx.T)
    i, j = np.unravel_index(np.argmax(asym), asym.shape)
    defect = float(asym[i, j])
    scale = max(float(np.max(np.abs(Mx))), 1e-300)
    defects[name] = defect / scale
    if defect > tol_sym * scale:
        raise AssemblyError("assembly inconsistency: %s asymmetry %.3e at (%d, %d) (relative "
                            "%.3e, tol_sym %.1e)" % (name, defect, i, j, defect / scale, tol_sym))
    return 0.5 * (Mx + Mx.T), (int(i), int(j))


def assemble_blocks(state, lam, basis, quad, opts=None):
    """All operator blocks at a single growth parameter lam >= 0.

    A homogeneous state's rates share one ``assembly_kernel``, built at the
    first of them.
    """
    if not (lam == 0.0 or (lam > 0.0 and 0.0 < float(lam) * float(lam) < np.inf)):
        raise VmspecError("lam must be 0, or positive with a finite nonzero square; got %r"
                          % lam)
    opts = opts or EvalOptions()
    w = basis.quad_weight
    prof = moment_profiles(state, lam, basis, quad, opts)

    Uf = basis.values                       # (M, N+1)
    Umz = Uf[:, 1:]                         # function 0 is the constant
    lap = basis.laplacian_diagonal()
    G1, G2 = (basis.expand(T) for T in (prof.T1, prof.T2))

    A1 = np.diag(lap[1:]) + w * (Umz.T @ (-prof.m_e[:, None] * Umz)) + w * (Umz.T @ G1[:, 1:])
    A2 = (np.diag(lap) + lam ** 2 * np.eye(basis.n_functions)
          + w * (Uf.T @ (-prof.m_vp[:, None] * Uf)) - w * (Uf.T @ G2))
    C = w * (Umz.T @ prof.c)
    l = float(w * np.sum(prof.lint) / state.period)

    defects, worst = {}, {}
    A1, worst["A1"] = _symmetrize(A1, "A1", opts.tol_sym, defects)
    A2, worst["A2"] = _symmetrize(A2, "A2", opts.tol_sym, defects)
    return OperatorBlocks(lam=float(lam), n_modes=basis.n_modes, period=state.period,
                          A1=A1, A2=A2, C=C, l=l, defects=defects, cut_lanes=prof.cut_lanes,
                          worst=worst, drift=prof.drift)


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
    """(electric, magnetic): the two diagonal blocks of the truncated matrix,
    ``[[-A1, C], [C^T, -P(lam^2 - l)]]`` on (phi, b) and ``A2`` on psi, in
    the modal coordinates (B = D = 0 couple psi to nothing); ``symmetric_eigen``
    checks and removes their roundoff asymmetry.  At lam = 0 the coupling C
    must already be at quadrature-noise level; it is checked against TOL_ZERO
    and frozen out, which realizes the exact block-diagonal form the counting
    argument relies on.
    """
    if n > modal.n_available:
        raise VmspecError("truncation n=%d exceeds available modes %d" % (n, modal.n_available))
    if n < 1:
        raise VmspecError("truncation must keep at least one mode")
    Xi, Ze = modal.a1_vectors[:, :n], modal.a2_vectors[:, :n]
    c = (Xi.T @ blocks.C)[:, None]
    if blocks.lam == 0.0:
        k = int(np.argmax(np.abs(c)))
        if abs(c[k, 0]) > TOL_ZERO:
            raise AssemblyError("coupling C fails to vanish at lam=0: modal entry [%d] is "
                                "%.3e, above TOL_ZERO %.1e" % (k, c[k, 0], TOL_ZERO))
        c = np.zeros_like(c)
    electric = np.block([[-(Xi.T @ blocks.A1 @ Xi), c],
                         [c.T, -blocks.period * (blocks.lam ** 2 - blocks.l)]])
    return electric, Ze.T @ blocks.A2 @ Ze
