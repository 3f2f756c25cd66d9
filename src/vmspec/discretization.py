"""Velocity-space quadrature and the periodic spatial basis.

The momentum plane is integrated in polar coordinates: panel-wise
Gauss-Legendre in the radius (panels split at declared kink radii, with
geometrically growing panels covering the weight's algebraic tail) and a
uniform midpoint rule in the angle.  The midpoint angular rule is exact
for trigonometric polynomials and symmetric under both theta -> -theta
and theta -> pi - theta, so integrands odd in v1 or v2 vanish to roundoff.

Spatial functions live on a uniform collocation grid with an orthonormal
real trigonometric basis; the trapezoid rule on that grid is spectrally
accurate for periodic integrands and integrates products of basis
functions exactly.  Each basis function is one harmonic k_j with one
complex weight h_j,

    u_j(x) = Re(h_j exp(i k_j omega x)),   omega = 2*pi/P,

h_j = 1/sqrt(P) for the constant, sqrt(2/P) for cos_k and -i sqrt(2/P)
for sin_k.  Every map between basis coefficients and harmonics follows
from h: coefficients a_j carry the harmonic c_k = sum_{k_j = k} h_j a_j.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import QuadratureError, VmspecError


# ---------------------------------------------------------------------------
# velocity quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)       # compared and hashed by identity
class VelocityQuadrature:
    """Polar product rule on the disc r <= r_max.

    ``v1``, ``v2``, ``e``, ``w`` are flattened (node-count,) arrays; ``w``
    already contains the radial Jacobian and the angular weight, so
    ``sum(f(v1, v2) * w)`` approximates the plane integral of ``f``.
    """

    r_nodes: np.ndarray
    theta_nodes: np.ndarray
    r_max: float
    panel_edges: tuple = ()
    n_core_panels: int = 1
    n_r: int = 0                   # nodes per core panel
    n_r_tail: int = 0              # nodes per tail panel
    v1: np.ndarray = field(default=None, repr=False)
    v2: np.ndarray = field(default=None, repr=False)
    e: np.ndarray = field(default=None, repr=False)
    w: np.ndarray = field(default=None, repr=False)

    @property
    def n_nodes(self):
        return self.v1.size

    def refined(self):
        """Same panel structure with twice the radial and angular nodes."""
        return _build_from_edges(self.panel_edges, self.n_core_panels, 2 * self.n_r,
                                 2 * self.theta_nodes.size, 2 * self.n_r_tail)


def _build_from_edges(edges, n_core, n_r, n_theta, n_r_tail):
    if n_theta % 2:                # theta -> pi - theta maps nodes to nodes only if even
        raise QuadratureError("n_theta must be even, got %d" % n_theta)
    edges = tuple(edges)
    xs_c, ws_c = leggauss(n_r)
    xs_t, ws_t = leggauss(max(4, n_r_tail))
    r_parts, w_parts = [], []
    for i, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        xs, ws = (xs_c, ws_c) if i < n_core else (xs_t, ws_t)
        half = 0.5 * (b - a)
        r_parts.append(half * xs + 0.5 * (a + b))
        w_parts.append(half * ws)
    r_nodes = np.concatenate(r_parts)
    r_weights = np.concatenate(w_parts) * r_nodes     # radial Jacobian folded in
    # angular midpoint rule; the half-step offset keeps v1 = 0 and v2 = 0
    # off the node set while preserving both reflection symmetries
    theta = (np.arange(n_theta) + 0.5) * (2.0 * np.pi / n_theta)
    V1 = np.outer(r_nodes, np.cos(theta)).ravel()
    V2 = np.outer(r_nodes, np.sin(theta)).ravel()
    W = np.outer(r_weights, np.full(n_theta, 2.0 * np.pi / n_theta)).ravel()
    E = np.sqrt(1.0 + V1 ** 2 + V2 ** 2)
    return VelocityQuadrature(
        r_nodes=r_nodes, theta_nodes=theta, r_max=float(edges[-1]), panel_edges=edges,
        n_core_panels=n_core, n_r=n_r, n_r_tail=n_r_tail, v1=V1, v2=V2, e=E, w=W)


def weight_tail_radius(weight, tol_tail):
    """Radius beyond which the decay weight carries <= tol_tail of its mass.

    The plane integral of w(e(r)) over r > r0 has the closed form
    c * [ (1+e0)^(2-a)/(a-2) - (1+e0)^(1-a)/(a-1) ] with e0 = sqrt(1+r0^2),
    which is inverted by bisection.
    """
    a = weight.alpha
    if a <= 2.0:
        raise QuadratureError("non-integrable weight: alpha must exceed 2")

    def tail(e0):
        u = 1.0 + e0
        return weight.c * (u ** (2.0 - a) / (a - 2.0) - u ** (1.0 - a) / (a - 1.0))

    total = tail(1.0)
    lo, hi = 1.0, 4.0
    while tail(hi) > tol_tail * total:
        hi *= 2.0
        if hi > 1e12:
            raise QuadratureError("weight tail does not reach the requested tolerance")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if tail(mid) > tol_tail * total:
            lo = mid
        else:
            hi = mid
    e0 = hi
    return float(np.sqrt(max(e0 ** 2 - 1.0, 0.0)))


def build_velocity_quadrature(weight, kinks=(), tol_tail=1e-8, n_r=96, n_theta=256,
                              n_r_tail=24):
    """Build the polar rule for a given decay weight.

    ``kinks`` are energies where profiles are only piecewise smooth; panel
    boundaries are placed at the matching radii sqrt(e^2 - 1).  Beyond the
    core region the rule continues with geometrically doubling panels of
    ``n_r_tail`` nodes until the weight's analytic tail bound is met.
    """
    r_max = weight_tail_radius(weight, tol_tail)
    kink_radii = sorted(float(np.sqrt(e * e - 1.0)) for e in kinks if e > 1.0 and np.sqrt(e * e - 1.0) < r_max)
    core_end = min(r_max, max(4.0, 2.0 * max(kink_radii) if kink_radii else 4.0))
    edges = [0.0] + kink_radii + [core_end]
    n_core = len(edges) - 1
    # geometric panels cover the (possibly far) algebraic tail of the weight
    r = edges[-1]
    while r < r_max:
        r = min(2.0 * r, r_max)
        edges.append(r)
    return _build_from_edges(tuple(edges), n_core, n_r, n_theta, n_r_tail)


def theta_reflect_permutation(quad):
    """Node permutation realizing (v1, v2) -> (v1, -v2).

    The half-offset angular grid is closed under theta -> -theta, so the
    reflection is an exact relabeling of nodes (weights are equal).
    """
    return np.arange(quad.n_nodes).reshape(-1, quad.theta_nodes.size)[:, ::-1].ravel()


def v1_reflect_permutation(quad):
    """Node permutation realizing (v1, v2) -> (-v1, v2), theta -> pi - theta.

    Node j of a ring goes to n_theta/2 - 1 - j (mod n_theta); at
    n_theta = 2 (mod 4) the angles pi/2 and 3pi/2 are their own images.
    """
    n_th = quad.theta_nodes.size
    idx = np.arange(quad.n_nodes).reshape(-1, n_th)
    return idx[:, (n_th // 2 - 1 - np.arange(n_th)) % n_th].ravel()


UPPER, LOWER = (1, 1, 0, 0), (0, 0, 1, 1)   # the v2 > 0 and v2 < 0 images of a quarter class
BLOCK_NODES = 4096     # nodes (or grid points) per block of the homogeneous passes


def fold_quarters(quad, F, images=(1, 1, 1, 1)):
    """Sums of F's nodes (last axis; any run of whole rings) over the quarter classes.

    Under theta -> -theta and theta -> pi - theta a ring's angles fall into
    q = ceil(n_theta/4) classes; class j holds theta_j (v1, v2 > 0), pi - theta_j,
    pi + theta_j and -theta_j, added in that order where ``images`` holds a 1
    (``UPPER`` is the v2 > 0 half).  At n_theta = 2 (mod 4) the class of pi/2
    is its own image under theta -> pi - theta: two nodes."""
    n, shape = quad.theta_nodes.size, np.shape(F)[:-1]
    h, q, p = n // 2, (n + 3) // 4, n // 4          # p classes hold four nodes
    F = np.reshape(F, shape + (-1, n))
    out = np.zeros(F.shape[:-1] + (q,))
    for image, weight in zip((F[..., :q], F[..., h - 1:h - 1 - p:-1], F[..., h:h + q],
                              F[..., n - 1:n - 1 - p:-1]), images):
        if weight:
            out[..., :image.shape[-1]] += image
    return out.reshape(*shape, -1)


def ring_blocks(quad, max_nodes=BLOCK_NODES):
    """(node slice, class slice) of each run of whole rings, in order, with at most
    max_nodes nodes but at least one ring; the classes are those of ``fold_quarters``."""
    n, n_r = quad.theta_nodes.size, quad.r_nodes.size
    rings, q = max(1, max_nodes // n), (n + 3) // 4
    for r in range(0, n_r, rings):
        yield slice(r * n, min(r + rings, n_r) * n), slice(r * q, min(r + rings, n_r) * q)


def integrate_velocity(quad, f):
    """Integrate f(v1, v2) over the momentum plane.

    ``f`` must accept equal-shape arrays and return finite values at every
    node; the summation order is the fixed node order, so results are
    reproducible bit-for-bit.
    """
    vals = np.asarray(f(quad.v1, quad.v2), dtype=float)
    if vals.shape != quad.v1.shape:
        vals = np.broadcast_to(vals, quad.v1.shape)
    bad = ~np.isfinite(vals)
    if bad.any():
        i = int(np.argmax(bad))
        raise VmspecError(
            "non-finite integrand at node (v1=%.6g, v2=%.6g)" % (quad.v1[i], quad.v2[i]))
    return float(np.sum(vals * quad.w))


# ---------------------------------------------------------------------------
# periodic spatial basis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FourierBasis:
    """Orthonormal real trigonometric basis on a period-P interval.

    Functions are ordered [const, cos_1, sin_1, cos_2, sin_2, ...]; the constant is
    function 0.  ``values`` holds the basis on the collocation grid (grid-point by
    function), ``k_index`` the harmonic of each function, ``h`` its complex weight,
    ``wavenumbers`` k omega for k = 0..kmax, ``phases`` exp(i k omega x_m) on the grid
    as (kmax+1, M) and ``omega`` the fundamental 2*pi/P.
    """

    period: float
    n_modes: int                   # number of non-constant functions (even)
    x_grid: np.ndarray
    k_index: np.ndarray
    h: np.ndarray

    @cached_property
    def phases(self):
        return np.exp(1j * self.wavenumbers[:, None] * self.x_grid[None, :])

    @cached_property
    def values(self):
        return self.expand(self.phases)

    @property
    def omega(self):
        return 2.0 * np.pi / self.period

    @property
    def wavenumbers(self):
        return np.arange(self.n_modes // 2 + 1) * self.omega

    @property
    def n_functions(self):
        return self.k_index.size

    @property
    def quad_weight(self):
        return self.period / self.x_grid.size

    def project(self, grid_values):
        """Coefficients of a grid function: <g, u_j> under the trapezoid rule."""
        return self.values.T @ (np.asarray(grid_values) * self.quad_weight)

    def half_spectrum(self, coeffs):
        """c_k with sum_j coeffs_j u_j(x) = Re sum_k c_k exp(i k omega x)."""
        hc = self.h * np.asarray(coeffs, dtype=float)
        return np.bincount(self.k_index, hc.real) + 1j * np.bincount(self.k_index, hc.imag)

    def coefficients(self, c):
        """Inverse of ``half_spectrum``: Re(c_k / h_j) for each function j."""
        return np.real(np.asarray(c)[self.k_index] / self.h)

    def expand(self, T):
        """Grid values (M, functions) of Re(T[k_j, m] h_j) from harmonic profiles T."""
        return np.real(T[self.k_index] * self.h[:, None]).T

    def derivative_coeffs(self, coeffs, order=1):
        """Coefficients of the order-th derivative: harmonic k gains (i k omega)^order."""
        return self.coefficients(self.half_spectrum(coeffs) * (1j * self.wavenumbers) ** order)

    def laplacian_diagonal(self):
        """Galerkin entries of -d2/dx2, which is diagonal: (k*omega)^2."""
        return (self.k_index * self.omega) ** 2


def build_fourier_basis(period, n_modes):
    """Orthonormal basis with n_modes/2 harmonics on a grid of 4*n_modes points."""
    if n_modes % 2 != 0 or n_modes <= 0:
        raise VmspecError("n_modes must be positive and even")
    m = 4 * n_modes
    x = np.arange(m) * (period / m)
    kmax = n_modes // 2
    k_index = np.concatenate([[0], np.repeat(np.arange(1, kmax + 1), 2)])
    a = np.sqrt(2.0 / period)
    h = np.concatenate([[1.0 / np.sqrt(period)], np.tile([a, -1j * a], kmax)])
    return FourierBasis(period=float(period), n_modes=int(n_modes), x_grid=x, k_index=k_index, h=h)
