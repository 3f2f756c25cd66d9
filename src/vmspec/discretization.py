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
functions exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import QuadratureError, VmspecError


# ---------------------------------------------------------------------------
# velocity quadrature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VelocityQuadrature:
    """Polar product rule on the disc r <= r_max.

    ``v1``, ``v2``, ``e``, ``w`` are flattened (node-count,) arrays; ``w``
    already contains the radial Jacobian and the angular weight, so
    ``sum(f(v1, v2) * w)`` approximates the plane integral of ``f``.
    """

    r_nodes: np.ndarray
    r_weights: np.ndarray          # includes the r * dr Jacobian
    theta_nodes: np.ndarray
    theta_weights: np.ndarray
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

    def refined(self, factor=2):
        """Same panel structure with factor-times more radial and angular nodes."""
        return _build_from_edges(self.panel_edges, self.n_core_panels,
                                 int(self.n_r * factor),
                                 int(self.theta_nodes.size * factor),
                                 int(self.n_r_tail * factor))


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
    wth = np.full(n_theta, 2.0 * np.pi / n_theta)
    V1 = np.outer(r_nodes, np.cos(theta)).ravel()
    V2 = np.outer(r_nodes, np.sin(theta)).ravel()
    W = np.outer(r_weights, wth).ravel()
    E = np.sqrt(1.0 + V1 ** 2 + V2 ** 2)
    return VelocityQuadrature(
        r_nodes=r_nodes, r_weights=r_weights, theta_nodes=theta, theta_weights=wth,
        r_max=float(edges[-1]), panel_edges=edges, n_core_panels=n_core,
        n_r=n_r, n_r_tail=n_r_tail, v1=V1, v2=V2, e=E, w=W)


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
                              n_r_tail=24, r_max=None):
    """Build the polar rule for a given decay weight.

    ``kinks`` are energies where profiles are only piecewise smooth; panel
    boundaries are placed at the matching radii sqrt(e^2 - 1).  Beyond the
    core region the rule continues with geometrically doubling panels of
    ``n_r_tail`` nodes until the weight's analytic tail bound is met.
    """
    if weight.alpha <= 2.0:
        raise QuadratureError("non-integrable weight: alpha must exceed 2")
    if r_max is None:
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
    n_th = quad.theta_nodes.size
    n_r = quad.r_nodes.size
    idx = np.arange(n_r * n_th).reshape(n_r, n_th)
    return idx[:, ::-1].ravel()


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

    Functions are ordered [const, cos_1, sin_1, cos_2, sin_2, ...] with the
    constant dropped when ``mean_zero`` is set.  ``values`` holds the basis
    evaluated on the collocation grid (grid-point by function), ``k_index``
    the harmonic of each function and ``omega`` the fundamental 2*pi/P.
    """

    period: float
    n_modes: int                   # number of non-constant functions (even)
    mean_zero: bool
    x_grid: np.ndarray
    values: np.ndarray
    k_index: np.ndarray
    is_sin: np.ndarray

    @property
    def omega(self):
        return 2.0 * np.pi / self.period

    @property
    def n_functions(self):
        return self.values.shape[1]

    @property
    def quad_weight(self):
        return self.period / self.x_grid.size

    def project(self, grid_values):
        """Coefficients of a grid function: <g, u_j> under the trapezoid rule."""
        return self.values.T @ (np.asarray(grid_values) * self.quad_weight)

    def derivative_coeffs(self, coeffs, order=1):
        """Coefficients of the derivative; cos_k and sin_k swap with factor k*omega."""
        out = np.array(coeffs, dtype=float)
        for _ in range(order):
            new = np.zeros_like(out)
            for j in range(self.n_functions):
                k = self.k_index[j]
                if k == 0:
                    continue
                # d/dx cos_k = -k w sin_k ; d/dx sin_k = +k w cos_k
                jj = j + 1 if not self.is_sin[j] else j - 1
                if self.is_sin[j]:
                    new[jj] += out[j] * k * self.omega
                else:
                    new[jj] += -out[j] * k * self.omega
            out = new
        return out

    def laplacian_diagonal(self):
        """Galerkin entries of -d2/dx2, which is diagonal: (k*omega)^2."""
        return (self.k_index * self.omega) ** 2


def build_fourier_basis(period, n_modes, mean_zero=False, oversample=4):
    """Orthonormal basis with n_modes/2 harmonics on a grid of >= 4*n_modes points."""
    if n_modes % 2 != 0 or n_modes <= 0:
        raise VmspecError("n_modes must be positive and even")
    if oversample < 4:
        raise VmspecError("collocation grid must hold at least 4 points per mode")
    m = oversample * n_modes
    x = np.arange(m) * (period / m)
    cols, kidx, sflag = [], [], []
    if not mean_zero:
        cols.append(np.full(m, 1.0 / np.sqrt(period)))
        kidx.append(0)
        sflag.append(False)
    w = 2.0 * np.pi / period
    for k in range(1, n_modes // 2 + 1):
        cols.append(np.sqrt(2.0 / period) * np.cos(k * w * x))
        kidx.append(k)
        sflag.append(False)
        cols.append(np.sqrt(2.0 / period) * np.sin(k * w * x))
        kidx.append(k)
        sflag.append(True)
    return FourierBasis(period=float(period), n_modes=int(n_modes), mean_zero=bool(mean_zero),
                        x_grid=x, values=np.column_stack(cols),
                        k_index=np.array(kidx), is_sin=np.array(sflag))


def integrate_spatial(basis, g):
    """Trapezoid integral over one period; g is a callable or grid values."""
    vals = g(basis.x_grid) if callable(g) else np.asarray(g, dtype=float)
    return float(np.sum(vals) * basis.quad_weight)
