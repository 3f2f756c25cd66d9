"""Reconstruction of the physical mode from a kernel vector, and residuals.

Given (phi, psi, b) and the growth rate, the perturbed distributions are

    f_s = s * [mu_e phi + mu_p psi - mu_e (Q phi - Q(v2hat psi) - b Q v1hat)]

per species s = +/-1, with Q the backward smoothing average at that rate.
Every reader contracts f_s over the velocity nodes, so a mode hands out
only f_s @ Y and chosen node columns (``GrowingMode.contract``); on
straight-line states the (x, v) array is never formed.  The field
equations then follow from moments of f+ - f-; the residual suite
evaluates each one as stated physics (charge, both current equations,
continuity) plus a weak-form transport check against a battery of
separable test functions, because strong velocity derivatives of f are
never formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import VmspecError
from .operators import assembly_kernel, line_filter, species_pair_moments


@dataclass
class GrowingMode:
    """Fields of a mode on the collocation grid, its distributions f_s as
    contractions over the velocity nodes (``contract``), and its inputs."""

    lam: float
    phi_coeffs: np.ndarray         # full-basis coefficients, zero constant part
    psi_coeffs: np.ndarray
    b: float
    x: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    e1: np.ndarray                 # -dphi/dx - lam*b
    e2: np.ndarray                 # -lam*psi
    bfield: np.ndarray             # dpsi/dx
    mu: dict = field(repr=False, default=None)     # species -> (mu_e, mu_p) it was built from
    rho: np.ndarray = None
    j1: np.ndarray = None
    j2: np.ndarray = None
    _apply: object = field(repr=False, default=None)
    state: object = field(repr=False, default=None)    # read by the residuals and export
    basis: object = field(repr=False, default=None)
    quad: object = field(repr=False, default=None)

    def contract(self, Y=None, cols=None):
        """{s: f_s @ Y} for an (N, K) matrix Y, or {s: f_s[:, cols]} for node indices."""
        return {sign: self._apply(sign, Y, cols) for sign in (-1, +1)}

    @property
    def nontrivial(self):
        return self.scale > 1e-12

    @property
    def scale(self):
        return float(np.linalg.norm(self.phi_coeffs) + np.linalg.norm(self.psi_coeffs)
                     + abs(self.b))


def from_coefficients(state, lam, phi_coeffs, psi_coeffs, b, basis, quad, opts=None,
                      kernel=None):
    """Mode from arbitrary full-basis coefficients (manufactured solutions).

    The electric potential must have no constant part; the constant
    direction is the built-in trivial kernel and carries no fields.
    ``kernel`` is the state's ``AssemblyKernel``, built here when not given.
    """
    phi_coeffs = np.asarray(phi_coeffs, dtype=float)
    psi_coeffs = np.asarray(psi_coeffs, dtype=float)
    if abs(phi_coeffs[0]) > 0.0:       # basis function 0 is the constant
        raise VmspecError("phi must be mean-free: constant coefficient rejected")
    x = basis.x_grid
    phi_v = basis.values @ phi_coeffs
    psi_v = basis.values @ psi_coeffs
    dphi = basis.values @ basis.derivative_coeffs(phi_coeffs, 1)
    dpsi = basis.values @ basis.derivative_coeffs(psi_coeffs, 1)
    mode = GrowingMode(lam=float(lam), phi_coeffs=phi_coeffs, psi_coeffs=psi_coeffs,
                       b=float(b), x=x, phi=phi_v, psi=psi_v,
                       e1=-dphi - lam * b, e2=-lam * psi_v, bfield=dpsi,
                       state=state, basis=basis, quad=quad)

    kmax = basis.n_modes // 2
    kernel = kernel if kernel is not None else assembly_kernel(state, quad, basis)
    mode.mu = kernel.mu
    c_phi = basis.half_spectrum(phi_coeffs)
    c_psi = basis.half_spectrum(psi_coeffs)
    vh1, vh2 = kernel.vh1, kernel.vh2

    if state.homogeneous:
        # an x-phase p_k times the filter, Re p_k (re + i im) = [Re p, -Im p] @ [re; im],
        # and x-free mu_e, mu_p: f_s = G @ S_s, S_s = [mu_e; mu_p; mu_e*(re; im; re*vh2;
        # im*vh2; vh1)] with s folded into mu.  S_s @ Y is built row block by row block
        # from mu_e*Y and mu_e*vh2*Y; neither S_s nor f_s is formed.  A column request
        # is Y = I on those nodes.
        re, im = line_filter(quad, kmax, basis.omega, lam)
        p_phi, p_psi = (basis.phases.T * c[None, :] for c in (c_phi, c_psi))
        G = np.hstack([phi_v[:, None], psi_v[:, None], -p_phi.real, p_phi.imag,
                       p_psi.real, -p_psi.imag, np.full((x.size, 1), mode.b)])

        def apply(sign, Y, cols):
            on = slice(None) if cols is None else np.asarray(cols)
            if cols is not None:
                Y = np.eye(on.size)
            mu_e, mu_p = (sign * m[0, on] for m in mode.mu[sign])
            r, i = re[:, on], im[:, on]
            eY, e2Y = mu_e[:, None] * Y, (mu_e * vh2[on])[:, None] * Y
            return G @ np.vstack([mu_e @ Y, mu_p @ Y, r @ eY, i @ eY, r @ e2Y, i @ e2Y,
                                  (mu_e * vh1[on]) @ Y])
    else:
        # one orbit pass over the whole grid; contract the harmonics away
        f = {}
        for sign, (m0, m1, mv1) in species_pair_moments(state, lam, quad, kmax, x,
                                                        opts).items():
            q = (np.real(np.tensordot(c_phi, m0, axes=1) - np.tensordot(c_psi, m1, axes=1))
                 - mode.b * mv1)
            f[sign] = sign * (mode.mu[sign][0] * (phi_v[:, None] - q)
                              + mode.mu[sign][1] * psi_v[:, None])

        def apply(sign, Y, cols):
            return f[sign] @ Y if cols is None else f[sign][:, cols]
    mode._apply = apply
    # charge and currents species by species, without an (M, N) difference
    f_V = mode.contract(np.column_stack([quad.w, quad.w * vh1, quad.w * vh2]))
    mode.rho, mode.j1, mode.j2 = (f_V[+1] - f_V[-1]).T
    return mode


def reconstruct(sweep_result, crossing):
    """Physical mode from a kernel vector located on a sweep's family.

    An electric kernel vector holds (phi, b), a magnetic one psi, in the
    modal bases of the lam = 0 blocks; they are synthesized back to
    trigonometric coefficients first.  The mode is built on the sweep's
    state, basis, quadrature, options and ``AssemblyKernel``.
    """
    sw, n, v = sweep_result, sweep_result.n, crossing.vector
    phi, psi, b = ((v[:n], np.zeros(n), v[n]) if crossing.pencil == "electric"
                   else (np.zeros(n), v, 0.0))
    # zero-mean coefficients sit behind the constant, function 0
    phi_full = np.zeros(sw.basis.n_functions)
    phi_full[1:] = sw.modal.a1_vectors[:, :n] @ phi
    return from_coefficients(sw.state, crossing.lambda_star, phi_full,
                             sw.modal.a2_vectors[:, :n] @ psi, b, sw.basis, sw.quad, sw.opts,
                             sw.assembly)


# ---------------------------------------------------------------------------
# residual suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ResidualReport:
    gauss: float
    ampere1: float
    ampere2: float
    continuity: float
    vlasov_weak: float
    tol: float
    abs_gauss: float = 0.0
    abs_ampere1: float = 0.0
    abs_ampere2: float = 0.0
    abs_continuity: float = 0.0

    @property
    def passed(self):
        return all(r <= self.tol for r in
                   (self.gauss, self.ampere1, self.ampere2, self.continuity, self.vlasov_weak))

    def as_dict(self):
        return {"gauss": self.gauss, "ampere1": self.ampere1, "ampere2": self.ampere2,
                "continuity": self.continuity, "vlasov_weak": self.vlasov_weak,
                "abs_gauss": self.abs_gauss, "abs_ampere1": self.abs_ampere1,
                "abs_ampere2": self.abs_ampere2, "abs_continuity": self.abs_continuity,
                "tol": self.tol, "passed": self.passed}


def _rms(basis, values):
    return float(np.sqrt(np.sum(np.asarray(values) ** 2) * basis.quad_weight / basis.period))


def _rel(basis, lhs, rhs, floor):
    r = _rms(basis, np.asarray(lhs) - np.asarray(rhs))
    scale = max(_rms(basis, lhs), _rms(basis, rhs), floor)
    return r / scale, r


def _weak_vlasov_defect(mode, floor):
    """Max relative weak-form transport defect over both species and a
    battery of separable test functions g = X(x) q(vhat) env(e) with
    hand-coded derivatives.  Each species is checked on its own: on a mode
    with f+ = -f- the two equations cancel in their sum.

    Spatial factors X are low harmonics; velocity factors q are polynomials
    in vhat under the fixed decaying envelope env = (1+e)^(-4), so every
    factor has a closed-form gradient.  Every (x, v) integral reduces to
    x-profiles of the distributions against a handful of velocity vectors.
    """
    basis, quad = mode.basis, mode.quad
    lam, x, w = mode.lam, basis.x_grid, basis.omega
    wq = basis.quad_weight
    vh1 = quad.v1 / quad.e
    vh2 = quad.v2 / quad.e
    env = (1.0 + quad.e) ** (-4.0)
    denv = -4.0 * (1.0 + quad.e) ** (-5.0)
    dv1_h1 = (1.0 - vh1 ** 2) / quad.e
    dv1_h2 = -vh1 * vh2 / quad.e           # also d vh1 / d v2
    dv2_h2 = (1.0 - vh2 ** 2) / quad.e
    # (X, dX/dx) and (q, dq/dvh1, dq/dvh2)
    spatial = [(np.ones_like(x), np.zeros_like(x)), (np.cos(w * x), -w * np.sin(w * x)),
               (np.sin(w * x), w * np.cos(w * x)),
               (np.cos(2 * w * x), -2 * w * np.sin(2 * w * x))]
    one, zero = np.ones_like(vh1), np.zeros_like(vh1)
    velocity = [(one, zero, zero), (vh1, one, zero), (vh2, zero, one), (vh1 * vh2, vh2, vh1)]

    # per velocity factor: qv, its v1-advection weight and rotation weight
    vecs = []
    for q, dq1, dq2 in velocity:
        qv = q * env
        gq1 = (dq1 * dv1_h1 + dq2 * dv1_h2) * env + q * denv * vh1
        gq2 = (dq1 * dv1_h2 + dq2 * dv2_h2) * env + q * denv * vh2
        vecs.append((qv, vh1 * qv, vh2 * gq1 - vh1 * gq2))

    # f against w (qv, vh1 qv, rot) for every q in one contraction; the
    # sources (mu_e vh1, mu_p vh1, mu_e vh2 + mu_p) against w qv; columns are q
    wY = quad.w[:, None] * np.column_stack([v for vs in vecs for v in vs])
    fY = mode.contract(wY)
    src = {sign: [m @ wY[:, 0::3] for m in (mu_e * vh1, mu_p * vh1, mu_e * vh2 + mu_p)]
           for sign, (mu_e, mu_p) in mode.mu.items()}
    b0, e1, e2, bf = (v[:, None] for v in (mode.state.b0(x), mode.e1, mode.e2, mode.bfield))

    worst = 0.0
    for X, dX in spatial:
        X, dX = X[:, None], dX[:, None]
        for sign in (-1, +1):
            fq, fadv, frot = (fY[sign][:, j::3] for j in range(3))
            s1, s2, s3 = src[sign]
            lhs = np.sum(lam * X * fq - dX * fadv - sign * b0 * X * frot, axis=0) * wq
            rhs = np.sum(sign * X * (-e1 * s1 + bf * s2 - e2 * s3), axis=0) * wq
            scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), floor)
            worst = max(worst, float(np.max(np.abs(lhs - rhs) / scale)))
    return worst


def residuals(mode, tol_residual=1e-4):
    """Relative residuals of every linearized field equation, on the mode's own inputs.

    The floor keeps near-zero components from reporting 0/0; the weak
    transport check integrates the equation against the battery instead of
    differentiating f in v.
    """
    lam, basis = mode.lam, mode.basis
    floor = 1e-3 * max(mode.scale, 1e-12)
    d2phi = basis.values @ basis.derivative_coeffs(mode.phi_coeffs, 2)
    d2psi = basis.values @ basis.derivative_coeffs(mode.psi_coeffs, 2)
    j1_coeffs = basis.project(mode.j1)
    dj1 = basis.values @ basis.derivative_coeffs(j1_coeffs, 1)

    gauss_rel, gauss_abs = _rel(basis, -d2phi, mode.rho, floor)
    amp1_rel, amp1_abs = _rel(basis, lam * mode.e1, -mode.j1, floor)
    amp2_rel, amp2_abs = _rel(basis, -lam ** 2 * mode.psi + d2psi, -mode.j2, floor)
    cont_rel, cont_abs = _rel(basis, dj1, -lam * mode.rho, floor)
    weak = _weak_vlasov_defect(mode, floor)
    return ResidualReport(gauss=gauss_rel, ampere1=amp1_rel, ampere2=amp2_rel,
                          continuity=cont_rel, vlasov_weak=weak, tol=tol_residual,
                          abs_gauss=gauss_abs, abs_ampere1=amp1_abs,
                          abs_ampere2=amp2_abs, abs_continuity=cont_abs)


# ---------------------------------------------------------------------------
# operator-space versus physical-space consistency
# ---------------------------------------------------------------------------

def physical_defect_coeffs(mode):
    """Field-equation defects of a mode, projected to coefficient space.

    Returns (d1, d2, d3): the mean-zero projection of phi'' + rho, the full
    projection of psi'' - lam^2 psi + j2, and the scalar
    int j1 dx - P lam^2 b.  Also returns the two parity integrals dropped
    in the mean-current reduction, which must vanish.
    """
    basis, quad = mode.basis, mode.quad
    d2phi = basis.values @ basis.derivative_coeffs(mode.phi_coeffs, 2)
    d2psi = basis.values @ basis.derivative_coeffs(mode.psi_coeffs, 2)
    d1 = basis.project(d2phi + mode.rho)[1:]
    d2 = basis.project(d2psi - mode.lam ** 2 * mode.psi + mode.j2)
    wq = basis.quad_weight
    d3 = float(np.sum(mode.j1) * wq - basis.period * mode.lam ** 2 * mode.b)

    vh1 = quad.v1 / quad.e
    drop1 = drop2 = 0.0
    for mu_e, mu_p in mode.mu.values():
        drop1 += float(((mu_e * vh1[None, :]) @ quad.w * mode.phi).sum() * wq)
        drop2 += float(((mu_p * vh1[None, :]) @ quad.w * mode.psi).sum() * wq)
    return d1, d2, d3, (drop1, drop2)


def operator_defect_coeffs(blocks, mode):
    """Same defects from the assembled blocks (psi couples to neither phi nor b)."""
    phi_mz = mode.phi_coeffs[1:]
    d1 = -(blocks.A1 @ phi_mz) + blocks.C * mode.b
    d2 = -(blocks.A2 @ mode.psi_coeffs)
    d3 = float(blocks.C @ phi_mz - blocks.period * mode.b * (blocks.lam ** 2 - blocks.l))
    return d1, d2, d3
