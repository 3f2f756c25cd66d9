"""Reconstruction of the physical mode from a kernel vector, and residuals.

Given (phi, psi, b) and the growth rate, the perturbed distributions are

    f_s = s * [mu_e phi + mu_p psi - mu_e (Q phi - Q(v2hat psi) - b Q v1hat)]

per species s = +/-1, with Q the backward smoothing average at that rate.
The field equations then follow from moments of f+ - f-; the residual
suite evaluates each one as stated physics (charge, both current
equations, continuity) plus a weak-form transport check against a battery
of separable test functions, because strong velocity derivatives of f are
never formed.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import VmspecError
from .operators import assembly_kernel, line_filter, species_pair_moments


def _half_spectrum(basis, coeffs):
    """Complex coefficients c_k with f(x) = Re sum_k c_k exp(i k w x)."""
    kmax = basis.n_modes // 2
    c = np.zeros(kmax + 1, dtype=complex)
    P = basis.period
    for j in range(basis.n_functions):
        k = basis.k_index[j]
        if k == 0:
            c[0] += coeffs[j] / np.sqrt(P)
        elif basis.is_sin[j]:
            c[k] += -1j * coeffs[j] * np.sqrt(2.0 / P)
        else:
            c[k] += coeffs[j] * np.sqrt(2.0 / P)
    return c


@dataclass
class GrowingMode:
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
    fplus: np.ndarray = field(repr=False, default=None)     # (n_x, n_v)
    fminus: np.ndarray = field(repr=False, default=None)
    rho: np.ndarray = None
    j1: np.ndarray = None
    j2: np.ndarray = None

    @property
    def nontrivial(self):
        return bool(np.linalg.norm(self.psi_coeffs) + abs(self.b) > 1e-12)

    @property
    def scale(self):
        return float(np.linalg.norm(self.phi_coeffs) + np.linalg.norm(self.psi_coeffs)
                     + abs(self.b))


def from_coefficients(state, lam, phi_coeffs, psi_coeffs, b, basis, quad, opts=None):
    """Mode from arbitrary full-basis coefficients (manufactured solutions).

    The electric potential must have no constant part; the constant
    direction is the built-in trivial kernel and carries no fields.
    """
    if basis.mean_zero:
        raise VmspecError("reconstruction expects the full basis")
    phi_coeffs = np.asarray(phi_coeffs, dtype=float)
    psi_coeffs = np.asarray(psi_coeffs, dtype=float)
    const = np.nonzero(basis.k_index == 0)[0]
    if const.size and abs(phi_coeffs[const[0]]) > 0.0:
        raise VmspecError("phi must be mean-free: constant coefficient rejected")
    x = basis.x_grid
    phi_v = basis.values @ phi_coeffs
    psi_v = basis.values @ psi_coeffs
    dphi = basis.values @ basis.derivative_coeffs(phi_coeffs, 1)
    dpsi = basis.values @ basis.derivative_coeffs(psi_coeffs, 1)
    mode = GrowingMode(lam=float(lam), phi_coeffs=phi_coeffs, psi_coeffs=psi_coeffs,
                       b=float(b), x=x, phi=phi_v, psi=psi_v,
                       e1=-dphi - lam * b, e2=-lam * psi_v, bfield=dpsi)

    kmax = basis.n_modes // 2
    kernel = assembly_kernel(state, quad, kmax, x)
    c_phi = _half_spectrum(basis, phi_coeffs)
    c_psi = _half_spectrum(basis, psi_coeffs)
    vh1, vh2 = kernel.vh1, kernel.vh2

    f = {}                         # f_s of the module docstring, per species
    if state.homogeneous:
        # an x-phase p_k times the filter, Re p_k (re + i im) = [Re p, -Im p] @ [re; im],
        # and x-free mu_e, mu_p: each f_s is one real product over the whole grid
        re, im = line_filter(quad, kmax, 2.0 * np.pi / state.period, lam)
        p_phi, p_psi = (kernel.phases.T * c[None, :] for c in (c_phi, c_psi))
        G = np.hstack([phi_v[:, None], psi_v[:, None], -p_phi.real, p_phi.imag,
                       p_psi.real, -p_psi.imag, np.full((x.size, 1), mode.b)])
        H = np.vstack([re, im, re * vh2, im * vh2, vh1])
        for sign in (-1, +1):
            mu_e, mu_p = (sign * m[0] for m in kernel.mu[sign])
            f[sign] = G @ np.vstack([mu_e, mu_p, mu_e * H])
    else:
        # one orbit pass over the whole grid; contract the harmonics away
        for sign, (m0, m1, mv1) in species_pair_moments(state, lam, quad, kmax, x,
                                                        opts).items():
            q = (np.real(np.tensordot(c_phi, m0, axes=1) - np.tensordot(c_psi, m1, axes=1))
                 - mode.b * mv1)
            f[sign] = sign * (kernel.mu[sign][0] * (phi_v[:, None] - q)
                              + kernel.mu[sign][1] * psi_v[:, None])
    mode.fminus, mode.fplus = f[-1], f[+1]
    # charge and currents species by species, without an (M, N) difference
    V = np.column_stack([quad.w, quad.w * vh1, quad.w * vh2])
    mode.rho, mode.j1, mode.j2 = (f[+1] @ V - f[-1] @ V).T
    return mode


def reconstruct(state, crossing, basis, quad, modal, opts=None):
    """Physical mode from a located kernel vector.

    The kernel coordinates live in the modal bases of the lam = 0 blocks;
    they are synthesized back to trigonometric coefficients first.
    """
    n = crossing.n
    phi_mz = modal.a1_vectors[:, :n] @ crossing.phi
    psi_full = modal.a2_vectors[:, :n] @ crossing.psi
    # zero-mean coefficients sit behind the constant in the full basis
    phi_full = np.zeros(basis.n_functions)
    mz = [j for j in range(basis.n_functions) if basis.k_index[j] > 0]
    phi_full[mz] = phi_mz
    return from_coefficients(state, crossing.lambda_star, phi_full, psi_full,
                             crossing.b, basis, quad, opts)


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
                "tol": self.tol, "passed": self.passed}


def _rms(basis, values):
    return float(np.sqrt(np.sum(np.asarray(values) ** 2) * basis.quad_weight / basis.period))


def _rel(basis, lhs, rhs, floor):
    r = _rms(basis, np.asarray(lhs) - np.asarray(rhs))
    scale = max(_rms(basis, lhs), _rms(basis, rhs), floor)
    return r / scale, r


def _test_battery(basis):
    """Separable test functions with hand-coded derivatives.

    Spatial factors are low harmonics; velocity factors are polynomials in
    vhat under a fixed decaying envelope (1+e)^(-4), so every factor has a
    closed-form gradient.
    """
    w = basis.omega
    spatial = [
        (lambda x: np.ones_like(x), lambda x: np.zeros_like(x)),
        (lambda x: np.cos(w * x), lambda x: -w * np.sin(w * x)),
        (lambda x: np.sin(w * x), lambda x: w * np.cos(w * x)),
        (lambda x: np.cos(2 * w * x), lambda x: -2 * w * np.sin(2 * w * x)),
    ]
    # (q(vh1, vh2), dq/dvh1, dq/dvh2)
    velocity = [
        (lambda a, b: np.ones_like(a), lambda a, b: np.zeros_like(a), lambda a, b: np.zeros_like(a)),
        (lambda a, b: a, lambda a, b: np.ones_like(a), lambda a, b: np.zeros_like(a)),
        (lambda a, b: b, lambda a, b: np.zeros_like(a), lambda a, b: np.ones_like(a)),
        (lambda a, b: a * b, lambda a, b: b, lambda a, b: a),
    ]
    return spatial, velocity


def _species_mu(state, quad, x):
    """Each species' (mu_e, mu_p) at the points x, as (M, N) arrays; without
    a potential they do not depend on x, and one row (1, N) serves every x."""
    rows = x[:1] if state.homogeneous else x
    out = {}
    for sign in (-1, +1):
        p = quad.v2[None, :] + sign * state.psi0(rows)[:, None]
        out[sign] = (state.profile.mu_e(sign, quad.e[None, :], p),
                     state.profile.mu_p(sign, quad.e[None, :], p))
    return out


def _weak_vlasov_defect(state, mode, basis, quad, floor):
    """Max relative weak-form transport defect over the battery.

    Separable test functions g = X(x) q(vhat) env(e) let every (x, v)
    integral reduce to x-profiles of the distributions against a handful
    of velocity vectors, computed once per species.
    """
    lam = mode.lam
    x = basis.x_grid
    wq = basis.quad_weight
    vh1 = quad.v1 / quad.e
    vh2 = quad.v2 / quad.e
    env = (1.0 + quad.e) ** (-4.0)
    denv = -4.0 * (1.0 + quad.e) ** (-5.0)
    dv1_h1 = (1.0 - vh1 ** 2) / quad.e
    dv1_h2 = -vh1 * vh2 / quad.e
    dv2_h1 = dv1_h2
    dv2_h2 = (1.0 - vh2 ** 2) / quad.e

    spatial, velocity = _test_battery(basis)
    b0 = state.b0(x)

    # per velocity factor: qv, its v1-advection weight and rotation weight
    vecs = []
    for q, dq1, dq2 in velocity:
        qv = q(vh1, vh2) * env
        gq1 = (dq1(vh1, vh2) * dv1_h1 + dq2(vh1, vh2) * dv1_h2) * env + q(vh1, vh2) * denv * vh1
        gq2 = (dq1(vh1, vh2) * dv2_h1 + dq2(vh1, vh2) * dv2_h2) * env + q(vh1, vh2) * denv * vh2
        vecs.append((qv, vh1 * qv, vh2 * gq1 - vh1 * gq2))

    # per q: f against w (qv, vh1 qv, rot), the sources (mu_e vh1, mu_p vh1,
    # mu_e vh2 + mu_p) against w qv
    mu = _species_mu(state, quad, x)
    per_species = {}
    for sign, f in ((-1, mode.fminus), (+1, mode.fplus)):
        mu_e, mu_p = mu[sign]
        prof_f = [(f @ (quad.w * qv), f @ (quad.w * adv), f @ (quad.w * rot))
                  for qv, adv, rot in vecs]
        src = [((mu_e * vh1) @ (quad.w * qv), (mu_p * vh1) @ (quad.w * qv),
                (mu_e * vh2 + mu_p) @ (quad.w * qv)) for qv, _, _ in vecs]
        per_species[sign] = (prof_f, src)

    worst = 0.0
    for X, dX in spatial:
        Xv, dXv = X(x), dX(x)
        for iq in range(len(vecs)):
            lhs = rhs = 0.0
            for sign in (-1, +1):
                prof_f, src = per_species[sign]
                fq, fadv, frot = prof_f[iq]
                s1, s2, s3 = src[iq]
                lhs += float(np.sum(lam * Xv * fq - dXv * fadv - sign * b0 * Xv * frot) * wq)
                rhs += float(np.sum(sign * Xv * (-mode.e1 * s1 + mode.bfield * s2
                                                 - mode.e2 * s3)) * wq)
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs), floor))
    return worst


def residuals(state, mode, basis, quad, tol_residual=1e-4):
    """Relative residuals of every linearized field equation.

    The floor keeps near-zero components from reporting 0/0; the weak
    transport check integrates the equation against the battery instead of
    differentiating f in v.
    """
    lam = mode.lam
    floor = 1e-3 * max(mode.scale, 1e-12)
    d2phi = basis.values @ basis.derivative_coeffs(mode.phi_coeffs, 2)
    d2psi = basis.values @ basis.derivative_coeffs(mode.psi_coeffs, 2)
    j1_coeffs = basis.project(mode.j1)
    dj1 = basis.values @ basis.derivative_coeffs(j1_coeffs, 1)

    gauss_rel, gauss_abs = _rel(basis, -d2phi, mode.rho, floor)
    amp1_rel, amp1_abs = _rel(basis, lam * mode.e1, -mode.j1, floor)
    amp2_rel, amp2_abs = _rel(basis, -lam ** 2 * mode.psi + d2psi, -mode.j2, floor)
    cont_rel, cont_abs = _rel(basis, dj1, -lam * mode.rho, floor)
    weak = _weak_vlasov_defect(state, mode, basis, quad, floor)
    return ResidualReport(gauss=gauss_rel, ampere1=amp1_rel, ampere2=amp2_rel,
                          continuity=cont_rel, vlasov_weak=weak, tol=tol_residual,
                          abs_gauss=gauss_abs, abs_ampere1=amp1_abs,
                          abs_ampere2=amp2_abs, abs_continuity=cont_abs)


# ---------------------------------------------------------------------------
# operator-space versus physical-space consistency
# ---------------------------------------------------------------------------

def physical_defect_coeffs(state, mode, basis, quad):
    """Field-equation defects of a mode, projected to coefficient space.

    Returns (d1, d2, d3): the mean-zero projection of phi'' + rho, the full
    projection of psi'' - lam^2 psi + j2, and the scalar
    int j1 dx - P lam^2 b.  Also returns the two parity integrals dropped
    in the mean-current reduction, which must vanish.
    """
    mz = [j for j in range(basis.n_functions) if basis.k_index[j] > 0]
    d2phi = basis.values @ basis.derivative_coeffs(mode.phi_coeffs, 2)
    d2psi = basis.values @ basis.derivative_coeffs(mode.psi_coeffs, 2)
    d1 = basis.project(d2phi + mode.rho)[mz]
    d2 = basis.project(d2psi - mode.lam ** 2 * mode.psi + mode.j2)
    wq = basis.quad_weight
    d3 = float(np.sum(mode.j1) * wq - basis.period * mode.lam ** 2 * mode.b)

    vh1 = quad.v1 / quad.e
    drop1 = drop2 = 0.0
    for mu_e, mu_p in _species_mu(state, quad, basis.x_grid).values():
        drop1 += float(((mu_e * vh1[None, :]) @ quad.w * mode.phi).sum() * wq)
        drop2 += float(((mu_p * vh1[None, :]) @ quad.w * mode.psi).sum() * wq)
    return d1, d2, d3, (drop1, drop2)


def operator_defect_coeffs(blocks, mode, basis):
    """Same defects from the assembled one-sided blocks."""
    mz = [j for j in range(basis.n_functions) if basis.k_index[j] > 0]
    phi_mz = mode.phi_coeffs[mz]
    psi = mode.psi_coeffs
    B_raw = blocks.raw["B"]
    Bstar_raw = blocks.raw["Bstar"]
    d1 = -(blocks.A1 @ phi_mz) + B_raw @ psi + blocks.C * mode.b
    d2 = -(Bstar_raw @ phi_mz) - blocks.A2 @ psi + blocks.D * mode.b
    d3 = float(blocks.C @ phi_mz - blocks.D @ psi
               - blocks.period * mode.b * (blocks.lam ** 2 - blocks.l))
    return d1, d2, d3


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def export_mode(mode, outdir, stem="mode", report=None, quad=None, max_slice_nodes=64):
    """JSON manifest, field table, and a subsampled distribution table."""
    os.makedirs(outdir, exist_ok=True)
    manifest = {
        "lambda": mode.lam,
        "b": mode.b,
        "nontrivial": mode.nontrivial,
        "residuals": None if report is None else report.as_dict(),
    }
    with open(os.path.join(outdir, "%s_manifest.json" % stem), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    with open(os.path.join(outdir, "%s_fields.csv" % stem), "w", newline="") as fh:
        wtr = csv.writer(fh)
        wtr.writerow(["x", "phi", "psi", "E1", "E2", "B"])
        for i in range(mode.x.size):
            wtr.writerow([repr(float(v)) for v in
                          (mode.x[i], mode.phi[i], mode.psi[i],
                           mode.e1[i], mode.e2[i], mode.bfield[i])])
    if quad is not None and mode.fplus is not None:
        stride = max(1, quad.n_nodes // max_slice_nodes)
        idx = np.arange(0, quad.n_nodes, stride)
        r = np.hypot(quad.v1, quad.v2)
        th = np.mod(np.arctan2(quad.v2, quad.v1), 2.0 * np.pi)
        with open(os.path.join(outdir, "%s_distribution.csv" % stem), "w", newline="") as fh:
            wtr = csv.writer(fh)
            wtr.writerow(["x", "r", "theta", "fplus", "fminus"])
            for m in range(mode.x.size):
                for j in idx:
                    wtr.writerow([repr(float(v)) for v in
                                  (mode.x[m], r[j], th[j],
                                   mode.fplus[m, j], mode.fminus[m, j])])
    return os.path.join(outdir, "%s_manifest.json" % stem)
