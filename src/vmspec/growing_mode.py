"""Reconstruction of the physical mode from a kernel vector, and residuals.

Given (phi, psi, b) and the growth rate, the perturbed distributions are

    f_s = s * [mu_e phi + mu_p psi - mu_e (Q phi - Q(v2hat psi) - b Q v1hat)]

per species s = +/-1, with Q the backward smoothing average at that rate.
Under the species mirror the two differ only by a relabeling: with f- = a + p
split into its phi/b part a and its psi part p, f+ is p - a read at the
v2-image of each node (docs/DECISIONS.md section 4), so only species -'s
tables are formed.  Every reader contracts f_s over the velocity nodes, so a
mode hands out only f_s @ Y and chosen node columns (``GrowingMode.contract``);
on straight-line states the (x, v) array is never formed.  The field
equations then follow from moments of f+ - f-; the residual suite
evaluates each one as stated physics (charge, both current equations,
continuity) plus a weak-form transport check against a battery of
separable test functions, because strong velocity derivatives of f are
never formed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .discretization import LOWER, UPPER, fold_quarters, ring_blocks, theta_reflect_permutation
from .errors import VmspecError
from .operators import assembly_kernel, damping, node_moments, species_mu


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
    rho: np.ndarray = None
    j1: np.ndarray = None
    j2: np.ndarray = None
    # contract(rows) is {s: f_s @ Y.T} with rows(on) Y's (K, nodes) rows on the node slice on,
    # sums=True adds {s: sums of mu_e Y, mu_p Y, vh2 mu_e Y}; contract(cols=...) {s: f_s[:, cols]}
    contract: object = field(repr=False, default=None)
    state: object = field(repr=False, default=None)    # read by the residuals and export
    basis: object = field(repr=False, default=None)
    quad: object = field(repr=False, default=None)

    @property
    def nontrivial(self):
        return self.scale > 1e-12

    @property
    def scale(self):
        return float(np.linalg.norm(self.phi_coeffs) + np.linalg.norm(self.psi_coeffs)
                     + abs(self.b))


def from_coefficients(state, lam, phi_coeffs, psi_coeffs, b, basis, quad, opts=None):
    """Mode from arbitrary full-basis coefficients (manufactured solutions).

    The electric potential must have no constant part; the constant
    direction is the built-in trivial kernel and carries no fields.  A
    homogeneous mode reads the class rows of its ``assembly_kernel``.  A
    magnetized one makes one ``node_moments`` pass of species - and keeps
    species -'s tables only, f- and the mirror's p - a, with ``species_mu``;
    species + is read by relabeling the nodes of Y.
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
    mode = GrowingMode(lam=float(lam), phi_coeffs=phi_coeffs, psi_coeffs=psi_coeffs, b=float(b),
                       x=x, phi=phi_v, psi=psi_v, e1=-dphi - lam * b, e2=-lam * psi_v,
                       bfield=dpsi, state=state, basis=basis, quad=quad)

    c_phi, c_psi = basis.half_spectrum(phi_coeffs), basis.half_spectrum(psi_coeffs)

    if state.homogeneous:
        # x-phases p_k times the filter lam/(lam + i k w vh1) = re + i im, x-free mu: f_s =
        # s G @ S_s, S_s = [mu_e; mu_p; mu_e*(re; im; re*vh2; im*vh2; vh1)].  re is
        # constant on a quarter class, im = -(k w/lam) vh1 re, and vh2, mu_e and mu_p on
        # each half (vh2 > 0, < 0) of it, so S_s @ Y needs the half sums of Y and vh1*Y,
        # taken one block of rings at a time against the kernel's class rows.
        kw, prof, mirror = basis.wavenumbers, state.profile, np.array([[-1.0], [1.0], [-1.0]])
        kernel = assembly_kernel(state, quad)
        odd = (-kw / lam if lam > 0.0 else 0.0 * kw)[:, None]
        p_phi, p_psi = (basis.phases.T * c[None, :] for c in (c_phi, c_psi))
        G = np.hstack([phi_v[:, None], psi_v[:, None], -p_phi.real, p_phi.imag,
                       p_psi.real, -p_psi.imag, np.full((x.size, 1), mode.b)])

        def pieces(rows, cols):   # per block: filter, half sums of Y and vh1 Y, and the
            # class rows (vh2, mu_e, mu_p) of species - on the upper and the lower half
            if cols is not None:
                # columns are Y = I on those nodes: each is its own upper half, its
                # v2-image the lower one, and the filter is taken there
                e, v2, U = quad.e[cols], quad.v2[cols], np.eye(len(cols))
                vh1, vh2 = quad.v1[cols] / e, v2 / e
                R = [np.array([s * vh2, prof.mu_e(-1, e, s * v2), prof.mu_p(-1, e, s * v2)])
                     for s in (1, -1)]
                yield damping(lam, kw, vh1), (U, 0.0, vh1 * U, 0.0), *R
                return
            for on, classes in ring_blocks(quad):
                Y, vh1 = rows(on), quad.v1[on] / quad.e[on]
                yield (damping(lam, kw, kernel.rep[classes]),
                       [fold_quarters(quad, F, h) for F in (Y, vh1 * Y) for h in (UPPER, LOWER)],
                       *kernel.halves[..., classes])

        def contract(rows=None, cols=None, sums=False):
            S, Q = {-1: 0.0, +1: 0.0}, {-1: 0.0, +1: 0.0}
            for re, (U, L, U1, L1), upper, lower in pieces(rows, cols):
                # species + is the v2-mirror of species -: the other half, vh2 and mu_p negated
                for sign, (v2u, m_eu, m_pu), (v2l, m_el, m_pl) in zip(
                        S, (upper, mirror * lower), (lower, mirror * upper)):
                    # sums of mu_e Y, its vh1, vh2 and vh1 vh2 multiples, and of mu_p Y
                    E = [m_eu * U + m_el * L, m_eu * U1 + m_el * L1]
                    E += [v2u * m_eu * U + v2l * m_el * L, v2u * m_eu * U1 + v2l * m_el * L1]
                    F = (re @ np.vstack(E).T).reshape(len(re), 4, -1).transpose(1, 0, 2)
                    m = [E[0].sum(axis=1), (m_pu * U + m_pl * L).sum(axis=1)]
                    S[sign] = S[sign] + np.vstack([*m, F[0], odd * F[1], F[2], odd * F[3],
                                                   E[1].sum(axis=1)])
                    Q[sign] = Q[sign] + np.array([*m, E[2].sum(axis=1)])
            f = {sign: sign * G @ Ss for sign, Ss in S.items()}
            return (f, Q) if sums else f
    else:
        # one orbit pass of species - over the whole grid; contract the harmonics away.
        # Its f- = a + p splits into the phi/b part a and the psi part p; species + is the
        # mirror, f+ = p - a read at the v2-image of each node, so only - tables are kept
        m0, m1, mv1 = node_moments(state, -1, lam, quad, basis.n_modes // 2, x, opts)
        (mu_e, mu_p), vh2 = species_mu(state, quad, x), quad.v2 / quad.e
        perm = theta_reflect_permutation(quad)
        a = mu_e * (np.real(np.tensordot(c_phi, m0, axes=1)) - mode.b * mv1 - phi_v[:, None])
        p = -(mu_e * np.real(np.tensordot(c_psi, m1, axes=1)) + mu_p * psi_v[:, None])
        f = {-1: a + p, +1: p - a}

        def contract(rows=None, cols=None, sums=False):
            # species + reads its nodes at their images: Y[perm], perm[cols]
            Y = None if rows is None else rows(slice(None)).T
            Ys = {-1: Y, +1: None if Y is None else Y[perm]}
            fY = {s: fs @ Ys[s] if cols is None else fs[:, cols if s < 0 else perm[cols]]
                  for s, fs in f.items()}
            # the sums of mu_e Y, mu_p Y and vh2 mu_e Y; the last two change sign under the mirror
            return (fY, {s: np.array([mu_e @ Ys[s], -s * (mu_p @ Ys[s]),
                                      -s * ((vh2 * mu_e) @ Ys[s])]) for s in f}) if sums else fY
    mode.contract = contract
    # charge and currents species by species, without an (M, N) difference: w, w vh1, w vh2
    f_V = mode.contract(lambda on: np.array([quad.e[on], quad.v1[on], quad.v2[on]]) / quad.e[on]
                        * quad.w[on])
    mode.rho, mode.j1, mode.j2 = (f_V[+1] - f_V[-1]).T
    return mode


def reconstruct(sweep_result, crossing):
    """Physical mode from a kernel vector located on a sweep's family.

    An electric kernel vector holds (phi, b), a magnetic one psi, in the
    modal bases of the lam = 0 blocks; they are synthesized back to
    trigonometric coefficients first.  The mode is built on the sweep's
    state, basis, quadrature and options, so it shares the sweep's ``assembly_kernel``.
    """
    sw, n, v = sweep_result, sweep_result.n, crossing.vector
    phi, psi, b = ((v[:n], np.zeros(n), v[n]) if crossing.pencil == "electric"
                   else (np.zeros(n), v, 0.0))
    # zero-mean coefficients sit behind the constant, function 0
    phi_full = np.zeros(sw.basis.n_functions)
    phi_full[1:] = sw.modal.a1_vectors[:, :n] @ phi
    return from_coefficients(sw.state, crossing.lambda_star, phi_full,
                             sw.modal.a2_vectors[:, :n] @ psi, b, sw.basis, sw.quad, sw.opts)


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
    abs_gauss: float
    abs_ampere1: float
    abs_ampere2: float
    abs_continuity: float
    abs_vlasov_weak: float
    vlasov_weak_species: int                  # the worst entry of the weak check
    vlasov_weak_test: tuple                   # its (X, q)

    @property
    def passed(self):
        return all(r <= self.tol for r in
                   (self.gauss, self.ampere1, self.ampere2, self.continuity, self.vlasov_weak))

    def as_dict(self):
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        return {**out, "vlasov_weak_test": list(self.vlasov_weak_test), "passed": self.passed}


def _rms(basis, values):
    return float(np.sqrt(np.sum(np.asarray(values) ** 2) * basis.quad_weight / basis.period))


def _rel(basis, lhs, rhs, floor):
    r = _rms(basis, np.asarray(lhs) - np.asarray(rhs))
    scale = max(_rms(basis, lhs), _rms(basis, rhs), floor)
    return r / scale, r


def _weak_vlasov_defect(mode, floor):
    """The worst relative weak-form transport defect, with its absolute
    value, species and test function g = X(x) q(vhat) env(e), over both
    species (on a mode with f+ = -f- their equations cancel in the sum) and a
    battery of low harmonics X and polynomials q under env = (1+e)^(-4).  The
    rotation vh2 d/dv1 - vh1 d/dv2 leaves env alone and takes q to
    (vh2 dq/dvh1 - vh1 dq/dvh2)/e.  Each q costs one contraction of f against
    three velocity rows, which also gives the equilibrium's source sums.
    """
    basis, quad = mode.basis, mode.quad
    lam, x, w = mode.lam, basis.x_grid, basis.omega
    spatial = {"1": (np.ones_like(x), np.zeros_like(x)),
               "cos(wx)": (np.cos(w * x), -w * np.sin(w * x)),
               "sin(wx)": (np.sin(w * x), w * np.cos(w * x)),
               "cos(2wx)": (np.cos(2 * w * x), -2 * w * np.sin(2 * w * x))}
    X, dX = (np.column_stack(c) for c in zip(*spatial.values()))
    # q, dq/dvh1 and dq/dvh2 from (vh1, vh2)
    velocity = {"1": lambda a, b: (1.0, 0.0, 0.0), "vh1": lambda a, b: (a, 1.0, 0.0),
                "vh2": lambda a, b: (b, 0.0, 1.0), "vh1*vh2": lambda a, b: (a * b, b, a)}
    b0, e1, e2, bf = mode.state.b0(x), mode.e1, mode.e2, mode.bfield

    def table(on, poly):                # w q env, its v1 advection, its rotation
        e = quad.e[on]
        vh1, vh2 = quad.v1[on] / e, quad.v2[on] / e
        (q, dq1, dq2), env = poly(vh1, vh2), quad.w[on] * (1.0 + e) ** (-4.0)
        return np.array([env * q, env * q * vh1, env / e * (vh2 * dq1 - vh1 * dq2)])

    worst = None
    for q_name, poly in velocity.items():
        fY, sums = mode.contract(lambda on: table(on, poly), sums=True)
        for sign, S in sums.items():
            fq, fadv, frot = fY[sign].T
            # the sources (mu_e vh1, mu_p vh1, mu_e vh2 + mu_p) against w q env
            s1, s2, s3 = S[0, ..., 1], S[1, ..., 1], S[2, ..., 0] + S[1, ..., 0]
            lhs = ((lam * fq - sign * b0 * frot) @ X - fadv @ dX) * basis.quad_weight
            rhs = sign * ((-e1 * s1 + bf * s2 - e2 * s3) @ X) * basis.quad_weight
            err = np.abs(lhs - rhs)
            rel = err / np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), floor)
            j = int(np.argmax(rel))                # the first NaN, if any, which then wins
            if worst is None or np.isnan(rel[j]) or rel[j] > worst["vlasov_weak"]:
                worst = dict(vlasov_weak=float(rel[j]), abs_vlasov_weak=float(err[j]),
                             vlasov_weak_species=sign, vlasov_weak_test=(list(spatial)[j], q_name))
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

    rel = {name: _rel(basis, lhs, rhs, floor) for name, (lhs, rhs) in
           {"gauss": (-d2phi, mode.rho), "ampere1": (lam * mode.e1, -mode.j1),
            "ampere2": (-lam ** 2 * mode.psi + d2psi, -mode.j2),
            "continuity": (dj1, -lam * mode.rho)}.items()}
    return ResidualReport(**{k: r for k, (r, _) in rel.items()},
                          **{"abs_" + k: a for k, (_, a) in rel.items()},
                          **_weak_vlasov_defect(mode, floor), tol=tol_residual)


# ---------------------------------------------------------------------------
# operator-space versus physical-space consistency
# ---------------------------------------------------------------------------

def physical_defect_coeffs(mode):
    """Field-equation defects of a mode, projected to coefficient space.

    Returns (d1, d2, d3): the mean-zero projection of phi'' + rho, the full
    projection of psi'' - lam^2 psi + j2, and the scalar
    int j1 dx - P lam^2 b.  Also returns the two parity integrals dropped
    in the mean-current reduction, which must vanish; species + enters them
    as the relabeled species - of ``species_mu``, as in the assembly.
    """
    basis, quad = mode.basis, mode.quad
    d2phi = basis.values @ basis.derivative_coeffs(mode.phi_coeffs, 2)
    d2psi = basis.values @ basis.derivative_coeffs(mode.psi_coeffs, 2)
    d1 = basis.project(d2phi + mode.rho)[1:]
    d2 = basis.project(d2psi - mode.lam ** 2 * mode.psi + mode.j2)
    wq = basis.quad_weight
    d3 = float(np.sum(mode.j1) * wq - basis.period * mode.lam ** 2 * mode.b)

    vh1, perm = quad.v1 / quad.e, theta_reflect_permutation(quad)
    mu_e, mu_p = species_mu(mode.state, quad, mode.x)
    drop1 = drop2 = 0.0
    # species -, then species + as its mirror: (mu_e, -mu_p) at the v2-image of each node
    for m_e, m_p in ((mu_e, mu_p), (mu_e[:, perm], -mu_p[:, perm])):
        drop1 += float(((m_e * vh1[None, :]) @ quad.w * mode.phi).sum() * wq)
        drop2 += float(((m_p * vh1[None, :]) @ quad.w * mode.psi).sum() * wq)
    return d1, d2, d3, (drop1, drop2)


def operator_defect_coeffs(blocks, mode):
    """Same defects from the assembled blocks (psi couples to neither phi nor b)."""
    phi_mz = mode.phi_coeffs[1:]
    d1 = -(blocks.A1 @ phi_mz) + blocks.C * mode.b
    d2 = -(blocks.A2 @ mode.psi_coeffs)
    d3 = float(blocks.C @ phi_mz - blocks.period * mode.b * (blocks.lam ** 2 - blocks.l))
    return d1, d2, d3
