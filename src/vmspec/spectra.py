"""Symmetric eigensolves, signed counts, instability verdicts, sweeps.

The instability test is a counting argument: the truncated matrix has
n - neg(A1) + neg(A2) + neg(l) negative eigenvalues at lam = 0 and exactly
n + 1 for large lam, so a mismatch forces an eigenvalue of the truncated
matrix through zero at some finite growth rate, where a kernel vector
exists and a physical mode can be reconstructed.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh

from .errors import HypothesisError, SpuriousIntervalError, VmspecError
from .operators import ModalBasis, assemble_M, assemble_blocks, assembly_kernel

UNSTABLE_T1 = "UNSTABLE_T1"
UNSTABLE_T2 = "UNSTABLE_T2"
INCONCLUSIVE = "INCONCLUSIVE"


# ---------------------------------------------------------------------------
# eigensolves and counting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EigenDecomposition:
    values: np.ndarray             # ascending
    vectors: np.ndarray            # orthonormal columns
    residual: float                # max |A v - value v|


def _fix_signs(vectors):
    out = vectors.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        big = np.abs(col) > 1e-12 * max(np.abs(col).max(), 1e-300)
        if big.any():
            lead = int(np.argmax(big))
            if col[lead] < 0:
                out[:, j] = -col
    return out


def symmetric_eigen(A, tol_sym=1e-8):
    """Full decomposition of a symmetric matrix with a deterministic layout.

    Eigenvalues come out ascending; degenerate clusters are ordered by the
    index of each vector's largest coefficient, and every vector's first
    significant coefficient is made positive.
    """
    A = np.asarray(A, dtype=float)
    scale = max(float(np.max(np.abs(A))), 1e-300)
    defect = float(np.max(np.abs(A - A.T)))
    if defect > tol_sym * scale:
        raise VmspecError("matrix asymmetry %.3e above tolerance" % defect)
    As = 0.5 * (A + A.T)
    vals, vecs = eigh(As)
    # stable order inside near-degenerate clusters
    order = np.arange(vals.size)
    i = 0
    while i < vals.size:
        j = i + 1
        while j < vals.size and abs(vals[j] - vals[i]) <= 1e-10 * max(scale, abs(vals[i])):
            j += 1
        if j - i > 1:
            block = order[i:j]
            keys = [int(np.argmax(np.abs(vecs[:, b]))) for b in block]
            order[i:j] = block[np.argsort(keys, kind="stable")]
        i = j
    vals = vals[order]
    vecs = _fix_signs(vecs[:, order])
    residual = float(np.max(np.abs(As @ vecs - vecs * vals[None, :])))
    return EigenDecomposition(values=vals, vectors=vecs, residual=residual)


@dataclass(frozen=True)
class CountReport:
    neg: int
    zero: int
    pos: int
    tol: float

    @property
    def total(self):
        return self.neg + self.zero + self.pos


def count_eigenvalues(values, tol_eig=None):
    """Signed counts with a zero band; tol defaults to 1e-8 * max|value|."""
    values = np.asarray(values, dtype=float)
    tol = tol_eig if tol_eig is not None else 1e-8 * max(float(np.max(np.abs(values))), 1e-300)
    neg = int(np.sum(values < -tol))
    pos = int(np.sum(values > tol))
    return CountReport(neg=neg, zero=int(values.size - neg - pos), pos=pos, tol=tol)


def neg_scalar(a):
    return 1 if a < 0 else 0


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerdictResult:
    verdict: str
    reason: str
    neg_a1: int
    neg_a2: int
    l0: float


def verdict(neg_a1, neg_a2, l0, ker_a2_trivial, tol=1e-10):
    """Instability decision from the signed counts.

    The counting criterion is sufficient only: a strict surplus
    neg(A2) > neg(A1) + neg(-l0) certifies a growing mode; with a trivial
    A2 kernel any mismatch does.  Everything else stays INCONCLUSIVE.
    """
    if abs(l0) <= tol:
        raise HypothesisError("hypothesis failure: l0 ~ 0 (|l0|=%.3e <= %.1e)" % (abs(l0), tol))
    rhs = neg_a1 + neg_scalar(-l0)
    if neg_a2 > rhs:
        return VerdictResult(UNSTABLE_T1, "neg(A2)=%d > %d=neg(A1)+neg(-l0)" % (neg_a2, rhs),
                             neg_a1, neg_a2, l0)
    if ker_a2_trivial and neg_a2 != rhs:
        return VerdictResult(UNSTABLE_T2, "neg(A2)=%d != %d with trivial A2 kernel" % (neg_a2, rhs),
                             neg_a1, neg_a2, l0)
    return VerdictResult(INCONCLUSIVE, "neg(A2)=%d vs neg(A1)+neg(-l0)=%d" % (neg_a2, rhs),
                         neg_a1, neg_a2, l0)


def modal_truncation(blocks0, tol_eig=None):
    """Eigenpairs of the lam = 0 diagonal blocks, with the kernel guard.

    The counting argument assumes the first block has no zero eigenvalue
    on the zero-mean space (its only null direction is the constant, which
    the basis excludes); a near-zero eigenvalue aborts the analysis.
    """
    if blocks0.lam != 0.0:
        raise VmspecError("modal truncation must come from the lam = 0 blocks")
    e1 = symmetric_eigen(blocks0.A1)
    e2 = symmetric_eigen(blocks0.A2)
    tol = tol_eig if tol_eig is not None else 1e-8 * max(float(np.max(np.abs(e1.values))), 1.0)
    if float(np.min(np.abs(e1.values))) <= tol:
        raise HypothesisError(
            "A1 at lam=0 has an eigenvalue %.3e inside the zero band on the zero-mean space"
            % float(np.min(np.abs(e1.values))))
    return ModalBasis(a1_values=e1.values, a1_vectors=e1.vectors,
                      a2_values=e2.values, a2_vectors=e2.vectors)


# ---------------------------------------------------------------------------
# lam sweep
# ---------------------------------------------------------------------------

@dataclass
class SweepResult:
    lam_grid: np.ndarray
    eigenvalues: np.ndarray        # (2n+1, n_lam)
    counts: list
    min_abs: np.ndarray
    crossings: list                # dicts {lam_lo, lam_hi, neg_lo, neg_hi}
    n: int
    l0: float
    neg_a1: int
    neg_a2: int
    k_count: int                   # n - neg(A1) + neg(A2) + neg(l0)
    modal: ModalBasis = field(repr=False, default=None)
    blocks0: object = field(repr=False, default=None)
    assembly: object = field(repr=False, default=None)     # the AssemblyKernel


def default_lambda_grid(period, n_points=48, lo=1e-2, hi=1e2):
    """Logarithmic grid in units of the fundamental wavenumber 2*pi/P."""
    w = 2.0 * np.pi / period
    return np.geomspace(lo * w, hi * w, n_points)


def sweep(state, basis, quad, n, lam_grid, opts=None, tol_eig=None):
    """Counts of negative eigenvalues of the truncated matrix across lam.

    Records the full spectra, the per-lam distance to a kernel, and every
    interval where the negative count changes.
    """
    lam_grid = np.asarray(lam_grid, dtype=float)
    if lam_grid.ndim != 1 or lam_grid.size < 2 or np.any(lam_grid <= 0) \
            or np.any(np.diff(lam_grid) <= 0):
        raise VmspecError("lam grid must be ascending and strictly positive")
    kernel = assembly_kernel(state, quad, basis.n_modes // 2, basis.x_grid)
    blocks0 = assemble_blocks(state, 0.0, basis, quad, opts, kernel)
    modal = modal_truncation(blocks0, tol_eig)
    spectra = [symmetric_eigen(assemble_M(assemble_blocks(state, lam, basis, quad, opts, kernel),
                                          n, modal)).values
               for lam in lam_grid]
    eigenvalues = np.column_stack(spectra)
    counts = [count_eigenvalues(eigenvalues[:, i], tol_eig) for i in range(lam_grid.size)]
    min_abs = np.min(np.abs(eigenvalues), axis=0)
    crossings = []
    for i in range(lam_grid.size - 1):
        if counts[i].neg != counts[i + 1].neg:
            crossings.append({"lam_lo": float(lam_grid[i]), "lam_hi": float(lam_grid[i + 1]),
                              "neg_lo": counts[i].neg, "neg_hi": counts[i + 1].neg})

    neg_a1 = count_eigenvalues(modal.a1_values, tol_eig).neg
    neg_a2 = count_eigenvalues(modal.a2_values, tol_eig).neg
    k_count = n - min(n, neg_a1) + min(n, neg_a2) + neg_scalar(blocks0.l)
    return SweepResult(lam_grid=lam_grid, eigenvalues=eigenvalues, counts=counts,
                       min_abs=min_abs, crossings=crossings, n=n, l0=blocks0.l,
                       neg_a1=neg_a1, neg_a2=neg_a2, k_count=k_count,
                       modal=modal, blocks0=blocks0, assembly=kernel)


# ---------------------------------------------------------------------------
# kernel localization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelCrossing:
    lambda_star: float
    vector: np.ndarray             # full modal coefficient vector, length 2n+1
    phi: np.ndarray                # first n entries
    psi: np.ndarray                # next n entries
    b: float
    min_abs_eig: float
    n: int
    tol_kernel: float


def locate_kernel(assemble_fn, lam_lo, lam_hi, tol_kernel=None, max_iter=60):
    """Bisect a count-change interval down to a kernel of the matrix family.

    ``assemble_fn(lam)`` must return the symmetric matrix.  The count
    change is necessary but not sufficient for a zero crossing in
    principle, so the located matrix must actually present an eigenvalue
    inside tol_kernel; otherwise the interval is reported as spurious.
    Counting here uses strict signs: a tolerance band would park the
    bisection at the band edge instead of the crossing itself.
    """
    lam_lo, lam_hi = float(lam_lo), float(lam_hi)
    if not (0 < lam_lo < lam_hi):
        raise VmspecError("need 0 < lam_lo < lam_hi")
    dec_lo = symmetric_eigen(assemble_fn(lam_lo))
    dec_hi = symmetric_eigen(assemble_fn(lam_hi))
    scale = max(float(np.max(np.abs(dec_lo.values))), float(np.max(np.abs(dec_hi.values))), 1.0)
    tol_k = tol_kernel if tol_kernel is not None else 1e-9 * scale
    neg_lo = count_eigenvalues(dec_lo.values, 0.0).neg
    neg_hi = count_eigenvalues(dec_hi.values, 0.0).neg
    if neg_lo == neg_hi:
        raise VmspecError("interval carries no negative-count change")

    best = None
    a, b = lam_lo, lam_hi
    for _ in range(max_iter):
        mid = 0.5 * (a + b)
        dec = symmetric_eigen(assemble_fn(mid))
        idx = int(np.argmin(np.abs(dec.values)))
        cand = (abs(dec.values[idx]), mid, dec, idx)
        if best is None or cand[0] < best[0]:
            best = cand
        if count_eigenvalues(dec.values, 0.0).neg == neg_lo:
            a = mid
        else:
            b = mid
        if cand[0] <= tol_k and (b - a) <= 1e-12 * max(1.0, b):
            break
    min_abs, lam_star, dec, idx = best
    if min_abs > tol_k:
        raise SpuriousIntervalError(
            "spurious interval: count changes but the smallest |eigenvalue| "
            "only reaches %.3e (tol %.1e); the change did not come from a zero crossing"
            % (min_abs, tol_k))
    vec = dec.vectors[:, idx]
    n = (vec.size - 1) // 2
    phi, psi, bb = vec[:n], vec[n:2 * n], float(vec[2 * n])
    norm = float(np.linalg.norm(phi) + np.linalg.norm(psi) + abs(bb))
    vec = vec / norm
    return KernelCrossing(lambda_star=float(lam_star), vector=vec,
                          phi=vec[:n], psi=vec[n:2 * n], b=float(vec[2 * n]),
                          min_abs_eig=float(min_abs / norm), n=n, tol_kernel=tol_k)


def locate_kernel_for_state(state, basis, quad, sweep_result, interval_index=0,
                            opts=None, tol_kernel=None, max_iter=60):
    """Kernel search inside one of a sweep's count-change intervals."""
    if not sweep_result.crossings:
        raise VmspecError("sweep found no count-change interval")
    iv = sweep_result.crossings[interval_index]
    modal = sweep_result.modal

    def assemble_fn(lam):
        blocks = assemble_blocks(state, lam, basis, quad, opts, sweep_result.assembly)
        return assemble_M(blocks, sweep_result.n, modal)

    return locate_kernel(assemble_fn, iv["lam_lo"], iv["lam_hi"],
                         tol_kernel=tol_kernel, max_iter=max_iter)


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def write_sweep_csv(path, result):
    with open(path, "w", newline="") as fh:
        wtr = csv.writer(fh)
        wtr.writerow(["lambda", "eig_index", "eigenvalue"])
        for i, lam in enumerate(result.lam_grid):
            for j in range(result.eigenvalues.shape[0]):
                wtr.writerow([repr(float(lam)), j, repr(float(result.eigenvalues[j, i]))])


def sweep_summary_dict(result, verdict_result=None):
    return {
        "n": result.n,
        "l0": result.l0,
        "neg_a1": result.neg_a1,
        "neg_a2": result.neg_a2,
        "k_count": result.k_count,
        "counts": [{"lambda": float(l), "neg": c.neg, "zero": c.zero, "pos": c.pos}
                   for l, c in zip(result.lam_grid, result.counts)],
        "crossings": result.crossings,
        "verdict": None if verdict_result is None else verdict_result.verdict,
    }


def write_sweep_summary(path, result, verdict_result=None):
    with open(path, "w") as fh:
        json.dump(sweep_summary_dict(result, verdict_result), fh, indent=2, sort_keys=True)
