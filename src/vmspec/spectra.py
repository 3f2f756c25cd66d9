"""Symmetric eigensolves, signed counts, instability verdicts, sweeps.

The instability test counts negative eigenvalues of the two pencils of the
truncated matrix: the electric one on (phi, b) goes from n - neg(A1) + neg(l)
at lam = 0 to n + 1 at large lam, the magnetic one A2 on psi from neg(A2) to
none.  A count change forces an eigenvalue of its pencil through zero at a
finite growth rate, where a kernel vector rebuilds a physical mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import HypothesisError, SpuriousIntervalError, VmspecError
from .operators import ModalBasis, assemble_M, assemble_blocks

UNSTABLE_T1 = "UNSTABLE_T1"
UNSTABLE_T2 = "UNSTABLE_T2"
INCONCLUSIVE = "INCONCLUSIVE"
PENCILS = ("electric", "magnetic")      # the order of ``assemble_M``'s blocks


# ---------------------------------------------------------------------------
# eigensolves and counting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EigenDecomposition:
    values: np.ndarray             # ascending
    vectors: np.ndarray            # orthonormal columns; None for values only
    residual: float                # max |A v - value v|; None for values only


def _fix_signs(vectors):
    """Flip each column whose first coefficient above 1e-12 of its largest is negative."""
    mags = np.abs(vectors)
    lead = np.argmax(mags > 1e-12 * np.maximum(mags.max(axis=0), 1e-300), axis=0)
    return vectors * np.where(vectors[lead, np.arange(vectors.shape[1])] < 0, -1.0, 1.0)


def _canonical_plane(V):
    """The one orthonormal basis of span(V), whatever V's rotation: the
    Gram-Schmidt of the pivot unit vectors projected onto the span.  Each
    pivot is the row longest after the earlier ones are projected out (the
    first within 1e-8 wins a tie); row lengths, so pivots, ignore rotation."""
    rest, pivots = V.copy(), []
    for _ in range(V.shape[1]):
        norms = np.linalg.norm(rest, axis=1)
        p = int(np.argmax(norms >= (1.0 - 1e-8) * norms.max()))
        pivots.append(p)
        u = rest[p] / norms[p]
        rest -= np.outer(rest @ u, u)
    q, r = np.linalg.qr(V @ V[pivots].T)
    return q * np.sign(np.diag(r))


def symmetric_eigen(A, vectors=True):
    """Decomposition of a symmetric matrix with a deterministic layout.

    A non-finite entry or a relative asymmetry above 1e-8 is an error.
    Eigenvalues come out ascending.  A near-degenerate cluster gets the one
    basis of its space that roundoff in ``A`` or the LAPACK driver cannot
    turn, and every vector's first significant coefficient is made
    positive.  With
    ``vectors=False`` only the eigenvalues are computed, and ``vectors``
    and ``residual`` are None.
    """
    A = np.asarray(A, dtype=float)
    if not np.isfinite(A).all():
        raise VmspecError("matrix has %d non-finite entries" % np.count_nonzero(~np.isfinite(A)))
    scale = max(float(np.max(np.abs(A))), 1e-300)
    defect = float(np.max(np.abs(A - A.T)))
    if defect > 1e-8 * scale:
        raise VmspecError("matrix asymmetry %.3e above tolerance" % defect)
    As = 0.5 * (A + A.T)
    if not vectors:
        return EigenDecomposition(values=np.linalg.eigvalsh(As), vectors=None, residual=None)
    vals, vecs = np.linalg.eigh(As)
    i = 0
    while i < vals.size:
        j = i + 1
        while j < vals.size and abs(vals[j] - vals[i]) <= 1e-10 * max(scale, abs(vals[i])):
            j += 1
        if j - i > 1:
            vecs[:, i:j] = _canonical_plane(vecs[:, i:j])
        i = j
    vecs = _fix_signs(vecs)
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


def verdict(neg_a1, neg_a2, l0, ker_a2_trivial):
    """Instability decision from the signed counts.

    The counting criterion is sufficient only: a strict surplus
    neg(A2) > neg(A1) + neg(-l0) certifies a growing mode; with a trivial
    A2 kernel any mismatch does.  Everything else stays INCONCLUSIVE.
    |l0| <= 1e-10 breaks the hypothesis l0 != 0.
    """
    if abs(l0) <= 1e-10:
        raise HypothesisError("hypothesis failure: l0 ~ 0 (|l0|=%.3e <= 1.0e-10)" % abs(l0))
    rhs = neg_a1 + neg_scalar(-l0)
    if neg_a2 > rhs:
        return VerdictResult(UNSTABLE_T1, "neg(A2)=%d > %d=neg(A1)+neg(-l0)" % (neg_a2, rhs),
                             neg_a1, neg_a2, l0)
    if ker_a2_trivial and neg_a2 != rhs:
        return VerdictResult(UNSTABLE_T2, "neg(A2)=%d != %d with trivial A2 kernel" % (neg_a2, rhs),
                             neg_a1, neg_a2, l0)
    return VerdictResult(INCONCLUSIVE, "neg(A2)=%d vs neg(A1)+neg(-l0)=%d" % (neg_a2, rhs),
                         neg_a1, neg_a2, l0)


def a2_kernel_trivial(a2_values, homogeneous, tol_eig=None):
    """Whether A2 at lam = 0 has a trivial kernel: never on a magnetized state,
    where A2 psi0' = 0 (a shift in x is another equilibrium), however far
    roundoff moves that eigenvalue; on a homogeneous one, when no eigenvalue
    lies in the zero band of ``count_eigenvalues(a2_values, tol_eig)``."""
    return bool(homogeneous) and count_eigenvalues(a2_values, tol_eig).zero == 0


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
    eigenvalues: dict              # pencil -> (size, n_lam); n + 1 electric, n magnetic
    counts: list                   # both pencils, in one zero band per rate
    pencil_counts: dict            # pencil -> its negative count per rate, in that band
    crossings: list                # dicts {pencil, lam_lo, lam_hi, neg_lo, neg_hi}, by lam_lo
    n: int
    l0: float
    neg_a1: int
    neg_a2: int
    k_count: int                   # n - neg(A1) + neg(A2) + neg(l0)
    verdict: VerdictResult         # from the counts capped at n; INCONCLUSIVE when l0 ~ 0
    modal: ModalBasis = field(repr=False, default=None)
    blocks0: object = field(repr=False, default=None)
    # what the sweep was computed from, read again by the search and the mode
    state: object = field(repr=False, default=None)
    basis: object = field(repr=False, default=None)
    quad: object = field(repr=False, default=None)
    opts: object = field(repr=False, default=None)
    family: object = field(repr=False, default=None)       # lam -> {pencil: matrix}


def default_lambda_grid(period, n_points=48, lo=1e-2, hi=1e2):
    """Logarithmic grid in units of the fundamental wavenumber 2*pi/P."""
    w = 2.0 * np.pi / period
    return np.geomspace(lo * w, hi * w, n_points)


def sweep(state, basis, quad, n, lam_grid, opts=None, tol_eig=None):
    """Counts of negative eigenvalues of the truncated matrix across lam.

    Records each pencil's spectra and counts, every interval where a
    pencil's count changes and the verdict of the lam = 0 counts, and keeps
    its inputs and the family ``lam -> {pencil: matrix}`` for the kernel
    search and the mode reconstruction.
    """
    lam_grid = np.asarray(lam_grid, dtype=float)
    if lam_grid.ndim != 1 or lam_grid.size < 2 or np.any(lam_grid <= 0) \
            or np.any(np.diff(lam_grid) <= 0):
        raise VmspecError("lam grid must be ascending and strictly positive")
    blocks0 = assemble_blocks(state, 0.0, basis, quad, opts)
    modal = modal_truncation(blocks0, tol_eig)

    def family(lam):
        blocks = assemble_blocks(state, lam, basis, quad, opts)
        return dict(zip(PENCILS, assemble_M(blocks, n, modal)))

    per_rate = [{p: symmetric_eigen(M, vectors=False).values for p, M in family(lam).items()}
                for lam in lam_grid]
    eigenvalues = {p: np.column_stack([s[p] for s in per_rate]) for p in PENCILS}
    counts = [count_eigenvalues(col, tol_eig) for col in np.vstack(list(eigenvalues.values())).T]
    pencil_counts = {p: [count_eigenvalues(s[p], c.tol).neg for s, c in zip(per_rate, counts)]
                     for p in PENCILS}
    crossings = sorted(({"pencil": p, "lam_lo": float(lam_grid[i]),
                         "lam_hi": float(lam_grid[i + 1]), "neg_lo": negs[i],
                         "neg_hi": negs[i + 1]}
                        for p, negs in pencil_counts.items() for i in range(lam_grid.size - 1)
                        if negs[i] != negs[i + 1]), key=lambda iv: iv["lam_lo"])

    neg_a1 = count_eigenvalues(modal.a1_values, tol_eig).neg
    neg_a2 = count_eigenvalues(modal.a2_values, tol_eig).neg
    k_count = n - min(n, neg_a1) + min(n, neg_a2) + neg_scalar(blocks0.l)
    ker_trivial = a2_kernel_trivial(modal.a2_values, state.homogeneous, tol_eig)
    try:
        vres = verdict(min(n, neg_a1), min(n, neg_a2), blocks0.l, ker_trivial)
    except HypothesisError as exc:
        vres = VerdictResult(INCONCLUSIVE, str(exc), neg_a1, neg_a2, blocks0.l)
    return SweepResult(lam_grid=lam_grid, eigenvalues=eigenvalues, counts=counts,
                       pencil_counts=pencil_counts, crossings=crossings, n=n, l0=blocks0.l,
                       neg_a1=neg_a1, neg_a2=neg_a2, k_count=k_count, verdict=vres,
                       modal=modal, blocks0=blocks0, state=state, basis=basis,
                       quad=quad, opts=opts, family=family)


# ---------------------------------------------------------------------------
# kernel localization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelCrossing:
    lambda_star: float
    vector: np.ndarray             # unit kernel vector in the pencil's coordinates
    min_abs_eig: float             # |eigenvalue| at lambda_star
    tol_kernel: float
    pencil: str = None             # named by ``locate_kernel_for_state``


def locate_kernel(assemble_fn, lam_lo, lam_hi, vals_lo, vals_hi, tol_kernel=None):
    """Find a kernel of the matrix family in a count-change interval, in at
    most 60 steps.

    ``assemble_fn(lam)`` must return the symmetric matrix, and ``vals_lo``,
    ``vals_hi`` are its ascending eigenvalues at the two ends.  f(lam), the
    k-th ascending eigenvalue for k the smaller end count, changes sign
    across the interval.  Each step goes to the Illinois secant point of a
    bracket kept by the sign of f (the value at an end is halved when the
    other end has moved twice in a row), or to the midpoint when that point
    leaves the bracket or the bracket has not halved in three steps; the
    search stops once |f| <= tol_kernel and the bracket is within 1e-12 of
    its upper end.  Signs are strict: a tolerance band would park the search
    at the band edge.  Steps take eigenvalues only; the vector is column k
    of one full decomposition, of the step matrix with the smallest |f|.  A
    count change does not imply a zero crossing in principle, so that |f|
    must be within tol_kernel, or the interval is reported as spurious.
    """
    lam_lo, lam_hi = float(lam_lo), float(lam_hi)
    if not (0 < lam_lo < lam_hi):
        raise VmspecError("need 0 < lam_lo < lam_hi")
    scale = max(float(np.max(np.abs(vals_lo))), float(np.max(np.abs(vals_hi))), 1.0)
    tol_k = tol_kernel if tol_kernel is not None else 1e-9 * scale
    neg_lo = count_eigenvalues(vals_lo, 0.0).neg
    neg_hi = count_eigenvalues(vals_hi, 0.0).neg
    if neg_lo == neg_hi:
        raise VmspecError("interval carries no negative-count change")

    k = min(neg_lo, neg_hi)
    a, b, fa = lam_lo, lam_hi, vals_lo[k]
    ga, gb = fa, vals_hi[k]        # f at the ends, halved while the other end moves
    moved, widths = 0, [b - a]     # +1 (-1) when a (b) moved last
    best = None
    for _ in range(60):
        # keep h inside the bracket: next to a root that an end already
        # sits on, the step then crosses it and closes the bracket
        h = min(0.25e-12 * b, 0.25 * (b - a))
        x = min(max(b - gb * (b - a) / (gb - ga), a + h), b - h)
        if not a < x < b or (len(widths) > 3 and widths[-1] > 0.5 * widths[-4]):
            x = 0.5 * (a + b)
        M = assemble_fn(x)
        fx = symmetric_eigen(M, vectors=False).values[k]
        if best is None or abs(fx) < best[0]:
            best = (abs(fx), x, M)
        if (fx < 0) == (fa < 0):
            a, fa, ga = x, fx, fx
            gb = 0.5 * gb if moved == 1 else gb
            moved = 1
        else:
            b, gb = x, fx
            ga = 0.5 * ga if moved == -1 else ga
            moved = -1
        widths.append(b - a)
        if best[0] <= tol_k and b - a <= 1e-12 * b:
            break
    min_abs, lam_star, M = best
    if min_abs > tol_k:
        raise SpuriousIntervalError(
            "spurious interval: count changes but the smallest |eigenvalue| "
            "only reaches %.3e (tol %.1e); the change did not come from a zero crossing"
            % (min_abs, tol_k))
    dec = symmetric_eigen(M)
    return KernelCrossing(lambda_star=float(lam_star), vector=dec.vectors[:, k],
                          min_abs_eig=float(abs(dec.values[k])), tol_kernel=tol_k)


def locate_kernel_for_state(sweep_result, tol_kernel=None):
    """Kernel search inside the first of a sweep's count-change intervals,
    on the family of the pencil that changes count there, from the spectra
    the sweep has at both ends."""
    sw = sweep_result
    if not sw.crossings:
        raise VmspecError("sweep found no count-change interval")
    iv = sw.crossings[0]
    i = int(np.searchsorted(sw.lam_grid, iv["lam_lo"]))
    vals = sw.eigenvalues[iv["pencil"]]
    cr = locate_kernel(lambda lam: sw.family(lam)[iv["pencil"]], iv["lam_lo"], iv["lam_hi"],
                       vals[:, i], vals[:, i + 1], tol_kernel=tol_kernel)
    return replace(cr, pencil=iv["pencil"])
