import dataclasses

import numpy as np
import pytest

import vmspec as vm
from vmspec import cli
from vmspec import growing_mode as gm
from vmspec.errors import HypothesisError, SpuriousIntervalError, VmspecError
from vmspec.operators import EvalOptions, assembly_kernel


def test_eigen_trivial_cases():
    dec = vm.symmetric_eigen(np.diag([-1.0, 0.0, 2.0]))
    assert np.allclose(dec.values, [-1.0, 0.0, 2.0])
    dec = vm.symmetric_eigen(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(dec.values, [-1.0, 1.0])


def test_eigen_reconstruction_random_matrix():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((50, 50))
    A = 0.5 * (A + A.T)
    dec = vm.symmetric_eigen(A)
    rebuilt = dec.vectors @ np.diag(dec.values) @ dec.vectors.T
    assert np.max(np.abs(rebuilt - A)) <= 1e-9
    gram = dec.vectors.T @ dec.vectors
    assert np.max(np.abs(gram - np.eye(50))) <= 1e-9
    residual = np.max(np.abs(A @ dec.vectors - dec.vectors * dec.values))
    assert residual <= 1e-9 * np.max(np.abs(A))


def test_eigen_sign_convention_is_deterministic():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((12, 12))
    A = 0.5 * (A + A.T)
    v1 = vm.symmetric_eigen(A).vectors
    v2 = vm.symmetric_eigen(A.copy()).vectors
    assert np.array_equal(v1, v2)
    for j in range(v1.shape[1]):
        lead = np.nonzero(np.abs(v1[:, j]) > 1e-12 * np.abs(v1[:, j]).max())[0][0]
        assert v1[lead, j] > 0


def test_degenerate_cluster_vectors_ignore_roundoff():
    # eigh may return any rotation of a degenerate plane; the decomposition
    # must return one basis of it, whatever roundoff the matrix carries
    rng = np.random.default_rng(11)
    Q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    A = (Q * [-1.0, 0.5, 0.5, 2.0, 3.0, 4.0]) @ Q.T
    A = 0.5 * (A + A.T)
    ref = vm.symmetric_eigen(A).vectors[:, 1:3]
    for _ in range(10):
        noise = 1e-15 * rng.standard_normal((6, 6))
        got = vm.symmetric_eigen(A + noise + noise.T).vectors[:, 1:3]
        assert np.max(np.abs(got - ref)) <= 1e-10


def test_eigen_rejects_asymmetric_input():
    with pytest.raises(VmspecError, match="asymmetry"):
        vm.symmetric_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigen_rejects_non_finite_input():
    for bad in (np.nan, np.inf):
        with pytest.raises(VmspecError, match="1 non-finite"):
            vm.symmetric_eigen(np.array([[bad, 0.0], [0.0, 1.0]]), vectors=False)


def test_count_partition():
    rep = vm.count_eigenvalues(np.array([-2.0, -1e-12, 0.0, 3.0]), tol_eig=1e-9)
    assert (rep.neg, rep.zero, rep.pos) == (1, 2, 1)
    assert rep.neg + rep.zero + rep.pos == 4


def test_verdict_table():
    # strict surplus
    v = vm.verdict(0, 1, -2.0, ker_a2_trivial=False)
    assert v.verdict == vm.UNSTABLE_T1
    # balanced counts stay inconclusive even with a trivial kernel
    v = vm.verdict(0, 0, -2.0, ker_a2_trivial=True)
    assert v.verdict == vm.INCONCLUSIVE
    # any mismatch suffices when the second block has a trivial kernel
    v = vm.verdict(1, 0, -2.0, ker_a2_trivial=True)
    assert v.verdict == vm.UNSTABLE_T2
    # deficit without the kernel hypothesis proves nothing
    v = vm.verdict(1, 0, -2.0, ker_a2_trivial=False)
    assert v.verdict == vm.INCONCLUSIVE
    with pytest.raises(HypothesisError, match="l0"):
        vm.verdict(0, 1, 0.0, ker_a2_trivial=True)


def test_verdict_treats_a_magnetized_a2_kernel_as_nontrivial():
    # in exact arithmetic A2 psi0' = 0 on a magnetized state, however far
    # roundoff moves the translation eigenvalue out of the zero band, so a
    # count mismatch alone must not give UNSTABLE_T2 there
    def decide(a2_values, homogeneous, tol_eig=None):
        a2_values = np.array(a2_values)
        neg_a2 = vm.count_eigenvalues(a2_values, tol_eig).neg
        ker_trivial = vm.a2_kernel_trivial(a2_values, homogeneous, tol_eig)
        return vm.verdict(2, neg_a2, -2.0, ker_trivial).verdict

    assert decide([3.4e-7, 0.5, 1.0], homogeneous=False) == vm.INCONCLUSIVE
    assert decide([3.4e-7, 0.5, 1.0], homogeneous=True) == vm.UNSTABLE_T2
    # the kernel is judged in the band the counts used: at tol_eig = 1e-5 the
    # eigenvalue -1e-6 is a zero, not a negative, so the kernel is nontrivial;
    # the default band counts it negative, and the kernel is trivial
    assert decide([-1e-6, 1.0, 2.0], True, tol_eig=1e-5) == vm.INCONCLUSIVE
    assert decide([-1e-6, 1.0, 2.0], True) == vm.UNSTABLE_T2


def test_modal_guard_rejects_zero_mode():
    blocks = type("B", (), {})()
    blocks.lam = 0.0
    blocks.A1 = np.diag([1e-12, 2.0])
    blocks.A2 = np.diag([1.0, 2.0])
    with pytest.raises(HypothesisError, match="zero band"):
        vm.modal_truncation(blocks)


def test_sweep_zero_profile_counts(zero_profile, paper_quad):
    prof, _ = zero_profile
    state = vm.make_homogeneous_state(prof, 2 * np.pi)
    basis = vm.build_fourier_basis(state.period, 12)
    grid = vm.default_lambda_grid(state.period, n_points=10)
    sw = vm.sweep(state, basis, quad=paper_quad, n=4, lam_grid=grid)
    assert all(c.neg == 5 for c in sw.counts)            # n + 1 everywhere
    assert sw.crossings == []
    # l0 = 0 breaks the hypothesis: the sweep's verdict says so, not raises
    assert sw.verdict.verdict == vm.INCONCLUSIVE
    assert sw.verdict.reason.startswith("hypothesis failure: l0 ~ 0")
    assert sw.k_count == 4                               # l = 0 contributes nothing


def test_sweep_unstable_profile_counts_and_refinement(aniso_state, aniso_quad):
    basis = vm.build_fourier_basis(aniso_state.period, 12)
    n = 4
    grid = vm.default_lambda_grid(aniso_state.period, n_points=24)
    sw = vm.sweep(aniso_state, basis, aniso_quad, n, grid)
    assert sw.neg_a1 == 0 and sw.neg_a2 == 2 and sw.l0 < 0
    assert sw.k_count == n + 3
    assert sw.counts[0].neg == sw.k_count                # small-rate end
    assert sw.counts[-1].neg == n + 1                    # large-rate end
    assert len(sw.crossings) == 1
    # refining the grid only splits intervals, never moves them materially
    fine = vm.sweep(aniso_state, basis, aniso_quad, n,
                    vm.default_lambda_grid(aniso_state.period, n_points=48))
    assert len(fine.crossings) == 1
    # the grids are not nested, so the located intervals need only overlap
    lo, hi = sw.crossings[0]["lam_lo"], sw.crossings[0]["lam_hi"]
    assert fine.crossings[0]["lam_lo"] < hi and lo < fine.crossings[0]["lam_hi"]


def test_sweep_rejects_bad_grid(aniso_state, aniso_quad):
    basis = vm.build_fourier_basis(aniso_state.period, 8)
    with pytest.raises(VmspecError):
        vm.sweep(aniso_state, basis, aniso_quad, 3, np.array([0.0, 1.0]))
    with pytest.raises(VmspecError):
        vm.sweep(aniso_state, basis, aniso_quad, 3, np.array([2.0, 1.0]))
    with pytest.raises(VmspecError, match="finite nonzero square"):     # squares underflow
        vm.sweep(aniso_state, basis, aniso_quad, 3, np.array([1e-300, 1e-299]))


def _counted(fam):
    """``fam`` with a call counter, as (wrapped family, one-entry list)."""
    calls = [0]

    def wrapped(lam):
        calls[0] += 1
        return fam(lam)
    return wrapped, calls


def _search(fam, lam_lo, lam_hi):
    """``locate_kernel`` on ``fam``, with the end spectra taken as a sweep takes them."""
    ends = [vm.symmetric_eigen(fam(lam), vectors=False).values for lam in (lam_lo, lam_hi)]
    return vm.locate_kernel(fam, lam_lo, lam_hi, *ends)


def test_locate_kernel_on_synthetic_family():
    # diag(1 - lam, 3, -1): one eigenvalue crosses zero exactly at lam = 1
    fam, calls = _counted(lambda lam: np.diag([1.0 - lam, 3.0, -1.0]))
    cr = _search(fam, 0.5, 1.7)
    assert abs(cr.lambda_star - 1.0) <= 1e-12
    assert cr.min_abs_eig <= 1e-9 * 3.0
    assert np.allclose(np.abs(cr.vector), [1.0, 0.0, 0.0]) and cr.pencil is None
    assert calls[0] <= 10


def test_locate_kernel_degenerate_pair_is_reproducible():
    # a curved pair crossing zero together at ln 5 (a count change of 2),
    # turned by a fixed rotation; roundoff in the family must not turn the
    # located vector inside the pair's plane
    rng = np.random.default_rng(5)
    Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))

    def fam(lam, noise=None):
        g = np.exp(-lam) - 0.2
        A = (Q * [g, g, 2.0, -1.0, 3.0]) @ Q.T
        if noise is not None:
            e = 1e-15 * noise.standard_normal((5, 5))
            A = A + e + e.T
        return 0.5 * (A + A.T)

    first = _search(fam, 0.1, 10.0)
    noise = np.random.default_rng(6)
    second = _search(lambda lam: fam(lam, noise), 0.1, 10.0)
    for cr in (first, second):
        assert abs(cr.lambda_star - np.log(5.0)) <= 1e-12 * np.log(5.0)
        plane = Q[:, :2]
        v = cr.vector / np.linalg.norm(cr.vector)
        assert np.linalg.norm(v - plane @ (plane.T @ v)) <= 1e-10
    assert np.max(np.abs(first.vector - second.vector)) <= 1e-10


def test_locate_kernel_through_an_eigenvalue_crossing():
    # the tracked lowest eigenvalue is min(cos lam, 0.2 + 0.1 lam): the two
    # branches cross near lam = 1.17, inside the bracket, before the zero at pi/2
    fam, calls = _counted(lambda lam: np.diag([np.cos(lam), 0.2 + 0.1 * lam, 5.0]))
    cr = _search(fam, 0.5, 2.5)
    assert abs(cr.lambda_star - 0.5 * np.pi) <= 1e-12 * np.pi
    assert np.allclose(np.abs(cr.vector), [1.0, 0.0, 0.0])
    assert calls[0] <= 20                                # bisection takes 43


def test_locate_kernel_flags_spurious_interval():
    # the count changes by a jump discontinuity, not a crossing
    fam, calls = _counted(lambda lam: np.diag([1.0 if lam < 1.0 else -1.0, 2.0, -3.0]))
    with pytest.raises(SpuriousIntervalError):
        _search(fam, 0.5, 1.7)
    assert calls[0] <= 62                                # both ends and the 60-step cap


def test_locate_kernel_needs_count_change():
    def fam(lam):
        return np.diag([1.0 + lam, -1.0, 2.0])
    with pytest.raises(VmspecError, match="count change"):
        _search(fam, 0.5, 1.7)


def test_locate_kernel_for_state_normalization(monkeypatch, aniso_state, aniso_quad):
    basis = vm.build_fourier_basis(aniso_state.period, 12)
    grid = vm.default_lambda_grid(aniso_state.period, n_points=24)
    sw = vm.sweep(aniso_state, basis, aniso_quad, 4, grid)
    calls = [0]
    assemble = vm.spectra.assemble_blocks

    def counted(*args, **kwargs):
        calls[0] += 1
        return assemble(*args, **kwargs)

    monkeypatch.setattr(vm.spectra, "assemble_blocks", counted)
    cr = vm.locate_kernel_for_state(sw)
    assert calls[0] <= 38                # bisection to the same bracket takes 38
    assert grid[0] < cr.lambda_star < grid[-1]
    assert abs(np.linalg.norm(cr.vector) - 1.0) <= 1e-12
    # the kernel lies in the magnetic pencil, on psi alone
    assert cr.pencil == "magnetic" and cr.vector.size == 4


def test_search_and_mode_read_the_sweep(monkeypatch, aniso_state, aniso_quad):
    # the search and the reconstruction run on the sweep's own options; the
    # search starts from the sweep's spectra at the two ends, and sweep, search
    # and mode build one assembly kernel, which every rate and the mode read
    opts = EvalOptions(n_per_period=256, tol_sym=1e-6)
    basis = vm.build_fourier_basis(aniso_state.period, 12)
    grid = vm.default_lambda_grid(aniso_state.period, n_points=24)
    assembly_kernel.cache_clear()
    sw = vm.sweep(aniso_state, basis, aniso_quad, 4, grid, opts)
    seen = {"assemble": [], "mode": []}
    assemble, from_coefficients = vm.spectra.assemble_blocks, gm.from_coefficients

    def spy_assemble(state, lam, basis, quad, opts=None):
        seen["assemble"].append((lam, opts))
        return assemble(state, lam, basis, quad, opts)

    def spy_mode(state, lam, phi, psi, b, basis, quad, opts=None):
        seen["mode"].append(opts)
        return from_coefficients(state, lam, phi, psi, b, basis, quad, opts)

    monkeypatch.setattr(vm.spectra, "assemble_blocks", spy_assemble)
    monkeypatch.setattr(gm, "from_coefficients", spy_mode)
    cr = vm.locate_kernel_for_state(sw)
    rates = [lam for lam, _ in seen["assemble"]]
    assert rates and all(o is opts for _, o in seen["assemble"])
    iv = sw.crossings[0]
    assert iv["lam_lo"] not in rates and iv["lam_hi"] not in rates
    vm.reconstruct(sw, cr)
    assert len(seen["mode"]) == 1 and seen["mode"][0] is opts
    # lam = 0 builds it; the sweep's rates, the search's and the mode hit it
    info = assembly_kernel.cache_info()
    assert (info.misses, info.hits) == (1, grid.size + len(rates) + 1), info


def test_sweep_and_search_take_three_full_decompositions(monkeypatch, aniso_state, aniso_quad):
    # eigenvectors only for the two lam = 0 blocks and the located kernel;
    # every sweep rate and search step takes eigenvalues alone
    basis = vm.build_fourier_basis(aniso_state.period, 12)
    grid = vm.default_lambda_grid(aniso_state.period, n_points=24)
    calls = [0]
    eigh = np.linalg.eigh

    def counted(A):
        calls[0] += 1
        return eigh(A)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    sw = vm.sweep(aniso_state, basis, aniso_quad, 4, grid)
    vm.locate_kernel_for_state(sw)
    assert calls[0] == 3
    monkeypatch.undo()
    for i, lam in enumerate(grid):
        pencils = vm.assemble_M(vm.assemble_blocks(aniso_state, lam, basis, aniso_quad), 4,
                                sw.modal)
        full = [vm.symmetric_eigen(M).values for M in pencils]
        for p, M, vals in zip(vm.spectra.PENCILS, pencils, full):
            assert np.max(np.abs(sw.eigenvalues[p][:, i] - vals)) <= 1e-12 * np.max(np.abs(M))
        got = vm.count_eigenvalues(np.concatenate(full))
        assert (got.neg, got.zero, got.pos) == (sw.counts[i].neg, sw.counts[i].zero,
                                                sw.counts[i].pos)


def _homogeneous_symbols(state, quad):
    """Symbols a1(k, lam), a2(k, lam) from the raw quadrature, species - doubled."""
    prof, w = state.profile, 2.0 * np.pi / state.period
    vh1, vh2 = quad.v1 / quad.e, quad.v2 / quad.e
    we = 2.0 * prof.mu_e(quad.e, quad.v2) * quad.w
    m_e = float(np.sum(we))
    m_vp = float(np.sum(2.0 * vh2 * prof.mu_p(quad.e, quad.v2) * quad.w))

    def damping(k, lam):
        return lam ** 2 / (lam ** 2 + (k * w * vh1) ** 2)

    def a1(k, lam):
        return (k * w) ** 2 - m_e + float(np.sum(we * damping(k, lam)))

    def a2(k, lam):
        return (k * w) ** 2 + lam ** 2 - m_vp - float(np.sum(we * vh2 ** 2 * damping(k, lam)))
    return a1, a2


def test_kernel_matches_the_homogeneous_symbol_root(aniso_state, aniso_quad):
    from scipy.optimize import brentq
    a1, a2 = _homogeneous_symbols(aniso_state, aniso_quad)
    basis = vm.build_fourier_basis(aniso_state.period, 12)
    # the blocks are diagonal in the Fourier basis, with the symbols on it
    blocks = vm.assemble_blocks(aniso_state, 0.3, basis, aniso_quad)
    k = basis.k_index
    want1 = [a1(kj, 0.3) for kj in k[1:]]
    want2 = [a2(kj, 0.3) for kj in k]
    assert np.max(np.abs(np.diag(blocks.A1) - want1)) <= 1e-12 * np.max(np.abs(want1))
    assert np.max(np.abs(np.diag(blocks.A2) - want2)) <= 1e-12 * np.max(np.abs(want2))

    grid = vm.default_lambda_grid(aniso_state.period, n_points=24)
    sw = vm.sweep(aniso_state, basis, aniso_quad, 4, grid)
    cr = vm.locate_kernel_for_state(sw)
    lo, hi = sw.crossings[0]["lam_lo"], sw.crossings[0]["lam_hi"]
    changing = [(a, kj) for a in (a1, a2) for kj in range(1, k.max() + 1)
                if (a(kj, lo) < 0) != (a(kj, hi) < 0)]
    assert len(changing) == 1
    a, kj = changing[0]
    root = brentq(lambda lam: a(kj, lam), lo, hi, xtol=1e-16, rtol=1e-15)
    assert abs(cr.lambda_star - root) <= 1e-10 * root


def test_each_pencil_kernel_matches_its_symbol_root(two_component_sweep):
    # the two-component state crosses in both pencils in one grid interval:
    # the electric kernel is the root of a1(1, lam), the magnetic one of a2(1, lam)
    from scipy.optimize import brentq
    sw = two_component_sweep
    a1, a2 = _homogeneous_symbols(sw.state, sw.quad)
    assert [iv["pencil"] for iv in sw.crossings] == list(vm.spectra.PENCILS)
    for iv, a in zip(sw.crossings, (a1, a2)):
        cr = vm.locate_kernel_for_state(dataclasses.replace(sw, crossings=[iv]))
        assert cr.pencil == iv["pencil"]
        root = brentq(lambda lam: a(1, lam), iv["lam_lo"], iv["lam_hi"], xtol=1e-16,
                      rtol=1e-15)
        assert abs(cr.lambda_star - root) <= 1e-10 * root


def _counting_profile(prof, seen):
    """``prof`` with each (e, p) its species - functions are evaluated at
    recorded in seen["mu_e"] and seen["mu_p"]."""
    def counted(name, fn):
        def wrapped(e, p):
            seen[name].append(np.broadcast_arrays(e, p))
            return fn(e, p)
        return wrapped

    return vm.EquilibriumProfile(prof.mu_minus, counted("mu_e", prof.mu_minus_e),
                                 counted("mu_p", prof.mu_minus_p), kinks=prof.kinks)


def _points(pairs):
    """The (e, p) evaluated, as a sorted multiset."""
    return np.sort(np.concatenate([(e + 1j * p).ravel() for e, p in pairs]))


def test_sweep_and_bisection_evaluate_the_profile_once(aniso_state, aniso_quad):
    # the lam-independent fields come from one kernel per sweep: species -'s
    # mu_e and mu_p are evaluated once at each node, not once per assembly or
    # again for the mode and its residuals, in however many blocks of nodes,
    # and species + is its mirror image
    seen = {"mu_e": [], "mu_p": []}
    state = vm.make_homogeneous_state(_counting_profile(aniso_state.profile, seen),
                                      aniso_state.period)
    basis = vm.build_fourier_basis(state.period, 12)
    grid = vm.default_lambda_grid(state.period, n_points=24)
    sw = vm.sweep(state, basis, aniso_quad, 4, grid)
    vm.residuals(vm.reconstruct(sw, vm.locate_kernel_for_state(sw)))
    # species - reads mu_minus at (e, v2), and nothing reads (e, -v2)
    want = _points([(aniso_quad.e, aniso_quad.v2)])
    for name, pairs in seen.items():
        assert np.array_equal(_points(pairs), want), name


def test_magnetized_sweep_evaluates_species_minus_only(weak_state, aniso_coarse_quad):
    # a magnetized sweep builds no kernel; each assembly evaluates the profile
    # for species - at its own points (e, v2 - psi0(x_m)), never species +
    quad, seen = aniso_coarse_quad, {"mu_e": [], "mu_p": []}
    state = vm.EquilibriumState(_counting_profile(weak_state.profile, seen),
                                weak_state.potential)
    basis = vm.build_fourier_basis(state.period, 2)
    assembly_kernel.cache_clear()
    vm.sweep(state, basis, quad, 1, [0.2, 0.4], EvalOptions(tol_sym=1e-3))
    info = assembly_kernel.cache_info()
    assert (info.misses, info.hits, info.currsize) == (0, 0, 0), info
    x = basis.x_grid
    want = np.unique(_points([(np.broadcast_to(quad.e, (x.size, quad.n_nodes)),
                               quad.v2[None, :] - state.psi0(x)[:, None])]))
    for name, pairs in seen.items():
        got = _points(pairs)
        assert got.size and np.array_equal(np.unique(got), want), name


def test_sweep_exports(tmp_path, aniso_state, aniso_quad):
    basis = vm.build_fourier_basis(aniso_state.period, 8)
    grid = vm.default_lambda_grid(aniso_state.period, n_points=6)
    sw = vm.sweep(aniso_state, basis, aniso_quad, 3, grid)
    csv_path = tmp_path / "sweep.csv"
    json_path = tmp_path / "sweep.json"
    cli.write_sweep_csv(csv_path, sw)
    cli._write_json(json_path, cli.sweep_summary_dict(sw))
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "lambda,pencil,eig_index,eigenvalue"
    assert len(lines) == 1 + 6 * (4 + 3)                 # electric n + 1, magnetic n
    assert [line.split(",")[1] for line in lines[1:8]] == ["electric"] * 4 + ["magnetic"] * 3
    import json
    summary = json.loads(json_path.read_text())
    assert summary["n"] == 3 and len(summary["counts"]) == 6
    for c in summary["counts"]:
        assert sum(c["neg_by_pencil"].values()) == c["neg"]
