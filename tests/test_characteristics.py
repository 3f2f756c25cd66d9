import ast
from pathlib import Path

import numpy as np
import pytest

import vmspec as vm
import vmspec.operators as ops
from reference import ConservationError, PhasePoint, StepOptions, flow, species_plus_state
from vmspec.characteristics import rk4_step_arrays
from vmspec.equilibrium import EquilibriumState

SRC = Path(vm.__file__).resolve().parent


def test_homogeneous_flow_is_exact_translation(paper_state):
    pt = PhasePoint(1.3, 0.8, -0.5)
    s = -7.7
    out = flow(paper_state, "-", pt, s)
    e = pt.energy
    assert abs(out.x - (pt.x + pt.v1 / e * s) % paper_state.period) <= 1e-14
    assert out.v1 == pt.v1 and out.v2 == pt.v2


def test_zero_time_is_identity(weak_state):
    pt = PhasePoint(0.7, 0.4, 0.2)
    assert flow(weak_state, "+", pt, 0.0) is pt


def test_conservation_drift_and_step_halving_oracle(weak_state):
    pt = PhasePoint(2.1, 0.9, -0.3)
    out = flow(weak_state, "-", pt, -25.0)
    assert abs(out.energy - pt.energy) <= 1e-9
    assert abs(out.momentum(weak_state, "-") - pt.momentum(weak_state, "-")) <= 1e-9
    # independent oracle: same integration at a 10x smaller step
    fine = flow(weak_state, "-", pt, -25.0, StepOptions(dt=0.005))
    assert abs(out.x - fine.x) <= 1e-7
    assert abs(out.v1 - fine.v1) <= 1e-7
    assert abs(out.v2 - fine.v2) <= 1e-7


def test_reversal_identity(weak_state):
    pt = PhasePoint(1.0, 0.55, 0.35)
    mirrored = PhasePoint(pt.x, -pt.v1, pt.v2)
    s = 6.0
    fwd = flow(weak_state, "-", pt, s)
    bwd = flow(weak_state, "-", mirrored, -s)
    assert abs(bwd.x - fwd.x) <= 1e-8
    assert abs(bwd.v1 + fwd.v1) <= 1e-8
    assert abs(bwd.v2 - fwd.v2) <= 1e-8


def test_phase_space_volume_preservation(weak_state):
    # the flow map's Jacobian determinant is 1; central differences of
    # neighboring trajectories resolve it to O(h^2)
    s = -8.0
    base = np.array([1.5, 0.6, -0.2])
    h = 1e-4
    P = weak_state.period

    def image(c):
        q = flow(weak_state, "-", PhasePoint(*c), s, StepOptions(dt=0.01))
        return np.array([q.x, q.v1, q.v2])

    J = np.empty((3, 3))
    for j in range(3):
        step = np.zeros(3)
        step[j] = h
        hi, lo = image(base + step), image(base - step)
        d = hi - lo
        d[0] = (d[0] + P / 2) % P - P / 2          # seam-safe position delta
        J[:, j] = d / (2 * h)
    assert abs(abs(np.linalg.det(J)) - 1.0) <= 1e-6


def _textbook_rk4(state, sign, y, h):
    def f(y):
        x, v1, v2 = y
        e = np.sqrt(1.0 + v1 ** 2 + v2 ** 2)
        b = state.b0(x)
        return np.array([v1 / e, sign * (v2 / e) * b, -sign * (v1 / e) * b])

    k1 = f(y)
    k2 = f(y + h / 2 * k1)
    k3 = f(y + h / 2 * k2)
    k4 = f(y + h * k3)
    return y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def test_rk4_step_matches_textbook_rk4(weak_state):
    # lanes as the orbit engine passes them, with a scalar or a per-lane
    # step; one lane as a 1-element array and as 0-d numpy scalars (the
    # reference ``backward_path``), where in-place sums must still land
    rng = np.random.default_rng(5)
    n = 64
    y = np.array([rng.uniform(0.0, weak_state.period, n), rng.uniform(-2, 2, n),
                  rng.uniform(-2, 2, n)])
    cases = [(y, -0.1), (y, rng.uniform(-0.2, 0.2, n)), (y[:, :1], 0.15),
             (y[:, :1], np.array([-0.15])), (y[:, 0], -0.15)]
    # the library steps species -; species + is its step on the negated potential
    for sign, state in ((+1, species_plus_state(weak_state)), (-1, weak_state)):
        for lanes, h in cases:
            want = _textbook_rk4(weak_state, sign, lanes, h)
            got = rk4_step_arrays(state, *lanes, h)
            for g, w in zip(got, want):
                assert np.shape(g) == np.shape(w)
                assert np.max(np.abs(g - w)) <= 1e-14 * np.max(np.abs(w))
            # a start field handed in is used as is
            handed = rk4_step_arrays(state, *lanes, h, b0=state.b0(lanes[0]))
            assert np.array_equal(np.array(handed), np.array(got))


def test_rk4_step_field_calls(weak_state, monkeypatch):
    # the traced b0-per-step ratio rests on these counts
    calls = []
    b0 = EquilibriumState.b0
    monkeypatch.setattr(EquilibriumState, "b0", lambda self, x: calls.append(1) or b0(self, x))
    x, v1, v2 = np.array([0.3, 2.0]), np.array([0.5, -0.1]), np.array([0.2, 0.9])
    rk4_step_arrays(weak_state, x, v1, v2, 0.1)
    assert len(calls) == 4
    start = weak_state.b0(x)
    calls.clear()
    rk4_step_arrays(weak_state, x, v1, v2, 0.1, b0=start)
    assert len(calls) == 3


def test_one_rk4_marcher():
    # the orbit engine is the library's only trajectory code: every call of
    # the RK4 step sits in its period detector or its sample stream
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    if isinstance(node, ast.Call) and "rk4_step_arrays" in (
                            getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                        callers.add((path.stem, fn.name))
    assert callers == {("operators", "_orbit_periods_batch"), ("operators", "_orbit_stream")}


def _periods(state, lanes, horizon):
    """The engine's period detector on (x, v1, v2) lanes, at unit weights."""
    x, v1, v2 = (np.array(c, dtype=float) for c in zip(*lanes))
    return ops._orbit_periods_batch(state, x, v1, v2, horizon)


def test_orbit_info_homogeneous(paper_state):
    # a straight line closes after one period of x; a lane at rest never does
    horizon = ops.HORIZON_PERIODS * paper_state.period
    periods, resolved = _periods(paper_state, [(0.1, 0.6, 0.0), (0.1, 0.0, 0.4)], horizon)
    e = np.sqrt(1 + 0.36)
    assert resolved[0]
    assert abs(periods[0] - paper_state.period / (0.6 / e)) <= 1e-12
    assert not resolved[1] and periods[1] == horizon


def test_irreducible_drift_raises_with_the_values(weak_state):
    pt = PhasePoint(2.1, 0.9, -0.3)
    with pytest.raises(ConservationError) as err:
        flow(weak_state, "-", pt, -25.0,
             StepOptions(dt=1.0, tol_cons=1e-30, max_halvings=0))
    assert err.value.drift_e is not None


def test_unresolved_orbit_is_reported(weak_state):
    # a grazing lane cannot close within a tight horizon; the start sits away
    # from the potential minimum so it is not a fixed point.  It is reported
    # as not closed, with the horizon for its period.
    periods, resolved = _periods(weak_state, [(1.0, 1e-4, 0.05)], 10.0)
    assert not resolved[0] and periods[0] == 10.0


def test_orbit_info_weakfield_passing_and_trapped(weak_state):
    # the invariants class each lane: v1^2 = e^2 - 1 - (p + psi0(x))^2 along
    # the orbit vanishes somewhere in the period only on a trapped one
    passing, trapped = PhasePoint(1.0, 0.7, -0.4), PhasePoint(0.5, 0.01, 0.9)
    psi = weak_state.psi0(np.linspace(0.0, weak_state.period, 256, endpoint=False))
    v1_sq_min = [np.min(pt.energy ** 2 - 1 - (pt.momentum(weak_state, "-") + psi) ** 2)
                 for pt in (passing, trapped)]
    assert v1_sq_min[0] > 0 > v1_sq_min[1]
    periods, resolved = _periods(weak_state, [(pt.x, pt.v1, pt.v2) for pt in (passing, trapped)],
                                 ops.HORIZON_PERIODS * weak_state.period)
    assert resolved.all()
    # self-consistency: the period (the passing lane's, backward) and twice
    # the period (the trapped lane's, forward) return the starting point
    for start, s in ((passing, -periods[0]), (trapped, 2.0 * periods[1])):
        back = flow(weak_state, "-", start, s, StepOptions(dt=0.005))
        assert abs(back.x % weak_state.period - start.x) <= 1e-5
        assert abs(back.v1 - start.v1) <= 1e-6
        assert abs(back.v2 - start.v2) <= 1e-6
