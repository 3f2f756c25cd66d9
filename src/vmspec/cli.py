"""Command-line pipeline: validate, equilibrium, assemble, sweep, analyze, mode.

Configuration is plain ``section.key = value`` text; every artifact embeds
the configuration hash so a report can be traced to its inputs.  Exit
codes: 0 analysis ran (whatever the verdict), 2 bad configuration,
3 numerical failure, 4 golden-value mismatch.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import __version__
from .discretization import build_fourier_basis, build_velocity_quadrature
from .equilibrium import (build_profile, check_center_conditions, make_homogeneous_state,
                          solve_equilibrium_potential, validate_profile)
from .errors import ConfigError, GoldenMismatchError, HypothesisError, QuadratureError, VmspecError
from .growing_mode import export_mode, reconstruct, residuals
from .operators import EvalOptions, assemble_blocks, export_blocks
from .spectra import (INCONCLUSIVE, count_eigenvalues, locate_kernel_for_state,
                      sweep, sweep_summary_dict, verdict, write_sweep_csv)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_GOLDEN = 4


@dataclass
class RunConfig:
    profile_name: str = "paper_homogeneous"
    profile_params: dict = field(default_factory=dict)
    weight_c: float = None         # None: profile default
    weight_alpha: float = None
    period: float = None           # homogeneous states; None picks a default
    epsilon: float = None          # weak-field amplitude (builds the potential)
    n_r: int = 96
    n_theta: int = 256
    n_r_tail: int = 24
    n_x: int = 32                  # trigonometric modes
    n: int = 8                     # truncation size
    n_per_period: int = 128
    tol_tail: float = 1e-8
    tol_eig: float = None
    tol_kernel: float = None
    tol_sym: float = None          # None: 1e-8 on homogeneous states, 1e-4 on magnetized ones
    tol_residual: float = 1e-4
    tol_validate: float = 1e-12
    lambda_min: float = 1e-2       # units of 2*pi/P
    lambda_max: float = 1e2
    lambda_points: int = 48
    find_mode: bool = False
    emit_spectra: bool = False
    out: str = "out"
    canonical: bool = False        # drop timings for byte-stable reports

    def validate(self):
        for name in ("n_r", "n_theta", "n_r_tail", "n_x", "n", "n_per_period", "lambda_points"):
            if int(getattr(self, name)) <= 0:
                raise ConfigError("%s must be positive" % name)
        for name in ("tol_tail", "tol_sym", "tol_residual", "tol_validate"):
            v = getattr(self, name)
            if v is not None and not (0.0 < v < 1.0):
                raise ConfigError("%s must lie in (0, 1)" % name)
        if self.lambda_min <= 0 or self.lambda_max <= self.lambda_min:
            raise ConfigError("lambda grid needs 0 < lambda_min < lambda_max")
        if self.epsilon is not None and self.epsilon <= 0:
            raise ConfigError("epsilon must be positive")
        return self

    def hash(self):
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        blob = json.dumps(payload, sort_keys=True, default=repr).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


_KEYMAP = {
    "profile.name": "profile_name",
    "weight.c": "weight_c",
    "weight.alpha": "weight_alpha",
    "state.period": "period",
    "state.epsilon": "epsilon",
    "disc.n_r": "n_r",
    "disc.n_theta": "n_theta",
    "disc.n_r_tail": "n_r_tail",
    "disc.n_x": "n_x",
    "disc.n": "n",
    "disc.n_per_period": "n_per_period",
    "tol.tail": "tol_tail",
    "tol.eig": "tol_eig",
    "tol.kernel": "tol_kernel",
    "tol.sym": "tol_sym",
    "tol.residual": "tol_residual",
    "tol.validate": "tol_validate",
    "lambda.min": "lambda_min",
    "lambda.max": "lambda_max",
    "lambda.points": "lambda_points",
    "run.find_mode": "find_mode",
    "run.emit_spectra": "emit_spectra",
    "run.out": "out",
    "run.canonical": "canonical",
}


def _coerce(text):
    low = text.strip()
    if low.lower() in ("true", "false"):
        return low.lower() == "true"
    try:
        return int(low)
    except ValueError:
        pass
    try:
        return float(low)
    except ValueError:
        pass
    return low


def parse_config_file(path, cfg=None):
    """key = value lines with dotted sections; unknown keys are an error."""
    cfg = cfg or RunConfig()
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError("%s:%d: expected key = value" % (path, lineno))
            key, val = (s.strip() for s in line.split("=", 1))
            if key.startswith("profile.param."):
                cfg.profile_params[key[len("profile.param."):]] = _coerce(val)
                continue
            if key not in _KEYMAP:
                raise ConfigError("%s:%d: unknown key %r" % (path, lineno, key))
            setattr(cfg, _KEYMAP[key], _coerce(val))
    return cfg


# ---------------------------------------------------------------------------
# pipeline pieces
# ---------------------------------------------------------------------------

def _build_inputs(cfg):
    profile, weight = build_profile(cfg.profile_name, cfg.profile_params or None)
    if cfg.weight_c is not None or cfg.weight_alpha is not None:
        from .equilibrium import WeightSpec
        weight = WeightSpec(c=cfg.weight_c if cfg.weight_c is not None else weight.c,
                            alpha=cfg.weight_alpha if cfg.weight_alpha is not None else weight.alpha)
    try:
        quad = build_velocity_quadrature(weight, kinks=profile.kinks, tol_tail=cfg.tol_tail,
                                         n_r=cfg.n_r, n_theta=cfg.n_theta, n_r_tail=cfg.n_r_tail)
    except QuadratureError as exc:     # no rule fits the configuration
        raise ConfigError(str(exc)) from exc
    return profile, weight, quad


def _build_state(cfg, profile, quad):
    if cfg.epsilon is not None:
        return solve_equilibrium_potential(profile, cfg.epsilon, quad)
    period = cfg.period if cfg.period is not None else 2.0 * np.pi
    return make_homogeneous_state(profile, period)


def _eval_options(cfg, state):
    tol_sym = cfg.tol_sym
    if tol_sym is None:            # orbit quadrature leaves magnetized blocks less symmetric
        tol_sym = 1e-8 if state.homogeneous else 1e-4
    return EvalOptions(n_per_period=cfg.n_per_period, tol_sym=tol_sym)


def _analysis_report(cfg, state, sw, verdict_result, crossing=None, report=None,
                     extra=None, t_start=None):
    rep = {
        "config_hash": cfg.hash(),
        "version": __version__,
        "profile": cfg.profile_name,
        "period": state.period,
        "homogeneous": state.homogeneous,
        "verdict": verdict_result.verdict if verdict_result else INCONCLUSIVE,
        "verdict_reason": verdict_result.reason if verdict_result else None,
        "l0": sw.l0,
        "neg_a1": sw.neg_a1,
        "neg_a2": sw.neg_a2,
        "k_count": sw.k_count,
        "n": sw.n,
        "sweep": sweep_summary_dict(sw, verdict_result),
        "crossing": None,
        "residuals": None,
    }
    if crossing is not None:
        rep["crossing"] = {"lambda_star": crossing.lambda_star,
                           "min_abs_eig": crossing.min_abs_eig, "b": crossing.b}
    if report is not None:
        rep["residuals"] = report.as_dict()
    if extra:
        rep.update(extra)
    if not cfg.canonical and t_start is not None:
        rep["timing_seconds"] = time.time() - t_start
    return rep


def _write_json(path, payload):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _outdir(cfg):
    return os.environ.get("VMSPEC_OUT", cfg.out)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_validate(cfg):
    profile, weight, _ = _build_inputs(cfg)
    rep = validate_profile(profile, weight, tol_validate=cfg.tol_validate)
    payload = {"config_hash": cfg.hash(), "profile": cfg.profile_name,
               "max_negativity": rep.max_negativity,
               "max_decay_violation": rep.max_decay_violation,
               "max_symmetry_violation": rep.max_symmetry_violation,
               "passed": rep.passed}
    _write_json(os.path.join(_outdir(cfg), "validate.json"), payload)
    print(rep.summary())
    return EXIT_OK if rep.passed else EXIT_NUMERICAL


def cmd_equilibrium(cfg):
    profile, weight, quad = _build_inputs(cfg)
    if cfg.epsilon is None:
        raise ConfigError("equilibrium subcommand needs state.epsilon / --epsilon")
    cc = check_center_conditions(profile, quad)
    state = solve_equilibrium_potential(profile, cfg.epsilon, quad)
    sup_mu_e = _sup_mu_e(profile, quad)
    sb = _bad_set_measure(profile, quad)
    stab_rhs = np.pi ** 2 / (3.0 * cc.critical_period ** 2 * sb) if sb > 0 else float("inf")
    payload = {
        "config_hash": cfg.hash(),
        "epsilon": cfg.epsilon,
        "period": state.period,
        "critical_period": cc.critical_period,
        "g0": cc.g0,
        "gprime0": cc.gprime0,
        "center_ok": cc.ok,
        "residual_inf": state.meta["residual_inf"],
        "c1_norm": state.meta["c1_norm"],
        "sup_mu_e": sup_mu_e,
        "bad_set_measure": sb,
        "smallness_bound": stab_rhs,
        "smallness_holds": bool(sup_mu_e < stab_rhs),
    }
    _write_json(os.path.join(_outdir(cfg), "equilibrium.json"), payload)
    print("period=%.8f (critical %.8f) residual=%.2e |psi|C1=%.4g"
          % (state.period, cc.critical_period, state.meta["residual_inf"], state.meta["c1_norm"]))
    return EXIT_OK


def _sup_mu_e(profile, quad):
    vals = profile.mu_e(-1, quad.e, quad.v2)
    return float(np.max(vals))


def _bad_set_measure(profile, quad):
    vals = profile.mu_e(-1, quad.e, quad.v2)
    return float(np.sum(quad.w[vals > 0.0])) if np.any(vals > 0.0) else 0.0


def cmd_assemble(cfg, lam=0.0):
    profile, weight, quad = _build_inputs(cfg)
    state = _build_state(cfg, profile, quad)
    basis = build_fourier_basis(state.period, cfg.n_x)
    opts = _eval_options(cfg, state)
    blocks = assemble_blocks(state, lam, basis, quad, opts)
    path = export_blocks(blocks, _outdir(cfg), stem="blocks_lam%g" % lam,
                         tolerances={"tol_sym": opts.tol_sym, "tol_tail": cfg.tol_tail},
                         extra={"config_hash": cfg.hash()})
    print("blocks at lam=%g exported to %s (defects %s)" % (lam, path, blocks.defects))
    return EXIT_OK


def _run_sweep(cfg, state, quad):
    basis = build_fourier_basis(state.period, cfg.n_x)
    opts = _eval_options(cfg, state)
    w = 2.0 * np.pi / state.period
    grid = np.geomspace(cfg.lambda_min * w, cfg.lambda_max * w, cfg.lambda_points)
    sw = sweep(state, basis, quad, cfg.n, grid, opts, tol_eig=cfg.tol_eig)
    return basis, opts, sw


def cmd_sweep(cfg):
    profile, weight, quad = _build_inputs(cfg)
    state = _build_state(cfg, profile, quad)
    basis, opts, sw = _run_sweep(cfg, state, quad)
    out = _outdir(cfg)
    os.makedirs(out, exist_ok=True)
    write_sweep_csv(os.path.join(out, "sweep.csv"), sw)
    payload = sweep_summary_dict(sw)
    payload["config_hash"] = cfg.hash()
    _write_json(os.path.join(out, "sweep.json"), payload)
    print("sweep: K_n=%d, large-lam count %d, %d crossing interval(s)"
          % (sw.k_count, sw.counts[-1].neg, len(sw.crossings)))
    return EXIT_OK


def _verdict_from_sweep(sw):
    ker_trivial = count_eigenvalues(sw.modal.a2_values, None).zero == 0
    try:
        return verdict(min(sw.n, sw.neg_a1), min(sw.n, sw.neg_a2), sw.l0, ker_trivial)
    except HypothesisError as exc:
        from .spectra import VerdictResult
        return VerdictResult(INCONCLUSIVE, str(exc), sw.neg_a1, sw.neg_a2, sw.l0)


def cmd_analyze(cfg):
    t0 = time.time()
    profile, weight, quad = _build_inputs(cfg)
    vrep = validate_profile(profile, weight, tol_validate=cfg.tol_validate)
    state = _build_state(cfg, profile, quad)
    basis, opts, sw = _run_sweep(cfg, state, quad)
    vres = _verdict_from_sweep(sw)
    crossing = report = None
    extra = {"validation_passed": vrep.passed}
    if state.meta:
        extra["equilibrium"] = {k: state.meta[k] for k in
                                ("epsilon", "residual_inf", "c1_norm", "critical_period")
                                if k in state.meta}
    if cfg.find_mode and sw.crossings:
        crossing = locate_kernel_for_state(state, basis, quad, sw, opts=opts,
                                           tol_kernel=cfg.tol_kernel)
        mode = reconstruct(state, crossing, basis, quad, sw.modal, opts)
        report = residuals(state, mode, basis, quad, tol_residual=cfg.tol_residual)
        export_mode(mode, _outdir(cfg), report=report, quad=quad)
    payload = _analysis_report(cfg, state, sw, vres, crossing, report, extra, t0)
    out = _outdir(cfg)
    _write_json(os.path.join(out, "analysis.json"), payload)
    if cfg.emit_spectra:
        write_sweep_csv(os.path.join(out, "spectra.csv"), sw)
    print("verdict: %s (%s)" % (payload["verdict"], payload["verdict_reason"]))
    print("l0=%.6g neg(A1)=%d neg(A2)=%d K_n=%d crossings=%d"
          % (sw.l0, sw.neg_a1, sw.neg_a2, sw.k_count, len(sw.crossings)))
    if crossing is not None:
        print("lambda*=%.8f residuals pass=%s" % (crossing.lambda_star,
                                                  report.passed if report else None))
    return EXIT_OK


def cmd_mode(cfg):
    profile, weight, quad = _build_inputs(cfg)
    state = _build_state(cfg, profile, quad)
    basis, opts, sw = _run_sweep(cfg, state, quad)
    if not sw.crossings:
        print("no crossing interval found; nothing to reconstruct")
        return EXIT_NUMERICAL
    crossing = locate_kernel_for_state(state, basis, quad, sw, opts=opts,
                                       tol_kernel=cfg.tol_kernel)
    mode = reconstruct(state, crossing, basis, quad, sw.modal, opts)
    report = residuals(state, mode, basis, quad, tol_residual=cfg.tol_residual)
    path = export_mode(mode, _outdir(cfg), report=report, quad=quad)
    print("lambda*=%.8f residuals pass=%s -> %s" % (crossing.lambda_star, report.passed, path))
    return EXIT_OK if report.passed else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# golden examples
# ---------------------------------------------------------------------------

GOLDEN_RING_INTEGRAL = 1.5 - np.log(2.0)           # int_0^sqrt(3) r^3/(1+r^2) dr
GOLDEN_TAIL_MOMENT = np.sqrt(np.pi) / 2.0 + 2.0    # |int_sqrt3^inf tail' r dr|
GOLDEN_TAIL_RING = -2.5311167899453655             # dense-quadrature pin of the tail ring integral


def _golden_homogeneous(cfg):
    from .discretization import integrate_velocity
    profile, weight, quad = _build_inputs(cfg)
    mismatches = []

    def mu_e_minus(v1, v2):
        e = np.sqrt(1.0 + v1 ** 2 + v2 ** 2)
        return profile.mu_e(-1, e, v2)

    # 2D integral of the kink-interior indicator times v^2/(1+v^2) is
    # 2*pi times the radial ring integral; the panel edge sits exactly at
    # the kink radius so the indicator is resolved without smearing
    ring = integrate_velocity(quad, lambda v1, v2: np.where(
        v1 ** 2 + v2 ** 2 < 3.0, (v1 ** 2 + v2 ** 2) / (1 + v1 ** 2 + v2 ** 2), 0.0)) \
        / (2.0 * np.pi)
    # int mu_e v1hat^2 dv = pi * (ring + tail_ring); subtract the exact ring
    l0_slice = integrate_velocity(quad, lambda v1, v2: mu_e_minus(v1, v2)
                                  * v1 ** 2 / (1 + v1 ** 2 + v2 ** 2)) / np.pi
    tail_ring = l0_slice - GOLDEN_RING_INTEGRAL
    # int mu_e dv = 2*pi*(3/2 - tail_moment)
    m_e = integrate_velocity(quad, mu_e_minus)
    tail_moment = abs(m_e / (2.0 * np.pi) - 1.5)

    checks = [
        ("ring_integral", ring, GOLDEN_RING_INTEGRAL, 1e-8),
        ("tail_moment", tail_moment, GOLDEN_TAIL_MOMENT, 1e-6),
        ("tail_ring", tail_ring, -2.5, 0.15),
    ]
    table = {}
    for name, got, want, tol in checks:
        ok = bool(abs(got - want) <= tol)
        table[name] = {"value": float(got), "expected": float(want),
                       "tol": float(tol), "ok": ok}
        if not ok:
            mismatches.append(name)
    return table, mismatches


def cmd_example(cfg, which):
    t0 = time.time()
    out = _outdir(cfg)
    if which == "homogeneous":
        cfg.profile_name = "paper_homogeneous"
        cfg.profile_params = {}
        table, mismatches = _golden_homogeneous(cfg)
        profile, weight, quad = _build_inputs(cfg)
        state = _build_state(cfg, profile, quad)
        basis, opts, sw = _run_sweep(cfg, state, quad)
        vres = _verdict_from_sweep(sw)
        payload = _analysis_report(cfg, state, sw, vres, t_start=t0,
                                   extra={"golden": table})
        _write_json(os.path.join(out, "example_homogeneous.json"), payload)
        if cfg.emit_spectra:
            write_sweep_csv(os.path.join(out, "spectra.csv"), sw)
        for name, row in table.items():
            print("%-14s %+.10f (expected %+.10f, tol %.2g) %s"
                  % (name, row["value"], row["expected"], row["tol"],
                     "ok" if row["ok"] else "MISMATCH"))
        print("verdict: %s" % payload["verdict"])
        if mismatches:
            raise GoldenMismatchError("golden mismatches: %s" % ", ".join(mismatches),
                                      mismatches)
        return EXIT_OK

    if which == "weakfield":
        cfg.profile_name = "weakfield_family"
        eps = cfg.epsilon if cfg.epsilon is not None else 0.05
        profile, weight, quad = _build_inputs(cfg)
        cc = check_center_conditions(profile, quad)
        rows = []
        for e in (4.0 * eps, 2.0 * eps, eps):
            st = solve_equilibrium_potential(profile, e, quad)
            rows.append({"epsilon": e, "period": st.period,
                         "ratio": st.period / cc.critical_period,
                         "c1_norm": st.meta["c1_norm"],
                         "residual_inf": st.meta["residual_inf"]})
        mism = []
        if abs(rows[-1]["ratio"] - 1.0) > 0.02:
            mism.append("period_ratio")
        if not (rows[0]["c1_norm"] > rows[1]["c1_norm"] > rows[2]["c1_norm"]):
            mism.append("c1_monotone")
        payload = {"config_hash": cfg.hash(), "critical_period": cc.critical_period,
                   "family": rows}
        _write_json(os.path.join(out, "example_weakfield.json"), payload)
        for r in rows:
            print("eps=%-6g T=%.6f T/Pcr=%.6f |psi|C1=%.4g resid=%.2e"
                  % (r["epsilon"], r["period"], r["ratio"], r["c1_norm"], r["residual_inf"]))
        if mism:
            raise GoldenMismatchError("golden mismatches: %s" % ", ".join(mism), mism)
        return EXIT_OK

    raise ConfigError("unknown example %r" % which)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _make_parser():
    p = argparse.ArgumentParser(prog="vmspec",
                                description="spectral instability analysis of purely "
                                            "magnetic kinetic equilibria")
    p.add_argument("--config", help="path to key=value configuration")
    p.add_argument("--profile", help="profile name")
    p.add_argument("--epsilon", type=float, help="weak-field amplitude")
    p.add_argument("--period", type=float, help="homogeneous period")
    p.add_argument("--n", type=int, help="truncation size")
    p.add_argument("--n-x", type=int, dest="n_x", help="trigonometric modes")
    p.add_argument("--lambda-min", type=float, dest="lambda_min")
    p.add_argument("--lambda-max", type=float, dest="lambda_max")
    p.add_argument("--find-mode", action="store_true", default=None)
    p.add_argument("--emit-spectra", action="store_true", default=None)
    p.add_argument("--out", help="output directory (VMSPEC_OUT overrides)")
    p.add_argument("--canonical", action="store_true", default=None,
                   help="byte-stable reports (no timings)")
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("validate")
    sub.add_parser("equilibrium")
    sp = sub.add_parser("assemble")
    sp.add_argument("--lam", type=float, default=0.0)
    sub.add_parser("sweep")
    sub.add_parser("analyze")
    sub.add_parser("mode")
    sp = sub.add_parser("example")
    sp.add_argument("which", choices=["homogeneous", "weakfield"])
    return p


def _config_from_args(args):
    cfg = RunConfig()
    if args.config:
        cfg = parse_config_file(args.config, cfg)
    overrides = {"profile": "profile_name", "epsilon": "epsilon", "period": "period",
                 "n": "n", "n_x": "n_x", "lambda_min": "lambda_min",
                 "lambda_max": "lambda_max", "find_mode": "find_mode",
                 "emit_spectra": "emit_spectra", "out": "out",
                 "canonical": "canonical"}
    for arg_name, cfg_name in overrides.items():
        val = getattr(args, arg_name, None)
        if val is not None:
            setattr(cfg, cfg_name, val)
    return cfg.validate()


def main(argv=None):
    args = _make_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
    except (ConfigError, OSError) as exc:
        print(json.dumps({"error": "config", "message": str(exc)}), file=sys.stderr)
        return EXIT_CONFIG
    try:
        if args.command == "validate":
            return cmd_validate(cfg)
        if args.command == "equilibrium":
            return cmd_equilibrium(cfg)
        if args.command == "assemble":
            return cmd_assemble(cfg, lam=args.lam)
        if args.command == "sweep":
            return cmd_sweep(cfg)
        if args.command == "analyze":
            return cmd_analyze(cfg)
        if args.command == "mode":
            return cmd_mode(cfg)
        if args.command == "example":
            return cmd_example(cfg, args.which)
        raise ConfigError("unknown command %r" % args.command)
    except ConfigError as exc:
        print(json.dumps({"error": "config", "message": str(exc)}), file=sys.stderr)
        return EXIT_CONFIG
    except GoldenMismatchError as exc:
        print(json.dumps({"error": "golden", "message": str(exc),
                          "mismatches": exc.mismatches}), file=sys.stderr)
        return EXIT_GOLDEN
    except VmspecError as exc:
        print(json.dumps({"error": "numerical", "kind": type(exc).__name__,
                          "message": str(exc)}), file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
