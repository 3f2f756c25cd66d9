"""Command-line pipeline: validate, equilibrium, assemble, analyze.

Configuration is plain ``section.key = value`` text, one key per
``RunConfig`` field; every report embeds the configuration hash so that it
can be traced to its inputs.  This module writes every artifact file.  Exit
codes: 0 analysis ran (whatever the verdict), 2 bad configuration,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import resource
import sys
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import __version__
from .discretization import build_fourier_basis, build_velocity_quadrature
from .equilibrium import (WeightSpec, build_profile, check_center_conditions,
                          make_homogeneous_state, solve_equilibrium_potential, validate_profile)
from .errors import ConfigError, QuadratureError, VmspecError
from .growing_mode import reconstruct, residuals
from .operators import EvalOptions, assemble_blocks
from .spectra import default_lambda_grid, locate_kernel_for_state, sweep

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _key(key, default=None):
    """A setting read from the ``section.key`` line of a configuration file."""
    return field(default=default, metadata={"key": key})


@dataclass
class RunConfig:
    profile_name: str = _key("profile.name", "paper_homogeneous")
    profile_params: dict = field(default_factory=dict)     # profile.param.<name>
    weight_c: float = _key("weight.c")                      # None: profile default
    weight_alpha: float = _key("weight.alpha")
    period: float = _key("state.period")        # homogeneous states; None picks a default
    epsilon: float = _key("state.epsilon")      # weak-field amplitude (builds the potential)
    n_r: int = _key("disc.n_r", 96)
    n_theta: int = _key("disc.n_theta", 256)
    n_r_tail: int = _key("disc.n_r_tail", 24)
    n_x: int = _key("disc.n_x", 32)                         # trigonometric modes
    n: int = _key("disc.n", 8)                              # truncation size
    n_per_period: int = _key("disc.n_per_period", 128)
    tol_tail: float = _key("tol.tail", 1e-8)
    tol_eig: float = _key("tol.eig")
    tol_kernel: float = _key("tol.kernel")
    tol_sym: float = _key("tol.sym")    # None: 1e-8 on homogeneous states, 1e-4 on magnetized ones
    tol_residual: float = _key("tol.residual", 1e-4)
    tol_validate: float = _key("tol.validate", 1e-12)
    lambda_min: float = _key("lambda.min", 1e-2)            # units of 2*pi/P
    lambda_max: float = _key("lambda.max", 1e2)
    lambda_points: int = _key("lambda.points", 48)
    find_mode: bool = _key("run.find_mode", False)
    out: str = _key("run.out", "out")
    canonical: bool = _key("run.canonical", False)          # drop timings for byte-stable reports

    def validate(self):
        value = {key: getattr(self, name) for key, name in _KEYMAP.items()}
        for key in ("disc.n_r", "disc.n_theta", "disc.n_r_tail", "disc.n_x", "disc.n",
                    "disc.n_per_period", "lambda.points"):
            if int(value[key]) <= 0:
                raise ConfigError("%s must be positive" % key)
        for key in ("tol.tail", "tol.sym", "tol.residual", "tol.validate"):
            if value[key] is not None and not (0.0 < value[key] < 1.0):
                raise ConfigError("%s must lie in (0, 1)" % key)
        if self.n_x % 2:
            raise ConfigError("disc.n_x must be even")
        if self.n_per_period < 64:
            raise ConfigError("disc.n_per_period must be at least 64")
        if self.lambda_points < 2:
            raise ConfigError("lambda.points must be at least 2")
        if not 0 < self.lambda_min < self.lambda_max < np.inf:
            raise ConfigError("lambda grid needs 0 < lambda.min < lambda.max < inf")
        for name, v in self.profile_params.items():
            if not np.isfinite(v):
                raise ConfigError("profile.param.%s must be finite, got %r" % (name, v))
        if self.epsilon is not None and not 0 < self.epsilon < np.inf:
            raise ConfigError("state.epsilon must be finite and positive")
        if self.period is not None and not (np.isfinite(self.period) and self.period > 0):
            raise ConfigError("state.period must be finite and positive")
        if self.tol_eig is not None and not self.tol_eig >= 0:
            raise ConfigError("tol.eig must not be negative")
        if self.tol_kernel is not None and not self.tol_kernel > 0:
            raise ConfigError("tol.kernel must be positive")
        if self.epsilon is not None and self.period is not None:
            raise ConfigError("state.period and state.epsilon exclude each other: "
                              "the potential sets the period")
        return self

    def hash(self):
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        blob = json.dumps(payload, sort_keys=True, default=repr).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


_KEYMAP = {f.metadata["key"]: f.name for f in fields(RunConfig) if "key" in f.metadata}


def _parse_bool(text):
    if text.lower() not in ("true", "false"):
        raise ValueError(text)
    return text.lower() == "true"


# each key is read by its field's declared type; profile parameters are floats
_PARSERS = {"int": int, "float": float, "bool": _parse_bool, "str": str}
_KEYTYPE = {f.metadata["key"]: f.type for f in fields(RunConfig) if "key" in f.metadata}


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
            param = key.startswith("profile.param.")
            if not (param or key in _KEYMAP):
                raise ConfigError("%s:%d: unknown key %r" % (path, lineno, key))
            kind = "float" if param else _KEYTYPE[key]
            try:
                value = _PARSERS[kind](val)
            except ValueError:
                raise ConfigError("%s:%d: %s = %r: expected %s"
                                  % (path, lineno, key, val, kind)) from None
            if param:
                cfg.profile_params[key[len("profile.param."):]] = value
            else:
                setattr(cfg, _KEYMAP[key], value)
    return cfg


# ---------------------------------------------------------------------------
# pipeline pieces
# ---------------------------------------------------------------------------

def _build_inputs(cfg):
    try:                               # an unknown profile or parameter, or a bad weight
        profile, weight = build_profile(cfg.profile_name, cfg.profile_params or None)
        if cfg.weight_c is not None or cfg.weight_alpha is not None:
            weight = WeightSpec(c=cfg.weight_c if cfg.weight_c is not None else weight.c,
                                alpha=cfg.weight_alpha if cfg.weight_alpha is not None
                                else weight.alpha)
    except VmspecError as exc:
        raise ConfigError(str(exc)) from exc
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


def _analysis_report(cfg, sw, crossing, report, extra, t_start, stages):
    rep = {
        "config_hash": cfg.hash(),
        "version": __version__,
        "profile": cfg.profile_name,
        "period": sw.state.period,
        "homogeneous": sw.state.homogeneous,
        "verdict": sw.verdict.verdict,
        "verdict_reason": sw.verdict.reason,
        "l0": sw.l0,
        "neg_a1": sw.neg_a1,
        "neg_a2": sw.neg_a2,
        "k_count": sw.k_count,
        "n": sw.n,
        "sweep": sweep_summary_dict(sw),
        "crossing": None,
        "residuals": None,
    }
    if crossing is not None:
        rep["crossing"] = {"lambda_star": crossing.lambda_star, "pencil": crossing.pencil,
                           "min_abs_eig": crossing.min_abs_eig, "tol_kernel": crossing.tol_kernel}
    if report is not None:
        rep["residuals"] = report.as_dict()
    rep.update(extra)
    b0 = sw.blocks0                    # the lam = 0 asymmetry before symmetrization
    diagnostics = {"defects_lam0": {name: {"relative": b0.defects[name], "row": i, "col": j}
                                    for name, (i, j) in b0.worst.items()}}
    if not cfg.canonical:
        rep["timing_seconds"] = time.time() - t_start
        diagnostics["stage_seconds"] = {k: t for k, (t, _) in stages.items()}
        diagnostics["stage_peak_rss_mb"] = {k: rss for k, (_, rss) in stages.items()}
    if b0.cut_lanes is not None:
        diagnostics["cut_lanes"] = b0.cut_lanes
        diagnostics["drift"] = b0.drift
    rep["diagnostics"] = diagnostics
    return rep


def _timed(stages, name, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``; ``stages[name]`` gets its wall time and peak RSS after it."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    stages[name] = (time.perf_counter() - t0,       # MiB; Linux gives ru_maxrss in KiB
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    return out


def _outdir(cfg):
    return os.environ.get("VMSPEC_OUT", cfg.out)


# ---------------------------------------------------------------------------
# artifacts: JSON with indent 2, sorted keys and a final newline; CSV with a
# header row and floats as ``repr``, which reads back to the same double
# ---------------------------------------------------------------------------

def _open_out(path):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    return open(path, "w", newline="")


def _write_json(path, payload):
    with _open_out(path) as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path, header, blocks):
    """Each block is a tuple of columns: an array column is written as floats,
    each ``repr(float(v))``, any other column (integers, strings) as it is."""
    with _open_out(path) as fh:
        wtr = csv.writer(fh)
        wtr.writerow(header)
        for cols in blocks:
            wtr.writerows(zip(*(map(repr, np.asarray(c, dtype=float).tolist())
                                if isinstance(c, np.ndarray) else c for c in cols)))


def export_blocks(blocks, outdir, stem, extra):
    """``row,col,value`` CSV per block plus a JSON manifest; returns the manifest path."""
    for name in ("A1", "A2", "C"):
        mat = np.atleast_2d(getattr(blocks, name))
        rows, cols = np.indices(mat.shape).reshape(2, -1).tolist()
        _write_csv(os.path.join(outdir, "%s_%s.csv" % (stem, name)), ["row", "col", "value"],
                   [(rows, cols, mat.ravel())])
    path = os.path.join(outdir, "%s_manifest.json" % stem)
    _write_json(path, {"lambda": blocks.lam, "n_modes": blocks.n_modes, "period": blocks.period,
                       "l": blocks.l, "defects": blocks.defects, **extra})
    return path


def write_sweep_csv(path, sw):
    _write_csv(path, ["lambda", "pencil", "eig_index", "eigenvalue"],
               ((np.full(len(ev), lam), [p] * len(ev), range(len(ev)), ev[:, i])
                for i, lam in enumerate(sw.lam_grid) for p, ev in sw.eigenvalues.items()))


def sweep_summary_dict(sw):
    return {
        "n": sw.n,
        "l0": sw.l0,
        "neg_a1": sw.neg_a1,
        "neg_a2": sw.neg_a2,
        "k_count": sw.k_count,
        "counts": [{"lambda": float(l), "neg": c.neg, "zero": c.zero, "pos": c.pos,
                    "neg_by_pencil": {p: negs[i] for p, negs in sw.pencil_counts.items()}}
                   for i, (l, c) in enumerate(zip(sw.lam_grid, sw.counts))],
        "crossings": sw.crossings,
        "verdict": sw.verdict.verdict,
    }


def export_mode(mode, outdir, report, extra=None):
    """JSON manifest (plus ``extra``), field table, and a distribution table on
    about 64 of the mode's quadrature nodes; returns the manifest path."""
    quad = mode.quad
    path = os.path.join(outdir, "mode_manifest.json")
    _write_json(path, {"lambda": mode.lam, "b": mode.b, "nontrivial": mode.nontrivial,
                       "residuals": report.as_dict(), **(extra or {})})
    _write_csv(os.path.join(outdir, "mode_fields.csv"), ["x", "phi", "psi", "E1", "E2", "B"],
               [(mode.x, mode.phi, mode.psi, mode.e1, mode.e2, mode.bfield)])
    idx = np.arange(0, quad.n_nodes, max(1, quad.n_nodes // 64))
    r, th = (list(map(repr, a.tolist())) for a in      # the same in every x block
             (np.hypot(quad.v1[idx], quad.v2[idx]),
              np.mod(np.arctan2(quad.v2[idx], quad.v1[idx]), 2.0 * np.pi)))
    f = mode.contract(cols=idx)
    _write_csv(os.path.join(outdir, "mode_distribution.csv"),
               ["x", "r", "theta", "fplus", "fminus"],
               (([x] * idx.size, r, th, f[+1][m], f[-1][m])
                for m, x in enumerate(map(repr, mode.x.tolist()))))
    return path


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_validate(cfg):
    profile, weight, _ = _build_inputs(cfg)
    rep = validate_profile(profile, weight, tol_validate=cfg.tol_validate)
    payload = {"config_hash": cfg.hash(), "profile": cfg.profile_name,
               "max_negativity": rep.max_negativity,
               "max_decay_violation": rep.max_decay_violation, "tol": rep.tol,
               "worst_decay_point": rep.worst_decay_point, "passed": rep.passed}
    _write_json(os.path.join(_outdir(cfg), "validate.json"), payload)
    print(rep.summary())
    return EXIT_OK if rep.passed else EXIT_NUMERICAL


def cmd_equilibrium(cfg):
    profile, weight, quad = _build_inputs(cfg)
    if cfg.epsilon is None:
        raise ConfigError("equilibrium subcommand needs state.epsilon / --epsilon")
    cc = check_center_conditions(profile, quad)
    state = solve_equilibrium_potential(profile, cfg.epsilon, quad)
    mu_e = profile.mu_e(quad.e, quad.v2)
    sup_mu_e = float(np.max(mu_e))
    sb = float(np.sum(quad.w[mu_e > 0.0]))         # measure of the set where mu_e > 0
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
        "period_delta": state.meta["period_delta"],
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


def cmd_assemble(cfg, lam):
    if not (lam == 0.0 or (lam > 0.0 and 0.0 < lam * lam < np.inf)):   # the assembly's rule
        raise ConfigError("--lam must be 0, or positive with a finite nonzero square; got %r" % lam)
    lam = abs(lam)                     # -0.0 names its files and manifest as 0
    profile, weight, quad = _build_inputs(cfg)
    state = _build_state(cfg, profile, quad)
    basis = build_fourier_basis(state.period, cfg.n_x)
    opts = _eval_options(cfg, state)
    blocks = assemble_blocks(state, lam, basis, quad, opts)
    path = export_blocks(blocks, _outdir(cfg), "blocks_lam%g" % lam,
                         {"tolerances": {"tol_sym": opts.tol_sym, "tol_tail": cfg.tol_tail},
                          "config_hash": cfg.hash()})
    print("blocks at lam=%g exported to %s (defects %s)" % (lam, path, blocks.defects))
    return EXIT_OK


def _run_sweep(cfg, state, quad):
    if cfg.n > cfg.n_x:            # only the truncation reads disc.n
        raise ConfigError("disc.n = %d exceeds the %d modes of disc.n_x" % (cfg.n, cfg.n_x))
    unit = 2.0 * np.pi / float(state.period)       # the grid's unit of rate
    for key in ("lambda.min", "lambda.max"):
        rate = getattr(cfg, _KEYMAP[key]) * unit
        if not 0.0 < rate * rate < np.inf:          # float product: no numpy overflow warning
            raise ConfigError("%s gives the rate %r, whose square is not finite and positive"
                              % (key, rate))
    basis = build_fourier_basis(state.period, cfg.n_x)
    opts = _eval_options(cfg, state)
    grid = default_lambda_grid(state.period, cfg.lambda_points, cfg.lambda_min, cfg.lambda_max)
    return sweep(state, basis, quad, cfg.n, grid, opts, tol_eig=cfg.tol_eig)


def _find_mode(cfg, sw, stages):
    """Kernel in the sweep's first count-change interval, the mode rebuilt
    from it, its residuals and its export; returns (crossing, report).
    Each stage's wall time and peak RSS go to ``stages``."""
    crossing = _timed(stages, "locate", locate_kernel_for_state, sw, tol_kernel=cfg.tol_kernel)
    mode = _timed(stages, "reconstruct", reconstruct, sw, crossing)
    report = _timed(stages, "residuals", residuals, mode, tol_residual=cfg.tol_residual)
    _timed(stages, "export", export_mode, mode, _outdir(cfg), report=report,
           extra={"config_hash": cfg.hash()})
    return crossing, report


def cmd_analyze(cfg):
    t0 = time.time()
    profile, weight, quad = _build_inputs(cfg)
    stages = {}
    vrep = _timed(stages, "validate", validate_profile, profile, weight,
                  tol_validate=cfg.tol_validate)
    state = _build_state(cfg, profile, quad)
    sw = _timed(stages, "sweep", _run_sweep, cfg, state, quad)
    crossing = report = None
    extra = {"validation_passed": vrep.passed}
    if state.meta:
        extra["equilibrium"] = dict(state.meta)
    if cfg.find_mode and sw.crossings:
        crossing, report = _find_mode(cfg, sw, stages)
    payload = _analysis_report(cfg, sw, crossing, report, extra, t0, stages)
    out = _outdir(cfg)
    _write_json(os.path.join(out, "analysis.json"), payload)
    write_sweep_csv(os.path.join(out, "sweep.csv"), sw)
    print("verdict: %s (%s)" % (payload["verdict"], payload["verdict_reason"]))
    print("l0=%.6g neg(A1)=%d neg(A2)=%d K_n=%d crossings=%d"
          % (sw.l0, sw.neg_a1, sw.neg_a2, sw.k_count, len(sw.crossings)))
    if crossing is not None:
        print("lambda*=%.8f residuals pass=%s" % (crossing.lambda_star, report.passed))
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _make_parser():
    # every flag's dest is its RunConfig field; no abbreviations, so that a
    # subcommand's --lam is not read as a prefix of --lambda-min/--lambda-max
    p = argparse.ArgumentParser(prog="vmspec", allow_abbrev=False,
                                description="spectral instability analysis of purely "
                                            "magnetic kinetic equilibria")
    p.add_argument("--config", help="path to key=value configuration")
    p.add_argument("--profile", dest="profile_name", help="profile name")
    p.add_argument("--epsilon", type=float, help="weak-field amplitude")
    p.add_argument("--period", type=float, help="homogeneous period")
    p.add_argument("--n", type=int, help="truncation size")
    p.add_argument("--n-x", type=int, help="trigonometric modes")
    p.add_argument("--lambda-min", type=float)
    p.add_argument("--lambda-max", type=float)
    p.add_argument("--find-mode", action="store_true", default=None)
    p.add_argument("--out", help="output directory (VMSPEC_OUT overrides)")
    p.add_argument("--canonical", action="store_true", default=None,
                   help="byte-stable reports (no timings)")
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("validate")
    sub.add_parser("equilibrium")
    sp = sub.add_parser("assemble")
    sp.add_argument("--lam", type=float, default=0.0)
    sub.add_parser("analyze")
    return p


def _config_from_args(args):
    cfg = RunConfig()
    if args.config:
        cfg = parse_config_file(args.config, cfg)
    for f in fields(cfg):
        if getattr(args, f.name, None) is not None:
            setattr(cfg, f.name, getattr(args, f.name))
    return cfg.validate()


def main(argv=None):
    args = _make_parser().parse_args(argv)
    commands = {"validate": cmd_validate, "equilibrium": cmd_equilibrium,
                "assemble": lambda cfg: cmd_assemble(cfg, args.lam), "analyze": cmd_analyze}
    try:
        cfg = _config_from_args(args)
        os.makedirs(_outdir(cfg), exist_ok=True)    # before any work, so an unusable path exits 2
    except (ConfigError, OSError) as exc:
        print(json.dumps({"error": "config", "message": str(exc)}), file=sys.stderr)
        return EXIT_CONFIG
    try:
        return commands[args.command](cfg)
    except ConfigError as exc:
        print(json.dumps({"error": "config", "message": str(exc)}), file=sys.stderr)
        return EXIT_CONFIG
    except VmspecError as exc:
        print(json.dumps({"error": "numerical", "kind": type(exc).__name__,
                          "message": str(exc)}), file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
