"""Span tracer that wraps vmspec's public functions from outside the package.

Each wrapped call records one span: (name, start, end, parent index, run
id); every span of one run shares the run id.  Spans stay
in memory; ``layer_metrics`` folds them into the per-layer figures when the
run ends.  Nothing under ``src/`` is edited: the wrappers replace the
module attributes at the names where callers look them up.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter

import numpy as np


class Tracer:
    """In-memory span recorder with counters kept at the same boundaries."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []            # (name, start, end, parent index or -1, run id)
        self.counts = Counter()
        self.values = {}           # health values: largest seen per key
        self._stack = []

    def wrap(self, name, fn, observe=None):
        """Return ``fn`` wrapped in a span; ``observe(tracer, args, result)`` may count."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, stack[-1] if stack else -1, self.run_id)
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def note_max(self, key, value):
        value = float(value)
        if key not in self.values or value > self.values[key]:
            self.values[key] = value

    def totals(self):
        """Per span name: (calls, total seconds, self seconds)."""
        n = len(self.spans)
        dur = np.empty(n)
        child = np.zeros(n)
        for i, (_, t0, t1, parent, _) in enumerate(self.spans):
            dur[i] = t1 - t0
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for i, (name, _, _, _, _) in enumerate(self.spans):
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + dur[i], own + dur[i] - child[i])
        return out

    def within(self, outer, inner):
        """Number of ``inner`` spans that have an ``outer`` span as an ancestor."""
        names = [s[0] for s in self.spans]
        inside = [False] * len(self.spans)
        hits = 0
        for i, (name, _, _, parent, _) in enumerate(self.spans):
            # indices are taken on entry, so a parent's is smaller than its
            # children's and one forward pass resolves ancestry
            inside[i] = parent >= 0 and (names[parent] == outer or inside[parent])
        for i, name in enumerate(names):
            if name == inner and inside[i]:
                hits += 1
        return hits


def _count_points(key):
    def observe(tracer, args, result):
        tracer.counts[key + "_calls"] += 1
        tracer.counts[key + "_points"] += int(np.size(result))
    return observe


def _count_rk4(tracer, args, result):
    tracer.counts["rk4_steps"] += 1
    tracer.counts["lane_steps"] += int(np.size(result[0]))


def _count_calls(key):
    def observe(tracer, args, result):
        tracer.counts[key] += 1
    return observe


def _observe_blocks(tracer, args, blocks):
    tracer.counts["assemble_calls"] += 1
    sym = max(blocks.defects.get("A1", 0.0), blocks.defects.get("A2", 0.0))
    if blocks.lam == 0.0:
        tracer.note_max("sym_defect_lam0", sym)
    tracer.note_max("sym_defect_max", sym)
    tracer.note_max("b_adjoint_defect", blocks.defects.get("B_adjoint", 0.0))


def _observe_quad(tracer, args, quad):
    tracer.counts["nodes"] = int(quad.n_nodes)


def _observe_residuals(tracer, args, report):
    tracer.note_max("max_residual", max(report.as_dict()[k] for k in
                                        ("gauss", "ampere1", "ampere2", "continuity",
                                         "vlasov_weak")))


# (module, attribute, span name, observer): every place a caller looks the
# name up.  Methods are patched on their classes.
def _targets(vm):
    cli, ops, spec, eq = vm.cli, vm.operators, vm.spectra, vm.equilibrium
    return [
        (cli, "main", "cli.main", None),
        (cli, "build_velocity_quadrature", "discretization.quadrature", _observe_quad),
        (vm, "build_velocity_quadrature", "discretization.quadrature", _observe_quad),
        (cli, "validate_profile", "equilibrium.validate", None),
        (cli, "make_homogeneous_state", "equilibrium.potential", None),
        (cli, "solve_equilibrium_potential", "equilibrium.potential", None),
        (vm, "solve_equilibrium_potential", "equilibrium.potential", None),
        (eq, "source_term", "equilibrium.source_term", _count_calls("source_term_calls")),
        (eq.EquilibriumState, "b0", "equilibrium.b0", _count_points("b0")),
        (eq.EquilibriumProfile, "mu_e", "equilibrium.mu", _count_points("mu")),
        (eq.EquilibriumProfile, "mu_p", "equilibrium.mu", _count_points("mu")),
        (ops, "rk4_step_arrays", "characteristics.rk4", _count_rk4),
        (vm, "assemble_blocks", "operators.assemble_blocks", _observe_blocks),
        (spec, "assemble_blocks", "operators.assemble_blocks", _observe_blocks),
        (cli, "assemble_blocks", "operators.assemble_blocks", _observe_blocks),
        (ops, "moment_profiles", "operators.moment_profiles", None),
        (ops, "node_moments", "operators.node_moments", _count_calls("node_moments_calls")),
        (ops, "assemble_M", "operators.assemble_M", None),
        (spec, "assemble_M", "operators.assemble_M", None),
        (spec, "symmetric_eigen", "spectra.eig", None),
        (vm, "sweep", "spectra.sweep", None),
        (cli, "sweep", "spectra.sweep", None),
        (cli, "locate_kernel_for_state", "spectra.locate_kernel", None),
        (cli, "reconstruct", "growing_mode.reconstruct", None),
        (cli, "residuals", "growing_mode.residuals", _observe_residuals),
        (cli, "export_mode", "growing_mode.export", None),
    ]


def install(tracer, vm):
    """Wrap every target in place, for the rest of the process."""
    for owner, attr, name, observe in _targets(vm):
        setattr(owner, attr, tracer.wrap(name, owner.__dict__[attr], observe))


# Every per-layer metric with its unit, in report order.  The parent adds
# the last two, which need the traced and untraced wall times.
PER_LAYER = {
    "discretization.quadrature_s": "s",
    "discretization.nodes": "count",
    "equilibrium.potential_s": "s",
    "equilibrium.source_term_calls": "count",
    "equilibrium.validate_s": "s",
    "equilibrium.mu_points": "count",
    "equilibrium.mu_s": "s",
    "equilibrium.b0_calls": "count",
    "equilibrium.b0_points": "count",
    "equilibrium.b0_s": "s",
    "equilibrium.b0_per_rk4_step": "ratio",
    "characteristics.rk4_steps": "count",
    "characteristics.lane_steps": "count",
    "characteristics.rk4_self_s": "s",
    "operators.assemble_calls": "count",
    "operators.assemble_s": "s",
    "operators.galerkin_self_s": "s",
    "operators.contract_self_s": "s",
    "operators.node_moments_calls": "count",
    "operators.node_moments_s": "s",
    "operators.node_moments_s_per_point": "s",
    "operators.sym_defect_lam0": "ratio",
    "operators.sym_defect_max": "ratio",
    "operators.b_adjoint_defect": "ratio",
    "spectra.sweep_s": "s",
    "spectra.locate_kernel_s": "s",
    "spectra.bisect_steps": "count",
    "spectra.eig_calls": "count",
    "spectra.eig_s": "s",
    "growing_mode.reconstruct_s": "s",
    "growing_mode.residuals_s": "s",
    "growing_mode.export_s": "s",
    "growing_mode.export_bytes": "bytes",
    "growing_mode.max_residual": "ratio",
    "cli.self_s": "s",
    "equilibrium.mu_share": "ratio",
    "trace.overhead_s": "s",
}


def layer_metrics(tracer, outdir):
    """Fold the spans and counters into the per-layer metric table."""
    tot = tracer.totals()
    c, v = tracer.counts, tracer.values

    def total(name):
        return tot.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return tot.get(name, (0, 0.0, 0.0))[2]

    nm_calls = c["node_moments_calls"]
    return {
        "discretization.quadrature_s": total("discretization.quadrature"),
        "discretization.nodes": c["nodes"],
        "equilibrium.potential_s": total("equilibrium.potential"),
        "equilibrium.source_term_calls": c["source_term_calls"],
        "equilibrium.validate_s": total("equilibrium.validate"),
        "equilibrium.mu_points": c["mu_points"],
        "equilibrium.mu_s": total("equilibrium.mu"),
        "equilibrium.b0_calls": c["b0_calls"],
        "equilibrium.b0_points": c["b0_points"],
        "equilibrium.b0_s": total("equilibrium.b0"),
        "equilibrium.b0_per_rk4_step": c["b0_calls"] / c["rk4_steps"] if c["rk4_steps"] else 0.0,
        "characteristics.rk4_steps": c["rk4_steps"],
        "characteristics.lane_steps": c["lane_steps"],
        "characteristics.rk4_self_s": own("characteristics.rk4"),
        "operators.assemble_calls": c["assemble_calls"],
        "operators.assemble_s": total("operators.assemble_blocks"),
        "operators.galerkin_self_s": own("operators.assemble_blocks") + own("operators.assemble_M"),
        "operators.contract_self_s": own("operators.moment_profiles"),
        "operators.node_moments_calls": nm_calls,
        "operators.node_moments_s": total("operators.node_moments"),
        "operators.node_moments_s_per_point":
            total("operators.node_moments") / nm_calls if nm_calls else 0.0,
        "operators.sym_defect_lam0": v.get("sym_defect_lam0", 0.0),
        "operators.sym_defect_max": v.get("sym_defect_max", 0.0),
        "operators.b_adjoint_defect": v.get("b_adjoint_defect", 0.0),
        "spectra.sweep_s": total("spectra.sweep"),
        "spectra.locate_kernel_s": total("spectra.locate_kernel"),
        "spectra.bisect_steps": tracer.within("spectra.locate_kernel", "operators.assemble_blocks"),
        "spectra.eig_calls": tot.get("spectra.eig", (0,))[0],
        "spectra.eig_s": total("spectra.eig"),
        "growing_mode.reconstruct_s": total("growing_mode.reconstruct"),
        "growing_mode.residuals_s": total("growing_mode.residuals"),
        "growing_mode.export_s": total("growing_mode.export"),
        "growing_mode.export_bytes": sum(os.path.getsize(os.path.join(outdir, f))
                                         for f in os.listdir(outdir) if f.startswith("mode_")),
        "growing_mode.max_residual": v.get("max_residual", 0.0),
        "cli.self_s": own("cli.main"),
    }
