"""The benchmark's own files must keep working against the program.

``perfbench/spans.py`` replaces module and class attributes by name, read
from ``owner.__dict__``; a refactor that moves or renames one of them
breaks every traced benchmark run.  ``perfbench/workloads.py`` calls the
library and the CLI by name and checks their output.  These tests load
both files as they are and fail first.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vmspec as vm
import vmspec.cli  # noqa: F401  (the tracer wraps names in the CLI module)

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _load(name):
    spec = importlib.util.spec_from_file_location("perfbench_" + name, ROOT / "perfbench" /
                                                  (name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_where_the_tracer_looks():
    spans = _load("spans")
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _, _ in spans._targets(vm) if attr not in owner.__dict__]
    assert missing == []


def _traced_layers(workload, tmp_path):
    """Per-layer metrics of one traced seed-0 child run of ``workload``."""
    result = tmp_path / "result.json"
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "child.py"), str(result),
                           workload, "0", "1", "0", str(tmp_path)],
                          env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(result.read_text())
    assert out["ok"], out.get("error") or out.get("problems")
    return out["layers"]


def test_traced_run_counts_through_every_wrapped_layer(tmp_path):
    # a wrapped name that the library no longer calls through reads 0 in the
    # trace, silently: one traced mag-verdict child must count RK4 steps, field
    # and profile points and the well's source terms, and one orbit pass for
    # its one assembly
    layers = _traced_layers("mag-verdict", tmp_path)
    for key in ("characteristics.rk4_steps", "equilibrium.b0_calls", "equilibrium.mu_points",
                "equilibrium.source_term_calls"):
        assert layers[key] > 0, key
    assert layers["operators.node_moments_calls"] == layers["operators.assemble_calls"] == 1


def test_homogeneous_run_traces_no_orbit(tmp_path):
    # BENCHMARK.json calls homog-analyze the zero-orbit control: its small twin
    # assembles, solves, bisects, evaluates the profile and exports the mode,
    # and never steps an orbit or takes a node moment
    layers = _traced_layers("homog-small", tmp_path)
    for key in ("operators.assemble_calls", "spectra.eig_calls", "spectra.bisect_steps",
                "equilibrium.mu_points", "growing_mode.export_bytes"):
        assert layers[key] > 0, key
    assert layers["characteristics.rk4_steps"] == layers["operators.node_moments_calls"] == 0


# mag-sweep is not in BENCHMARK.json, but it is the only workload that runs
# the magnetized lam > 0 filter
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]] + ["mag-sweep"])
def test_benchmark_workload_passes_its_check(workload, tmp_path, monkeypatch):
    # seed-0 inputs under the workload's invariant checks; the pinned
    # reference numbers are left out, so moving them turns no test red
    workloads = _load("workloads")
    monkeypatch.setenv("VMSPEC_OUT", str(tmp_path))      # the CLI set-up writes it
    setup, run, check = workloads.WORKLOADS[workload]
    ctx = setup(vm, workloads.draw_inputs(0), str(tmp_path))
    assert check(run(vm, ctx), None) == []


def test_mag_verdict_agrees_with_the_library_kernel_rule(tmp_path, monkeypatch):
    # the workload reads the A2 zero band to judge the kernel, where the
    # library never calls a magnetized kernel trivial; on the seed-0 blocks
    # both give the same verdict, and this fails once the two rules disagree
    workloads = _load("workloads")
    setup, run, _ = workloads.WORKLOADS["mag-verdict"]
    ctx = setup(vm, workloads.draw_inputs(0), str(tmp_path))
    kept, assemble = [], vm.assemble_blocks

    def keep(*args):
        kept.append(assemble(*args))
        return kept[-1]
    monkeypatch.setattr(vm, "assemble_blocks", keep)
    out = run(vm, ctx)
    blocks0, = kept
    a2_values = vm.modal_truncation(blocks0).a2_values
    ker_trivial = vm.a2_kernel_trivial(a2_values, ctx["state"].homogeneous)
    want = vm.verdict(out["neg_a1"], out["neg_a2"], out["l0"], ker_trivial)
    assert out["verdict"] == want.verdict


def test_mag_sweep_counts_each_pencil(tmp_path, monkeypatch):
    # the workload reads the total count; per pencil the electric count is
    # n + 1 = 3 at both rates and the magnetic one 0, with no crossing
    workloads = _load("workloads")
    setup, run, _ = workloads.WORKLOADS["mag-sweep"]
    ctx = setup(vm, workloads.draw_inputs(0), str(tmp_path))
    kept, sweep = [], vm.sweep

    def keep(*args):
        kept.append(sweep(*args))
        return kept[-1]
    monkeypatch.setattr(vm, "sweep", keep)
    out = run(vm, ctx)
    sw, = kept
    assert out["counts"] == [3, 3]
    assert sw.pencil_counts == {"electric": [3, 3], "magnetic": [0, 0]}
    assert sw.crossings == []
