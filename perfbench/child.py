"""One workload execution in a fresh interpreter.

Usage: python3 perfbench/child.py RESULT_JSON WORKLOAD SEED TRACE SETUP_ONLY OUTDIR

Writes RESULT_JSON with monotonic timestamps (the parent subtracts its own
spawn time, so set-up includes interpreter start and ``import vmspec``),
the child's peak RSS, the output check's findings and, when traced, the
per-layer metrics.  Exits 1 when the workload raises.
"""

import ctypes
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def _blas():
    """Config string and thread count of every OpenBLAS loaded by numpy/scipy."""
    out = []
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower()
                            and ".so" in ln})
    except OSError:
        return out
    for path in paths:
        lib = ctypes.CDLL(path)
        row = {"lib": os.path.basename(path)}
        for sym in ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                    "openblas_get_config"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_char_p
                row["config"] = fn().decode()
                break
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                row["threads"] = fn()
                break
        out.append(row)
    return out


def main(argv):
    result_path, workload, seed, trace, setup_only, outdir = argv
    seed, trace, setup_only = int(seed), trace == "1", setup_only == "1"
    result = {"ok": False}
    try:
        import vmspec as vm
        import workloads
        setup, run, check = workloads.WORKLOADS[workload]
        tracer = None
        if trace:
            import spans
            import vmspec.cli  # noqa: F401  (wrapped below)
            tracer = spans.Tracer(run_id="%s-%d-%d" % (workload, seed, os.getpid()))
            spans.install(tracer, vm)
        ctx = setup(vm, workloads.draw_inputs(seed), outdir)
        result["t_ready"] = time.monotonic()
        if not setup_only:
            out = run(vm, ctx)
            result["problems"] = check(out, workloads.reference(workload, seed))
            result["t_done"] = time.monotonic()
            result["outputs"] = out
            if tracer is not None:
                result["layers"] = spans.layer_metrics(tracer, outdir)
        result["ok"] = not result.get("problems")
    except Exception:
        result["error"] = traceback.format_exc()
    result["max_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["blas"] = _blas()
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0 if "error" not in result else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
