"""vmspec benchmark: time to a checked result, set-up time and peak memory.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The parent process starts one untimed
set-up-only child as a warm-up, then runs the workload in fresh child
interpreters (single-threaded OpenBLAS), one at a time, as many as fit in S
seconds (at least one), tops up the set-up samples with set-up-only
children, checks every child's outputs, and prints one line per metric, an
``error_rate`` line and an ``env`` line, then a final JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (spawn to a
checked result), ``setup_s`` (spawn to inputs ready; median over at least
three set-ups) and ``peak_rss_mb`` (the child's ru_maxrss).  Failed
children count in ``failed`` and their times are not reported.

``--trace 1`` runs an untraced child and a traced child in turn and reports
the per-layer metrics of the traced one (see ``spans.py``), plus
``trace.overhead_s``, the traced minus the untraced ``wall_s``.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spans import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_SETUPS = 3          # set-up samples per run, topped up by set-up-only children
CHILD_TIMEOUT_S = 170.0
# Single-threaded BLAS keeps the load to the one child.  In five-seed trials on
# a two-core machine a second OpenBLAS thread widened the run-to-run spread of
# homog-analyze from 3% to 6-12%.
CHILD_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1")


class Child:
    """Outcome of one child interpreter."""

    def __init__(self, t_spawn, result, code, log):
        self.result, self.log = result, log
        self.ok = code == 0 and bool(result.get("ok"))
        self.setup_s = result["t_ready"] - t_spawn if "t_ready" in result else None
        self.wall_s = result["t_done"] - t_spawn if "t_done" in result else None
        self.rss_mb = result.get("max_rss_kb", 0) / 1024.0


def spawn(rundir, workload, seed, trace=False, setup_only=False, timeout=CHILD_TIMEOUT_S):
    """Run one child to completion and collect its result file."""
    work = tempfile.mkdtemp(dir=rundir)
    result_path = os.path.join(work, "result.json")
    outdir = os.path.join(work, "out")
    os.makedirs(outdir)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), result_path, workload, str(seed),
           "1" if trace else "0", "1" if setup_only else "0", outdir]
    with open(os.path.join(work, "log.txt"), "w+") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT, env=CHILD_ENV)
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            code = "timeout"
        finally:
            if proc.poll() is None:         # timed out, or the parent is stopping
                proc.kill()
                proc.wait()
        log.seek(0)
        text = log.read()
    try:
        with open(result_path) as fh:
            result = json.load(fh)
    except (OSError, ValueError):
        result = {}
    shutil.rmtree(work, ignore_errors=True)
    child = Child(t_spawn, result, code, text)
    if not child.ok:
        print("child failed (exit %r): %s\n%s\n%s" % (
            code, result.get("problems"), result.get("error", ""), text[-2000:]),
            file=sys.stderr)
    return child


def repeat(seconds, step):
    """Call ``step`` as often as fits in ``seconds`` (at least once); return the results.

    No call starts that would end past ``seconds`` if it took as long as
    the one before, so a run lasts about ``seconds`` whatever one call costs.
    """
    t0, out = time.monotonic(), []
    while True:
        t_step = time.monotonic()
        out.append(step())
        now = time.monotonic()
        if (now - t0) + (now - t_step) > seconds:
            return out


def warm_up(rundir, args):
    """An untimed set-up-only child: fills the file cache and writes bytecode."""
    spawn(rundir, args.workload, args.seed, setup_only=True, timeout=60.0)


def measure(rundir, args):
    """Full children for --seconds, then set-up-only children up to MIN_SETUPS."""
    warm_up(rundir, args)
    children = repeat(args.seconds, lambda: spawn(rundir, args.workload, args.seed))
    while sum(c.ok and c.setup_s is not None for c in children) < MIN_SETUPS:
        c = spawn(rundir, args.workload, args.seed, setup_only=True, timeout=60.0)
        children.append(c)
        if not c.ok:
            break
    good = [c for c in children if c.ok]
    full = [c for c in good if c.wall_s is not None]
    if not full:
        return children, {}
    return children, {
        "wall_s": ([c.wall_s for c in full], "s"),
        "setup_s": ([c.setup_s for c in good], "s"),
        "peak_rss_mb": ([c.rss_mb for c in full], "MB"),
    }


def measure_traced(rundir, args):
    """An untraced and a traced child per round, rounds for --seconds."""
    warm_up(rundir, args)
    pairs = repeat(args.seconds, lambda: (spawn(rundir, args.workload, args.seed),
                                          spawn(rundir, args.workload, args.seed, trace=True)))
    children = [c for pair in pairs for c in pair]
    rounds = [(p, t) for p, t in pairs if p.ok and t.ok]
    if not rounds:
        return children, {}
    for p, t in rounds:
        t.result["layers"]["equilibrium.mu_share"] = \
            t.result["layers"]["equilibrium.mu_s"] / t.wall_s
        t.result["layers"]["trace.overhead_s"] = t.wall_s - p.wall_s
    return children, {name: ([t.result["layers"][name] for _, t in rounds], unit)
                      for name, unit in PER_LAYER.items()}


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for ln in fh:
                if ln.startswith("model name"):
                    return ln.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    """HEAD read from .git without running git; None outside a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for ln in fh:
                if ln.rstrip().endswith(" " + ref):
                    return ln.split()[0]
    except OSError:
        pass
    return None


def environment(args, children):
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": next((c.result["blas"] for c in children if "blas" in c.result), None),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "load": "one parent, one child at a time, vmspec jobs=1, OPENBLAS_NUM_THREADS=1",
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated parent unwinds, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.isfile(os.path.join(ROOT, "src", "vmspec", "__init__.py")):
        print("perfbench: no vmspec sources under %s/src; run from a checkout" % ROOT,
              file=sys.stderr)
        return 2

    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    rundir = tempfile.mkdtemp(dir=scratch)
    try:
        children, metrics = (measure_traced if args.trace else measure)(rundir, args)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass

    attempted = len(children)
    failed = sum(not c.ok for c in children)
    metrics = {k: (statistics.median(vals), unit, vals) for k, (vals, unit) in metrics.items()}
    for name, (value, unit, vals) in metrics.items():
        print("%-40s %.6g %s  (median of %d: %s)"
              % (name, value, unit, len(vals), " ".join("%.6g" % v for v in vals)))
    print("error_rate %.6g  (%d failed of %d runs)" % (failed / attempted, failed, attempted))
    print("env " + json.dumps(environment(args, children), sort_keys=True))
    print(json.dumps({"correct": failed == 0 and bool(metrics), "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}}))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
