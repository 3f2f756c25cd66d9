"""Self-test of the benchmark on a reduced homogeneous analyze (about a minute).

Usage: python3 perfbench/selftest.py   (from the root of a checkout)

It checks that
1. every end-to-end and per-layer metric named in BENCHMARK.json is emitted
   with its unit;
2. the output check rejects a deliberately wrong reference;
3. two traced runs give identical counts;
4. without the program's sources the benchmark exits non-zero and prints no
   result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

SMALL = "homog-small"


def bench(*extra, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", SMALL,
           "--seed", "0", "--seconds", "1"] + list(extra)
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def last_json(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect_metrics(result, specs):
    got = result["metrics"]
    assert set(got) == {m["name"] for m in specs}, sorted(set(got) ^ {m["name"] for m in specs})
    for m in specs:
        assert got[m["name"]]["unit"] == m["unit"], (m["name"], got[m["name"]]["unit"])
        assert isinstance(got[m["name"]]["value"], (int, float)), m["name"]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    res = last_json(bench("--trace", "0"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res
    expect_metrics(res, spec["end_to_end"])
    print("ok  end-to-end metrics emitted with units")

    traced = [last_json(bench("--trace", "1")) for _ in range(2)]
    for res in traced:
        assert res["correct"], res
        expect_metrics(res, spec["per_layer"])
    counts = [{k: v["value"] for k, v in r["metrics"].items() if v["unit"] in ("count", "bytes")}
              for r in traced]
    assert counts[0] == counts[1], {k: (counts[0][k], counts[1][k]) for k in counts[0]
                                    if counts[0][k] != counts[1][k]}
    print("ok  per-layer metrics emitted; %d counts repeat exactly" % len(counts[0]))

    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    rundir = tempfile.mkdtemp(dir=scratch)
    try:
        child = run.spawn(rundir, SMALL, 0)
        assert child.ok, child.log
        out = child.result["outputs"]
        good = workloads.reference(SMALL, 0)
        assert workloads.check_homog(out, good) == []
        for key, wrong in (("k_count", good["k_count"] + 1), ("verdict", "INCONCLUSIVE"),
                           ("lambda_star", out["lambda_star"] * (1 + 1e-5))):
            problems = workloads.check_homog(out, dict(good, **{key: wrong}))
            assert problems, "check accepted a wrong %s" % key
        print("ok  output check rejects wrong references")

        bare = tempfile.mkdtemp(dir=rundir)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--trace", "0", cwd=bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
        print("ok  exits %d without the program's sources" % proc.returncode)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
