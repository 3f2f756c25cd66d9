import argparse
import csv
import dataclasses
import json
import math
import os
import re
import resource
import subprocess
import sys

import numpy as np
import pytest

from vmspec import cli
from vmspec.errors import ConfigError


def run(args, tmp_path, monkeypatch, out="out"):
    monkeypatch.setenv("VMSPEC_OUT", str(tmp_path / out))
    return cli.main(args)


def test_config_file_parsing(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(
        "# comment\n"
        "profile.name = weakfield_family\n"
        "state.period = 9.5\n"
        "disc.n_r = 12\n"
        "tol.residual = 1e-3\n"
        "run.canonical = true\n"
        "profile.param.amp = 10.0\n")
    cfg = cli.parse_config_file(str(cfg_path))
    assert cfg.profile_name == "weakfield_family"
    assert cfg.period == 9.5
    assert cfg.n_r == 12
    assert cfg.tol_residual == 1e-3
    assert cfg.canonical is True
    assert cfg.profile_params == {"amp": 10.0}


@pytest.mark.parametrize("key", ["disc.bogus", "disc.n_s", "tol.cons", "run.seed", "run.jobs",
                                 "run.emit_spectra"])
def test_unknown_config_key_is_rejected(tmp_path, key):
    # the last five were accepted once; four were never used, and analyze
    # now always writes the table that run.emit_spectra asked for
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("%s = 3\n" % key)
    with pytest.raises(ConfigError, match="unknown key"):
        cli.parse_config_file(str(cfg_path))


@pytest.mark.parametrize("text, command, key", [
    ("disc.n_r = -5", ["validate"], "disc.n_r"),
    ("disc.n_per_period = 32", ["validate"], "disc.n_per_period"),
    ("disc.n_x = 7", ["validate"], "disc.n_x"),
    ("disc.n = 9\ndisc.n_x = 8", ["analyze"], "disc.n "),
    ("lambda.points = 1", ["validate"], "lambda.points"),
    ("state.period = 9.43\nstate.epsilon = 0.05", ["validate"], "state.period"),
    ("", ["assemble", "--lam", "-0.3"], "--lam"),
    ("state.period = 0", ["analyze"], "state.period"),
    ("state.period = -5", ["analyze"], "state.period"),
    ("state.period = inf", ["analyze"], "state.period"),
    ("tol.eig = -1e-3", ["analyze"], "tol.eig"),
    ("tol.kernel = -1", ["--find-mode", "analyze"], "tol.kernel"),
    ("lambda.min = nan", ["analyze"], "lambda.min"),
    ("state.epsilon = nan", ["analyze"], "state.epsilon"),
    ("run.emit_spectra = true", ["analyze"], "run.emit_spectra"),
    ("disc.n_r = 2.5", ["validate"], "disc.n_r"),
    ("disc.n_x = 4.0", ["validate"], "disc.n_x"),
    ("lambda.points = 2.5", ["validate"], "lambda.points"),
    ("tol.eig = abc", ["validate"], "tol.eig"),
    ("profile.name = weakfield_family\nprofile.param.amp = abc", ["validate"],
     "profile.param.amp"),
    ("run.find_mode = maybe", ["validate"], "run.find_mode"),
    ("profile.name = weakfield_family\nprofile.param.foo = 3", ["validate"], "'foo'"),
    ("profile.name = zero\nprofile.param.amp = 3", ["validate"], "'amp'"),
    ("", ["--profile", "nosuch", "validate"], "'nosuch'"),
    ("weight.c = -1", ["validate"], "weight.c"),
    ("", ["assemble", "--lam", "nan"], "--lam"),
    ("", ["assemble", "--lam", "inf"], "--lam"),
    ("lambda.max = inf", ["analyze"], "lambda.max"),
    ("disc.n = 2\ndisc.n_x = 8\nlambda.max = 1e300", ["analyze"], "lambda.max"),
    ("profile.name = weakfield_family\nstate.epsilon = inf", ["analyze"], "state.epsilon"),
    ("disc.n = 2\ndisc.n_x = 8\nlambda.min = 1e-300\nlambda.max = 1e-299", ["analyze"],
     "lambda.min"),
    ("weight.c = inf", ["analyze"], "weight.c"),
    ("weight.alpha = inf", ["analyze"], "weight.alpha"),
    ("profile.name = weakfield_family\nprofile.param.amp = nan", ["validate"],
     "profile.param.amp"),
    ("", ["assemble", "--lam", "1e-200"], "--lam"),
    ("", ["assemble", "--lam", "1e200"], "--lam"),
], ids=["negative_n_r", "n_per_period_below_64", "odd_n_x", "n_above_n_x", "one_lambda_point",
        "period_and_epsilon", "negative_lam", "zero_period", "negative_period", "infinite_period",
        "negative_tol_eig", "negative_tol_kernel", "nan_lambda_min", "nan_epsilon",
        "emit_spectra_key", "fractional_n_r", "float_n_x", "fractional_lambda_points",
        "text_tol_eig", "text_profile_param", "maybe_find_mode", "unknown_profile_param",
        "param_on_zero_profile", "unknown_profile", "negative_weight_c", "nan_lam", "inf_lam",
        "inf_lambda_max", "huge_lambda_max", "inf_epsilon", "underflowing_lambda_grid",
        "inf_weight_c", "inf_weight_alpha", "nan_profile_param", "tiny_lam", "huge_lam"])
def test_invalid_config_exits_2(tmp_path, monkeypatch, capsys, text, command, key):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(text + "\n")
    code = run(["--config", str(cfg_path)] + command, tmp_path, monkeypatch)
    assert code == cli.EXIT_CONFIG
    assert key in json.loads(capsys.readouterr().err)["message"]


@pytest.mark.parametrize("via", ["flag", "env"])
@pytest.mark.parametrize("command", ["validate", "analyze"])
def test_unusable_output_directory_exits_2_before_any_work(tmp_path, monkeypatch, capsys,
                                                            command, via):
    # the output directory is made right after the config is read, so a path
    # below a regular file exits 2, naming the path, before the profile is read
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = str(blocker / "sub")

    def never(*args, **kwargs):
        raise AssertionError("validate_profile ran before the output directory was made")
    monkeypatch.setattr(cli, "validate_profile", never)
    monkeypatch.delenv("VMSPEC_OUT", raising=False)
    flags = ["--out", out] if via == "flag" else []
    if via == "env":
        monkeypatch.setenv("VMSPEC_OUT", out)
    assert cli.main(["--profile", "zero"] + flags + [command]) == cli.EXIT_CONFIG
    assert out in json.loads(capsys.readouterr().err)["message"]


def _readme_text():
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        return " ".join(fh.read().split())


def test_readme_lists_every_config_key():
    listed = re.search(r"The keys are (.*?`)\. ", _readme_text()).group(1)
    assert set(re.findall(r"`([^`]+)`", listed)) == set(cli._KEYMAP) | {"profile.param.<name>"}


def test_readme_lists_every_subcommand():
    listed = re.search(r"Subcommands: (.*?`)\. ", _readme_text()).group(1)
    sub = next(a for a in cli._make_parser()._actions if a.dest == "command")
    assert re.findall(r"`([^`]+)`", listed) == list(sub.choices)


def test_readme_lists_every_exit_code():
    listed = re.search(r"Exit codes: (.*?)\.", _readme_text()).group(1)
    codes = {getattr(cli, name) for name in dir(cli) if name.startswith("EXIT_")}
    assert sorted(int(c) for c in re.findall(r"\b(\d+) [a-z]", listed)) == sorted(codes)


@pytest.mark.parametrize("args", [["sweep"], ["--emit-spectra", "analyze"], ["mode"],
                                  ["example", "homogeneous"], ["example", "weakfield"]],
                         ids=["sweep", "emit_spectra", "mode", "example_homogeneous",
                              "example_weakfield"])
def test_removed_surface_exits_2(tmp_path, monkeypatch, args):
    # analyze writes sweep.csv and, with --find-mode, the mode itself: no
    # sweep or mode subcommand, no selector; the golden integrals are tests
    with pytest.raises(SystemExit) as exc:
        run(["--profile", "zero"] + args, tmp_path, monkeypatch)
    assert exc.value.code == cli.EXIT_CONFIG


def test_every_flag_sets_its_config_field():
    # a flag reads its value as a file reads the key: by the field's declared type
    kinds = {f.name: f.type for f in dataclasses.fields(cli.RunConfig)}
    converter = {"int": int, "float": float, "str": None}
    for action in cli._make_parser()._actions:
        if action.option_strings and action.dest not in ("help", "config"):
            assert action.dest in set(cli._KEYMAP.values()), action.option_strings
            kind = kinds[action.dest]
            if kind == "bool":
                assert isinstance(action, argparse._StoreTrueAction), action.option_strings
            else:
                assert action.type is converter[kind], action.option_strings


def test_odd_angle_count_exits_2(tmp_path, monkeypatch, capsys):
    cfg_path = tmp_path / "odd.cfg"
    cfg_path.write_text("disc.n_theta = 33\n")
    code = run(["--config", str(cfg_path), "--profile", "zero", "--n", "2", "--n-x", "8",
                "analyze"], tmp_path, monkeypatch)
    assert code == cli.EXIT_CONFIG
    assert "n_theta must be even" in capsys.readouterr().err


def test_cli_import_leaves_interpolation_unloaded():
    # numpy is the one runtime dependency: importing the CLI, solving a
    # magnetized well and an eigensolve must not load any part of scipy
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "\n".join([
        "import sys, numpy as np, vmspec as vm, vmspec.cli",
        "prof, weight = vm.build_profile('weakfield_family')",
        "quad = vm.build_velocity_quadrature(weight, kinks=prof.kinks, n_r=16, n_theta=16,",
        "                                    n_r_tail=4)",
        "vm.solve_equilibrium_potential(prof, 0.05, quad)",
        "vm.symmetric_eigen(np.diag([1.0, 1.0, 2.0]))",
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
    ])
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_validate_zero_profile(tmp_path, monkeypatch):
    code = run(["--profile", "zero", "validate"], tmp_path, monkeypatch)
    assert code == cli.EXIT_OK
    payload = json.loads((tmp_path / "out" / "validate.json").read_text())
    assert payload["passed"] is True


def test_failed_validation_writes_where(tmp_path, monkeypatch):
    # a weight a thousand times too small fails the decay bound; the report
    # gives the tolerance and the (e, p) of the worst violation
    cfg_path = tmp_path / "small_weight.cfg"
    cfg_path.write_text("weight.c = 1e-3\n")
    code = run(["--config", str(cfg_path), "validate"], tmp_path, monkeypatch)
    assert code == cli.EXIT_NUMERICAL
    payload = json.loads((tmp_path / "out" / "validate.json").read_text())
    assert payload["passed"] is False and payload["tol"] == 1e-12
    assert payload["max_decay_violation"] > payload["tol"]
    e, p = payload["worst_decay_point"]
    assert e >= 1.0 and math.isfinite(p)


def _fast_analyze_args(extra=()):
    return ["--profile", "zero", "--period", "6.283185307179586",
            "--n", "3", "--n-x", "8", "--canonical", "analyze"] + list(extra)


def test_analyze_zero_profile_inconclusive(tmp_path, monkeypatch, capsys):
    code = run(_fast_analyze_args(), tmp_path, monkeypatch)
    assert code == cli.EXIT_OK
    payload = json.loads((tmp_path / "out" / "analysis.json").read_text())
    assert payload["verdict"] == "INCONCLUSIVE"
    assert "hypothesis failure" in payload["verdict_reason"]
    assert payload["neg_a1"] == 0 and payload["neg_a2"] == 0


# the reduced homogeneous discretization of the benchmark's self-test
SMALL_CONFIG = ("disc.n_r = 24\ndisc.n_theta = 48\ndisc.n_r_tail = 8\ndisc.n_x = 16\n"
                "disc.n = 6\nlambda.points = 16\n")


def _small_family_args(tmp_path, *command):
    cfg_path = tmp_path / "small.cfg"
    cfg_path.write_text(SMALL_CONFIG)
    return ["--config", str(cfg_path), "--profile", "weakfield_family", "--period", "9.43",
            "--canonical"] + list(command)


def test_analyze_reports_are_byte_identical(tmp_path, monkeypatch):
    args = _small_family_args(tmp_path, "--find-mode", "analyze")
    for out in ("a", "b"):
        assert run(args, tmp_path, monkeypatch, out=out) == cli.EXIT_OK
    names = sorted(os.listdir(tmp_path / "a"))
    assert names == ["analysis.json", "mode_distribution.csv", "mode_fields.csv",
                     "mode_manifest.json", "sweep.csv"]
    assert sorted(os.listdir(tmp_path / "b")) == names
    for name in names:
        a = (tmp_path / "a" / name).read_bytes()
        assert a == (tmp_path / "b" / name).read_bytes(), name
        assert a.endswith(b"\n"), name
    payload = json.loads((tmp_path / "a" / "analysis.json").read_text())
    # only the deterministic diagnostics stay: the lam = 0 asymmetry of each block
    assert "timing_seconds" not in payload and sorted(payload["diagnostics"]) == ["defects_lam0"]
    for name, worst in payload["diagnostics"]["defects_lam0"].items():
        assert sorted(worst) == ["col", "relative", "row"], name
        assert 0.0 <= worst["relative"] <= 1e-8, name


def test_crossing_reports_the_kernel_tolerance(tmp_path, monkeypatch):
    # the kernel eigenvalue is reported next to the tolerance it was located to
    assert run(_small_family_args(tmp_path, "--find-mode", "analyze"),
               tmp_path, monkeypatch) == cli.EXIT_OK
    crossing = json.loads((tmp_path / "out" / "analysis.json").read_text())["crossing"]
    assert sorted(crossing) == ["lambda_star", "min_abs_eig", "pencil", "tol_kernel"]
    assert 0.0 <= crossing["min_abs_eig"] <= crossing["tol_kernel"]


def test_analyze_reports_stage_seconds_unless_canonical(tmp_path, monkeypatch):
    # wall time and peak RSS (MiB) per stage; the peak never falls
    args = _small_family_args(tmp_path, "--find-mode", "analyze")
    assert run(args, tmp_path, monkeypatch, out="canonical") == cli.EXIT_OK
    payload = json.loads((tmp_path / "canonical" / "analysis.json").read_text())
    assert "stage_seconds" not in payload.get("diagnostics", {})
    assert "stage_peak_rss_mb" not in payload.get("diagnostics", {})
    assert run([a for a in args if a != "--canonical"], tmp_path, monkeypatch) == cli.EXIT_OK
    payload = json.loads((tmp_path / "out" / "analysis.json").read_text())
    order = ["validate", "sweep", "locate", "reconstruct", "residuals", "export"]
    stages = payload["diagnostics"]["stage_seconds"]
    assert sorted(stages) == sorted(order)
    assert all(0.0 <= t <= payload["timing_seconds"] for t in stages.values())
    rss = [payload["diagnostics"]["stage_peak_rss_mb"][name] for name in order]
    assert len(payload["diagnostics"]["stage_peak_rss_mb"]) == len(order)
    assert 0.0 < rss[0] and rss == sorted(rss)
    assert rss[-1] <= resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def test_mode_manifest_carries_the_config_hash(tmp_path, monkeypatch):
    assert run(_small_family_args(tmp_path, "--find-mode", "analyze"),
               tmp_path, monkeypatch) == cli.EXIT_OK
    analysis = json.loads((tmp_path / "out" / "analysis.json").read_text())
    manifest = json.loads((tmp_path / "out" / "mode_manifest.json").read_text())
    assert manifest["config_hash"] == analysis["config_hash"]


def test_reports_carry_the_absolute_residuals(tmp_path, monkeypatch):
    assert run(_small_family_args(tmp_path, "--find-mode", "analyze"),
               tmp_path, monkeypatch) == cli.EXIT_OK
    keys = ["abs_ampere1", "abs_ampere2", "abs_continuity", "abs_gauss", "abs_vlasov_weak",
            "ampere1", "ampere2", "continuity", "gauss", "passed", "tol", "vlasov_weak",
            "vlasov_weak_species", "vlasov_weak_test"]
    for name in ("analysis.json", "mode_manifest.json"):
        res = json.loads((tmp_path / "out" / name).read_text())["residuals"]
        assert sorted(res) == keys, name
        assert all(res[k] >= 0.0 for k in keys if k.startswith("abs_")), name
        assert res["vlasov_weak_species"] in (-1, 1), name
        assert len(res["vlasov_weak_test"]) == 2, name


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_column_writer_writes_the_row_writers_bytes(tmp_path):
    # float columns (signed zero, nan, the infinities, the smallest subnormal,
    # numpy scalars of other widths and an integer) next to integer and string
    # columns, written in blocks, give the bytes of a per-value repr(float(v))
    ints = [0, -3, 7, 2 ** 62, 5]
    names = ["a", "b,c", 'q"x', "", "electric"]
    floats = [-0.0, np.nan, np.inf, -np.inf, 5e-324]
    scalars = [np.float64(0.1), np.float32(0.1), np.int64(3), np.float16(-2.5), np.float64(1e300)]
    header = ["i", "s", "f", "n"]
    ref, got = tmp_path / "ref.csv", tmp_path / "got.csv"
    with open(ref, "w", newline="") as fh:
        wtr = csv.writer(fh)
        wtr.writerow(header)
        wtr.writerows([v if isinstance(v, (int, str)) else repr(float(v)) for v in row]
                      for row in zip(ints, names, floats, scalars))
    cli._write_csv(str(got), header, [(ints[a:b], names[a:b], np.array(floats[a:b]),
                                       np.array(scalars[a:b])) for a, b in ((0, 2), (2, 5))])
    assert got.read_bytes() == ref.read_bytes()
    assert got.read_bytes().count(b"\r\n") == 6          # csv's line ending, kept


def test_csv_artifacts_read_back_exactly(tmp_path, monkeypatch):
    kept = {}

    def keep(name):
        fn = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, **k: kept.setdefault(name, fn(*a, **k)))

    keep("assemble_blocks")
    keep("sweep")
    assert run(_small_family_args(tmp_path, "assemble", "--lam", "0.3"),
               tmp_path, monkeypatch) == cli.EXIT_OK
    blocks = kept["assemble_blocks"]
    assert blocks.lam == 0.3
    for name in ("A1", "A2", "C"):
        header, rows = _read_csv(tmp_path / "out" / ("blocks_lam0.3_%s.csv" % name))
        assert header == ["row", "col", "value"]
        want = np.atleast_2d(getattr(blocks, name))
        got = np.zeros(want.shape)
        for i, j, v in rows:
            got[int(i), int(j)] = float(v)
        assert len(rows) == want.size and np.array_equal(got, want), name

    assert run(_small_family_args(tmp_path, "analyze"), tmp_path, monkeypatch,
               out="sw") == cli.EXIT_OK
    sw = kept["sweep"]
    header, rows = _read_csv(tmp_path / "sw" / "sweep.csv")
    assert header == ["lambda", "pencil", "eig_index", "eigenvalue"]
    for p, want in sw.eigenvalues.items():
        mine = [r for r in rows if r[1] == p]
        got = np.array([float(v) for _, _, _, v in mine]).reshape(sw.lam_grid.size, -1).T
        assert np.array_equal(got, want), p
        assert [int(j) for _, _, j, _ in mine[:want.shape[0]]] == list(range(want.shape[0]))
        assert np.array_equal(np.array([float(l) for l, _, _, _ in mine[::want.shape[0]]]),
                              sw.lam_grid)


def test_assemble_takes_its_rate(tmp_path, monkeypatch):
    # the top-level parser must not read --lam as a prefix of --lambda-min/--lambda-max
    code = run(["--profile", "zero", "--n", "2", "--n-x", "8", "assemble", "--lam", "0.3"],
               tmp_path, monkeypatch)
    assert code == cli.EXIT_OK
    manifest = json.loads((tmp_path / "out" / "blocks_lam0.3_manifest.json").read_text())
    assert manifest["lambda"] == 0.3
    # -0 is the rate 0: its files and manifest read 0, not -0
    code = run(["--profile", "zero", "--n", "2", "--n-x", "8", "assemble", "--lam", "-0"],
               tmp_path, monkeypatch)
    assert code == cli.EXIT_OK
    manifest = json.loads((tmp_path / "out" / "blocks_lam0_manifest.json").read_text())
    assert manifest["lambda"] == 0.0 and math.copysign(1.0, manifest["lambda"]) == 1.0
    assert not list((tmp_path / "out").glob("blocks_lam-0*"))


def test_analyze_unstable_family(tmp_path, monkeypatch, capsys):
    code = run(["--profile", "weakfield_family", "--period", "9.43",
                "--n", "4", "--n-x", "12", "analyze"], tmp_path, monkeypatch)
    assert code == cli.EXIT_OK
    payload = json.loads((tmp_path / "out" / "analysis.json").read_text())
    assert payload["verdict"] == "UNSTABLE_T1"
    assert payload["neg_a2"] == 2 and payload["l0"] < 0
    assert payload["k_count"] == 7
    assert len(payload["sweep"]["crossings"]) == 1
    # verdict is re-derivable from the reported counts alone
    import vmspec
    re_v = vmspec.verdict(payload["neg_a1"], payload["neg_a2"], payload["l0"], True)
    assert re_v.verdict == payload["verdict"]


def test_find_mode_roundtrip(tmp_path, monkeypatch):
    code = run(["--profile", "weakfield_family", "--period", "9.43",
                "--n", "4", "--n-x", "12", "--find-mode", "analyze"],
               tmp_path, monkeypatch)
    assert code == cli.EXIT_OK
    payload = json.loads((tmp_path / "out" / "analysis.json").read_text())
    assert payload["crossing"]["lambda_star"] > 0
    # the crossing names its pencil, and each count splits into the two pencils
    assert payload["crossing"]["pencil"] == "magnetic"
    assert [iv["pencil"] for iv in payload["sweep"]["crossings"]] == ["magnetic"]
    counts = payload["sweep"]["counts"]
    assert counts[0]["neg_by_pencil"] == {"electric": 5, "magnetic": 2}
    assert counts[-1]["neg_by_pencil"] == {"electric": 5, "magnetic": 0}
    assert all(sum(c["neg_by_pencil"].values()) == c["neg"] for c in counts)
    assert payload["residuals"]["passed"] is True
    assert (tmp_path / "out" / "mode_fields.csv").exists()
    assert (tmp_path / "out" / "mode_manifest.json").exists()


def test_analyze_writes_the_sweep_csv(tmp_path, monkeypatch):
    code = run(["--profile", "zero", "--n", "2", "--n-x", "8", "analyze"], tmp_path, monkeypatch)
    assert code == cli.EXIT_OK
    lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert lines[0] == "lambda,pencil,eig_index,eigenvalue"
    assert len(lines) == 1 + 48 * (3 + 2)                # electric n + 1, magnetic n


def test_analyze_sweep_carries_the_verdict(tmp_path, monkeypatch):
    args = ["--profile", "weakfield_family", "--period", "9.43", "--n", "3", "--n-x", "8"]
    assert run(args + ["analyze"], tmp_path, monkeypatch) == cli.EXIT_OK
    analysis = json.loads((tmp_path / "out" / "analysis.json").read_text())
    assert analysis["sweep"]["k_count"] == 6
    assert analysis["verdict"] == analysis["sweep"]["verdict"] == "UNSTABLE_T1"


def test_magnetized_assemble_applies_and_records_tol_sym(tmp_path, monkeypatch, capsys):
    # without the key magnetized blocks are checked at 1e-4; an explicit
    # key is applied to them too (their lam = 0 defects are about 2e-11)
    for key, code, recorded in (("", cli.EXIT_OK, 1e-4), ("tol.sym = 1e-6\n", cli.EXIT_OK, 1e-6),
                                ("tol.sym = 1e-13\n", cli.EXIT_NUMERICAL, None)):
        cfg = tmp_path / "mag.cfg"
        cfg.write_text("disc.n_r = 16\ndisc.n_theta = 16\ndisc.n_r_tail = 4\n" + key)
        out = "out%g" % (recorded or 0)
        got = run(["--config", str(cfg), "--profile", "weakfield_family", "--epsilon", "0.05",
                   "--n-x", "2", "assemble"], tmp_path, monkeypatch, out=out)
        assert got == code, key
        if recorded is None:
            assert "asymmetry" in capsys.readouterr().err
        else:
            manifest = json.loads((tmp_path / out / "blocks_lam0_manifest.json").read_text())
            assert manifest["tolerances"]["tol_sym"] == recorded


def test_magnetized_analyze_reports_cut_lanes(tmp_path, monkeypatch):
    # the orbits that did not close, counted over every lane of the - pass
    # (the benchmark's mag-verdict inputs); deterministic, so --canonical
    # keeps it while it drops the stage times, and two runs write the same bytes
    cfg = tmp_path / "mag.cfg"
    cfg.write_text("disc.n_r = 16\ndisc.n_theta = 16\ndisc.n_r_tail = 4\nlambda.points = 2\n")
    for out in ("a", "b"):
        assert run(["--config", str(cfg), "--profile", "weakfield_family", "--epsilon", "0.05",
                    "--n-x", "2", "--n", "2", "--canonical", "analyze"],
                   tmp_path, monkeypatch, out=out) == cli.EXIT_OK
    for name in ("analysis.json", "sweep.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name
    payload = json.loads((tmp_path / "a" / "analysis.json").read_text())
    assert sorted(payload["diagnostics"]) == ["cut_lanes", "defects_lam0", "drift"]
    cut = payload["diagnostics"]["cut_lanes"]
    assert sorted(cut) == ["count", "l_share", "lanes", "mu_e_share"]
    assert (cut["count"], cut["lanes"]) == (416, 6656)
    assert 0.0 < cut["mu_e_share"] < 0.1
    assert 0.0 < abs(cut["l_share"]) < 1e-2
    # the largest drift of e and p over the orbit pass's streams
    drift = payload["diagnostics"]["drift"]
    assert sorted(drift) == ["e", "p"]
    assert 0.0 < drift["e"] <= 1e-9 and 0.0 < drift["p"] <= 1e-9
    # the lam = 0 asymmetry of each block, with its worst entry, below the 1e-4 tol.sym
    defects = payload["diagnostics"]["defects_lam0"]
    assert sorted(defects) == ["A1", "A2"]
    for name, size in (("A1", 4), ("A2", 5)):
        assert sorted(defects[name]) == ["col", "relative", "row"], name
        assert 0.0 < defects[name]["relative"] < 1e-4, name
        assert 0 <= defects[name]["row"] < size and 0 <= defects[name]["col"] < size, name


def test_weakfield_equilibrium_subcommand(tmp_path, monkeypatch):
    # resolution must clear the refinement gate on the source term
    cfg = tmp_path / "wf.cfg"
    cfg.write_text("disc.n_r = 32\ndisc.n_theta = 64\ndisc.n_r_tail = 8\n")
    code = run(["--config", str(cfg), "--profile", "weakfield_family",
                "--epsilon", "0.1", "equilibrium"], tmp_path, monkeypatch)
    assert code == cli.EXIT_OK
    payload = json.loads((tmp_path / "out" / "equilibrium.json").read_text())
    assert payload["center_ok"] is True
    assert abs(payload["period"] / payload["critical_period"] - 1.0) < 0.05
    assert payload["residual_inf"] <= 1e-6
    # the well integrated at h and h/2: the period's convergence estimate
    assert 0.0 < payload["period_delta"] < 1e-6
    assert "smallness_holds" in payload
