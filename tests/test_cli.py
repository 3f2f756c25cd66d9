import json
import os
import subprocess
import sys

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


@pytest.mark.parametrize("key", ["disc.bogus", "disc.n_s", "tol.cons", "run.seed", "run.jobs"])
def test_unknown_config_key_is_rejected(tmp_path, key):
    # the last four were accepted once and never used
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("%s = 3\n" % key)
    with pytest.raises(ConfigError, match="unknown key"):
        cli.parse_config_file(str(cfg_path))


def test_invalid_config_exits_2(tmp_path, monkeypatch, capsys):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text("disc.n_r = -5\n")
    code = run(["--config", str(cfg_path), "validate"], tmp_path, monkeypatch)
    assert code == cli.EXIT_CONFIG


def test_odd_angle_count_exits_2(tmp_path, monkeypatch, capsys):
    cfg_path = tmp_path / "odd.cfg"
    cfg_path.write_text("disc.n_theta = 33\n")
    code = run(["--config", str(cfg_path), "--profile", "zero", "--n", "2", "--n-x", "8",
                "analyze"], tmp_path, monkeypatch)
    assert code == cli.EXIT_CONFIG
    assert "n_theta must be even" in capsys.readouterr().err


def test_cli_import_leaves_interpolation_unloaded():
    # only the well ODE's spline needs scipy.interpolate; it is imported there
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = "import sys, vmspec.cli; print('scipy.interpolate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_validate_zero_profile(tmp_path, monkeypatch):
    code = run(["--profile", "zero", "validate"], tmp_path, monkeypatch)
    assert code == cli.EXIT_OK
    payload = json.loads((tmp_path / "out" / "validate.json").read_text())
    assert payload["passed"] is True


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


def test_analyze_reports_are_byte_identical(tmp_path, monkeypatch):
    run(_fast_analyze_args(), tmp_path, monkeypatch, out="a")
    run(_fast_analyze_args(), tmp_path, monkeypatch, out="b")
    a = (tmp_path / "a" / "analysis.json").read_bytes()
    b = (tmp_path / "b" / "analysis.json").read_bytes()
    assert a == b


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
    assert payload["residuals"]["passed"] is True
    assert (tmp_path / "out" / "mode_fields.csv").exists()
    assert (tmp_path / "out" / "mode_manifest.json").exists()


def test_example_homogeneous_golden(tmp_path, monkeypatch, capsys):
    code = run(["--n", "4", "--n-x", "16", "example", "homogeneous"],
               tmp_path, monkeypatch)
    assert code == cli.EXIT_OK
    text = capsys.readouterr().out
    assert "ring_integral" in text and "MISMATCH" not in text
    payload = json.loads((tmp_path / "out" / "example_homogeneous.json").read_text())
    assert all(row["ok"] for row in payload["golden"].values())


def test_example_golden_mismatch_exits_4(tmp_path, monkeypatch):
    # starving the radial rule breaks the golden integrals
    cfg_path = tmp_path / "starve.cfg"
    cfg_path.write_text("disc.n_r = 2\ndisc.n_theta = 8\ndisc.n_r_tail = 2\n")
    code = run(["--config", str(cfg_path), "--n", "2", "--n-x", "8",
                "example", "homogeneous"], tmp_path, monkeypatch)
    assert code == cli.EXIT_GOLDEN


def test_emit_spectra_csv(tmp_path, monkeypatch):
    code = run(["--profile", "zero", "--n", "2", "--n-x", "8", "--emit-spectra",
                "analyze"], tmp_path, monkeypatch)
    assert code == cli.EXIT_OK
    lines = (tmp_path / "out" / "spectra.csv").read_text().splitlines()
    assert lines[0] == "lambda,eig_index,eigenvalue"
    assert len(lines) > 48


def test_sweep_subcommand(tmp_path, monkeypatch):
    code = run(["--profile", "weakfield_family", "--period", "9.43",
                "--n", "3", "--n-x", "8", "sweep"], tmp_path, monkeypatch)
    assert code == cli.EXIT_OK
    assert (tmp_path / "out" / "sweep.csv").exists()
    summary = json.loads((tmp_path / "out" / "sweep.json").read_text())
    assert summary["k_count"] == 6


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
    assert "smallness_holds" in payload
