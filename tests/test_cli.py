"""Command-line interface: outputs, manifests, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from trimova import cli, model, oracle, spectra

G0, GE = model.reference_rates()


def write_config(tmp_path, lossless=False, kappa=0.0):
    g0, ge = (G0 + GE, 0.0) if lossless else (G0, GE)
    doc = {
        "mechanical": {"mass": 5e-8, "omega_m": 2 * math.pi * 350e3,
                       "Q": 1e8, "temperature": 20.0},
        "cavity": {"gamma0": g0, "gamma_e": ge, "length": 0.1,
                   "wavelength": 1.55e-6},
        "drive": {"K0": math.pi / 28e-6},
        "squeeze": {"type": "two_photon", "kappa": kappa} if kappa
        else {"type": "none"},
        "signal": {"tau": 28e-6},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_parse_rate():
    assert cli.parse_rate("0.9g0", 100.0) == pytest.approx(90.0)
    assert cli.parse_rate("123.5", 100.0) == 123.5
    with pytest.raises(cli.UsageError):
        cli.parse_rate("abc", 100.0)
    with pytest.raises(cli.UsageError, match="finite"):
        cli.parse_rate("-inf", 100.0)


def test_spectrum_matches_closed_form(tmp_path):
    cfg_path = write_config(tmp_path, lossless=True)
    out = tmp_path / "baseline.csv"
    code = cli.main(["spectrum", "--config", str(cfg_path), "--case", "baseline",
                     "--out", str(out)])
    assert code == 0
    data = np.loadtxt(out, delimiter=",", skiprows=1)
    assert data.shape == (400, 2)
    config = model.load_config(cfg_path)
    expected = spectra.closed_form_psd("baseline", config, data[:, 0])
    assert np.allclose(data[:, 1], expected, rtol=1e-10)
    manifest = json.loads((tmp_path / "baseline.csv.manifest.json").read_text())
    assert manifest["command"][0] == "spectrum"
    assert {o["path"] for o in manifest["outputs"]} == \
        {str(out), str(tmp_path / "baseline.json")}


def test_spectrum_budget_columns(tmp_path):
    out = tmp_path / "b.csv"
    code = cli.main(["spectrum", "--case", "nondeg-sub", "--kappa", "0.9g0",
                     "--budget", "--out", str(out)])
    assert code == 0
    header = out.read_text().splitlines()[0].split(",")
    assert header[:2] == ["omega_rad_s", "value"]
    assert "alpha_plus" in header and "thermal" in header


def test_missing_config_no_partial_output(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = cli.main(["spectrum", "--config", str(tmp_path / "nope.json"),
                     "--case", "baseline", "--out", str(out)])
    assert code == 2
    assert "not found" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_invalid_case_exits_2(tmp_path):
    with pytest.raises(SystemExit) as err:
        cli.main(["spectrum", "--case", "bogus", "--out", str(tmp_path / "x.csv")])
    assert err.value.code == 2


@pytest.mark.parametrize("argv", [
    ["threshold", "--kappa", "nan"],
    ["threshold", "--gamma-m", "nan"],
    ["threshold", "--tau", "nan"],
    ["threshold", "--k0", "inf"],
    ["spectrum", "--case", "baseline", "--k0", "nan", "--out", "s.csv"],
    ["spectrum", "--case", "baseline", "--omega-min", "nan", "--out", "s.csv"],
    ["validate", "--case", "baseline", "--omega-max", "inf", "--out", "v.json"],
], ids=["kappa-nan", "gamma-m-nan", "tau-nan", "k0-inf", "spectrum-k0-nan",
        "spectrum-omega-min-nan", "validate-omega-max-inf"])
def test_non_finite_input_exits_2(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be finite" in captured.err
    assert not list(tmp_path.iterdir())


def test_threshold_at_two_photon_stability_edge_exits_2(capsys):
    # kappa = gamma: the sum pair no longer decays.
    assert cli.main(["threshold", "--kappa", repr(G0 + GE)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "reaches gamma0+gamma_e" in captured.err


def test_stability_error_exits_2(tmp_path, capsys):
    code = cli.main(["spectrum", "--case", "nondeg-raw", "--kappa", "1.01g0",
                     "--out", str(tmp_path / "x.csv")])
    assert code != 0
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command", [
    ["spectrum", "--case", "baseline", "--out", "x.csv"],
    ["figure", "fig4"],
])
@pytest.mark.parametrize("points", ["0", "-3"])
def test_points_below_one_exits_2(tmp_path, monkeypatch, capsys, command, points):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as err:
        cli.main(command + ["--points", points])
    assert err.value.code == 2
    assert "--points" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("drives", [
    ["--k0", "1g0", "--power", "1e-3"],
    ["--k0", "1g0", "--n0", "1g0"],
    ["--power", "1e-3", "--n0", "1g0"],
])
def test_conflicting_drive_options_exit_2(tmp_path, capsys, drives):
    out = tmp_path / "x.csv"
    code = cli.main(["spectrum", "--case", "baseline", "--out", str(out)]
                    + drives)
    assert code == 2
    assert "at most one of --k0/--power/--n0" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
    assert cli.main(["threshold"] + drives) == 2


def test_env_var_config(tmp_path, monkeypatch):
    cfg_path = write_config(tmp_path, lossless=True)
    monkeypatch.setenv(cli.ENV_CONFIG, str(cfg_path))
    out = tmp_path / "env.csv"
    assert cli.main(["spectrum", "--case", "baseline", "--out", str(out)]) == 0
    doc = json.loads((tmp_path / "env.json").read_text())
    assert doc["config"]["cavity"]["gamma_e"] == 0.0


def test_figure_outputs(tmp_path):
    assert cli.main(["figure", "fig4", "--out-dir", str(tmp_path),
                     "--points", "50"]) == 0
    files = sorted(p.name for p in tmp_path.iterdir())
    assert "fig4_kappa_0.5g0.csv" in files
    assert "fig4_kappa_0.9g0.csv" in files
    assert "fig4_preset.json" in files
    preset = json.loads((tmp_path / "fig4_preset.json").read_text())
    assert preset["case"] == "nondeg-raw"
    assert preset["gamma_m"] == 0.0


def test_threshold_json(capsys):
    assert cli.main(["threshold", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["braginsky"] == pytest.approx(0.733, rel=1e-2)
    assert doc["n_T"] == pytest.approx(1.19e6, rel=1e-2)
    assert "baseline" in doc["spectral_f"]


def reject_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def test_threshold_json_finite_where_pump_response_cancels(capsys):
    # kappa = gamma0 - gamma_e: the closed form's removable singularity at 0.
    assert cli.main(["threshold", "--json", "--kappa", repr(G0 - GE)]) == 0
    doc = json.loads(capsys.readouterr().out, parse_constant=reject_constant)
    assert set(doc["spectral_f"]) == {"nondeg-raw", "nondeg-sub"}
    assert all(v > 0 for v in doc["spectral_f"].values())


def _nan_series():
    return spectra.SpectrumSeries("baseline", np.array([1.0]),
                                  np.array([math.nan]), {})


def _nan_report():
    one = np.array([1.0])
    return oracle.ValidationReport(
        case="baseline", passed=False, pass_fraction=math.nan, tolerance=0.05,
        segments=32, seed=1, dt=1e-6, perturb=0.0, grid=one, estimate=one,
        stderr=one, closed_form=one, state_space_psd=one)


@pytest.mark.parametrize("write", [
    lambda path: _nan_series().write_json(path),
    lambda path: _nan_report().write_json(path),
    lambda path: cli._write_manifest(path.with_suffix(""), ["threshold"], None,
                                     [], seed=math.nan),
], ids=["spectrum-json", "validation-report", "manifest"])
def test_json_writers_reject_nan_and_write_nothing(tmp_path, write):
    with pytest.raises(ValueError):
        write(tmp_path / "out.json")
    assert not list(tmp_path.iterdir())


def test_cold_commands_load_no_scipy(tmp_path):
    # A fresh interpreter: this process has scipy loaded already.
    script = (
        "import json, sys\n"
        "from trimova import cli\n"
        "for argv in (['threshold'],\n"
        "             ['spectrum', '--case', 'nondeg-sub', '--kappa', '0.5g0',\n"
        "              '--budget'],\n"
        "             ['figure', 'fig5']):\n"
        "    assert cli.main(argv) == 0, argv\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m.split('.')[0] == 'scipy')))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == []


@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_threshold_at_subtraction_pole_exits_2(capsys, extra):
    # upsilon = gamma0 - gamma_e: the deg-sub filter is undefined at Omega = 0.
    assert cli.main(["threshold", "--upsilon", repr(G0 - GE)] + extra) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "subtraction filter" in captured.err


def test_threshold_text(capsys):
    assert cli.main(["threshold"]) == 0
    out = capsys.readouterr().out
    assert "thermal/SQL factor B" in out
    assert "quantum-limit force" in out


def test_validate_rejects_few_segments(tmp_path, capsys):
    code = cli.main(["validate", "--case", "baseline", "--segments", "8",
                     "--out", str(tmp_path / "r.json")])
    assert code == 2
    assert "segments" in capsys.readouterr().err


@pytest.mark.parametrize("band, message", [
    # Nyquist of a 2.2e-7 s step is about 62 gamma0, below the 200 gamma0
    # band end: the report would stop short of the band it claims to check.
    (["--dt", "2.2e-7", "--omega-max", "200g0"], "too coarse"),
    (["--omega-min", "1g0", "--omega-max", "0.5g0"], "comparison band"),
    (["--dt", "0"], "finite and positive"),
    (["--dt=-1e-7"], "finite and positive"),
], ids=["dt-too-coarse", "empty-band", "dt-zero", "dt-negative"])
def test_validate_unusable_band_exits_2(tmp_path, capsys, band, message):
    out = tmp_path / "r.json"
    code = cli.main(["validate", "--case", "baseline", "--segments", "32",
                     *band, "--out", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("case", ["baseline", "baseline-sub"])
def test_validate_gamma_m_zero_gives_verdict(tmp_path, capsys, case):
    # gamma_m = 0, the gamma_m of every figure preset, puts the mechanical
    # pole on the DC bin, where no analytic reference may be evaluated.
    out = tmp_path / "r.json"
    code = cli.main(["validate", "--case", case, "--gamma-m", "0",
                     "--segments", "32", "--out", str(out)])
    assert code in (0, 1), capsys.readouterr().err
    doc = json.loads(out.read_text(), parse_constant=reject_constant)
    assert doc["case"] == case and doc["segments"] == 32
    columns = ("grid", "estimate", "stderr", "closed_form", "state_space_psd")
    assert len(doc["grid"]) > 0
    assert all(math.isfinite(v) for name in columns for v in doc[name])


def test_validate_pass_and_fail(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli.main(["validate", "--case", "deg-raw", "--upsilon", "0.5g0",
                     "--segments", "48", "--seed", "4",
                     "--omega-min", "0.03g0", "--out", str(out)])
    assert code == 0
    assert "PASS" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["passed"] is True

    bad = tmp_path / "control.json"
    code = cli.main(["validate", "--case", "deg-raw", "--upsilon", "0.5g0",
                     "--segments", "48", "--seed", "4", "--perturb-kappa", "0.2",
                     "--omega-min", "0.03g0", "--out", str(bad)])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out
    assert json.loads(bad.read_text())["passed"] is False


def test_validate_deterministic(tmp_path):
    args = ["validate", "--case", "baseline", "--segments", "48", "--seed", "6",
            "--omega-min", "0.05g0"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_replay_reproduces_outputs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["spectrum", "--case", "deg-raw", "--upsilon", "0.5g0",
                     "--out", "replayme.csv"]) == 0
    original = (tmp_path / "replayme.csv").read_bytes()
    manifest = tmp_path / "replayme.csv.manifest.json"
    (tmp_path / "replayme.csv").unlink()
    assert cli.main(["replay", str(manifest)]) == 0
    assert (tmp_path / "replayme.csv").read_bytes() == original
