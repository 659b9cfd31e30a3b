"""Command-line interface: outputs, manifests, determinism, exit codes."""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from test_model import MALFORMED, malformed_document
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
    assert cli.parse_rate("--kappa", "0.9g0", 100.0) == pytest.approx(90.0)
    assert cli.parse_rate("--kappa", "123.5", 100.0) == 123.5
    with pytest.raises(cli.UsageError, match="^cannot parse --k0 'abc'$"):
        cli.parse_rate("--k0", "abc", 100.0)
    with pytest.raises(cli.UsageError, match="^--n0 '-inf' must be finite$"):
        cli.parse_rate("--n0", "-inf", 100.0)
    with pytest.raises(cli.UsageError, match="^--gamma-m 'nang0' must be finite$"):
        cli.parse_rate("--gamma-m", " nang0 ", 100.0)


@pytest.mark.parametrize("argv, message", [
    (["threshold", "--n0", "nan"], "--n0 'nan' must be finite"),
    (["threshold", "--k0", "inf"], "--k0 'inf' must be finite"),
    (["threshold", "--upsilon", "infg0"], "--upsilon 'infg0' must be finite"),
    (["spectrum", "--case", "baseline", "--omega-max", "abc", "--out", "s.csv"],
     "cannot parse --omega-max 'abc'"),
    (["validate", "--case", "baseline", "--omega-min", "1e-3x", "--out", "v.json"],
     "cannot parse --omega-min '1e-3x'"),
    # An empty band option is refused, not taken as absent.
    (["spectrum", "--case", "baseline", "--omega-min", "", "--points", "3",
      "--out", "e.csv"], "cannot parse --omega-min ''"),
    (["spectrum", "--case", "baseline", "--omega-max", "", "--points", "3",
      "--out", "e.csv"], "cannot parse --omega-max ''"),
    (["validate", "--case", "baseline", "--omega-min", "", "--segments", "32",
      "--out", "v.json"], "cannot parse --omega-min ''"),
    (["validate", "--case", "baseline", "--omega-max", "", "--segments", "32",
      "--out", "v.json"], "cannot parse --omega-max ''"),
], ids=["n0-nan", "k0-inf", "upsilon-inf", "spectrum-omega-max-abc",
        "validate-omega-min-junk", "spectrum-omega-min-empty",
        "spectrum-omega-max-empty", "validate-omega-min-empty",
        "validate-omega-max-empty"])
def test_bad_rate_names_its_option(tmp_path, monkeypatch, capsys, argv, message):
    # A rate that does not parse or is not finite is refused by the option
    # it was given to, before anything is computed or written.
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not list(tmp_path.iterdir())


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


def test_memory_error_exits_2_with_one_line(tmp_path, monkeypatch, capsys):
    # A grid too large to allocate (spectrum --points 100000000 asks the
    # resolvent for 26.8 GiB) is one error line, exit 2 and no output file.
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 26.8 GiB")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(spectra, "spectrum_series", no_memory)
    assert cli.main(["spectrum", "--case", "baseline", "--out", "big.csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: Unable to allocate 26.8 GiB\n"
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
    # Finite drives whose K0, pump rate or spectrum overflow.
    ["threshold", "--k0", "1e308"],
    ["threshold", "--k0", "1e300"],
    # A finite pump rate against a sum pair at kappa = (1 - 1e-9)*gamma.
    ["threshold", "--k0", "2e296", "--kappa", "226194.67083227047"],
    ["spectrum", "--case", "baseline", "--k0", "1e308", "--out", "s.csv"],
    ["spectrum", "--case", "baseline", "--power", "1e300", "--out", "s.csv"],
    ["spectrum", "--case", "baseline", "--k0", "1e-300", "--out", "s.csv"],
    # A positive K0 whose spectral threshold S_f(0)/tau overflows.
    ["threshold", "--power", "1e-320"],
], ids=["kappa-nan", "gamma-m-nan", "tau-nan", "k0-inf", "spectrum-k0-nan",
        "spectrum-omega-min-nan", "validate-omega-max-inf", "k0-huge",
        "k0-pump-overflow", "k0-edge-overflow",
        "spectrum-k0-huge", "spectrum-power-huge", "spectrum-k0-tiny",
        "power-tiny"])
def test_non_finite_input_exits_2(tmp_path, monkeypatch, capsys, recwarn,
                                  argv):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be finite" in captured.err
    # The overflow is caught where it happens, not printed on the way.
    assert "Warning" not in captured.err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("squeeze", [
    {"type": "two_photon", "upsilon": 5e4},
    {"type": "degenerate", "kappa": 5e4, "upsilon": 1e4},
])
def test_config_with_other_kinds_rate_exits_2(tmp_path, capsys, squeeze):
    path = write_config(tmp_path)
    doc = json.loads(path.read_text())
    doc["squeeze"] = squeeze
    path.write_text(json.dumps(doc))
    assert cli.main(["threshold", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "takes no rate" in captured.err


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_config_file_exits_2(tmp_path, capsys, name):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(malformed_document(name)))
    assert cli.main(["threshold", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert MALFORMED[name][1] in captured.err


def test_threshold_at_two_photon_stability_edge_exits_2(capsys):
    # kappa = gamma: the sum pair no longer decays.
    assert cli.main(["threshold", "--kappa", repr(G0 + GE)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "reaches gamma0+gamma_e" in captured.err


def write_mechanics_config(tmp_path, temperature, omega_m=1e-300,
                           mass=5e-8):
    """A config file with these mechanics at gamma_m = 0, by default at
    omega_m = 1e-300 rad/s, where hbar*omega_m underflows to 0."""
    path = write_config(tmp_path)
    doc = json.loads(path.read_text())
    doc["mechanical"] = {"mass": mass, "omega_m": omega_m, "gamma_m": 0.0,
                         "temperature": temperature}
    path.write_text(json.dumps(doc))
    return path


def finding_lines(config) -> list[str]:
    """The CLI's stderr lines for the regime findings of ``config``."""
    return [f"warning: {m}" for m in config.regime_findings()]


def assert_force_scale_refused(path, capsys):
    # Text and JSON: the config's findings, then one error line; nothing on
    # stdout.
    for extra in ([], ["--json"]):
        assert cli.main(["threshold", "--config", str(path)] + extra) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        *warned, error = captured.err.splitlines()
        assert warned == finding_lines(model.load_config(path))
        assert error.startswith("error: force scale 2*hbar*omega_m*m")


def test_underflowing_mechanical_quantum_at_zero_temperature(tmp_path, capsys):
    # n_T = 0, but 2*hbar*omega_m*m underflows to 0: every force in newtons
    # would read 0.
    assert_force_scale_refused(write_mechanics_config(tmp_path, 0.0),
                               capsys)


def test_overflowing_mechanical_quantum(tmp_path, capsys):
    # m = omega_m = 1e200: 2*hbar*omega_m*m overflows, every force would
    # read inf.
    path = write_mechanics_config(tmp_path, 20.0, omega_m=1e200, mass=1e200)
    assert_force_scale_refused(path, capsys)


@pytest.mark.parametrize("extra", [[], ["--json"]])
@pytest.mark.parametrize("argv, findings", [
    (["--tau", "1e-200"], ["omega_m*tau"]),          # (2pi/tau)^2 overflows
    (["--gamma-m", "0", "--tau", "1e200"], []),      # K* underflows to 0
], ids=["tau-short", "tau-long-gamma-m-0"])
def test_threshold_out_of_range_tau_exits_2(capsys, argv, findings, extra):
    # The resolved config's findings print before the one error line.
    assert cli.main(["threshold", *argv, *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    *warned, error = captured.err.splitlines()
    assert [line.split(" =")[0] for line in warned] == \
        [f"warning: {name}" for name in findings]
    assert error.startswith("error: pulse length tau")


def test_threshold_long_tau_values_finite_and_positive(capsys):
    # tau = 1e200 s: tau^2 overflows and (2pi/tau)^2 underflows, yet every
    # reported value is finite and positive.
    assert cli.main(["threshold", "--json", "--tau", "1e200"]) == 0
    doc = json.loads(capsys.readouterr().out,
                     parse_constant=reject_constant)
    assert cli.main(["threshold", "--tau", "1e200"]) == 0
    text = capsys.readouterr().out
    spectral = doc.pop("spectral_f")
    values = list(doc.values()) + list(spectral.values())
    assert len(values) == 11
    assert all(0.0 < v < math.inf for v in values), doc
    printed = [float(line.split(":")[1].split()[0])
               for line in text.splitlines()]
    assert len(printed) == 9
    assert all(0.0 < v < math.inf for v in printed), text


def test_config_run_reports_each_regime_finding_once(tmp_path, capsys):
    # The file has gamma_e/gamma0 = 0.25 and gamma_m/gamma = 0.25; each
    # finding is reported once, as one stderr line, and the gamma_m one not
    # at all once --gamma-m 0 clears it.
    path = write_config(tmp_path)
    doc = json.loads(path.read_text())
    doc["cavity"]["gamma_e"] = 0.25 * G0
    doc["mechanical"] = {"mass": 5e-8, "omega_m": 2 * math.pi * 350e3,
                         "gamma_m": 0.25 * G0, "temperature": 20.0}
    path.write_text(json.dumps(doc))
    for extra, gamma_m_found in (([], True), (["--gamma-m", "0"], False)):
        assert cli.main(["threshold", "--json", "--config", str(path)]
                        + extra) == 0
        found = capsys.readouterr().err.splitlines()
        assert all(m.startswith("warning: ") for m in found), found
        assert len(found) == len(set(found)), found
        assert sum("gamma_e/gamma0 = 0.25" in m for m in found) == 1
        assert sum("gamma_m/gamma" in m for m in found) == gamma_m_found


def test_underflowing_mechanical_quantum_exits_2(tmp_path, capsys):
    # At T > 0 the occupancy has no bound, and the config is refused.
    path = write_mechanics_config(tmp_path, 20.0)
    assert cli.main(["threshold", "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: n_T must be finite, got inf\n"


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


def test_squeeze_options_are_the_rate_keys(capsys):
    # --kappa and --upsilon set the kind whose [squeeze] rate key they are.
    parser = cli.build_parser()
    for kind, key in model.RATE_KEY.items():
        args = parser.parse_args(["threshold", f"--{key}", "0.5g0"])
        assert cli._resolve_config(args).squeeze.kind == kind
    assert cli.main(["threshold", "--kappa", "0.5g0", "--upsilon", "0.5g0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: give at most one of --kappa/--upsilon\n"


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
    lambda path: _nan_series().write_csv(path.with_suffix(".csv")),
    lambda path: _nan_report().write_json(path),
    lambda path: cli._write_manifest(path.with_suffix(""), ["threshold"], None,
                                     {}, seed=math.nan),
], ids=["spectrum-json", "spectrum-csv", "validation-report", "manifest"])
def test_json_writers_reject_nan_and_write_nothing(tmp_path, write):
    with pytest.raises(ValueError):
        write(tmp_path / "out.json")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["spectrum", "--case", "nondeg-sub", "--kappa", "0.5g0", "--budget",
     "--out", "out/s.csv"],
    ["figure", "fig8", "--points", "50", "--out-dir", "figs"],
    ["validate", "--case", "baseline", "--segments", "32", "--omega-min",
     "0.05g0", "--out", "v/report.json"],
], ids=["spectrum-budget", "figure-fig8", "validate"])
def test_manifest_digests_match_files_on_disk(tmp_path, monkeypatch, argv):
    # Each writer hashes the bytes it writes; the manifest records those
    # digests without reading the files back, so they must match the disk.
    # Output directories are created by the writer itself.
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) in (0, 1)
    manifests = list(tmp_path.rglob("*.manifest.json"))
    assert len(manifests) == 1
    outputs = json.loads(manifests[0].read_text())["outputs"]
    assert outputs
    for entry in outputs:
        data = Path(entry["path"]).read_bytes()
        assert entry["sha256"] == hashlib.sha256(data).hexdigest()
    written = [p for p in tmp_path.rglob("*") if p.is_file()]
    assert len(written) == len(outputs) + 1
    assert not [p for p in written if b"\r" in p.read_bytes()]


def run_fresh(cwd, *argv) -> subprocess.CompletedProcess:
    """``trimova *argv`` in a fresh interpreter, so that stderr holds
    whatever Python and numpy would print."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "trimova.cli", *argv], cwd=cwd,
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        timeout=120)


def test_spectrum_past_signal_underflow_exits_2_with_one_line(tmp_path):
    done = run_fresh(tmp_path, "spectrum", "--case", "baseline",
                     "--omega-max", "1e200", "--out", "w.csv")
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: ")
    assert done.stderr.count("\n") == 1, done.stderr
    assert not list(tmp_path.iterdir())


def test_regime_warning_is_one_line(tmp_path):
    # Each finding is one "warning:" line, naming no source file.
    done = run_fresh(tmp_path, "threshold", "--tau", "1e200")
    assert done.returncode == 0
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("warning: gamma_m*tau"), \
        lines
    done = run_fresh(tmp_path, "threshold", "--tau", "1e-200")
    assert done.returncode == 2
    lines = done.stderr.splitlines()
    assert [line.split(":")[0] for line in lines] == ["warning", "error"], \
        lines
    assert ".py" not in done.stderr


def test_perturbed_validate_reports_each_finding_once(tmp_path):
    # validate builds a perturbed copy of the config; the findings are the
    # resolved config's, printed once each before the run.
    done = run_fresh(tmp_path, "validate", "--case", "nondeg-sub", "--kappa",
                     "0.5g0", "--tau", "1e-6", "--segments", "32",
                     "--perturb-kappa", "0.1")
    assert done.returncode in (0, 1), done.stderr
    ref = model.reference_config(squeeze=model.Squeezing("two_photon", 0.5 * G0))
    short = dataclasses.replace(ref, signal=dataclasses.replace(ref.signal,
                                                                tau=1e-6))
    assert [m.split(" =")[0] for m in short.regime_findings()] == ["omega_m*tau"]
    assert done.stderr.splitlines() == finding_lines(short)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_power_names_input_power(capsys, value):
    assert cli.main(["threshold", "--power", value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: input_power must be finite, got {value}\n"


@pytest.mark.parametrize("option, value, message", [
    ("--power", "-1", "input_power must be positive, got -1.0"),
    ("--power", "0", "input_power must be positive, got 0.0"),
    ("--power", "1e308", "K0 of input_power = 1e+308 W must be finite, got inf"),
    ("--n0", "-1", "N0 must be positive, got -1.0"),
    ("--n0", "0", "N0 must be positive, got 0.0"),
    ("--n0", "1e308", "K0 of N0 = 1e+308 rad/s must be finite, got inf"),
], ids=["negative", "zero", "huge", "n0-negative", "n0-zero", "n0-huge"])
def test_bad_power_names_input_power(capsys, option, value, message):
    # A power or N0 that is not positive, or whose K0 overflows, is refused
    # by its own name, not by the K0 it would set.
    assert cli.main(["threshold", option, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("by_env", [False, True], ids=["option", "env"])
def test_tau_preset_with_config_file_exits_2(tmp_path, monkeypatch, capsys,
                                             by_env):
    # The preset shapes the built-in configuration only; a config file,
    # given by option or by environment variable, sets its own tau.
    path = write_config(tmp_path)
    argv = ["threshold", "--tau-preset", "fig3"]
    if by_env:
        monkeypatch.setenv(cli.ENV_CONFIG, str(path))
    else:
        argv += ["--config", str(path)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --tau-preset")
    assert captured.err.count("\n") == 1


def test_spectrum_budget_with_sql_ratio_exits_2(tmp_path, monkeypatch,
                                                capsys):
    # The SQL ratio carries no budget columns: refused before any output.
    monkeypatch.chdir(tmp_path)
    assert cli.main(["spectrum", "--case", "baseline", "--budget",
                     "--sql-ratio", "--out", "s.csv"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --budget and --sql-ratio")
    assert captured.err.count("\n") == 1
    assert not list(tmp_path.iterdir())


def test_cold_commands_load_no_scipy(tmp_path):
    # A fresh interpreter: this process has scipy loaded already.  No
    # command loads it, validate included.
    script = (
        "import json, sys\n"
        "from trimova import cli\n"
        "for argv in (['threshold'],\n"
        "             ['spectrum', '--case', 'nondeg-sub', '--kappa', '0.5g0',\n"
        "              '--budget'],\n"
        "             ['figure', 'fig5'],\n"
        "             ['validate', '--case', 'baseline', '--segments', '32',\n"
        "              '--omega-min', '0.05g0']):\n"
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
    # Nyquist of a 1e-6 s step is about 14 gamma0, below 1.5 times the
    # default band end of 10 gamma0.
    (["--dt", "1e-6"], "too coarse"),
    (["--omega-min", "1g0", "--omega-max", "0.5g0"], "comparison band"),
    (["--dt", "0"], "finite and positive"),
    (["--dt=-1e-7"], "finite and positive"),
], ids=["dt-too-coarse", "dt-too-coarse-default-band", "empty-band",
        "dt-zero", "dt-negative"])
def test_validate_unusable_band_exits_2(tmp_path, capsys, band, message):
    out = tmp_path / "r.json"
    code = cli.main(["validate", "--case", "baseline", "--segments", "32",
                     *band, "--out", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_validate_accepts_step_near_band_limit(tmp_path, capsys):
    # Nyquist of a 9e-7 s step is about 15.5 gamma0, just above 1.5 times
    # the default band end of 10 gamma0.
    out = tmp_path / "r.json"
    code = cli.main(["validate", "--case", "nondeg-sub", "--kappa", "0.5g0",
                     "--segments", "32", "--dt", "9e-7", "--out", str(out)])
    assert code in (0, 1), capsys.readouterr().err
    assert json.loads(out.read_text())["dt"] == 9e-7


@pytest.mark.parametrize("argv, message", [
    (["spectrum", "--omega-min", "5g0", "--omega-max", "1g0"],
     "0 < omega-min < omega-max"),
    (["spectrum", "--omega-min=-1g0", "--omega-max=-0.1g0"],
     "0 < omega-min < omega-max"),
    (["spectrum", "--omega-min=-1g0"], "0 < omega-min < omega-max"),
    (["validate", "--omega-min", "5g0", "--omega-max", "1g0"],
     "0 < omega_lo < omega_hi"),
    (["validate", "--omega-min=-1g0"], "0 < omega_lo < omega_hi"),
    (["validate", "--seed", "-1"], "seed = -1: it must be nonnegative"),
], ids=["spectrum-reversed", "spectrum-negative", "spectrum-negative-min",
        "validate-reversed", "validate-negative-min", "validate-negative-seed"])
def test_bad_band_or_seed_exits_2(tmp_path, monkeypatch, capsys, recwarn,
                                  argv, message):
    # Refused with one error line before anything is computed or written:
    # a reversed band gave a descending spectrum grid, a negative one
    # negative frequencies or a RuntimeWarning, validate's a math domain
    # error, and a negative seed failed inside simulate's worker threads.
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(oracle, "simulate", no_simulation)
    extra = ["--segments", "32"] if argv[0] == "validate" else []
    assert cli.main([argv[0], "--case", "baseline", *extra, *argv[1:],
                     "--out", "x.out"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ") and message in captured.err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("options", [
    ["--kappa", "0.5g0", "--k0", "1e12"],
    ["--kappa", "226194.67083227047", "--k0", "2e296"],
    ["--kappa", "0.5g0", "--omega-min", "1e-300"],
], ids=["k0-1e12", "k0-2e296", "omega-min-1e-300"])
def test_validate_oversized_window_exits_2(tmp_path, monkeypatch, capsys,
                                           options):
    # A strong drive or a far low band would need a window of gigabytes (or
    # failed inside numpy with "Maximum allowed size exceeded"); it is
    # refused with one error line before anything is simulated or written.
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(oracle, "simulate", no_simulation)
    assert cli.main(["validate", "--case", "nondeg-raw", *options,
                     "--segments", "32", "--out", "big.json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ")
    assert "exceeds MAX_WINDOW" in captured.err
    assert not list(tmp_path.iterdir())


SUBTRACTED = ["--case", "nondeg-sub", "--kappa", "0.5g0"]


@pytest.mark.parametrize("options, message", [
    (SUBTRACTED + ["--tolerance", "-1"], "tolerance = -1.0: it must be finite"),
    (SUBTRACTED + ["--tolerance", "nan"], "tolerance = nan: it must be finite"),
    (SUBTRACTED + ["--perturb-kappa", "nan"], "perturb = nan: it must be finite"),
    (["--case", "baseline", "--perturb-kappa", "5"], "no squeeze rate to perturb"),
    (["--case", "nondeg-sub", "--kappa", "0", "--perturb-kappa", "0.1"],
     "no squeeze rate to perturb"),
    (["--case", "deg-sub", "--upsilon", "0", "--perturb-kappa", "0.1"],
     "no squeeze rate to perturb"),
    (SUBTRACTED + ["--perturb-kappa", "-3"], "rate must be nonnegative"),
], ids=["tolerance-negative", "tolerance-nan", "perturb-nan",
        "perturb-unsqueezed", "perturb-kappa-zero", "perturb-upsilon-zero",
        "perturb-negative-rate"])
def test_validate_rejects_meaningless_values(tmp_path, monkeypatch, capsys,
                                             options, message):
    # Refused before any simulation: a negative tolerance passes every bin,
    # a NaN would fail only after the whole run, or deep in numpy, and a
    # negative control must perturb a squeeze rate into another valid one
    # (a zero rate, of any kind, perturbs into itself).
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated")

    monkeypatch.setattr(oracle, "simulate", no_simulation)
    code = cli.main(["validate", *options, "--segments", "32",
                     "--out", str(tmp_path / "r.json")])
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


@pytest.mark.parametrize("manifest", [
    {"command": ["replay", "loop.json"]},
    [{"command": ["threshold"]}],
    {"command": "threshold"},
    None,
    "[" * 100_000 + "]" * 100_000,
    "{",
    b"\xff",
], ids=["names-itself", "list", "string-command", "directory", "nested",
        "truncated", "not-utf8"])
def test_replay_rejects_malformed_manifest(tmp_path, monkeypatch, capsys,
                                           manifest):
    # A replay of a replay would recurse; a list or a string is no command;
    # a directory is no manifest, nor is JSON nested past the parser's
    # depth, nor text that is not JSON or not UTF-8: the error of a manifest
    # that cannot be read names it.
    monkeypatch.chdir(tmp_path)
    if manifest is None:
        (tmp_path / "loop.json").mkdir()
    elif isinstance(manifest, bytes):
        (tmp_path / "loop.json").write_bytes(manifest)
    else:
        (tmp_path / "loop.json").write_text(
            manifest if isinstance(manifest, str) else json.dumps(manifest))
    assert cli.main(["replay", "loop.json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    unreadable = manifest is None or isinstance(manifest, (str, bytes))
    prefix = "error: cannot read manifest loop.json: " if unreadable \
        else "error: "
    assert len(lines) == 1 and lines[0].startswith(prefix), lines


@pytest.mark.parametrize("argv", [
    ["spectrum", "--case", "baseline", "--out", "afile/x.csv"],
    ["figure", "fig3", "--out-dir", "afile"],
    ["spectrum", "--case", "baseline", "--out", "d.csv"],
], ids=["spectrum-under-a-file", "figure-into-a-file", "spectrum-onto-a-dir"])
def test_unwritable_output_path_exits_2(tmp_path, monkeypatch, capsys, argv):
    # A path that cannot be written is one error line and exit 2, and
    # nothing else is written.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("")
    (tmp_path / "d.csv").mkdir()
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["afile", "d.csv"]
    assert (tmp_path / "afile").read_text() == ""
