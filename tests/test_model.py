"""Parameter containers, occupancy and pump rate, regime checks, config files."""

import dataclasses
import hashlib
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.constants import c, hbar, k as k_B

from trimova import model
from trimova.model import (ConfigError, MechanicalOscillator,
                           OpticalCavity, SignalPulse,
                           Squeezing, StabilityError, SystemConfig)
from trimova.transfer import build_state_space

OMEGA_M = 2 * math.pi * 350e3


def test_physical_constants_are_exact_si_values():
    # The literals must equal scipy's CODATA values bit for bit.
    assert model.HBAR == hbar
    assert model.K_B == k_B


def test_thermal_occupancy_reference_value():
    n = model.thermal_occupancy(OMEGA_M, 20.0)
    assert abs(n - 1.2e6) / 1.2e6 < 0.03


def test_thermal_occupancy_zero_temperature():
    assert model.thermal_occupancy(OMEGA_M, 0.0) == 0.0


@pytest.mark.parametrize("temperature", [5e-324, 1e-9])
def test_thermal_occupancy_near_zero_temperature(temperature):
    # Near 0 K exp(hbar*omega_m/kB*T) overflows (at 1 nK) or kB*T underflows
    # to 0 (at 5e-324 K); the bath is empty either way.
    assert model.thermal_occupancy(OMEGA_M, temperature) == 0.0
    MechanicalOscillator(5e-8, OMEGA_M, 1.0, temperature)


def test_thermal_occupancy_high_temperature_doubling():
    # In the high-temperature regime n scales linearly with T; check the
    # 40 K / 20 K ratio against a directly evaluated Bose factor.
    n20 = model.thermal_occupancy(OMEGA_M, 20.0)
    n40 = model.thermal_occupancy(OMEGA_M, 40.0)
    x20 = hbar * OMEGA_M / (k_B * 20.0)
    expected = math.expm1(x20) / math.expm1(x20 / 2.0)
    assert n40 / n20 == pytest.approx(expected, rel=1e-12)
    assert n40 / n20 == pytest.approx(2.0, rel=1e-3)


def test_thermal_occupancy_monotonic():
    temps = [0.5, 1.0, 5.0, 20.0, 100.0]
    values = [model.thermal_occupancy(OMEGA_M, t) for t in temps]
    assert all(a < b for a, b in zip(values, values[1:]))
    omegas = [0.5 * OMEGA_M, OMEGA_M, 2 * OMEGA_M, 10 * OMEGA_M]
    values = [model.thermal_occupancy(w, 20.0) for w in omegas]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_braginsky_factor_reference():
    n = model.thermal_occupancy(OMEGA_M, 20.0)
    b = model.braginsky_factor(n, OMEGA_M, 28e-6, 1e8)
    assert abs(b - 0.75) / 0.75 < 0.05
    assert model.braginsky_factor(n, OMEGA_M, 28e-6, 1e9) == pytest.approx(b / 10)
    assert model.braginsky_factor(0.0, OMEGA_M, 28e-6, 1e8) == 0.0


@pytest.fixture
def reference():
    return model.reference_config()


def test_input_power_order_of_magnitude(reference):
    # K0 = pi/tau corresponds to roughly ten milliwatt drive; the parameter
    # table and the conversion only agree to order of magnitude.
    cav, mech = reference.cavity, reference.mechanical
    assert model.dimensionless_power(cav, mech, 1e-3) < reference.K0 \
        < model.dimensionless_power(cav, mech, 1e-1)


def test_dimensionless_power_properties(reference):
    cav, mech = reference.cavity, reference.mechanical
    # No power is no drive: refused by its own name, like a negative one.
    for power in (0.0, -1e-3):
        with pytest.raises(ConfigError, match="input_power must be positive"):
            model.dimensionless_power(cav, mech, power)
    k1 = model.dimensionless_power(cav, mech, 1e-3)
    assert model.dimensionless_power(cav, mech, 2e-3) == pytest.approx(2 * k1)
    # gamma_e = gamma0 makes the normalization singular: the cavity itself
    # is refused.
    with pytest.raises(ConfigError):
        OpticalCavity(1000.0, 1000.0, 0.1, cav.omega0)


@given(st.floats(1e2, 1e12))
def test_quality_factor_round_trip(quality):
    mech = MechanicalOscillator.from_quality_factor(5e-8, OMEGA_M, quality, 20.0)
    assert abs(mech.quality_factor - quality) <= 1e-12 * quality


@given(st.floats(2e-7, 1e-5))
def test_wavelength_round_trip(wavelength):
    cav = OpticalCavity.from_wavelength(1e5, 0.0, 0.1, wavelength)
    assert cav.omega0 == 2.0 * math.pi * c / wavelength


def test_reference_config_clean(reference):
    assert reference.regime_findings() == []


def test_stability_two_photon_bound(reference):
    g = reference.cavity.gamma
    # The sum pair decays at gamma - kappa: the bound is strict.
    model.reference_config(squeeze=Squeezing("two_photon", 0.999 * g))
    with pytest.raises(StabilityError):
        model.reference_config(squeeze=Squeezing("two_photon", g))
    with pytest.raises(StabilityError):
        model.reference_config(squeeze=Squeezing("two_photon", 1.01 * g))


def test_stability_degenerate_strict(reference):
    g = reference.cavity.gamma
    model.reference_config(squeeze=Squeezing("degenerate", 0.999 * g))
    with pytest.raises(StabilityError):
        model.reference_config(squeeze=Squeezing("degenerate", g))


def test_resolved_sideband_warning(reference):
    mech = reference.mechanical
    wide = OpticalCavity(0.25 * mech.omega_m, 0.25 * mech.omega_m / 300, 0.1,
                         reference.cavity.omega0)
    config = SystemConfig(mech, wide, Squeezing(), 1e5, SignalPulse(tau=28e-6))
    assert [m for m in config.regime_findings() if "sidebands" in m] == [
        "gamma/omega_m = 0.251 exceeds 0.15; sidebands are not well resolved"]


def test_loss_ratio_warning(reference):
    cav = reference.cavity
    lossy = OpticalCavity(cav.gamma0, 0.2 * cav.gamma0, cav.length, cav.omega0)
    config = SystemConfig(reference.mechanical, lossy, Squeezing(),
                          1e5, SignalPulse(tau=28e-6))
    assert config.regime_findings() == [
        "gamma_e/gamma0 = 0.2 exceeds 0.1; internal loss is not small against "
        "the input coupler"]


def test_short_pulse_warning(reference):
    # A finding is data: neither a build nor a replace emits a warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        config = SystemConfig(reference.mechanical, reference.cavity,
                              Squeezing(), 1e5, SignalPulse(tau=1e-6))
        assert dataclasses.replace(config, K0=2e5).regime_findings() \
            == config.regime_findings()
    assert config.regime_findings() == [
        "omega_m*tau = 2.2 is below 10.0; the pulse is not many-cycle resonant"]


def test_long_pulse_finding_is_last(reference):
    # gamma_m*tau > 0.1 is the last finding, after the pulse-cycle one.
    mech = dataclasses.replace(reference.mechanical, gamma_m=0.3 * OMEGA_M)
    config = SystemConfig(mech, reference.cavity, Squeezing(), 1e5,
                          SignalPulse(tau=1e-6))
    assert [m.split(" =")[0] for m in config.regime_findings()] == [
        "gamma_m/gamma", "omega_m*tau", "gamma_m*tau"]
    assert config.regime_findings()[-1] == (
        "gamma_m*tau = 0.66 is not small; short-pulse threshold formulas "
        "degrade")


def test_underdamped_required():
    with pytest.raises(ConfigError):
        MechanicalOscillator(5e-8, OMEGA_M, 2 * OMEGA_M, 20.0)


def test_loss_cannot_exceed_coupler():
    with pytest.raises(ConfigError):
        OpticalCavity(1e5, 2e5, 0.1, 1e15)


def test_drive_exactly_one():
    doc = _config_document()
    doc["drive"] = {}
    with pytest.raises(ConfigError, match="exactly one of K0 or input_power"):
        model.parse_config(doc)
    doc["drive"] = {"K0": 1e5, "input_power": 1e-3}
    with pytest.raises(ConfigError, match="exactly one of K0 or input_power"):
        model.parse_config(doc)


def test_signal_amplitude_relations(reference):
    cfg = SystemConfig(reference.mechanical, reference.cavity, Squeezing(),
                       1e5, SignalPulse(tau=28e-6, F_s0=1e-12))
    signal = model.config_snapshot(cfg)["signal"]
    assert signal["F_s0"] == 1e-12 and "f_s0" not in signal
    with pytest.raises(ConfigError):
        SignalPulse(tau=28e-6, F_s0=1e-12, f_s0=1.0)


def _config_document():
    g0, ge = model.reference_rates()
    return {
        "mechanical": {"mass": 5e-8, "omega_m": OMEGA_M, "Q": 1e8,
                       "temperature": 20.0},
        "cavity": {"gamma0": g0, "gamma_e": ge, "length": 0.1,
                   "wavelength": 1.55e-6},
        "drive": {"input_power": 1.2941826276433336e-3},
        "squeeze": {"type": "two_photon", "kappa": 0.5 * g0},
        "signal": {"tau": 28e-6, "f_s0": 1.0},
    }


def test_config_file_round_trip(tmp_path):
    doc = _config_document()
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    cfg = model.load_config(path)
    assert cfg.squeeze.kind == "two_photon"
    snap = model.config_snapshot(cfg)
    again = model.parse_config(snap)
    assert again.K0 == pytest.approx(cfg.K0, rel=1e-12)
    assert again.cavity.omega0 == cfg.cavity.omega0


def test_snapshot_round_trip_is_equal():
    # The document gives Q, wavelength and input power; the config stores
    # gamma_m, omega0 and K0 alone, so the snapshot rebuilds an equal config.
    cfg = model.parse_config(_config_document())
    assert model.parse_config(model.config_snapshot(cfg)) == cfg
    assert dataclasses.replace(cfg) == cfg


def test_config_styles_equivalent():
    # (Q, wavelength, input power) and (gamma_m, omega0, K0) describe the
    # same system.
    doc = _config_document()
    cfg = model.parse_config(doc)
    alt = {
        "mechanical": {"mass": 5e-8, "omega_m": OMEGA_M,
                       "gamma_m": cfg.mechanical.gamma_m, "temperature": 20.0},
        "cavity": {"gamma0": doc["cavity"]["gamma0"],
                   "gamma_e": doc["cavity"]["gamma_e"], "length": 0.1,
                   "omega0": cfg.cavity.omega0},
        "drive": {"K0": cfg.K0},
        "squeeze": doc["squeeze"],
        "signal": {"tau": 28e-6, "f_s0": 1.0},
    }
    ss, ss2 = (build_state_space(c) for c in (cfg, model.parse_config(alt)))
    for name in ("drift", "noise_gain", "channel_psd"):
        np.testing.assert_allclose(getattr(ss2, name), getattr(ss, name),
                                   rtol=1e-11)


def test_config_rejects_unknown_keys():
    doc = _config_document()
    doc["cavity"]["finesse"] = 1000.0
    with pytest.raises(ConfigError, match="finesse"):
        model.parse_config(doc)
    doc = _config_document()
    doc["extras"] = {}
    with pytest.raises(ConfigError, match="extras"):
        model.parse_config(doc)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("section, key", [
    ("mechanical", "temperature"), ("cavity", "gamma_e"),
    ("drive", "input_power"), ("squeeze", "kappa"), ("signal", "f_s0"),
])
def test_config_rejects_non_finite(section, key, value):
    # Every parameter container refuses NaN and inf, so a file (JSON
    # accepts NaN and Infinity) fails as loudly as the command line.
    doc = _config_document()
    doc[section][key] = value
    with pytest.raises(ConfigError, match="must be finite"):
        model.parse_config(doc)


def test_config_rejects_overflowing_occupancy():
    # A finite temperature so high that hbar*omega_m/(kB*T) is subnormal
    # overflows n_T; the config refuses it rather than carry inf into every
    # spectrum.
    doc = _config_document()
    doc["mechanical"]["temperature"] = 1e308
    with pytest.raises(ConfigError, match=r"^n_T must be finite, got inf$"):
        model.parse_config(doc)


def test_pump_rate_is_k0_gamma_gamma0_minus_gamma_e(reference):
    cav = reference.cavity
    assert reference.pump_rate \
        == reference.K0 * (cav.gamma0 + cav.gamma_e) * (cav.gamma0 - cav.gamma_e)


@pytest.mark.parametrize("squeeze", [
    {"type": "two_photon", "upsilon": 5e4},
    {"type": "degenerate", "kappa": 5e4, "upsilon": 1e4},
    {"type": "none", "kappa": 0.0},
], ids=["two-photon-upsilon", "degenerate-kappa", "none-kappa"])
def test_config_rejects_other_kinds_rate(squeeze):
    # A squeeze type reads its own rate key only; the other kind's key is an
    # error, not a silently dropped rate.
    doc = _config_document()
    doc["squeeze"] = squeeze
    with pytest.raises(ConfigError, match="takes no rate"):
        model.parse_config(doc)


# Malformed documents, each one edit of _config_document(), with the section
# and key their error must name.
MALFORMED = {
    "power-string": (lambda d: d["drive"].update(input_power="1e-3"),
                     "[drive] input_power"),
    "gamma0-null": (lambda d: d["cavity"].update(gamma0=None), "[cavity] needs gamma0"),
    "no-mass": (lambda d: d["mechanical"].pop("mass"), "[mechanical] needs mass"),
    "mechanical-list": (lambda d: d.update(mechanical=[1, 2]), "[mechanical]"),
    "mass-400-digits": (lambda d: d["mechanical"].update(mass=10**400),
                        "[mechanical] mass"),
    "gamma0-true": (lambda d: d["cavity"].update(gamma0=True), "[cavity] gamma0"),
    # An alternative input is refused by its own name, not by what it sets.
    "Q-nan": (lambda d: d["mechanical"].update(Q=math.nan),
              "Q must be finite, got nan"),
    "Q-inf": (lambda d: d["mechanical"].update(Q=math.inf),
              "Q must be finite, got inf"),
    "Q-half": (lambda d: d["mechanical"].update(Q=0.5),
               "quality factor must exceed 1/2"),
    "wavelength-0": (lambda d: d["cavity"].update(wavelength=0),
                     "wavelength must be finite and positive, got 0.0"),
    "wavelength-nan": (lambda d: d["cavity"].update(wavelength=math.nan),
                       "wavelength must be finite and positive, got nan"),
    "wavelength-negative": (lambda d: d["cavity"].update(wavelength=-1),
                            "wavelength must be finite and positive, got -1.0"),
    # 2*pi*c/wavelength overflows, so the carrier would be infinite.
    "wavelength-tiny": (lambda d: d["cavity"].update(wavelength=1e-320),
                        "wavelength = 1e-320 m must be finite, got inf"),
    "power-0": (lambda d: d["drive"].update(input_power=0),
                "input_power must be positive, got 0.0"),
}


def malformed_document(name):
    doc = _config_document()
    MALFORMED[name][0](doc)
    return doc


@pytest.mark.parametrize("name", MALFORMED)
def test_config_rejects_malformed_document(name):
    # A wrong JSON type, a missing key or a non-object section is a
    # ConfigError naming where it is, never a TypeError or a KeyError, and a
    # boolean is not read as a number.
    with pytest.raises(ConfigError) as info:
        model.parse_config(malformed_document(name))
    assert MALFORMED[name][1] in str(info.value)


@pytest.mark.parametrize("text", ["[" * 100_000 + "]" * 100_000, "{"],
                         ids=["nested", "truncated"])
def test_load_config_refuses_what_json_cannot_read(tmp_path, text):
    # Every unreadable file is a ConfigError naming it, so the CLI exits 2.
    path = tmp_path / "config.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match="config.json: "):
        model.load_config(path)


def test_config_null_counts_as_absent():
    doc = _config_document()
    doc["drive"]["K0"] = None
    doc["signal"]["F_s0"] = None
    doc["squeeze"] = None
    cfg = model.parse_config(doc)
    assert cfg.squeeze == Squeezing()
    assert cfg == dataclasses.replace(model.parse_config(_config_document()),
                                      squeeze=Squeezing())


def test_config_integers_are_read_as_floats():
    doc = _config_document()
    doc["mechanical"]["temperature"] = 20
    cfg = model.parse_config(doc)
    assert type(cfg.mechanical.temperature) is float
    assert cfg == model.parse_config(_config_document())


def test_snapshot_holds_container_fields_by_name(reference):
    # The snapshot reads the containers' fields, so a field added to one is
    # snapshotted with no further edit; a None amplitude is left out.
    snap = model.config_snapshot(reference)
    for section in ("mechanical", "cavity", "signal"):
        params = getattr(reference, section)
        names = {f.name for f in dataclasses.fields(params)
                 if getattr(params, f.name) is not None}
        assert set(snap[section]) == names
    assert "F_s0" not in snap["signal"] and snap["signal"]["f_s0"] == 1.0
    assert snap["drive"] == {"K0": reference.K0}
    assert model.parse_config(snap) == reference


def test_config_rejects_ambiguous_inputs():
    doc = _config_document()
    doc["mechanical"]["gamma_m"] = 0.01
    with pytest.raises(ConfigError):
        model.parse_config(doc)


def test_write_text_creates_parent_and_returns_digest_of_bytes(tmp_path):
    path = tmp_path / "missing" / "deeper" / "out.csv"
    text = "omega,γ0\n1,2\n"
    digest = model.write_text(path, text)
    data = path.read_bytes()
    # UTF-8, and "\n" written as given on every platform.
    assert data == text.encode("utf-8")
    assert b"\r" not in data
    assert digest == hashlib.sha256(data).hexdigest()
