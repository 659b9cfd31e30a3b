"""Parameter containers, derived scalars, regime checks, config files."""

import json
import math

import pytest
from hypothesis import given, strategies as st
from scipy.constants import hbar, k as k_B

from trimova import model
from trimova.model import (ConfigError, DriveConfig, MechanicalOscillator,
                           OpticalCavity, RegimeWarning, SignalPulse,
                           Squeezing, StabilityError, SystemConfig)

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
    assert 1e-3 < reference.derived.input_power < 1e-1


def test_dimensionless_power_properties(reference):
    cav, mech = reference.cavity, reference.mechanical
    assert model.dimensionless_power(cav, mech, 0.0) == 0.0
    k1 = model.dimensionless_power(cav, mech, 1e-3)
    assert model.dimensionless_power(cav, mech, 2e-3) == pytest.approx(2 * k1)
    bad = OpticalCavity(1000.0, 1000.0, 0.1, cav.omega0)
    with pytest.raises(ConfigError):
        model.dimensionless_power(bad, mech, 1e-3)


@given(st.floats(1e2, 1e9), st.floats(1e-12, 1e-1))
def test_pump_power_round_trip(k0, power):
    cfg = model.reference_config()
    cav, mech = cfg.cavity, cfg.mechanical
    back = model.dimensionless_power(cav, mech, model.power_for_pump(cav, mech, k0))
    assert abs(back - k0) <= 1e-12 * k0
    forth = model.power_for_pump(cav, mech,
                                 model.dimensionless_power(cav, mech, power))
    assert abs(forth - power) <= 1e-12 * power


@given(st.floats(1e2, 1e12))
def test_quality_factor_round_trip(quality):
    mech = MechanicalOscillator.from_quality_factor(5e-8, OMEGA_M, quality, 20.0)
    assert abs(mech.quality_factor - quality) <= 1e-12 * quality


@given(st.floats(2e-7, 1e-5))
def test_wavelength_round_trip(wavelength):
    cav = OpticalCavity.from_wavelength(1e5, 0.0, 0.1, wavelength)
    assert abs(cav.wavelength - wavelength) <= 1e-12 * wavelength


def test_intracavity_drive_identity(reference):
    # 4*g0*eta^2*C0^2 equals K0*gamma*(gamma0 - gamma_e) by construction.
    for frac in (0.3, 1.0, 4.0):
        cfg = model.reference_config(K0=frac * reference.derived.K0)
        cav, d = cfg.cavity, cfg.derived
        lhs = 4.0 * cav.gamma0 * d.eta**2 * d.C0_squared
        rhs = d.K0 * cav.gamma * (cav.gamma0 - cav.gamma_e)
        assert abs(lhs - rhs) <= 1e-12 * rhs


def test_reference_config_clean(recwarn, reference):
    assert reference.regime_findings() == []
    assert not [w for w in recwarn.list if issubclass(w.category, RegimeWarning)]


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
    with pytest.warns(RegimeWarning, match="sidebands"):
        SystemConfig(mech, wide, Squeezing(), DriveConfig(K0=1e5),
                     SignalPulse(tau=28e-6))


def test_loss_ratio_warning(reference):
    cav = reference.cavity
    lossy = OpticalCavity(cav.gamma0, 0.2 * cav.gamma0, cav.length, cav.omega0)
    with pytest.warns(RegimeWarning, match="loss"):
        SystemConfig(reference.mechanical, lossy, Squeezing(),
                     DriveConfig(K0=1e5), SignalPulse(tau=28e-6))


def test_short_pulse_warning(reference):
    with pytest.warns(RegimeWarning, match="pulse"):
        SystemConfig(reference.mechanical, reference.cavity, Squeezing(),
                     DriveConfig(K0=1e5), SignalPulse(tau=1e-6))


def test_underdamped_required():
    with pytest.raises(ConfigError):
        MechanicalOscillator(5e-8, OMEGA_M, 2 * OMEGA_M, 20.0)


def test_loss_cannot_exceed_coupler():
    with pytest.raises(ConfigError):
        OpticalCavity(1e5, 2e5, 0.1, 1e15)


def test_drive_exactly_one():
    with pytest.raises(ConfigError):
        DriveConfig()
    with pytest.raises(ConfigError):
        DriveConfig(K0=1.0, input_power=1.0)


def test_signal_amplitude_relations(reference):
    mech = reference.mechanical
    scale = math.sqrt(2 * hbar * mech.omega_m * mech.mass)
    cfg = SystemConfig(mech, reference.cavity, Squeezing(), DriveConfig(K0=1e5),
                       SignalPulse(tau=28e-6, F_s0=1e-12))
    assert cfg.derived.f_s0 == 1e-12 / scale
    cfg2 = SystemConfig(mech, reference.cavity, Squeezing(), DriveConfig(K0=1e5),
                        SignalPulse(tau=28e-6, f_s0=cfg.derived.f_s0))
    assert cfg2.derived.F_s0 == pytest.approx(1e-12, rel=1e-12)
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
    assert again.derived.K0 == pytest.approx(cfg.derived.K0, rel=1e-12)
    assert again.cavity.omega0 == cfg.cavity.omega0


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
        "drive": {"K0": cfg.derived.K0},
        "squeeze": doc["squeeze"],
        "signal": {"tau": 28e-6, "f_s0": 1.0},
    }
    cfg2 = model.parse_config(alt)
    assert cfg2.derived.input_power == pytest.approx(cfg.derived.input_power,
                                                     rel=1e-11)


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


def test_config_rejects_ambiguous_inputs():
    doc = _config_document()
    doc["mechanical"]["gamma_m"] = 0.01
    with pytest.raises(ConfigError):
        model.parse_config(doc)
