"""Channel-to-output coefficients: values, identities, symmetries."""

import math

import numpy as np
import pytest

from trimova import model, transfer
from trimova.model import Squeezing
from trimova.transfer import Channel, PoleError

G0, GE = model.reference_rates()


def config(kind="none", frac=0.0, lossless=False, gamma_m=None, K0=None):
    squeeze = Squeezing() if kind == "none" else Squeezing(kind, frac * G0)
    return model.reference_config(squeeze=squeeze, lossless=lossless,
                                  gamma_m=gamma_m, K0=K0)


def grid(cfg, n=60):
    return np.geomspace(1e-3 * cfg.cavity.gamma0, 1e3 * cfg.cavity.gamma0, n)


def coefficients(cfg, port, w, referenced=False):
    return transfer.transfer_coefficients(cfg, port, w, referenced=referenced)


# --- elementary coefficients ---------------------------------------------------
#
# The reference (unmeasured) sum port is a passive cavity reflection.

def test_reflection_gain_ideal_limits():
    cfg = config(lossless=True)
    at_zero = coefficients(cfg, "sum", 0.0)
    assert at_zero[Channel.ALPHA_PLUS] == pytest.approx(1.0)
    w = grid(cfg)
    c = coefficients(cfg, "sum", w)[Channel.ALPHA_PLUS]
    assert np.abs(c) == pytest.approx(np.ones_like(w), abs=1e-14)


def test_reflection_gain_direct_value():
    # Independent evaluation by literal complex arithmetic: the measured
    # (difference) port reflects its own vacuum through the squeezed pair,
    # the sum port through the antisqueezed pair.
    cfg = config("two_photon", 0.5)
    kappa, w = cfg.squeeze.rate, G0
    own = coefficients(cfg, "difference", w)[Channel.ALPHA_MINUS]
    expected = complex(G0 - GE - kappa, w) / complex(G0 + GE + kappa, -w)
    assert own == pytest.approx(expected, rel=1e-14)
    ref = coefficients(cfg, "sum", w)[Channel.ALPHA_PLUS]
    expected_p = complex(G0 - GE + kappa, w) / complex(G0 + GE - kappa, -w)
    assert ref == pytest.approx(expected_p, rel=1e-14)


def test_reflection_gain_pole():
    # The antisqueezed pair decays at gamma - kappa: kappa = gamma is the
    # stability edge, where the reference port has a pole at Omega = 0.  Just
    # inside it the configuration is valid, and the pole guard still refuses
    # Omega = 0.
    cfg = model.reference_config(
        squeeze=Squeezing("two_photon", (G0 + GE) * (1 - 1e-15)))
    with pytest.raises(PoleError):
        transfer.transfer_coefficients(cfg, "sum", 0.0)


def test_loss_leakage_values():
    ideal = config(lossless=True)
    assert coefficients(ideal, "sum", 1234.5)[Channel.EPS_PLUS] == 0.0
    # gamma0 = 4*gamma_e: the loss admixture 2*sqrt(g0*ge)/(g0 + ge) is 4/5.
    base = config()
    cav = model.OpticalCavity(4e4, 1e4, base.cavity.length, base.cavity.omega0)
    with pytest.warns(model.RegimeWarning, match="internal loss"):
        cfg = model.SystemConfig(base.mechanical, cav, Squeezing(),
                                 model.DriveConfig(K0=base.derived.K0),
                                 base.signal)
    leak = coefficients(cfg, "sum", 0.0)[Channel.EPS_PLUS]
    assert leak == pytest.approx(0.8, rel=1e-14)


@pytest.mark.parametrize("sign", [+1, -1])
def test_passive_unitarity(sign):
    # Lossy optical paths at kappa = 0: reflection and loss admixture share
    # the unit input power.  +1: the sum (reference) port, -1: the
    # difference port's own vacua, without the mechanical channels.
    cfg = config("two_photon", 0.0)
    w = grid(cfg)
    if sign > 0:
        c = coefficients(cfg, "sum", w)
        alpha, eps = c[Channel.ALPHA_PLUS], c[Channel.EPS_PLUS]
    else:
        c = coefficients(cfg, "difference", w)
        alpha, eps = c[Channel.ALPHA_MINUS], c[Channel.EPS_MINUS]
    assert np.max(np.abs(np.abs(alpha) ** 2 + np.abs(eps) ** 2 - 1.0)) < 1e-12


def test_degenerate_passive_unitarity():
    cfg = config("degenerate", 0.0)
    w = grid(cfg)
    c = coefficients(cfg, "sum", w)
    total = np.abs(c[Channel.ALPHA_PLUS]) ** 2 + np.abs(c[Channel.EPS_PLUS]) ** 2
    assert np.max(np.abs(total - 1.0)) < 1e-12


def test_optomechanical_gain_limits():
    # Signal-referred back action on the measured port: |c|^2 is the
    # measurement strength K0*g*(g0 - ge)/|g + kappa - i*Omega|^2.
    ideal = config(lossless=True)
    ba = coefficients(ideal, "difference", 0.0, referenced=True)[Channel.ALPHA_PLUS]
    assert abs(ba) ** 2 == pytest.approx(ideal.derived.K0, rel=1e-14)
    pumped = config("two_photon", 0.9)
    w = np.array([0.0, 0.3 * G0, 1e4 * G0])
    ba = coefficients(pumped, "difference", w, referenced=True)[Channel.ALPHA_PLUS]
    K0, kappa = pumped.derived.K0, pumped.squeeze.rate
    expected = K0 * (G0 + GE) * (G0 - GE) / np.abs(G0 + GE + kappa - 1j * w) ** 2
    assert np.abs(ba) ** 2 == pytest.approx(expected, rel=1e-13)
    assert abs(ba[-1]) ** 2 < 1e-6 * K0


def test_optomechanical_gain_pole():
    # An undamped oscillator has its mechanical pole at Omega = 0.
    cfg = config(gamma_m=0.0)
    with pytest.raises(PoleError):
        transfer.transfer_coefficients(cfg, "difference", 0.0)


def test_degenerate_response_limits():
    ideal = config("degenerate", 0.0, lossless=True)
    raw = coefficients(ideal, "difference", 0.0)
    assert raw[Channel.ALPHA_MINUS] == pytest.approx(1.0)
    ref = coefficients(ideal, "difference", 0.0, referenced=True)
    assert abs(ref[Channel.ALPHA_PLUS]) ** 2 == pytest.approx(ideal.derived.N0)
    # The damped-quadrature reflection (g0 - ge - u)/(g + u) at Omega = 0
    # decreases monotonically as the pump grows.
    mags = []
    for frac in (0.1, 0.4, 0.7, 0.95):
        cfg = config("degenerate", frac)
        zeta = coefficients(cfg, "difference", 0.0)[Channel.ALPHA_MINUS]
        u = cfg.squeeze.rate
        assert zeta == pytest.approx((G0 - GE - u) / (G0 + GE + u), rel=1e-14)
        mags.append(abs(zeta))
    assert all(a > b for a, b in zip(mags, mags[1:]))


def test_degenerate_drive_normalization():
    cfg = config("degenerate", 0.5)
    cav = cfg.cavity
    assert cfg.derived.N0 == pytest.approx(
        cfg.derived.K0 * (cav.gamma0 - cav.gamma_e) / cav.gamma, rel=1e-14)


def test_port_must_be_named():
    cfg = config()
    for port in ("subtract", "phase", math.pi / 2):
        with pytest.raises(ValueError, match="port"):
            coefficients(cfg, port, 0.1 * G0)


def test_scalar_omega_returns_scalars():
    cfg = config("degenerate", 0.5)
    w = np.array([0.1 * G0, 0.7 * G0])
    for port in transfer.PORTS:
        scalar = transfer.transfer_coefficients(cfg, port, 0.7 * G0)
        array = transfer.transfer_coefficients(cfg, port, w)
        for ch in Channel:
            assert type(scalar[ch]) is complex
            assert array[ch].shape == w.shape
            assert scalar[ch] == array[ch][1]


# --- full output vectors ---------------------------------------------------------

def test_sum_port_has_no_mechanical_content():
    cfg = config("two_photon", 0.5)
    c = coefficients(cfg, "sum", G0)
    assert c[Channel.SIGNAL] == 0
    assert c[Channel.THERMAL] == 0
    assert c[Channel.ALPHA_PLUS] != 0
    with pytest.raises(ValueError):
        coefficients(cfg, "sum", G0, referenced=True)


def test_difference_port_back_action_ideal():
    # gamma_e = 0, kappa = 0: the coefficient on the driving vacuum equals
    # -(reflection) * (pump response) / (gamma_m - i Omega), checked by
    # literal arithmetic.
    cfg = config(lossless=True)
    w = 0.3 * G0
    gm = cfg.mechanical.gamma_m
    g = cfg.cavity.gamma
    c = coefficients(cfg, "difference", w)
    xi = complex(g, w) / complex(g, -w)
    pump = cfg.derived.K0 * g * g / (g**2 - (-1j * w) ** 2)
    expected = -xi * pump / complex(gm, -w)
    assert c[Channel.ALPHA_PLUS] == pytest.approx(expected, rel=1e-12)


def test_thermal_tracks_signal():
    for kind, frac in [("two_photon", 0.5), ("degenerate", 0.5), ("none", 0.0)]:
        cfg = config(kind, frac)
        gm = cfg.mechanical.gamma_m
        for port in ("difference", "subtracted"):
            c = coefficients(cfg, port, 0.7 * G0)
            assert c[Channel.THERMAL] == pytest.approx(
                math.sqrt(2 * gm) * c[Channel.SIGNAL], rel=1e-13)


def test_signal_referencing():
    cfg = config("two_photon", 0.5)
    w = 0.2 * G0
    raw = coefficients(cfg, "difference", w)
    ref = coefficients(cfg, "difference", w, referenced=True)
    assert ref[Channel.SIGNAL] == 1.0
    sig = raw[Channel.SIGNAL]
    for ch in set(Channel) - {Channel.SIGNAL}:
        assert ref[ch] == pytest.approx(raw[ch] / sig, rel=1e-14)


def test_subtraction_complete_without_loss():
    cfg = config("two_photon", 0.5, lossless=True)
    c = coefficients(cfg, "subtracted", 0.05 * G0)
    scale = max(abs(v) for v in c.values())
    assert abs(c[Channel.ALPHA_PLUS]) <= 1e-14 * scale
    assert abs(c[Channel.EPS_PLUS]) <= 1e-14 * scale


def test_subtraction_residual_with_loss():
    cfg = config("two_photon", 0.5)
    w = 0.05 * G0
    c = coefficients(cfg, "subtracted", w)
    scale = max(abs(v) for v in c.values())
    assert abs(c[Channel.ALPHA_PLUS]) <= 1e-14 * scale
    assert abs(c[Channel.EPS_PLUS]) > 0
    # Residual: (reflection * pump)/(gamma_m - i*Omega) * sqrt(ge/g0) divided
    # by the antisqueezed reflection (literal arithmetic).
    gm = cfg.mechanical.gamma_m
    k = cfg.squeeze.rate
    xi_pump = cfg.derived.K0 * (G0 + GE) * (G0 - GE) / complex(G0 + GE + k, -w) ** 2
    xi_plus = complex(G0 - GE + k, w) / complex(G0 + GE - k, -w)
    expected = xi_pump / complex(gm, -w) * math.sqrt(GE / G0) / xi_plus
    assert c[Channel.EPS_PLUS] == pytest.approx(expected, rel=1e-12)


def test_subtraction_nulling_across_parameters():
    for kind, frac in [("two_photon", 0.3), ("two_photon", 0.9),
                       ("degenerate", 0.5), ("none", 0.0)]:
        cfg = config(kind, frac)
        w = grid(cfg, 25)
        c = coefficients(cfg, "subtracted", w)
        scale = np.max([np.abs(v) for v in c.values()])
        assert np.max(np.abs(c[Channel.ALPHA_PLUS])) <= 1e-14 * scale


def test_degenerate_residual_bracket():
    # The loss residual of the degenerate subtraction equals
    # -(1/zeta)*sqrt(ge/g0) relative to the back-action prefactor
    # -K0*g*(g0 - ge)/(g + u - i*Omega)^2/(gamma_m - i*Omega) (literal
    # arithmetic).
    cfg = config("degenerate", 0.6)
    w = 0.02 * G0
    u = cfg.squeeze.rate
    c = coefficients(cfg, "subtracted", w)
    zeta = complex(G0 - GE - u, w) / complex(G0 + GE + u, -w)
    strength = cfg.derived.K0 * (G0 + GE) * (G0 - GE) / complex(G0 + GE + u, -w) ** 2
    prefactor = -strength / complex(cfg.mechanical.gamma_m, -w)
    bracket = c[Channel.EPS_PLUS] / prefactor
    assert bracket == pytest.approx(-math.sqrt(GE / G0) / zeta, rel=1e-12)


def test_conjugate_symmetry():
    for kind, frac in [("two_photon", 0.5), ("degenerate", 0.4)]:
        cfg = config(kind, frac)
        w = np.array([0.01, 0.3, 2.0]) * G0
        for port in transfer.PORTS:
            plus = transfer.transfer_coefficients(cfg, port, w)
            minus = transfer.transfer_coefficients(cfg, port, -w)
            for ch in Channel:
                assert np.allclose(minus[ch], np.conj(plus[ch]), rtol=1e-13,
                                   atol=1e-300)


def test_channel_set_closed():
    cfg = config("two_photon", 0.5)
    c = coefficients(cfg, "difference", 0.1 * G0)
    assert set(c) == set(Channel)
