"""Channel-to-output coefficients: values, identities, symmetries."""

import itertools
import math

import mpmath
import numpy as np
import pytest

from trimova import model, oracle, spectra, transfer
from trimova.model import Squeezing
from trimova.transfer import Channel, PoleError, transfer_coefficients

G0, GE = model.reference_rates()


def config(kind="none", frac=0.0, lossless=False, gamma_m=None, K0=None):
    squeeze = Squeezing() if kind == "none" else Squeezing(kind, frac * G0)
    return model.reference_config(squeeze=squeeze, lossless=lossless,
                                  gamma_m=gamma_m, K0=K0)


def grid(cfg, n=60):
    return np.geomspace(1e-3 * cfg.cavity.gamma0, 1e3 * cfg.cavity.gamma0, n)


SUM, DIFFERENCE = 0, 1   # StateSpace outputs


def raw(cfg, output, w):
    """Unreferenced coefficient map Channel -> values of one StateSpace
    output: its noise response, then its signal response."""
    row = transfer.build_state_space(cfg).response(w)[:, output]
    return {ch: row[:, i] for i, ch in enumerate(transfer._INPUTS)}


# --- elementary coefficients ---------------------------------------------------
#
# The reference (unmeasured) sum port is a passive cavity reflection.

def test_reflection_gain_ideal_limits():
    cfg = config(lossless=True)
    at_zero = raw(cfg, SUM, 0.0)
    assert at_zero[Channel.ALPHA_PLUS] == pytest.approx(1.0)
    w = grid(cfg)
    c = raw(cfg, SUM, w)[Channel.ALPHA_PLUS]
    assert np.abs(c) == pytest.approx(np.ones_like(w), abs=1e-14)


def test_reflection_gain_direct_value():
    # Independent evaluation by literal complex arithmetic: the measured
    # (difference) port reflects its own vacuum through the squeezed pair,
    # the sum port through the antisqueezed pair.
    cfg = config("two_photon", 0.5)
    kappa, w = cfg.squeeze.rate, G0
    own = raw(cfg, DIFFERENCE, w)[Channel.ALPHA_MINUS]
    expected = complex(G0 - GE - kappa, w) / complex(G0 + GE + kappa, -w)
    assert own == pytest.approx(expected, rel=1e-14)
    ref = raw(cfg, SUM, w)[Channel.ALPHA_PLUS]
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
        raw(cfg, SUM, 0.0)


def test_loss_leakage_values():
    ideal = config(lossless=True)
    assert raw(ideal, SUM, 1234.5)[Channel.EPS_PLUS] == 0.0
    # gamma0 = 4*gamma_e: the loss admixture 2*sqrt(g0*ge)/(g0 + ge) is 4/5.
    base = config()
    cav = model.OpticalCavity(4e4, 1e4, base.cavity.length, base.cavity.omega0)
    cfg = model.SystemConfig(base.mechanical, cav, Squeezing(), base.K0,
                             base.signal)
    assert ["internal loss" in m for m in cfg.regime_findings()] == [True]
    leak = raw(cfg, SUM, 0.0)[Channel.EPS_PLUS]
    assert leak == pytest.approx(0.8, rel=1e-14)


@pytest.mark.parametrize("sign", [+1, -1])
def test_passive_unitarity(sign):
    # Lossy optical paths at kappa = 0: reflection and loss admixture share
    # the unit input power.  +1: the sum (reference) port, -1: the
    # difference port's own vacua, without the mechanical channels.
    cfg = config("two_photon", 0.0)
    w = grid(cfg)
    if sign > 0:
        c = raw(cfg, SUM, w)
        alpha, eps = c[Channel.ALPHA_PLUS], c[Channel.EPS_PLUS]
    else:
        c = raw(cfg, DIFFERENCE, w)
        alpha, eps = c[Channel.ALPHA_MINUS], c[Channel.EPS_MINUS]
    assert np.max(np.abs(np.abs(alpha) ** 2 + np.abs(eps) ** 2 - 1.0)) < 1e-12


def test_degenerate_passive_unitarity():
    cfg = config("degenerate", 0.0)
    w = grid(cfg)
    c = raw(cfg, SUM, w)
    total = np.abs(c[Channel.ALPHA_PLUS]) ** 2 + np.abs(c[Channel.EPS_PLUS]) ** 2
    assert np.max(np.abs(total - 1.0)) < 1e-12


def test_optomechanical_gain_limits():
    # Signal-referred back action on the measured port: |c|^2 is the
    # measurement strength K0*g*(g0 - ge)/|g - kappa - i*Omega|^2, the
    # response of the antisqueezed sum pair that drives the mechanics.
    ideal = config(lossless=True)
    ba = transfer_coefficients(ideal, "difference", 0.0)[Channel.ALPHA_PLUS]
    assert abs(ba) ** 2 == pytest.approx(ideal.K0, rel=1e-14)
    pumped = config("two_photon", 0.9)
    w = np.array([0.0, 0.3 * G0, 1e4 * G0])
    ba = transfer_coefficients(pumped, "difference", w)[Channel.ALPHA_PLUS]
    K0, kappa = pumped.K0, pumped.squeeze.rate
    expected = K0 * (G0 + GE) * (G0 - GE) / np.abs(G0 + GE - kappa - 1j * w) ** 2
    assert np.abs(ba) ** 2 == pytest.approx(expected, rel=1e-13)
    assert abs(ba[-1]) ** 2 < 1e-6 * K0


def test_optomechanical_gain_pole():
    # An undamped oscillator has its mechanical pole at Omega = 0.
    cfg = config(gamma_m=0.0)
    with pytest.raises(PoleError):
        transfer_coefficients(cfg, "difference", 0.0)


def test_degenerate_response_limits():
    ideal = config("degenerate", 0.0, lossless=True)
    own = raw(ideal, DIFFERENCE, 0.0)
    assert own[Channel.ALPHA_MINUS] == pytest.approx(1.0)
    ref = transfer_coefficients(ideal, "difference", 0.0)
    cav = ideal.cavity
    n0 = ideal.K0 * (cav.gamma0 - cav.gamma_e) / cav.gamma
    assert abs(ref[Channel.ALPHA_PLUS]) ** 2 == pytest.approx(n0)
    # The damped-quadrature reflection (g0 - ge - u)/(g + u) at Omega = 0
    # decreases monotonically as the pump grows.
    mags = []
    for frac in (0.1, 0.4, 0.7, 0.95):
        cfg = config("degenerate", frac)
        zeta = raw(cfg, DIFFERENCE, 0.0)[Channel.ALPHA_MINUS]
        u = cfg.squeeze.rate
        assert zeta == pytest.approx((G0 - GE - u) / (G0 + GE + u), rel=1e-14)
        mags.append(abs(zeta))
    assert all(a > b for a, b in zip(mags, mags[1:]))


def test_degenerate_drive_normalization():
    # k0_for_n0, which sets the drive of fig7-fig9 and of --n0, inverts the
    # degenerate normalization N0 = K0*(g0 - ge)/g.
    for lossless in (False, True):
        cav = config("degenerate", 0.5, lossless=lossless).cavity
        for n0 in (1.0, math.pi / 28e-6, 1e6):
            K0 = model.k0_for_n0(n0, cav.gamma0, cav.gamma_e)
            assert K0 * (cav.gamma0 - cav.gamma_e) / cav.gamma \
                == pytest.approx(n0, rel=1e-14)


def test_port_must_be_named():
    cfg = config()
    ss = transfer.build_state_space(cfg)
    for port in ("sum", "subtract", "phase", math.pi / 2):
        with pytest.raises(ValueError, match="port"):
            transfer_coefficients(cfg, port, 0.1 * G0)
        with pytest.raises(ValueError, match="unknown port"):
            ss.port_response(0.1 * G0, port)


# --- full output vectors ---------------------------------------------------------

def test_sum_port_has_no_mechanical_content():
    cfg = config("two_photon", 0.5)
    c = raw(cfg, SUM, G0)
    assert c[Channel.SIGNAL] == 0
    assert c[Channel.THERMAL] == 0
    assert c[Channel.ALPHA_PLUS] != 0


def test_difference_port_back_action_ideal():
    # gamma_e = 0, kappa = 0: the coefficient on the driving vacuum equals
    # -(reflection) * (pump response) / (gamma_m - i Omega), checked by
    # literal arithmetic.
    cfg = config(lossless=True)
    w = 0.3 * G0
    gm = cfg.mechanical.gamma_m
    g = cfg.cavity.gamma
    c = raw(cfg, DIFFERENCE, w)
    xi = complex(g, w) / complex(g, -w)
    pump = cfg.K0 * g * g / (g**2 - (-1j * w) ** 2)
    expected = -xi * pump / complex(gm, -w)
    assert c[Channel.ALPHA_PLUS] == pytest.approx(expected, rel=1e-12)


def test_thermal_tracks_signal():
    for kind, frac in [("two_photon", 0.5), ("degenerate", 0.5), ("none", 0.0)]:
        cfg = config(kind, frac)
        gm = cfg.mechanical.gamma_m
        for port in ("difference", "subtracted"):
            c = transfer_coefficients(cfg, port, 0.7 * G0)
            assert c[Channel.THERMAL] == pytest.approx(
                math.sqrt(2 * gm) * c[Channel.SIGNAL], rel=1e-13)


def test_signal_referencing():
    cfg = config("two_photon", 0.5)
    w = 0.2 * G0
    own = raw(cfg, DIFFERENCE, w)
    ref = transfer_coefficients(cfg, "difference", w)
    assert ref[Channel.SIGNAL] == 1.0
    sig = own[Channel.SIGNAL]
    for ch in set(Channel) - {Channel.SIGNAL}:
        assert ref[ch] == pytest.approx(own[ch] / sig, rel=1e-14)


def test_subtraction_complete_without_loss():
    cfg = config("two_photon", 0.5, lossless=True)
    c = transfer_coefficients(cfg, "subtracted", 0.05 * G0)
    scale = max(abs(v) for v in c.values())
    assert abs(c[Channel.ALPHA_PLUS]) <= 1e-14 * scale
    assert abs(c[Channel.EPS_PLUS]) <= 1e-14 * scale


def test_subtraction_residual_with_loss():
    cfg = config("two_photon", 0.5)
    w = 0.05 * G0
    c = transfer_coefficients(cfg, "subtracted", w)
    scale = max(abs(v) for v in c.values())
    assert abs(c[Channel.ALPHA_PLUS]) <= 1e-14 * scale
    assert abs(c[Channel.EPS_PLUS]) > 0
    # Residual: the back action, through the antisqueezed sum pair, the
    # mechanics and the squeezed difference pair, times sqrt(ge/g0) divided
    # by the antisqueezed reflection (literal arithmetic), before signal
    # referencing.
    sig = raw(cfg, DIFFERENCE, w)[Channel.SIGNAL]
    unreferenced = c[Channel.EPS_PLUS] * sig
    gm = cfg.mechanical.gamma_m
    k = cfg.squeeze.rate
    xi_pump = cfg.K0 * (G0 + GE) * (G0 - GE) \
        / (complex(G0 + GE + k, -w) * complex(G0 + GE - k, -w))
    xi_plus = complex(G0 - GE + k, w) / complex(G0 + GE - k, -w)
    expected = xi_pump / complex(gm, -w) * math.sqrt(GE / G0) / xi_plus
    assert unreferenced == pytest.approx(expected, rel=1e-12)


def test_subtraction_nulling_across_parameters():
    for kind, frac in [("two_photon", 0.3), ("two_photon", 0.9),
                       ("degenerate", 0.5), ("none", 0.0)]:
        cfg = config(kind, frac)
        w = grid(cfg, 25)
        c = transfer_coefficients(cfg, "subtracted", w)
        scale = np.max([np.abs(v) for v in c.values()])
        assert np.max(np.abs(c[Channel.ALPHA_PLUS])) <= 1e-14 * scale


def test_degenerate_residual_bracket():
    # The loss residual of the degenerate subtraction equals
    # -(1/zeta)*sqrt(ge/g0) relative to the back-action prefactor
    # -K0*g*(g0 - ge)/(g + u - i*Omega)^2/(gamma_m - i*Omega) (literal
    # arithmetic), before signal referencing.
    cfg = config("degenerate", 0.6)
    w = 0.02 * G0
    u = cfg.squeeze.rate
    c = transfer_coefficients(cfg, "subtracted", w)
    zeta = complex(G0 - GE - u, w) / complex(G0 + GE + u, -w)
    strength = cfg.K0 * (G0 + GE) * (G0 - GE) / complex(G0 + GE + u, -w) ** 2
    prefactor = -strength / complex(cfg.mechanical.gamma_m, -w)
    bracket = c[Channel.EPS_PLUS] * raw(cfg, DIFFERENCE, w)[Channel.SIGNAL] \
        / prefactor
    assert bracket == pytest.approx(-math.sqrt(GE / G0) / zeta, rel=1e-12)


def mp_subtracted_loss_residual(ss, omega):
    """The subtracted port's eps+ coefficient of ``ss``, signal-referred,
    at each omega, from the model's own matrices in 50-digit arithmetic:
    h = C (s I - A)^-1 B + D at s = -i*Omega, weight -h_diff,alpha+ /
    h_sum,alpha+, then (h_diff + weight*h_sum) of eps+ over that of the
    signal."""
    with mpmath.workdps(50):
        A, B, C, D, e = (mpmath.matrix(m.tolist()) for m in (
            ss.drift, ss.noise_gain, ss.output_gain, ss.feedthrough,
            ss.signal_gain))
        out = []
        for w in omega:
            inv = mpmath.inverse(-1j * mpmath.mpf(float(w)) * mpmath.eye(3)
                                 - A)
            h, sig = C * inv * B + D, C * inv * e
            weight = -h[1, 0] / h[0, 0]
            out.append(complex((h[1, 2] + weight * h[0, 2])
                               / (sig[1] + weight * sig[0])))
    return np.array(out)


@pytest.mark.parametrize("figure_id, bound", [("fig5", 2e-15),
                                              ("fig6", 2e-15),
                                              ("fig8", 1e-14)])
def test_subtracted_loss_residual_matches_high_precision(figure_id, bound):
    # At kappa = 0.9 gamma0 the difference and the weighted sum terms of the
    # two-photon eps+ residual are about 20 times larger than the residual;
    # formed from the weight and the gain ratio it keeps full precision:
    # within 2e-15 of a 50-digit evaluation of the same model (7e-16
    # measured).  Degenerate (fig8) no terms cancel, and the error is the
    # nulling weight's own: 4.3e-15 on the weight, 4.4e-15 here.
    cfg = spectra.figure_config(figure_id, 0.9)
    w = spectra.default_grid(cfg, points=100)
    want = mp_subtracted_loss_residual(transfer.build_state_space(cfg), w)
    got = transfer_coefficients(cfg, "subtracted", w)[Channel.EPS_PLUS]
    assert np.max(np.abs(got / want - 1.0)) <= bound


@pytest.mark.parametrize("kind, lossless, gamma_m", itertools.product(
    ["none", "degenerate", "two_photon"], [False, True], [None, 0.0]))
def test_subtracted_loss_residual_structure(kind, lossless, gamma_m):
    # The subtracted eps+ residual is alpha+'s reflection times the weight
    # and the gain ratio, exact while alpha+ and eps+ drive only the
    # sum-pair state, the difference port reflects no alpha+ and no port
    # reflects eps+.  The sum pair is fed by no other state or channel and
    # the sum port reads nothing else, so the sum port responds to alpha+
    # and eps+ only: the subtracted port differs from the difference port
    # in those two coefficients alone.
    cfg = config(kind, 0.9, lossless, gamma_m)
    ss = transfer.build_state_space(cfg)
    assert not ss.noise_gain[1:, [0, 2]].any()
    assert ss.feedthrough[1, 0] == 0.0
    assert not ss.feedthrough[:, 2].any()
    assert not ss.drift[0, 1:].any()
    assert not ss.noise_gain[0, [1, 3, 4]].any()
    assert ss.signal_gain[0] == 0.0
    assert not ss.output_gain[0, 1:].any()
    assert not ss.feedthrough[0, 1:].any()
    sub, diff = (transfer_coefficients(cfg, port, grid(cfg))
                 for port in ("subtracted", "difference"))
    for ch in set(Channel) - {Channel.ALPHA_PLUS, Channel.EPS_PLUS}:
        assert np.array_equal(sub[ch], diff[ch])


@pytest.mark.parametrize("figure_id", ["fig5", "fig6"])
def test_subtracted_port_sum_matches_assembled_spectrum(figure_id):
    # The oracle's nominal reference is the signal-referred channel sum of
    # port_response's subtracted row, whose columns are formed without
    # cancellation: within 5e-15 of the assembled spectrum (1.7e-15
    # measured) and of the independent closed form (2.0e-15) at kappa = 0.9
    # gamma0.  The direct sum h_diff + w*h_sum misses both by 2.8e-14 there.
    cfg = spectra.figure_config(figure_id, 0.9)
    w = spectra.default_grid(cfg, points=2000)
    ss = transfer.build_state_space(cfg)
    row, weight = ss.port_response(w, "subtracted")
    assert np.array_equal(weight, ss.nulling_weight(w))
    got = transfer.port_psd(row, ss.channel_psd) / np.abs(row[:, -1]) ** 2
    for want in (spectra.spectrum_series(cfg, "nondeg-sub", w).values,
                 spectra.closed_form_psd("nondeg-sub", cfg, w)):
        assert np.max(np.abs(got / want - 1.0)) <= 5e-15


def test_conjugate_symmetry():
    for kind, frac in [("two_photon", 0.5), ("degenerate", 0.4)]:
        cfg = config(kind, frac)
        w = np.array([0.01, 0.3, 2.0]) * G0
        maps = [(transfer_coefficients(cfg, port, w),
                 transfer_coefficients(cfg, port, -w))
                for port in transfer.PORTS]
        maps += [(raw(cfg, out, w), raw(cfg, out, -w))
                 for out in (SUM, DIFFERENCE)]
        for plus, minus in maps:
            for ch in Channel:
                assert np.allclose(minus[ch], np.conj(plus[ch]), rtol=1e-13,
                                   atol=1e-300)


def test_channel_set_closed():
    cfg = config("two_photon", 0.5)
    c = transfer_coefficients(cfg, "difference", 0.1 * G0)
    assert set(c) == set(Channel)


# --- the cascade resolvent ---------------------------------------------------------

def case_matrix():
    """(drift, signal-including gains, sampled propagator, its noise factor,
    step) over 6 cases x lossy/lossless x rate {0, 0.5, 0.9} gamma0 x
    gamma_m {from Q, 0}, the sampled form at validate's default step."""
    for (case, (kind, _)), lossless, frac, gamma_m in itertools.product(
            spectra.CASES.items(), (False, True), (0.0, 0.5, 0.9),
            (None, 0.0)):
        if kind == "none" and frac > 0.0:
            continue
        cfg = config(kind, frac, lossless=lossless, gamma_m=gamma_m)
        ss = transfer.build_state_space(cfg)
        dt = oracle._band_step(10.0 * G0, ss)
        phi_xx, _, factor = oracle._discretize(ss, dt)
        gains = np.column_stack([ss.noise_gain, ss.signal_gain])
        yield ss.drift, gains, phi_xx, factor[:3], dt


def test_resolvent_matches_dense_solve():
    # Forward substitution along the cascade against LAPACK's dense solve,
    # relative to the largest state of each column and frequency, for the
    # continuous form s = -i*Omega and the sampled form s = exp(i*Omega*dt).
    worst = 0.0
    for drift, gains, phi_xx, noise, dt in case_matrix():
        for m, s, rhs in (
                (drift, -1j * np.geomspace(1e-6 * G0, 1e3 * G0, 200), gains),
                (phi_xx, np.exp(1j * dt * np.geomspace(
                    1e-6 * G0, math.pi / dt, 200)), noise)):
            got = transfer.resolvent(m, s, rhs)
            want = np.linalg.solve(
                s[:, None, None] * np.eye(3) - m,
                np.broadcast_to(rhs, s.shape + rhs.shape)).transpose(1, 2, 0)
            # A column of zero gains (a lossless or undamped channel) stays 0.
            scale = np.max(np.abs(want), axis=0)
            err = np.max(np.abs(got - want), axis=0)
            assert np.all(err[scale == 0.0] == 0.0)
            worst = max(worst, np.max(err[scale > 0.0] / scale[scale > 0.0]))
    assert worst <= 1e-13


def test_resolvent_poles_are_the_eigenvalues():
    # The guard fires where an eigenvalue-based guard, |s - lambda| <= 1e-14
    # max|m| for an eigenvalue lambda of m, fires: at, just inside and just
    # outside that distance from each eigenvalue.
    for drift, gains, phi_xx, noise, _ in case_matrix():
        for m, rhs in ((drift, gains), (phi_xx, noise)):
            tol = 1e-14 * np.max(np.abs(m))
            eig = np.linalg.eigvals(m)
            for lam, offset in itertools.product(eig, (0.0, 0.5, 2.0)):
                s = np.array([lam + offset * tol])
                if np.any(np.abs(s - eig) <= tol):
                    with pytest.raises(PoleError):
                        transfer.resolvent(m, s, rhs)
                else:
                    assert np.all(np.isfinite(transfer.resolvent(m, s, rhs)))


def test_resolvent_refuses_coupling_against_the_cascade():
    # An entry feeding a state upstream of it (the measured pair into the
    # driving pair, the mechanics into the sum pair) is refused, above 1e-12
    # of the largest entry; a forward substitution would drop it silently.
    drift = transfer.build_state_space(config("two_photon", 0.5)).drift
    s = -1j * np.array([0.1, 1.0]) * G0
    for entry in ((0, 1), (0, 2), (2, 1)):
        bad = drift.copy()
        bad[entry] = 1e-11 * np.max(np.abs(drift))
        with pytest.raises(ValueError, match="cascade order"):
            transfer.resolvent(bad, s, np.eye(3))
        bad[entry] = 1e-13 * np.max(np.abs(drift))
        transfer.resolvent(bad, s, np.eye(3))
