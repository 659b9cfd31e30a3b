"""Time-domain integrator: calibration, statistics, cross-validation."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from trimova import model, oracle, spectra, transfer
from trimova.model import RegimeWarning, Squeezing
from trimova.oracle import (SimulationError, build_state_space, estimate_psd,
                            simulate, validate)
from trimova.transfer import AMPLITUDE, PHASE, Channel, MeasurementCase

G0, GE = model.reference_rates()


def config(kind="none", frac=0.0, lossless=False, gamma_m=None, K0=None):
    squeeze = Squeezing() if kind == "none" else Squeezing(kind, frac * G0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        return model.reference_config(squeeze=squeeze, lossless=lossless,
                                      gamma_m=gamma_m, K0=K0)


# --- state space ------------------------------------------------------------------

def test_state_space_matches_analytic_coefficients():
    cfg = config("two_photon", 0.5)
    ss = build_state_space(cfg)
    w = np.geomspace(1e-3 * G0, 10 * G0, 15)
    h = ss.frequency_response(w)
    assert np.allclose(h[:, 0, 0],
                       transfer.reflection_gain(cfg.cavity, cfg.squeeze.rate, w, +1),
                       rtol=1e-12)
    assert np.allclose(h[:, 0, 2],
                       transfer.loss_leakage(cfg.cavity, cfg.squeeze.rate, w, +1),
                       rtol=1e-12)
    assert np.allclose(h[:, 1, 1],
                       transfer.reflection_gain(cfg.cavity, cfg.squeeze.rate, w, -1),
                       rtol=1e-12)
    sig = transfer.transfer_coefficients(
        cfg, MeasurementCase(AMPLITUDE, "difference"), w)[Channel.SIGNAL]
    assert np.allclose(ss.signal_response(w)[:, 1], sig, rtol=1e-12)


def test_state_space_rejects_unstable_pump():
    cfg = config("two_photon", 0.5)
    with pytest.raises(SimulationError):
        build_state_space(cfg, squeeze_rate=1.2 * cfg.cavity.gamma)


def test_degenerate_state_space_psd_matches_closed_form():
    cfg = config("degenerate", 0.5)
    ss = build_state_space(cfg)
    w = np.geomspace(1e-2 * G0, 10 * G0, 25)
    sig2 = np.abs(transfer.transfer_coefficients(
        cfg, MeasurementCase(AMPLITUDE, "difference"), w)[Channel.SIGNAL]) ** 2
    referred = ss.output_psd(w) / sig2
    closed = spectra.closed_form_psd("deg-raw", cfg, w)
    assert np.allclose(referred, closed, rtol=1e-12)


def test_steady_state_variance_matches_lyapunov():
    # Fast-relaxing oscillator so the stationary state is reachable.
    cfg = config(gamma_m=G0 / 20.0)
    ss = build_state_space(cfg)
    expected = ss.steady_covariance()
    sim = simulate(cfg, segments=48, samples=6000, seed=21, keep_states=True)
    tail = sim.states[:, 1000:, :]
    per_segment = np.einsum("snj,snk->sjk", tail, tail) / tail.shape[1]
    mean = per_segment.mean(axis=0)
    err = per_segment.std(axis=0) / math.sqrt(tail.shape[0])
    for i in range(3):
        assert abs(mean[i, i] - expected[i, i]) < 3.5 * err[i, i]


# --- calibration -----------------------------------------------------------------

def test_estimator_white_noise_calibration():
    # Unit single-sided PSD white noise: samples of variance 1/(2 dt).
    rng = np.random.default_rng(3)
    dt = 1e-4
    series = rng.standard_normal(160 * 4096) / math.sqrt(2 * dt)
    est = estimate_psd(series, dt, segment_length=4096, seed=3)
    band = est.psd[3:-3]
    mean = band.mean()
    assert abs(mean - 1.0) < 3.5 * band.std() / math.sqrt(band.size / 1.5)


def test_estimator_requires_segments():
    with pytest.raises(SimulationError):
        estimate_psd(np.zeros(16 * 100), 1e-4, segment_length=100)


def test_empty_cavity_passthrough():
    cfg = config(lossless=True)
    sim = simulate(cfg, segments=64, samples=4096, seed=11, coupling=0.0)
    for port in (0, 1):
        est = estimate_psd(sim.outputs[:, :, port], sim.dt, seed=11)
        band = est.psd[4:-4]
        mean = band.mean()
        assert abs(mean - 1.0) < 0.02
        within = np.abs(est.psd[4:-4] - 1.0) <= 3 * est.stderr[4:-4]
        assert within.mean() > 0.95


def test_lorentzian_half_power_point():
    # The intracavity quadrature of an empty cavity is a single-pole filter
    # of white noise with zero-frequency density 2/gamma0; the estimate must
    # place the half-power point at the pole.
    cfg = config(lossless=True)
    sim = simulate(cfg, segments=96, samples=8192, seed=13, coupling=0.0,
                   keep_states=True)
    est = estimate_psd(sim.states[:, :, 0], sim.dt, seed=13)
    centers, (smoothed,), _ = oracle.log_binned(
        est.grid[1:], [est.psd[1:]], 0.05 * G0, 5 * G0, per_decade=12)
    half = (2.0 / G0) / 2.0
    crossing = centers[np.argmin(np.abs(smoothed - half))]
    assert crossing == pytest.approx(G0, rel=0.12)
    band = (centers > 0.4 * G0) & (centers < 2.5 * G0)
    analytic = 2 * G0 / (G0**2 + centers[band] ** 2)
    assert np.abs(smoothed[band] / analytic - 1.0).mean() < 0.05


def test_segment_doubling_halves_variance():
    cfg = config(lossless=True)
    sims = {n: simulate(cfg, segments=n, samples=2048, seed=17, coupling=0.0)
            for n in (64, 128)}
    errs = {n: estimate_psd(s.outputs[:, :, 1], s.dt).stderr[5:900].mean()
            for n, s in sims.items()}
    ratio = errs[64] ** 2 / errs[128] ** 2
    assert abs(ratio - 2.0) < 0.4


def test_linearity_in_noise_amplitude():
    cfg = config("two_photon", 0.3)
    base = simulate(cfg, segments=2, samples=1024, seed=5)
    scaled = simulate(cfg, segments=2, samples=1024, seed=5,
                      channel_scale=2.0 * np.ones(5))
    assert np.allclose(scaled.outputs, 2.0 * base.outputs, rtol=1e-12)


def test_back_action_signature():
    # Only the driving-pair channels on: the measured port shows pure back
    # action; with them off as well the output vanishes identically.
    cfg = config("two_photon", 0.3)
    drive_only = simulate(cfg, segments=48, samples=16384, seed=19,
                          channel_scale=np.array([1.0, 0, 1.0, 0, 0]))
    est = estimate_psd(drive_only.outputs[:, :, 1], drive_only.dt)
    w = est.grid
    sel = (w > 5e-2 * G0) & (w < 0.5 * G0)
    ss = build_state_space(cfg)
    h = ss.frequency_response(w[sel])
    predicted = (np.abs(h[:, 1, 0]) ** 2 + np.abs(h[:, 1, 2]) ** 2).real
    ratio = est.psd[sel] / predicted
    assert abs(ratio.mean() - 1.0) < 0.1
    silent = simulate(cfg, segments=2, samples=4096, seed=19,
                      channel_scale=np.zeros(5))
    assert np.all(silent.outputs == 0.0)


def test_euler_cross_check():
    cfg = config("two_photon", 0.3)
    dt = 0.002 / oracle.max_rate(build_state_space(cfg))
    exact = simulate(cfg, segments=48, samples=8192, seed=23, dt=dt)
    euler = simulate(cfg, segments=48, samples=8192, seed=123, dt=dt,
                     method="euler")
    pe = estimate_psd(exact.outputs[:, :, 1], dt).psd
    pu = estimate_psd(euler.outputs[:, :, 1], dt).psd
    sel = slice(8, 2000)
    assert abs(pu[sel].mean() / pe[sel].mean() - 1.0) < 0.05


def test_dt_precondition():
    cfg = config("two_photon", 0.5)
    with pytest.raises(SimulationError, match="too coarse"):
        simulate(cfg, segments=1, samples=256,
                 dt=1.0 / oracle.max_rate(build_state_space(cfg)))


def test_duration_precondition():
    cfg = config()
    with pytest.raises(SimulationError, match="correlation times"):
        simulate(cfg, segments=1, samples=16, burn_in=0)


def test_reproducible_and_batch_invariant():
    cfg = config("degenerate", 0.4)
    a = simulate(cfg, segments=3, samples=2048, seed=31)
    b = simulate(cfg, segments=3, samples=2048, seed=31)
    assert np.array_equal(a.outputs, b.outputs)
    first = simulate(cfg, segments=1, samples=2048, seed=31, segment_offset=0)
    third = simulate(cfg, segments=1, samples=2048, seed=31, segment_offset=2)
    assert np.array_equal(a.outputs[0], first.outputs[0])
    assert np.array_equal(a.outputs[2], third.outputs[0])
    other = simulate(cfg, segments=3, samples=2048, seed=32)
    assert not np.array_equal(a.outputs, other.outputs)


def test_deterministic_pulse_matches_transfer():
    # Noises off, rectangular resonant pulse on: the simulated output equals
    # the convolution of the pulse with the analytic signal transfer.
    cfg = config("two_photon", 0.3, gamma_m=G0 / 30.0)
    ss = build_state_space(cfg)
    dt = 0.01 / oracle.max_rate(ss)
    samples = 1 << 15
    t0, width, amp = 200 * dt, 3e-5, 2.0

    def pulse(t):
        return amp if t0 <= t < t0 + width else 0.0

    sim = simulate(cfg, segments=1, samples=samples, dt=dt, seed=0,
                   channel_scale=np.zeros(5), signal=pulse, burn_in=0)
    y = sim.outputs[0, :, 1]

    times = (np.arange(samples) + 0.5) * dt
    f_vals = np.array([pulse(t) for t in times])
    w = 2 * math.pi * np.fft.rfftfreq(samples, dt)
    sig = transfer.transfer_coefficients(
        cfg, MeasurementCase(AMPLITUDE, "difference"), w)[Channel.SIGNAL]
    # rFFT bins carry exp(+i w t): apply the conjugate response.
    predicted = np.fft.irfft(np.conj(sig) * np.fft.rfft(f_vals), samples)
    scale = np.max(np.abs(predicted))
    assert np.max(np.abs(y - predicted)) < 0.01 * scale


# --- cascade recursion against the per-step loop -----------------------------------

def loop_simulate(cfg, family, *, segments, samples, dt, burn_in, seed=0,
                  segment_offset=0, channel_scale=None, signal=None,
                  method="exact"):
    """Reference integrator: the full 3x3 update applied one step at a time."""
    ss = build_state_space(cfg, family)
    phi_xx, phi_zx, m_sig, factor = oracle._step_model(ss, dt, method,
                                                       channel_scale)
    sqrt_2g0 = math.sqrt(2.0 * cfg.cavity.gamma0)
    total = burn_in + samples
    out = np.empty((segments, samples, 2))
    states = np.empty((segments, samples, 3))
    times = (np.arange(total) + 0.5) * dt
    f_vals = np.asarray([signal(t) for t in times]) if signal is not None else None
    all_gens = [oracle._segment_generators(seed, segment_offset + s, 7)
                for s in range(segments)]
    x = np.zeros((3, segments))
    chunk = max(1, (8 << 20) // (16 * segments))
    z = np.empty((7, segments, chunk))
    for start in range(0, total, chunk):
        size = min(chunk, total - start)
        for s, gens in enumerate(all_gens):
            for comp, gen in enumerate(gens):
                z[comp, s, :size] = gen.standard_normal(size)
        noise = np.einsum("ij,jsk->isk", factor, z[:, :, :size])
        for k in range(size):
            idx = start + k
            zeta = phi_zx @ x + noise[3:5, :, k]
            x_next = phi_xx @ x + noise[:3, :, k]
            if f_vals is not None:
                f = f_vals[idx]
                zeta = zeta + m_sig[3:5, None] * f
                x_next = x_next + m_sig[:3, None] * f
            if idx >= burn_in:
                j = idx - burn_in
                out[:, j, 0] = (-noise[5, :, k] + sqrt_2g0 * zeta[0]) / dt
                out[:, j, 1] = (-noise[6, :, k] + sqrt_2g0 * zeta[1]) / dt
                states[:, j, :] = x.T
            x = x_next
    return out, states


def assert_matches_loop(cfg, family, **options):
    # 250 segments make the time chunk 2097 steps; 37 + 2393 steps end in a
    # partial second chunk, and neither chunk is a whole number of blocks.
    ss = build_state_space(cfg, family)
    dt = oracle.DT_SAFETY / oracle.max_rate(ss)
    shape = dict(segments=250, samples=2393, dt=dt, burn_in=37, seed=7)
    sim = simulate(cfg, family, keep_states=True, **shape, **options)
    out, states = loop_simulate(cfg, family, **shape, **options)
    for got, want in ((sim.outputs, out), (sim.states, states)):
        scale = np.max(np.abs(want), axis=(0, 1))
        assert scale.max() > 0
        err = np.max(np.abs(got - want), axis=(0, 1))
        assert np.all(err <= 1e-12 * scale), err / scale


@pytest.mark.parametrize("family", [AMPLITUDE, PHASE])
@pytest.mark.parametrize("kind", ["none", "two_photon", "degenerate"])
def test_cascade_matches_step_loop(kind, family):
    assert_matches_loop(config(kind, 0.5), family)


def test_cascade_matches_step_loop_damped_mechanics():
    # gamma_m > 0: the mechanical factor is below 1, and the Van Loan
    # propagator carries rounding where the cascade order has zeros.
    assert_matches_loop(config("two_photon", 0.5, gamma_m=G0 / 20.0), AMPLITUDE)


@pytest.mark.parametrize("options", [
    {"signal": lambda t: math.sin(0.3 * G0 * t), "channel_scale": np.zeros(5)},
    {"signal": lambda t: 1e3 * math.cos(2.0 * G0 * t)},
    {"channel_scale": np.array([1.0, 0.0, 2.0, 0.5, 3.0])},
    {"segment_offset": 5},
    {"method": "euler"},
], ids=["signal-only", "signal-and-noise", "channel-scale", "offset", "euler"])
def test_cascade_matches_step_loop_options(options):
    assert_matches_loop(config("two_photon", 0.3), PHASE, **options)


@pytest.mark.parametrize("a", [0.97, 1.0, -0.5])
@pytest.mark.parametrize("n", [1, oracle._SCAN_BLOCK - 1, oracle._SCAN_BLOCK,
                               oracle._SCAN_BLOCK + 1, 3 * oracle._SCAN_BLOCK + 5])
def test_scan_matches_recurrence(n, a):
    rng = np.random.default_rng(n)
    u = rng.standard_normal((4, n))
    x0 = 10.0 * rng.standard_normal(4)
    expected = np.empty((4, n + 1))
    expected[:, 0] = x0
    for k in range(n):
        expected[:, k + 1] = a * expected[:, k] + u[:, k]
    got = oracle._scan(a, u, x0)
    assert got.shape == expected.shape
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_cascade_rejects_upstream_coupling(monkeypatch):
    # A measured-pair term in the driving-pair equation breaks the cascade.
    cfg = config("two_photon", 0.5)
    ss = build_state_space(cfg)
    drift = ss.drift.copy()
    drift[1 - ss.measured_port, ss.measured_port] = 0.01 * G0
    monkeypatch.setattr(oracle, "build_state_space",
                        lambda *a, **k: dataclasses.replace(ss, drift=drift))
    with pytest.raises(SimulationError, match="cascade order"):
        simulate(cfg, segments=2, samples=4096, seed=1)


# --- validation harness ------------------------------------------------------------

def test_validate_baseline_quick():
    cfg = config()
    report = validate(cfg, "baseline", segments=48, seed=4, omega_lo=3e-2 * G0)
    assert report.passed
    assert report.pass_fraction > 0.95
    doc = report.to_json_dict()
    assert doc["case"] == "baseline" and len(doc["estimate"]) == len(doc["grid"])


def test_validate_negative_control_quick():
    cfg = config("degenerate", 0.5)
    report = validate(cfg, "deg-raw", segments=48, seed=4, perturb=0.2,
                      omega_lo=3e-2 * G0)
    assert not report.passed
    # the simulation still matches its own dynamics
    mid = slice(report.grid.size // 3, 2 * report.grid.size // 3)
    agree = np.abs(report.estimate[mid] / report.state_space_psd[mid] - 1.0)
    assert np.median(agree) < 0.1


def test_validate_rejects_few_segments():
    with pytest.raises(SimulationError):
        validate(config(), "baseline", segments=8)
