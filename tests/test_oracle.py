"""Time-domain integrator: calibration, statistics, cross-validation."""

import dataclasses
import itertools
import math
import sys
import threading
import warnings

import numpy as np
import pytest
import scipy.linalg

from trimova import model, oracle, spectra, transfer
from trimova.model import RegimeWarning, Squeezing
from trimova.oracle import (SimulationError, build_state_space, estimate_psd,
                            simulate, validate)
from trimova.transfer import Channel

G0, GE = model.reference_rates()


def config(kind="none", frac=0.0, lossless=False, gamma_m=None, K0=None):
    squeeze = Squeezing() if kind == "none" else Squeezing(kind, frac * G0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        return model.reference_config(squeeze=squeeze, lossless=lossless,
                                      gamma_m=gamma_m, K0=K0)


def scaled(ss, scale):
    """The model with the amplitude of noise channel c times scale[c]."""
    return dataclasses.replace(
        ss, channel_psd=ss.channel_psd * np.asarray(scale, dtype=float) ** 2)


def empty_cavity(cfg):
    """The model of ``cfg`` with the optomechanical coupling removed."""
    ss = build_state_space(cfg)
    drift = ss.drift.copy()
    drift[1, 2] = drift[2, 0] = 0.0
    return dataclasses.replace(ss, drift=drift)


# --- state space ------------------------------------------------------------------

def test_state_space_matches_analytic_coefficients():
    cfg = config("two_photon", 0.5)
    ss = build_state_space(cfg)
    w = np.geomspace(1e-3 * G0, 10 * G0, 15)
    h = ss.frequency_response(w)
    k = cfg.squeeze.rate
    # Reflection of the antisqueezed (sum) and squeezed (difference) pairs,
    # and the loss admixture of the sum pair, by literal arithmetic.
    reflect_plus = (G0 - GE + k + 1j * w) / (G0 + GE - k - 1j * w)
    leak_plus = 2 * math.sqrt(G0 * GE) / (G0 + GE - k - 1j * w)
    reflect_minus = (G0 - GE - k + 1j * w) / (G0 + GE + k - 1j * w)
    assert np.allclose(h[:, 0, 0], reflect_plus, rtol=1e-12)
    assert np.allclose(h[:, 0, 2], leak_plus, rtol=1e-12)
    assert np.allclose(h[:, 1, 1], reflect_minus, rtol=1e-12)
    sig = transfer.transfer_coefficients(cfg, "difference", w)[Channel.SIGNAL]
    assert np.allclose(ss.signal_response(w)[:, 1], sig, rtol=1e-12)


def test_state_space_rejects_unstable_pump():
    cfg = config("two_photon", 0.5)
    with pytest.raises(SimulationError):
        build_state_space(cfg, squeeze_rate=1.2 * cfg.cavity.gamma)


def test_degenerate_state_space_psd_matches_closed_form():
    cfg = config("degenerate", 0.5)
    ss = build_state_space(cfg)
    w = np.geomspace(1e-2 * G0, 10 * G0, 25)
    sig2 = np.abs(transfer.transfer_coefficients(cfg, "difference", w)
                  [Channel.SIGNAL]) ** 2
    referred = ss.output_psd(w) / sig2
    closed = spectra.closed_form_psd("deg-raw", cfg, w)
    assert np.allclose(referred, closed, rtol=1e-12)


def test_steady_state_variance_matches_lyapunov():
    # Fast-relaxing oscillator so the stationary state is reachable.
    cfg = config(gamma_m=G0 / 20.0)
    ss = build_state_space(cfg)
    expected = scipy.linalg.solve_continuous_lyapunov(
        ss.drift,
        -ss.noise_gain @ np.diag(ss.channel_psd / 2) @ ss.noise_gain.T)
    sim = simulate(ss, segments=48, samples=6000, seed=21, keep_states=True)
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
    rows = rng.standard_normal((160, 4096)) / math.sqrt(2 * dt)
    _, psd, _ = estimate_psd(rows, dt)
    band = psd[3:-3]
    mean = band.mean()
    assert abs(mean - 1.0) < 3.5 * band.std() / math.sqrt(band.size / 1.5)


def test_estimator_requires_segments():
    with pytest.raises(SimulationError):
        estimate_psd(np.zeros((16, 100)), 1e-4)


def test_empty_cavity_passthrough():
    sim = simulate(empty_cavity(config(lossless=True)), segments=64,
                   samples=4096, seed=11)
    for port in (0, 1):
        _, psd, stderr = estimate_psd(sim.outputs[:, :, port], sim.dt)
        band = psd[4:-4]
        mean = band.mean()
        assert abs(mean - 1.0) < 0.02
        within = np.abs(psd[4:-4] - 1.0) <= 3 * stderr[4:-4]
        assert within.mean() > 0.95


def test_lorentzian_half_power_point():
    # The intracavity quadrature of an empty cavity is a single-pole filter
    # of white noise with zero-frequency density 2/gamma0; the estimate must
    # place the half-power point at the pole.
    sim = simulate(empty_cavity(config(lossless=True)), segments=96,
                   samples=8192, seed=13, keep_states=True)
    grid, psd, _ = estimate_psd(sim.states[:, :, 0], sim.dt)
    centers, (smoothed,), _ = oracle.log_binned(
        grid[1:], [psd[1:]], 0.05 * G0, 5 * G0, per_decade=12)
    half = (2.0 / G0) / 2.0
    crossing = centers[np.argmin(np.abs(smoothed - half))]
    assert crossing == pytest.approx(G0, rel=0.12)
    band = (centers > 0.4 * G0) & (centers < 2.5 * G0)
    analytic = 2 * G0 / (G0**2 + centers[band] ** 2)
    assert np.abs(smoothed[band] / analytic - 1.0).mean() < 0.05


def test_segment_doubling_halves_variance():
    ss = empty_cavity(config(lossless=True))
    sims = {n: simulate(ss, segments=n, samples=2048, seed=17)
            for n in (64, 128)}
    errs = {n: estimate_psd(s.outputs[:, :, 1], s.dt)[2][5:900].mean()
            for n, s in sims.items()}
    ratio = errs[64] ** 2 / errs[128] ** 2
    assert abs(ratio - 2.0) < 0.4


def test_linearity_in_noise_amplitude():
    ss = build_state_space(config("two_photon", 0.3))
    base = simulate(ss, segments=2, samples=1024, seed=5)
    louder = simulate(scaled(ss, 2.0 * np.ones(5)), segments=2, samples=1024,
                      seed=5)
    assert np.allclose(louder.outputs, 2.0 * base.outputs, rtol=1e-12)


def test_back_action_signature():
    # Only the driving-pair channels on: the measured port shows pure back
    # action; with them off as well the output vanishes identically.
    ss = build_state_space(config("two_photon", 0.3))
    drive_only = simulate(scaled(ss, [1.0, 0, 1.0, 0, 0]), segments=48,
                          samples=16384, seed=19)
    w, psd, _ = estimate_psd(drive_only.outputs[:, :, 1], drive_only.dt)
    sel = (w > 5e-2 * G0) & (w < 0.5 * G0)
    h = ss.frequency_response(w[sel])
    predicted = (np.abs(h[:, 1, 0]) ** 2 + np.abs(h[:, 1, 2]) ** 2).real
    ratio = psd[sel] / predicted
    assert abs(ratio.mean() - 1.0) < 0.1
    silent = simulate(scaled(ss, np.zeros(5)), segments=2, samples=4096,
                      seed=19)
    assert np.all(silent.outputs == 0.0)


def test_euler_cross_check():
    ss = build_state_space(config("two_photon", 0.3))
    dt = 0.002 / oracle.max_rate(ss)
    exact = simulate(ss, segments=48, samples=8192, seed=23, dt=dt)
    optical = np.linalg.eigvals(ss.drift[:2, :2])
    burn_in = math.ceil(10.0 / (np.min(np.abs(optical.real)) * dt))
    euler, _ = loop_simulate(ss, segments=48, samples=8192, dt=dt,
                             burn_in=burn_in, seed=123, discretize=euler_step)
    pe = estimate_psd(exact.outputs[:, :, 1], dt)[1]
    pu = estimate_psd(euler[:, :, 1], dt)[1]
    sel = slice(8, 2000)
    assert abs(pu[sel].mean() / pe[sel].mean() - 1.0) < 0.05


def folded_psd(ss, omega, dt, weight=None, aliases=400):
    """Expected periodogram of step-averaged samples, by alias.

    Returns (floor, terms): the periodogram of the measured port (plus
    weight * reference port) has expectation floor + terms.sum(axis=1), with
    terms[:, aliases + m] = sinc^2(Omega_m*dt/2) * (S(Omega_m) - floor) at
    Omega_m = Omega + 2*pi*m/dt, S from the frequency response with the
    weight held at its bin value, and floor the white vacuum floor, which
    the step average keeps.
    """
    omega = np.asarray(omega, dtype=float)
    w = np.zeros(omega.size) if weight is None else weight
    floor = 1.0 + np.abs(w) ** 2
    shift = 2 * math.pi * np.arange(-aliases, aliases + 1) / dt
    terms = np.empty((omega.size, shift.size))
    for part in np.array_split(np.arange(omega.size), -(-omega.size // 32)):
        om = omega[part, None] + shift[None, :]
        h = ss.frequency_response(om.ravel()).reshape(om.shape + (2, 5))
        row = h[..., 1, :] + w[part, None, None] * h[..., 0, :]
        s = np.einsum("fmc,c->fm", np.abs(row) ** 2, ss.channel_psd)
        terms[part] = np.sinc(om * dt / (2 * math.pi)) ** 2 \
            * (s - floor[part, None])
    return floor, terms


def test_coarse_step_matches_folded_psd():
    # Ten times the step cap simulate once imposed (dt * max_rate = 0.5):
    # the exact step stays unbiased, and the periodogram of the step-averaged
    # samples is the folded PSD, for a raw port and for the subtracted one.
    ss = build_state_space(config("two_photon", 0.5))
    dt = 0.5 / oracle.max_rate(ss)
    samples, segments = 4096, 64
    y = simulate(ss, segments=segments, samples=samples, dt=dt,
                 seed=29).outputs
    grid = 2 * math.pi * np.fft.rfftfreq(samples, dt)
    band = slice(8, grid.size - 8)
    win, norm = oracle._hann(samples)
    ffts = np.fft.rfft((y - y.mean(axis=1, keepdims=True)) * win[:, None],
                       axis=1)[:, band, :]
    weight = ss.nulling_weight(grid[band])
    for w in (None, weight):
        combined = ffts[:, :, 1] if w is None \
            else ffts[:, :, 1] + np.conj(w) * ffts[:, :, 0]
        per = 2 * dt * np.abs(combined) ** 2 / norm
        floor, terms = folded_psd(ss, grid[band], dt, weight=w)
        _, (est, folded, var), counts = oracle.log_binned(
            grid[band], [per.mean(axis=0), floor + terms.sum(axis=1),
                         per.var(axis=0, ddof=1) / segments],
            grid[8], grid[-8], oracle.POINTS_PER_DECADE)
        err = np.sqrt(var / counts)
        ok = np.abs(est - folded) <= np.maximum(3 * err, 0.05 * folded)
        assert ok.mean() >= 0.95


@pytest.mark.parametrize("omega_hi", [1.0, 10.0])
def test_default_step_aliases_negligible(omega_hi):
    # At validate's default step the aliases m != 0 that its reference drops
    # are below 1e-4 of the expected periodogram, for every case, lossy and
    # lossless, at both squeeze rates and both pumps.
    omega = np.geomspace(1e-2 * G0, omega_hi * G0, 30, endpoint=False)
    worst = 0.0
    for case, kind in spectra.CASE_KIND.items():
        for lossless, frac, pump in itertools.product(
                (False, True), (0.5, 0.9), (1.0, 4.0)):
            if kind == "none" and frac == 0.9:
                continue
            cfg = config(kind, frac, lossless=lossless,
                         K0=pump * math.pi / model.TAU_PRESETS["table1"])
            ss = build_state_space(cfg)
            dt = oracle._band_step(omega_hi * G0, ss)
            weight = ss.nulling_weight(omega) \
                if spectra.port_for_case(case) == "subtracted" else None
            floor, terms = folded_psd(ss, omega, dt, weight=weight)
            own = terms[:, terms.shape[1] // 2]   # the m = 0 term
            neglected = terms.sum(axis=1) - own
            reference = floor + own
            worst = max(worst, np.max(np.abs(neglected) / reference))
    assert worst < 1e-4


def test_duration_precondition():
    with pytest.raises(SimulationError, match="correlation times"):
        simulate(build_state_space(config()), segments=1, samples=16,
                 burn_in=0)


def test_reproducible_and_batch_invariant():
    ss = build_state_space(config("degenerate", 0.4))
    a = simulate(ss, segments=3, samples=2048, seed=31)
    b = simulate(ss, segments=3, samples=2048, seed=31)
    assert np.array_equal(a.outputs, b.outputs)
    first = simulate(ss, segments=1, samples=2048, seed=31, segment_offset=0)
    third = simulate(ss, segments=1, samples=2048, seed=31, segment_offset=2)
    assert np.array_equal(a.outputs[0], first.outputs[0])
    assert np.array_equal(a.outputs[2], third.outputs[0])
    other = simulate(ss, segments=3, samples=2048, seed=32)
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

    sim = simulate(scaled(ss, np.zeros(5)), segments=1, samples=samples,
                   dt=dt, seed=0, signal=pulse, burn_in=0)
    y = sim.outputs[0, :, 1]

    times = (np.arange(samples) + 0.5) * dt
    f_vals = np.array([pulse(t) for t in times])
    w = 2 * math.pi * np.fft.rfftfreq(samples, dt)
    sig = transfer.transfer_coefficients(cfg, "difference", w)[Channel.SIGNAL]
    # rFFT bins carry exp(+i w t): apply the conjugate response.
    predicted = np.fft.irfft(np.conj(sig) * np.fft.rfft(f_vals), samples)
    scale = np.max(np.abs(predicted))
    assert np.max(np.abs(y - predicted)) < 0.01 * scale


# --- cascade recursion against the per-step loop -----------------------------------

def euler_step(ss, dt):
    """First-order update in the form of oracle._discretize, with the output
    integral zeta = x*dt and its noise part omitted."""
    phi_xx = np.eye(3) + ss.drift * dt
    phi_zx = np.hstack([np.eye(2), np.zeros((2, 1))]) * dt
    m_sig = np.concatenate([ss.signal_gain * dt, np.zeros(2)])
    amp = np.sqrt(ss.channel_psd / 2.0 * dt)
    factor = np.zeros((7, 7))
    factor[:3, :5] = ss.noise_gain * amp[None, :]
    factor[5, 0] = amp[0]
    factor[6, 1] = amp[1]
    return phi_xx, phi_zx, m_sig, factor


def loop_simulate(ss, *, segments, samples, dt, burn_in, seed=0,
                  segment_offset=0, signal=None, discretize=oracle._discretize):
    """Reference integrator: the full 3x3 update applied one step at a time,
    each output sample the step average of y = C x + D w."""
    phi_xx, phi_zx, m_sig, factor = discretize(ss, dt)
    C, D = ss.output_gain[:, :2], ss.feedthrough[:, :2]
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
                out[:, j, :] = ((C @ zeta + D @ noise[5:7, :, k]) / dt).T
                states[:, j, :] = x.T
            x = x_next
    return out, states


def assert_matches_loop(ss, **options):
    # 250 segments make the time chunk 2097 steps; 37 + 2393 steps end in a
    # partial second chunk, and neither chunk is a whole number of blocks.
    dt = oracle.DT_SAFETY / oracle.max_rate(ss)
    shape = dict(segments=250, samples=2393, dt=dt, burn_in=37, seed=7)
    sim = simulate(ss, keep_states=True, **shape, **options)
    out, states = loop_simulate(ss, **shape, **options)
    for got, want in ((sim.outputs, out), (sim.states, states)):
        scale = np.max(np.abs(want), axis=(0, 1))
        assert scale.max() > 0
        err = np.max(np.abs(got - want), axis=(0, 1))
        assert np.all(err <= 1e-12 * scale), err / scale


@pytest.mark.parametrize("kind", ["none", "two_photon", "degenerate"])
def test_cascade_matches_step_loop(kind):
    assert_matches_loop(build_state_space(config(kind, 0.5)))


def test_cascade_matches_step_loop_damped_mechanics():
    # gamma_m > 0: the mechanical factor is below 1, and the Van Loan
    # propagator carries rounding where the cascade order has zeros.
    assert_matches_loop(build_state_space(
        config("two_photon", 0.5, gamma_m=G0 / 20.0)))


@pytest.mark.parametrize("scale, options", [
    (np.zeros(5), {"signal": lambda t: math.sin(0.3 * G0 * t)}),
    (None, {"signal": lambda t: 1e3 * math.cos(2.0 * G0 * t)}),
    (np.array([1.0, 0.0, 2.0, 0.5, 3.0]), {}),
    (None, {"segment_offset": 5}),
], ids=["signal-only", "signal-and-noise", "channel-scale", "offset"])
def test_cascade_matches_step_loop_options(scale, options):
    ss = build_state_space(config("two_photon", 0.3))
    assert_matches_loop(ss if scale is None else scaled(ss, scale), **options)


def test_simulate_reads_the_output_map():
    # The output samples come from the model's own C and D: swapping the
    # output rows swaps the ports, doubling C and D doubles the samples,
    # and an output map reading what is not integrated is refused.
    ss = build_state_space(config("two_photon", 0.3))
    shape = dict(segments=2, samples=4096, seed=3)
    base = simulate(ss, **shape).outputs
    swapped = dataclasses.replace(ss, output_gain=ss.output_gain[::-1],
                                  feedthrough=ss.feedthrough[::-1])
    assert np.array_equal(simulate(swapped, **shape).outputs, base[:, :, ::-1])
    doubled = dataclasses.replace(ss, output_gain=2.0 * ss.output_gain,
                                  feedthrough=2.0 * ss.feedthrough)
    assert np.array_equal(simulate(doubled, **shape).outputs, 2.0 * base)
    for name, entry in (("output_gain", (0, 2)), ("feedthrough", (1, 4))):
        bad = getattr(ss, name).copy()
        bad[entry] = 1.0
        with pytest.raises(SimulationError, match="output map"):
            simulate(dataclasses.replace(ss, **{name: bad}), **shape)


@pytest.mark.parametrize("a", [0.97, 1.0, -0.5, 0.999, -0.99])
@pytest.mark.parametrize("n", [1, oracle._SCAN_BLOCK - 1, oracle._SCAN_BLOCK,
                               oracle._SCAN_BLOCK + 1, 3 * oracle._SCAN_BLOCK + 5,
                               oracle._SCAN_BLOCK * 65,
                               oracle._SCAN_BLOCK * 131 + 1])
def test_scan_matches_recurrence(n, a):
    rng = np.random.default_rng(n)
    u = rng.standard_normal((4, n))
    x0 = 10.0 * rng.standard_normal(4)
    expected = np.empty((4, n + 1))
    expected[:, 0] = x0
    for k in range(n):
        expected[:, k + 1] = a * expected[:, k] + u[:, k]
    # The scan runs in place over whole blocks; the inputs past n are zero.
    blocks = -(-n // oracle._SCAN_BLOCK)
    x = np.zeros((4, 1 + blocks * oracle._SCAN_BLOCK))
    x[:, 0] = x0
    x[:, 1:n + 1] = u
    oracle._scan(a, x)
    got = x[:, :n + 1]
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_cascade_rejects_upstream_coupling():
    # A measured-pair term in the driving-pair equation breaks the cascade.
    ss = build_state_space(config("two_photon", 0.5))
    drift = ss.drift.copy()
    drift[1 - ss.measured_port, ss.measured_port] = 0.01 * G0
    with pytest.raises(SimulationError, match="cascade order"):
        simulate(dataclasses.replace(ss, drift=drift), segments=2,
                 samples=4096, seed=1)


# --- worker threads ----------------------------------------------------------------

@pytest.mark.parametrize("segments, samples, options", [
    (40, 14000, {}),
    (7, 4096, {"signal": lambda t: math.sin(0.3 * G0 * t),
               "segment_offset": 5}),
    (2, 4096, {}),
], ids=["two-chunks", "signal-offset", "fewer-segments-than-workers"])
def test_simulate_independent_of_worker_count(monkeypatch, segments, samples,
                                              options):
    # Three workers split the segments unevenly and outnumber the cores of
    # a two-core host; a short switch interval interleaves them more often.
    ss = build_state_space(config("two_photon", 0.5))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        sims = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(oracle, "WORKERS", workers)
            sims.append(simulate(ss, segments=segments, samples=samples,
                                 seed=9, keep_states=True, **options))
    finally:
        sys.setswitchinterval(interval)
    for sim in sims[1:]:
        assert np.array_equal(sim.outputs, sims[0].outputs)
        assert np.array_equal(sim.states, sims[0].states)


def test_validate_report_independent_of_worker_count(monkeypatch):
    # Batches of 16 segments: 16 + 16 + 8, each with a partial last group.
    monkeypatch.setattr(oracle, "BATCH", 16)
    cfg = config("two_photon", 0.5)
    texts = []
    for workers in (1, 2):
        monkeypatch.setattr(oracle, "WORKERS", workers)
        report = validate(cfg, "nondeg-sub", segments=40, seed=2,
                          omega_lo=3e-2 * G0)
        texts.append(model.json_text(report.to_json_dict()))
    assert texts[0] == texts[1]


def test_worker_exception_reaches_caller(monkeypatch):
    # The first scan call fails; the other worker runs on and is joined.
    monkeypatch.setattr(oracle, "WORKERS", 2)
    scan, calls = oracle._scan, itertools.count()

    def failing_once(a, x):
        if next(calls) == 0:
            raise RuntimeError("scan failed")
        scan(a, x)

    monkeypatch.setattr(oracle, "_scan", failing_once)
    with pytest.raises(RuntimeError, match="scan failed"):
        simulate(build_state_space(config()), segments=4, samples=4096, seed=1)
    assert next(calls) > 1
    assert not [t for t in threading.enumerate() if t.name == "trimova-oracle"]


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


def test_validate_evaluates_only_the_compared_band(monkeypatch):
    # Every analytic reference is evaluated on the compared rFFT bins only:
    # bin 8 and up, omega_lo <= Omega < omega_hi.
    seen = []

    def spy(function, position):
        def wrapper(*args, **kwargs):
            seen.append(np.atleast_1d(args[position]))
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(oracle, "closed_form_psd",
                        spy(oracle.closed_form_psd, 2))
    monkeypatch.setattr(oracle, "transfer_coefficients",
                        spy(oracle.transfer_coefficients, 2))
    monkeypatch.setattr(oracle.StateSpace, "frequency_response",
                        spy(oracle.StateSpace.frequency_response, 1))
    omega_lo, omega_hi = 3e-2 * G0, 5.0 * G0
    report = validate(config("two_photon", 0.5), "nondeg-sub", segments=32,
                      seed=3, omega_lo=omega_lo, omega_hi=omega_hi)
    assert report.grid.size > 0
    assert len(seen) >= 4
    for omega in seen:
        spacing = np.min(np.diff(omega))
        assert omega.min() >= max(omega_lo, 8.0 * spacing * (1 - 1e-9))
        assert omega.max() < omega_hi


def test_validate_simulates_the_model_it_builds(monkeypatch):
    # validate builds the nominal and the perturbed model once each, and
    # every batch integrates that same perturbed model.
    monkeypatch.setattr(oracle, "BATCH", 16)
    cfg = config("two_photon", 0.5)
    perturbed = build_state_space(cfg, squeeze_rate=1.1 * cfg.squeeze.rate)
    built, simulated = [], []
    build, sim = oracle.build_state_space, oracle.simulate

    def spy_build(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    def spy_simulate(ss, **kwargs):
        simulated.append(ss)
        return sim(ss, **kwargs)

    monkeypatch.setattr(oracle, "build_state_space", spy_build)
    monkeypatch.setattr(oracle, "simulate", spy_simulate)
    validate(cfg, "nondeg-sub", segments=40, seed=2, perturb=0.1,
             omega_lo=3e-2 * G0)
    assert len(built) == 2 and len(simulated) == 3
    assert all(ss is simulated[0] for ss in simulated)
    assert any(ss is simulated[0] for ss in built)
    assert np.array_equal(simulated[0].drift, perturbed.drift)


def test_validate_rejects_few_segments():
    with pytest.raises(SimulationError):
        validate(config(), "baseline", segments=8)
