"""Time-domain integrator: calibration, statistics, cross-validation."""

import dataclasses
import itertools
import json
import math
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.signal

from trimova import model, oracle, spectra
from trimova.model import Squeezing, StabilityError
from trimova.oracle import (SimulationError, build_state_space, simulate,
                            validate)

G0, GE = model.reference_rates()


def config(kind="none", frac=0.0, lossless=False, gamma_m=None, K0=None):
    squeeze = Squeezing() if kind == "none" else Squeezing(kind, frac * G0)
    return model.reference_config(squeeze=squeeze, lossless=lossless,
                                  gamma_m=gamma_m, K0=K0)


def step(ss):
    """run's default step: 0.05 / the fastest rate of ``ss``."""
    return 0.05 / oracle.max_rate(ss)


def run(ss, **options):
    """simulate, at step(ss) unless a step is given."""
    options.setdefault("dt", step(ss))
    return simulate(ss, **options)


def burn_in(ss, dt):
    """Steps simulate discards: ten times the slowest optical decay."""
    optical = np.linalg.eigvals(ss.drift[:2, :2])
    return math.ceil(10.0 / (np.min(np.abs(optical.real)) * dt))


def estimate(records, dt, weight=None, band=slice(None), hop=None,
             bounds=None):
    """validate's estimate on the rFFT bins ``band`` of the half-overlapped
    windows of 2*hop samples cut from ``records`` (by default one window a
    record): the difference port records[:, :, 1], plus weight times the
    sum port where a weight is given, averaged over the log bins ``bounds``
    of the band (by default each band bin is a bin).  Returns (grid of the
    band, mean, standard error of each bin)."""
    count, samples = records.shape[:2]
    hop = samples // 2 if hop is None else hop
    grid = (2 * math.pi * np.fft.rfftfreq(2 * hop, dt))[band]
    bounds = np.arange(grid.size + 1) if bounds is None else bounds
    sums = np.zeros((2, bounds.size - 1))
    windows = count * (samples // hop - 1)
    oracle._add_periodograms(sums, records, hop, dt, band, weight,
                             np.ones(grid.size), bounds, windows)
    return (grid, *oracle._window_mean(sums, windows, count, hop,
                                       np.diff(bounds)))


def white_records(rng, count, samples, dt):
    """Unit single-sided PSD white noise in the difference port: samples of
    variance 1/(2 dt)."""
    records = np.zeros((count, samples, 2))
    records[:, :, 1] = rng.standard_normal((count, samples)) / math.sqrt(2 * dt)
    return records


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


def reading_pairs(ss, gain):
    """The model with output map y = gain @ (g_sum, g_diff), no feedthrough."""
    output_gain = np.zeros((2, 3))
    output_gain[:, :2] = gain
    return dataclasses.replace(ss, output_gain=output_gain,
                               feedthrough=np.zeros((2, 5)))


# --- state space ------------------------------------------------------------------

def test_state_space_matches_analytic_coefficients():
    cfg = config("two_photon", 0.5)
    ss = build_state_space(cfg)
    w = np.geomspace(1e-3 * G0, 10 * G0, 15)
    h = ss.response(w)
    k = cfg.squeeze.rate
    # Reflection of the antisqueezed (sum) and squeezed (difference) pairs,
    # and the loss admixture of the sum pair, by literal arithmetic.
    reflect_plus = (G0 - GE + k + 1j * w) / (G0 + GE - k - 1j * w)
    leak_plus = 2 * math.sqrt(G0 * GE) / (G0 + GE - k - 1j * w)
    reflect_minus = (G0 - GE - k + 1j * w) / (G0 + GE + k - 1j * w)
    assert np.allclose(h[:, 0, 0], reflect_plus, rtol=1e-12)
    assert np.allclose(h[:, 0, 2], leak_plus, rtol=1e-12)
    assert np.allclose(h[:, 1, 1], reflect_minus, rtol=1e-12)
    # The signal is read out through the squeezed (difference) pair.
    gm = cfg.mechanical.gamma_m
    sig = -math.sqrt(cfg.K0 * (G0 + GE) * (G0 - GE)) \
        / ((G0 + GE + k - 1j * w) * (gm - 1j * w))
    assert np.allclose(ss.signal_response(w)[:, 1], sig, rtol=1e-12)


def test_validate_rejects_unstable_perturbation(monkeypatch):
    # The perturbed rate 1.25 gamma0 reaches gamma: the perturbed config is
    # refused like any other, before anything is simulated.
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated")

    monkeypatch.setattr(oracle, "simulate", no_simulation)
    with pytest.raises(StabilityError):
        validate(config("two_photon", 0.5), "nondeg-sub", segments=32,
                 perturb=1.5)


def test_validate_refuses_a_case_of_the_other_kind_before_any_model(
        monkeypatch):
    # spectra.check_case refuses deg-sub on a two-photon config before the
    # state space is built.
    builds = []

    def counting_build(*args, **kwargs):
        builds.append(args)
        return build_state_space(*args, **kwargs)

    monkeypatch.setattr(oracle, "build_state_space", counting_build)
    with pytest.raises(ValueError, match="^case 'deg-sub' requires "
                       "'degenerate' squeezing, config has 'two_photon'$"):
        validate(config("two_photon", 0.5), "deg-sub", segments=32)
    assert builds == []


def test_degenerate_state_space_psd_matches_closed_form():
    cfg = config("degenerate", 0.5)
    ss = build_state_space(cfg)
    w = np.geomspace(1e-2 * G0, 10 * G0, 25)
    sig2 = np.abs(ss.signal_response(w)[:, ss.measured_port]) ** 2
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
    # The outputs are the step averages of the two pairs; at this step the
    # averaging lowers their variance by under 0.2 %.  The mechanics are no
    # output, but the difference pair carries them.
    sim = simulate(reading_pairs(ss, np.eye(2)), segments=48, samples=30000,
                   dt=0.01 / oracle.max_rate(ss), seed=21)
    tail = sim.outputs[:, 5000:, :]
    per_segment = np.einsum("snj,snk->sjk", tail, tail) / tail.shape[1]
    mean = per_segment.mean(axis=0)
    err = per_segment.std(axis=0) / math.sqrt(tail.shape[0])
    for i in range(2):
        assert abs(mean[i, i] - expected[i, i]) < 3.5 * err[i, i]


# --- calibration -----------------------------------------------------------------

def test_estimator_white_noise_calibration():
    dt = 1e-4
    _, psd, _ = estimate(white_records(np.random.default_rng(3), 160, 4096,
                                       dt), dt)
    band = psd[3:-3]
    mean = band.mean()
    assert abs(mean - 1.0) < 3.5 * band.std() / math.sqrt(band.size / 1.5)


def test_estimator_weighted_white_noise_calibration():
    # Independent unit-PSD white noise in both ports and a bounded complex
    # weight per bin: the estimate reads 1 + |w|^2, the white floor that
    # validate's reference assumes for the subtracted port.
    rng = np.random.default_rng(5)
    dt, segments, samples = 1e-4, 96, 4096
    outputs = rng.standard_normal((segments, samples, 2)) / math.sqrt(2 * dt)
    bins = samples // 2 + 1
    weight = rng.uniform(0.0, 2.0, bins) \
        * np.exp(2j * math.pi * rng.uniform(size=bins))
    _, psd, _ = estimate(outputs, dt, weight)
    ratio = (psd / (1.0 + np.abs(weight) ** 2))[3:-3]
    assert abs(ratio.mean() - 1.0) \
        < 3.5 * ratio.std() / math.sqrt(ratio.size / 1.5)


def lorentzian_records(rng, count, samples, dt, pole):
    """white_records filtered by x[t] = pole*x[t-1] + e[t], each record
    started in the stationary state: samples of a Lorentzian PSD, white at
    pole = 0."""
    records = white_records(rng, count, samples, dt)
    start = rng.standard_normal(count) / math.sqrt(2 * dt * (1 - pole**2))
    records[:, :, 1] = scipy.signal.lfilter(
        [1.0], [1.0, -pole], records[:, :, 1], zi=pole * start[:, None])[0]
    return records


def lorentzian_periodogram(hop, dt, pole):
    """Expectation, per rFFT bin, of the Hann periodogram of 2*hop samples
    of lorentzian_records: the autocovariance pole^|tau| / (2 dt (1 -
    pole^2)) times the window's autocorrelation, transformed.  The window's
    mean removal is left out; it changes no bin from 8 up by 1e-6."""
    win = np.hanning(2 * hop)
    lag = np.arange(2 * hop)
    terms = pole**lag / (2 * dt * (1 - pole**2)) \
        * np.correlate(win, win, "full")[2 * hop - 1:]
    folded = 2 * np.fft.rfft(terms, 4 * hop)[::2].real - terms[0]
    return 2 * dt * folded / np.sum(win**2)


def log_bin_chi2(hop, records, per_record, seeds=range(10), dt=1e-4,
                 pole=0.0):
    """chi^2/dof of the log-bin estimates of lorentzian_records against
    their expectation (1 for white noise) through validate's chain
    (periodograms of the half-overlapped windows, log bins from bin 8 up,
    their mean and error), one value per seed."""
    grid = 2 * math.pi * np.fft.rfftfreq(2 * hop, dt)
    band = slice(8, grid.size - 1)
    _, (expected,), bounds = oracle.log_binned(
        grid[band], [lorentzian_periodogram(hop, dt, pole)[band]], grid[8],
        grid[-1], oracle.POINTS_PER_DECADE)
    chi2 = []
    for seed in seeds:
        data = lorentzian_records(np.random.default_rng(seed), records,
                                  (per_record + 1) * hop, dt, pole)
        _, est, err = estimate(data, dt, band=band, hop=hop, bounds=bounds)
        chi2.append(np.mean(((est - expected) / err) ** 2))
    return chi2


def test_log_bin_error_calibration():
    # One window a record.  The chi^2/dof averages 1 over seeds 0-9 (1.01);
    # treating the Hann bins inside a log bin as independent gives about 1.6.
    assert abs(np.mean(log_bin_chi2(2048, 96, 1)) - 1.0) < 0.15


def test_log_bin_error_calibration_overlapped():
    # validate's layout: a few long records of half-overlapped windows, here
    # two of 48, 96 windows in all.  With the overlap share of the window
    # error the chi^2/dof averages 1 over seeds 0-9 (1.03; 12 records of 8
    # windows read 1.03, 4 of 24 read 1.02).
    chi2 = log_bin_chi2(2048, 2, 48)
    assert abs(np.mean(chi2) - 1.0) < 0.1


def test_log_bin_error_calibration_lorentzian():
    # A steep spectrum: the Lorentzian's corner, (1 - pole)/dt, lies a
    # decade below the band, so its PSD falls as 1/Omega^2 through every
    # log bin and no bin is white.  The error, measured across windows,
    # calibrates as on white noise: chi^2/dof 1.03 over seeds 0-9, in 12
    # records of WINDOWS_PER_RECORD windows.
    per_record = oracle.WINDOWS_PER_RECORD
    chi2 = log_bin_chi2(2048, 96 // per_record, per_record, pole=0.999)
    assert abs(np.mean(chi2) - 1.0) < 0.1


def test_estimate_is_binned_mean_of_periodograms():
    # Binning each window before averaging gives the mean-then-bin estimate:
    # the periodograms of validate's windows, weighted sum port included,
    # averaged per rFFT bin and then over each log bin, built here.
    rng = np.random.default_rng(11)
    dt, hop, per_record, count = 1e-4, 512, oracle.WINDOWS_PER_RECORD, 3
    records = rng.standard_normal((count, (per_record + 1) * hop, 2))
    grid = 2 * math.pi * np.fft.rfftfreq(2 * hop, dt)
    band = slice(8, hop)
    weight = rng.uniform(0.0, 2.0, hop - 8) \
        * np.exp(2j * math.pi * rng.uniform(size=hop - 8))
    _, _, bounds = oracle.log_binned(grid[band], [], grid[8], grid[hop],
                                     oracle.POINTS_PER_DECADE)
    _, est, _ = estimate(records, dt, weight, band, hop, bounds)
    win = np.hanning(2 * hop)
    windows = [records[r, j * hop:(j + 2) * hop]
               for r in range(count) for j in range(per_record)]
    per_bin = np.mean([np.abs(np.fft.rfft(
        (w[:, 1] - w[:, 1].mean()) * win)[band]
        + weight * np.fft.rfft((w[:, 0] - w[:, 0].mean()) * win)[band]) ** 2
        for w in windows], axis=0) * 2 * dt / np.sum(win**2)
    want = [per_bin[a:b].mean() for a, b in zip(bounds[:-1], bounds[1:])]
    assert np.max(np.abs(est / want - 1.0)) <= 1e-12


def overlap_correlation(hop, counts):
    """_window_mean's correlation rho(n) of the binned values of adjacent
    windows, for log bins of ``counts`` rFFT bins: two windows of one
    record, unit across-window variance, give stderr^2 = (1 + rho)/2."""
    counts = np.asarray(counts)
    sums = np.zeros((2, counts.size))
    sums[1] = 1.0
    return 2.0 * oracle._window_mean(sums, 2, 1, hop, counts)[1] ** 2 - 1.0


def test_overlap_correlation_from_window():
    # rho(1) is the same-bin 1/36 of the Hann window (Harris, Proc. IEEE
    # 66, 51 (1978)); wider log bins add the neighbouring bins' correlation
    # across adjacent windows, and rho rises to about 0.042.
    hop = 1024
    rho = overlap_correlation(hop, np.arange(1, hop + 2))
    assert abs(rho[0] - 1.0 / 36.0) < 1e-3
    assert np.all(np.diff(rho) > 0.0)
    assert abs(rho[-1] - 0.042) < 1e-3


def test_overlap_correlation_matches_white_noise():
    # The binned values of adjacent windows of white noise correlate as
    # rho(n) says, pooled over the log bins of n >= 2 rFFT bins: the mean
    # product of the standardized values of adjacent windows against the
    # mean rho, within 3 standard errors over the independent records.
    dt, hop, per_record, count = 1e-4, 512, oracle.WINDOWS_PER_RECORD, 200
    grid = 2 * math.pi * np.fft.rfftfreq(2 * hop, dt)
    band = slice(8, hop)
    _, _, bounds = oracle.log_binned(grid[band], [], grid[8], grid[hop],
                                     oracle.POINTS_PER_DECADE)
    counts = np.diff(bounds)
    data = white_records(np.random.default_rng(7), count,
                         (per_record + 1) * hop, dt)
    values = np.empty((count, per_record, counts.size))
    for r, j in itertools.product(range(count), range(per_record)):
        sums = np.zeros((2, counts.size))
        oracle._add_periodograms(sums, data[r:r + 1, j * hop:(j + 2) * hop],
                                 hop, dt, band, None, np.ones(hop - 8), bounds,
                                 1)
        values[r, j] = sums[0]
    wide = counts >= 2
    assert wide.sum() >= 40
    z = (values - values.mean(axis=(0, 1))) / values.std(axis=(0, 1))
    per_record_product = (z[:, 1:] * z[:, :-1])[:, :, wide].mean(axis=(1, 2))
    error = per_record_product.std() / math.sqrt(count)
    rho = overlap_correlation(hop, counts[wide]).mean()
    assert abs(per_record_product.mean() - rho) < 3.0 * error


def test_adjacent_window_correlation():
    # The per-bin powers of adjacent half-overlapped Hann windows of white
    # noise correlate by 1/36 (Harris, Proc. IEEE 66, 51 (1978)), rho(1)
    # of _window_mean; windows two hops apart do not overlap.
    dt, hop, per_record, count = 1e-4, 512, oracle.WINDOWS_PER_RECORD, 100
    data = white_records(np.random.default_rng(7), count,
                         (per_record + 1) * hop, dt)
    band = slice(1, hop)   # no DC or Nyquist bin
    bins = np.arange(hop)
    powers = np.empty((count, per_record, hop - 1))
    for r, j in itertools.product(range(count), range(per_record)):
        sums = np.zeros((2, hop - 1))
        oracle._add_periodograms(sums, data[r:r + 1, j * hop:(j + 2) * hop],
                                 hop, dt, band, None, np.ones(hop - 1), bins, 1)
        powers[r, j] = sums[0]
    # The estimator cuts the same windows from a whole record.
    sums = np.zeros((2, hop - 1))
    oracle._add_periodograms(sums, data[:1], hop, dt, band, None,
                             np.ones(hop - 1), bins, per_record)
    assert np.allclose(sums[0], powers[0].sum(axis=0), rtol=1e-12)
    z = (powers - powers.mean()) / powers.std()
    assert abs(np.mean(z[:, 1:] * z[:, :-1]) - 1.0 / 36.0) < 0.005
    assert abs(np.mean(z[:, 2:] * z[:, :-2])) < 0.005


def test_empty_cavity_passthrough():
    ss = empty_cavity(config(lossless=True))
    sim = run(ss, segments=64, samples=4096, seed=11)
    # The estimator reads the difference port; swapped, the sum port.
    for outputs in (sim.outputs, sim.outputs[:, :, ::-1]):
        _, psd, stderr = estimate(outputs, step(ss))
        band = psd[4:-4]
        mean = band.mean()
        assert abs(mean - 1.0) < 0.02
        within = np.abs(psd[4:-4] - 1.0) <= 3 * stderr[4:-4]
        assert within.mean() > 0.95


def test_lorentzian_half_power_point():
    # The intracavity quadrature of an empty cavity is a single-pole filter
    # of white noise with zero-frequency density 2/gamma0; the estimate of
    # its step averages, read through the difference port, must place the
    # half-power point at the pole.
    ss = reading_pairs(empty_cavity(config(lossless=True)), [[0, 0], [1, 0]])
    sim = run(ss, segments=96, samples=8192, seed=13)
    grid, psd, _ = estimate(sim.outputs, step(ss))
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
    sims = {n: run(ss, segments=n, samples=2048, seed=17) for n in (64, 128)}
    errs = {n: estimate(s.outputs, step(ss))[2][5:900].mean()
            for n, s in sims.items()}
    ratio = errs[64] ** 2 / errs[128] ** 2
    assert abs(ratio - 2.0) < 0.4


def test_linearity_in_noise_amplitude():
    ss = build_state_space(config("two_photon", 0.3))
    base = run(ss, segments=2, samples=1024, seed=5)
    louder = run(scaled(ss, 2.0 * np.ones(5)), segments=2, samples=1024,
                 seed=5)
    assert np.allclose(louder.outputs, 2.0 * base.outputs, rtol=1e-12)


def test_back_action_signature():
    # Only the driving-pair channels on: the measured port shows pure back
    # action; with them off as well the output vanishes identically.
    ss = build_state_space(config("two_photon", 0.3))
    drive_only = run(scaled(ss, [1.0, 0, 1.0, 0, 0]), segments=48,
                     samples=16384, seed=19)
    w, psd, _ = estimate(drive_only.outputs, step(ss))
    sel = (w > 5e-2 * G0) & (w < 0.5 * G0)
    h = ss.response(w[sel])
    predicted = (np.abs(h[:, 1, 0]) ** 2 + np.abs(h[:, 1, 2]) ** 2).real
    ratio = psd[sel] / predicted
    assert abs(ratio.mean() - 1.0) < 0.1
    silent = run(scaled(ss, np.zeros(5)), segments=2, samples=4096, seed=19)
    assert np.all(silent.outputs == 0.0)


def test_euler_cross_check():
    ss = build_state_space(config("two_photon", 0.3))
    dt = 0.002 / oracle.max_rate(ss)
    exact = simulate(ss, segments=48, samples=8192, seed=23, dt=dt)
    euler = loop_simulate(ss, segments=48, samples=8192, dt=dt, seed=123,
                          discretize=euler_step)
    pe = estimate(exact.outputs, dt)[1]
    pu = estimate(euler, dt)[1]
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
        h = ss.response(om.ravel())[..., :5].reshape(om.shape + (2, 5))
        row = h[..., 1, :] + w[part, None, None] * h[..., 0, :]
        s = np.einsum("fmc,c->fm", np.abs(row) ** 2, ss.channel_psd)
        terms[part] = np.sinc(om * dt / (2 * math.pi)) ** 2 \
            * (s - floor[part, None])
    return floor, terms


def sampled_vs_folded(ss, dt, omega, weight=None):
    """Largest relative gap between validate's reference, the PSD of the
    sampled model, and the folded PSD of the step averages with every
    alias."""
    floor, terms = folded_psd(ss, omega, dt, weight=weight)
    # validate's weight acts on rFFT bins: the conjugate (see there).
    sampled = oracle._sampled_psd(
        ss, dt, omega, None if weight is None else np.conj(weight))
    return np.max(np.abs(sampled / (floor + terms.sum(axis=1)) - 1.0))


def test_coarse_step_matches_sampled_psd():
    # Ten times the step cap simulate once imposed (dt * max_rate = 0.5):
    # the exact step stays unbiased, and the periodogram of the step-averaged
    # samples is the PSD of the sampled model, for a raw port and for the
    # subtracted one.
    ss = build_state_space(config("two_photon", 0.5))
    dt = 0.5 / oracle.max_rate(ss)
    samples, segments = 4096, 64
    y = simulate(ss, segments=segments, samples=samples, dt=dt,
                 seed=29).outputs
    grid = 2 * math.pi * np.fft.rfftfreq(samples, dt)
    band = slice(8, grid.size - 8)
    weight = ss.nulling_weight(grid[band])
    for w in (None, np.conj(weight)):
        _, (expected,), bounds = oracle.log_binned(
            grid[band], [oracle._sampled_psd(ss, dt, grid[band], w)],
            grid[8], grid[-8], oracle.POINTS_PER_DECADE)
        _, est, err = estimate(y, dt, w, band, bounds=bounds)
        ok = np.abs(est - expected) <= np.maximum(3 * err, 0.05 * expected)
        assert ok.mean() >= 0.95


def test_coarse_step_sampled_psd_matches_folded_psd():
    # The coarse step keeps its alias-by-alias check, raw and subtracted.
    ss = build_state_space(config("two_photon", 0.5))
    dt = 0.5 / oracle.max_rate(ss)
    omega = np.geomspace(2 * math.pi * 8 / (4096 * dt), math.pi / dt, 30,
                         endpoint=False)
    for weight in (None, ss.nulling_weight(omega)):
        assert sampled_vs_folded(ss, dt, omega, weight) < 1e-8


@pytest.mark.parametrize("omega_hi", [1.0, 10.0])
def test_sampled_reference_matches_folded_psd(omega_hi):
    # validate's reference, the PSD of the sampled model, is the folded PSD
    # of the step averages with every alias, to 1e-8, for every case, lossy
    # and lossless, at both squeeze rates and both pumps, at the default step.
    omega = np.geomspace(1e-2 * G0, omega_hi * G0, 30, endpoint=False)
    worst = 0.0
    for case, (kind, port) in spectra.CASES.items():
        for lossless, frac, pump in itertools.product(
                (False, True), (0.5, 0.9), (1.0, 4.0)):
            if kind == "none" and frac == 0.9:
                continue
            cfg = config(kind, frac, lossless=lossless,
                         K0=pump * math.pi / model.TAU_PRESETS["table1"])
            ss = build_state_space(cfg)
            dt = oracle._band_step(omega_hi * G0, ss)
            weight = ss.nulling_weight(omega) \
                if port == "subtracted" else None
            worst = max(worst, sampled_vs_folded(ss, dt, omega, weight))
    assert worst < 1e-8


class Simulated(Exception):
    """Raised in place of the first simulate call."""


def test_validate_caps_the_window(monkeypatch):
    # A window of more than MAX_WINDOW samples is refused before anything is
    # allocated: K0 = 1e12 asks for 2**24 samples at the default band.  The
    # figure band at every figure rate (2**18 at most) and K0 = 1e8 (2**17)
    # reach the simulation.
    def no_simulation(*args, **kwargs):
        raise Simulated

    monkeypatch.setattr(oracle, "simulate", no_simulation)
    tracemalloc.start()
    try:
        with pytest.raises(SimulationError, match="exceeds MAX_WINDOW"):
            validate(config("two_photon", 0.5, K0=1e12), "nondeg-raw",
                     segments=32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    runs = [(config("two_photon", 0.5, K0=1e8), "nondeg-sub", 1e-2 * G0)]
    runs += [(spectra.figure_config(fid, frac), spec.case, 1e-3 * G0)
             for fid, spec in spectra.FIGURES.items() for frac in spec.rates]
    for cfg, case, omega_lo in runs:
        with pytest.raises(Simulated):
            validate(cfg, case, segments=32, omega_lo=omega_lo)


def test_duration_precondition(monkeypatch):
    # The records of a validate run together must span MIN_CORRELATION_TIMES
    # optical correlation times.  A far band with a fine step falls short,
    # and validate raises before anything is simulated.
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated")

    monkeypatch.setattr(oracle, "simulate", no_simulation)
    with pytest.raises(SimulationError, match="correlation times"):
        validate(config(), "baseline", segments=32, omega_lo=1000 * G0,
                 omega_hi=2000 * G0, dt=math.pi / (60000 * G0))


def test_duration_precondition_counts_the_slowest_pair(monkeypatch):
    # At kappa = 0.9 gamma0 the sum pair decays at 0.103 gamma0 and the
    # difference pair at 1.903 gamma0.  Windows from 0.6 gamma0 span 78.6
    # correlation times of the slower pair, 1,450 of the faster: the
    # precondition counts the slower one, the one simulate burns in.
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated")

    monkeypatch.setattr(oracle, "simulate", no_simulation)
    with pytest.raises(SimulationError, match="correlation times"):
        validate(config("two_photon", 0.9), "nondeg-raw", segments=32,
                 omega_lo=0.6 * G0)


def test_simulate_refuses_a_pair_that_does_not_decay():
    # A sum pair at kappa = gamma has no correlation time and no burn-in.
    ss = build_state_space(config("two_photon", 0.5))
    drift = ss.drift.copy()
    drift[0, 0] = 0.0
    with pytest.raises(SimulationError, match="does not decay"):
        run(dataclasses.replace(ss, drift=drift), samples=4096)


def test_duration_precondition_counts_every_record():
    # 33 windows at 5-8 gamma0 are 4 records of 9 windows, the last 3
    # simulated but not averaged: 5,120 samples in all, where
    # MIN_CORRELATION_TIMES take 381.  The run stays valid on this path.
    report = validate(config(), "baseline", segments=33, omega_lo=5 * G0,
                      omega_hi=8 * G0)
    assert report.segments == 33


def test_reproducible_and_batch_invariant():
    # Records of WINDOWS_PER_RECORD + 1 hops, the streams keyed by record
    # index, whichever call and position simulates a record.
    ss = build_state_space(config("degenerate", 0.4))
    samples = (oracle.WINDOWS_PER_RECORD + 1) * 512
    a = run(ss, segments=3, samples=samples, seed=31)
    b = run(ss, segments=3, samples=samples, seed=31)
    assert np.array_equal(a.outputs, b.outputs)
    first = run(ss, segments=1, samples=samples, seed=31, segment_offset=0)
    third = run(ss, segments=1, samples=samples, seed=31, segment_offset=2)
    assert np.array_equal(a.outputs[0], first.outputs[0])
    assert np.array_equal(a.outputs[2], third.outputs[0])
    other = run(ss, segments=3, samples=samples, seed=32)
    assert not np.array_equal(a.outputs, other.outputs)


# --- cascade recursion against the per-step loop -----------------------------------

def euler_step(ss, dt):
    """First-order update in the form of oracle._discretize: the five draws
    are the channel increments, and the output sample is C x + D dW/dt, the
    noise of the state integral omitted."""
    phi_xx = np.eye(3) + ss.drift * dt
    amp = np.sqrt(ss.channel_psd / 2.0 * dt)
    factor = np.vstack([ss.noise_gain * amp[None, :],
                        ss.feedthrough * amp[None, :] / dt])
    return phi_xx, ss.output_gain, factor


def loop_simulate(ss, *, segments, samples, dt, seed=0, segment_offset=0,
                  discretize=oracle._discretize):
    """Reference integrator: the full 3x3 update applied one step at a time,
    from rest, each output sample after the burn-in read_x x plus its share
    of the step's five draws."""
    phi_xx, read_x, factor = discretize(ss, dt)
    first = burn_in(ss, dt)
    total = first + samples
    out = np.empty((segments, samples, 2))
    all_gens = [oracle._segment_generators(seed, segment_offset + s, 5)
                for s in range(segments)]
    x = np.zeros((3, segments))
    chunk = max(1, (8 << 20) // (16 * segments))
    z = np.empty((5, segments, chunk))
    for start in range(0, total, chunk):
        size = min(chunk, total - start)
        for s, gens in enumerate(all_gens):
            for comp, gen in enumerate(gens):
                z[comp, s, :size] = gen.standard_normal(size)
        noise = np.einsum("ij,jsk->isk", factor, z[:, :, :size])
        for k in range(size):
            if start + k >= first:
                out[:, start + k - first, :] = (read_x @ x + noise[3:, :, k]).T
            x = phi_xx @ x + noise[:3, :, k]
    return out


def assert_matches_loop(monkeypatch, ss, **options):
    # A time chunk of 1092 steps, not a whole number of blocks.  The samples
    # are set from the model's burn-in so that each record ends in a partial
    # second chunk, half a block past a block end.
    dt = 0.05 / oracle.max_rate(ss)
    segments, block, chunk = 240, oracle._SCAN_BLOCK, 1092
    monkeypatch.setattr(oracle, "_CHUNK", chunk)
    tail = chunk // 2 // block * block + block // 2
    samples = chunk + tail - burn_in(ss, dt)
    assert samples > 0 and 0 < tail < chunk
    assert tail % block and chunk % block
    shape = dict(segments=segments, samples=samples, dt=dt, seed=7)
    got = simulate(ss, **shape, **options).outputs
    want = loop_simulate(ss, **shape, **options)
    scale = np.max(np.abs(want), axis=(0, 1))
    assert scale.max() > 0
    err = np.max(np.abs(got - want), axis=(0, 1))
    assert np.all(err <= 1e-12 * scale), err / scale


@pytest.mark.parametrize("kind", ["none", "two_photon", "degenerate"])
def test_cascade_matches_step_loop(monkeypatch, kind):
    assert_matches_loop(monkeypatch, build_state_space(config(kind, 0.5)))


def test_cascade_matches_step_loop_damped_mechanics(monkeypatch):
    # gamma_m > 0: the mechanical factor is below 1.
    assert_matches_loop(monkeypatch, build_state_space(
        config("two_photon", 0.5, gamma_m=G0 / 20.0)))


@pytest.mark.parametrize("scale, options", [
    (np.array([1.0, 0.0, 2.0, 0.5, 3.0]), {}),
    (None, {"segment_offset": 5}),
], ids=["channel-scale", "offset"])
def test_cascade_matches_step_loop_options(monkeypatch, scale, options):
    ss = build_state_space(config("two_photon", 0.3))
    assert_matches_loop(monkeypatch, ss if scale is None else scaled(ss, scale),
                        **options)


def covariance_close(got, want):
    """got equals the covariance want within 1e-12 sqrt(want_ii want_jj)."""
    d = np.sqrt(np.diag(want))
    return np.all(np.abs(got - want) <= 1e-12 * np.outer(d, d))


def test_simulate_reads_the_output_map():
    # The output samples come from the model's own C and D: swapping the
    # output rows swaps the rows of read_x and the output rows of the step
    # covariance, doubling C and D doubles them and the samples, and an
    # output map reading what is not integrated is refused.  A step draws
    # one normal per output sample, not one per term of y = C x + D w, so
    # the swapped samples are a new realization, not the swapped old one.
    ss = build_state_space(config("two_photon", 0.3))
    dt = 0.05 / oracle.max_rate(ss)
    phi_xx, read_x, factor = oracle._discretize(ss, dt)
    cov = factor @ factor.T
    swapped = dataclasses.replace(ss, output_gain=ss.output_gain[::-1],
                                  feedthrough=ss.feedthrough[::-1])
    phi_s, read_s, factor_s = oracle._discretize(swapped, dt)
    assert np.array_equal(phi_s, phi_xx)
    assert np.array_equal(read_s, read_x[::-1])
    order = [0, 1, 2, 4, 3]
    assert covariance_close(factor_s @ factor_s.T, cov[np.ix_(order, order)])
    doubled = dataclasses.replace(ss, output_gain=2.0 * ss.output_gain,
                                  feedthrough=2.0 * ss.feedthrough)
    phi_d, read_d, factor_d = oracle._discretize(doubled, dt)
    assert np.array_equal(phi_d, phi_xx)
    assert np.array_equal(read_d, 2.0 * read_x)
    assert np.array_equal(factor_d[:3], factor[:3])
    assert np.array_equal(factor_d[3:], 2.0 * factor[3:])
    shape = dict(segments=2, samples=4096, seed=3)
    assert np.array_equal(run(doubled, **shape).outputs,
                          2.0 * run(ss, **shape).outputs)
    for name, entry in (("output_gain", (0, 2)), ("feedthrough", (1, 4))):
        bad = getattr(ss, name).copy()
        bad[entry] = 1.0
        with pytest.raises(SimulationError, match="output map"):
            run(dataclasses.replace(ss, **{name: bad}), **shape)


@pytest.mark.parametrize("lossless", [False, True], ids=["lossy", "lossless"])
@pytest.mark.parametrize("kind", ["none", "two_photon", "degenerate"])
def test_discretize_matches_van_loan(kind, lossless):
    # The exact step against scipy's exponential of the same normalized
    # Van Loan block, projected onto the next state and the output sample
    # (C zeta + D dW)/dt: the covariance of the five draws' mix to 1e-12 of
    # sqrt(S_ii S_jj), the propagator and the output read-out to 1e-13, at
    # steps from 0.002 to 5 times the fastest rate.
    ss = build_state_space(config(kind, 0.5, lossless=lossless,
                                  gamma_m=G0 / 20.0))
    A = np.zeros((7, 7))
    A[:3, :3] = ss.drift
    A[3, 0] = A[4, 1] = 1.0
    B = np.zeros((7, 5))
    B[:3] = ss.noise_gain
    B[5, 0] = B[6, 1] = 1.0
    Qc = B @ np.diag(ss.channel_psd / 2.0) @ B.T
    s = np.abs(Qc).sum(axis=0).max() / np.abs(A).sum(axis=0).max()
    C, D = ss.output_gain[:, :2], ss.feedthrough[:, :2]
    for rate_dt in (0.002, math.pi / 20.0, 0.5, 5.0):
        dt = rate_dt / oracle.max_rate(ss)
        G = scipy.linalg.expm(np.block([[-A, Qc / s],
                                        [np.zeros((7, 7)), A.T]]) * dt)
        phi = G[7:, 7:].T
        Qd = s * phi @ G[:7, 7:]
        P = np.zeros((5, 7))
        P[:3, :3] = np.eye(3)
        P[3:, 3:5] = C / dt
        P[3:, 5:] = D / dt
        sigma = P @ Qd @ P.T
        phi_xx, read_x, factor = oracle._discretize(ss, dt)
        assert covariance_close(factor @ factor.T, (sigma + sigma.T) / 2.0)
        for got, want in ((phi_xx, phi[:3, :3]),
                          (read_x, C @ phi[3:5, :3] / dt)):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


# Lengths at the edges of one block and of the upper level for the current
# block, and fixed lengths that end in whole and in partial blocks at any
# block of 8 to 64 steps.
@pytest.mark.parametrize("a", [0.97, 1.0, -0.5, 0.999, -0.99])
@pytest.mark.parametrize("n", sorted({
    1, oracle._SCAN_BLOCK - 1, oracle._SCAN_BLOCK, oracle._SCAN_BLOCK + 1,
    3 * oracle._SCAN_BLOCK + 5, oracle._SCAN_BLOCK * 65,
    oracle._SCAN_BLOCK * 131 + 1, 63, 64, 65, 197, 4160, 8385}))
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
        run(dataclasses.replace(ss, drift=drift), segments=2, samples=4096,
            seed=1)


# --- worker threads ----------------------------------------------------------------

@pytest.mark.parametrize("segments, samples, force_only, offset, chunk", [
    (40, 14000, False, 0, 8191),
    (7, 4096, True, 5, None),
    (2, 4096, False, 0, None),
], ids=["two-chunks", "signal-offset", "fewer-segments-than-workers"])
def test_simulate_independent_of_worker_count(monkeypatch, segments, samples,
                                              force_only, offset, chunk):
    # Three workers split the segments unevenly and outnumber the cores of
    # a two-core host; a short switch interval interleaves them more often.
    # two-chunks: a time chunk of 8191 steps, not a whole number of blocks,
    # and each record ends in a partial second chunk.  signal-offset: only
    # the bath force, which enters the mechanics where a signal force does,
    # drives the model, from segment 5 on.
    ss = build_state_space(config("two_photon", 0.5))
    if force_only:
        ss = scaled(ss, [0, 0, 0, 0, 1.0])
    if chunk is not None:
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        total = burn_in(ss, 0.05 / oracle.max_rate(ss)) + samples
        assert chunk < total < 2 * chunk and chunk % oracle._SCAN_BLOCK
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        sims = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(oracle, "WORKERS", workers)
            sims.append(run(ss, segments=segments, samples=samples, seed=9,
                            segment_offset=offset))
    finally:
        sys.setswitchinterval(interval)
    assert np.any(sims[0].outputs)
    for sim in sims[1:]:
        assert np.array_equal(sim.outputs, sims[0].outputs)


@pytest.mark.parametrize("chunk", [None, 4099],
                         ids=["default-chunk", "short-chunk"])
def test_record_independent_of_batching(monkeypatch, chunk):
    # A record of about 100,000 samples is the same, bit for bit, simulated
    # alone and as the middle of three on one, two and three workers: its
    # samples depend only on the model, dt, the seed, its index and its
    # length.  short-chunk: 4099 steps a chunk, not a whole number of
    # blocks, so the record ends in a partial chunk.
    if chunk is not None:
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
    ss = build_state_space(config("two_photon", 0.5))
    shape = dict(samples=100_003, seed=5)
    alone = run(ss, segments=1, segment_offset=1, **shape).outputs[0]
    assert np.any(alone)
    for workers in (1, 2, 3):
        monkeypatch.setattr(oracle, "WORKERS", workers)
        middle = run(ss, segments=3, **shape).outputs[1]
        assert np.array_equal(middle, alone), workers


def test_validate_report_independent_of_worker_count(monkeypatch):
    # With no room in _CALL_SAMPLES, two records a call of at most
    # WINDOWS_PER_RECORD windows: 44 windows are 4 records of 7 and 2 of 8,
    # simulated 2 + 2 + 2, each call with a partial last group.
    monkeypatch.setattr(oracle, "_CALL_SAMPLES", 1)
    cfg = config("two_photon", 0.5)
    texts = []
    for workers in (1, 2, 3):
        monkeypatch.setattr(oracle, "WORKERS", workers)
        report = validate(cfg, "nondeg-sub", segments=44, seed=2,
                          omega_lo=3e-2 * G0)
        texts.append(model.json_text(report.to_json_dict()))
    assert texts[0] == texts[1] == texts[2]


def test_worker_exception_reaches_caller(monkeypatch):
    # The first scan call fails; the other worker runs on and is joined.
    # The scans run on the oracle's named workers, so the last line checks
    # that none is left.
    monkeypatch.setattr(oracle, "WORKERS", 2)
    scan, calls, names = oracle._scan, itertools.count(), set()

    def failing_once(a, x, *scratch):
        names.add(threading.current_thread().name)
        if next(calls) == 0:
            raise RuntimeError("scan failed")
        scan(a, x, *scratch)

    monkeypatch.setattr(oracle, "_scan", failing_once)
    with pytest.raises(RuntimeError, match="scan failed"):
        run(build_state_space(config()), segments=4, samples=4096, seed=1)
    assert next(calls) > 1
    assert names == {"trimova-oracle"}
    assert not [t for t in threading.enumerate() if t.name == "trimova-oracle"]


def test_simulate_working_memory_and_layout(monkeypatch):
    # A call of the bench's validate shape, four records of 212,992 samples
    # on two workers: besides its output, the tracemalloc peak stays under
    # the 12 MiB that the module docstring states, and the samples of a
    # segment's port are one contiguous row.
    monkeypatch.setattr(oracle, "WORKERS", 2)
    ss = build_state_space(config("two_photon", 0.5))
    dt = oracle._band_step(10.0 * G0, ss)
    tracemalloc.start()
    try:
        outputs = simulate(ss, segments=4, samples=212992, dt=dt,
                           seed=1).outputs
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - outputs.nbytes < 12 * 2**20
    assert outputs.shape == (4, 212992, 2)
    assert outputs[3, :, 0].strides == outputs[3, :, 1].strides == (8,)


# --- validation harness ------------------------------------------------------------

def test_validate_baseline_quick():
    cfg = config()
    report = validate(cfg, "baseline", segments=48, seed=4, omega_lo=3e-2 * G0)
    assert report.passed
    assert report.pass_fraction > 0.95
    doc = report.to_json_dict()
    assert doc["case"] == "baseline" and len(doc["estimate"]) == len(doc["grid"])


@pytest.mark.parametrize("frac", [0.5, 0.9])
def test_validate_two_photon_raw_quick(frac):
    # The raw port under two-photon squeezing: the simulated back action,
    # through the antisqueezed pair, matches the closed form.
    report = validate(config("two_photon", frac), "nondeg-raw", segments=48,
                      seed=4, omega_lo=3e-2 * G0)
    assert report.passed


def test_validate_negative_control_quick():
    cfg = config("degenerate", 0.5)
    report = validate(cfg, "deg-raw", segments=48, seed=4, perturb=0.2,
                      omega_lo=3e-2 * G0)
    assert not report.passed
    # the simulation still matches its own dynamics
    mid = slice(report.grid.size // 3, 2 * report.grid.size // 3)
    agree = np.abs(report.estimate[mid] / report.state_space_psd[mid] - 1.0)
    assert np.median(agree) < 0.1


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the per-bin nulling "
                   "weight on the Hann-windowed sum port cannot cancel the "
                   "back action at low bins; filtering whole records fixes it")
@pytest.mark.parametrize("lossless", [False, True], ids=["lossy", "lossless"])
def test_subtracted_verdict_item1(lossless):
    # The subtracted port at kappa = 0.9 gamma0, the paper's claim, reads
    # 0.905 of 200 windows (FAIL) with the per-bin weight.
    g0 = model.reference_config(lossless=lossless).cavity.gamma0
    cfg = model.reference_config(squeeze=Squeezing("two_photon", 0.9 * g0),
                                 lossless=lossless)
    assert validate(cfg, "nondeg-sub", segments=200, seed=1).passed


def test_validate_evaluates_only_the_compared_band(monkeypatch):
    # Every analytic reference is evaluated on the compared rFFT bins only:
    # bin 8 and up, omega_lo <= Omega < omega_hi.  Unperturbed, one nominal
    # port response, one StateSpace.response, gives the subtraction weight,
    # the signal coefficient and the nominal PSD, and the simulated model is
    # the nominal one: one call each, and no other response.
    seen = {}

    def spy(owner, name, position):
        function = getattr(owner, name)

        def wrapper(*args, **kwargs):
            seen.setdefault(name, []).append(np.atleast_1d(args[position]))
            return function(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    spy(oracle, "closed_form_psd", 2)
    spy(oracle, "_sampled_psd", 2)
    for name in ("port_response", "signal_response", "response"):
        spy(oracle.StateSpace, name, 1)
    omega_lo, omega_hi = 3e-2 * G0, 5.0 * G0
    report = validate(config("two_photon", 0.5), "nondeg-sub", segments=32,
                      seed=3, omega_lo=omega_lo, omega_hi=omega_hi)
    assert report.grid.size > 0
    assert {name: len(calls) for name, calls in seen.items()} == {
        "closed_form_psd": 1, "_sampled_psd": 1, "port_response": 1,
        "response": 1}
    for omega in itertools.chain(*seen.values()):
        spacing = np.min(np.diff(omega))
        assert omega.min() >= max(omega_lo, 8.0 * spacing * (1 - 1e-9))
        assert omega.max() < omega_hi


def test_validate_simulates_the_model_it_builds(monkeypatch):
    # validate builds the nominal and the perturbed model once each, and
    # every call integrates that same perturbed model: 40 windows are 6
    # records of at most WINDOWS_PER_RECORD windows, simulated 2 + 2 + 2.
    monkeypatch.setattr(oracle, "_CALL_SAMPLES", 1)
    cfg = config("two_photon", 0.5)
    perturbed = build_state_space(dataclasses.replace(
        cfg, squeeze=Squeezing("two_photon", 1.1 * cfg.squeeze.rate)))
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


def test_validate_averages_exactly_segments_windows(monkeypatch):
    # 36 windows of 4,096 samples are 4 records of 9 windows, keyed 0-3 and
    # simulated in one call, and every window is averaged once.
    calls, cut = [], []
    sim, add = oracle.simulate, oracle._add_periodograms

    def spy_simulate(ss, **kwargs):
        calls.append((kwargs["segment_offset"], kwargs["segments"],
                      kwargs["samples"]))
        return sim(ss, **kwargs)

    def spy_add(sums, records, hop, *args):
        cut.append((records.shape[0] * (records.shape[1] // hop - 1),
                    args[-1]))
        return add(sums, records, hop, *args)

    monkeypatch.setattr(oracle, "simulate", spy_simulate)
    monkeypatch.setattr(oracle, "_add_periodograms", spy_add)
    report = validate(config(), "baseline", segments=36, seed=4,
                      omega_lo=3e-2 * G0)
    assert calls == [(0, 4, 10 * 2048)]
    assert cut == [(36, 36)]
    assert report.segments == 36


@pytest.mark.parametrize("frac", [0.5, 0.9])
def test_default_step_keeps_the_grid(frac):
    # At half the default step a window holds twice the samples over the
    # same time, so the rFFT grid, the band and every log bin stay the same,
    # bit for bit.
    cfg = config("two_photon", frac)
    report = validate(cfg, "nondeg-sub", segments=32)
    fine = validate(cfg, "nondeg-sub", segments=32, dt=report.dt / 2)
    assert report.grid.size > 0
    assert np.array_equal(report.grid, fine.grid)


def test_validate_caps_call_output(monkeypatch):
    # The bench's validate, 200 windows of nondeg-sub at kappa = 0.5 gamma0:
    # 8 records of 25 windows, 26 hops of 8,192 samples each, four a call,
    # so no simulate call returns more than 851,968 output samples of a port.
    sizes, sim = [], oracle.simulate

    def spy_simulate(ss, **kwargs):
        result = sim(ss, **kwargs)
        sizes.append(result.outputs.shape[0] * result.outputs.shape[1])
        return result

    monkeypatch.setattr(oracle, "simulate", spy_simulate)
    validate(config("two_photon", 0.5), "nondeg-sub", segments=200)
    assert sum(sizes) == 8 * 26 * 8192 == 1703936
    assert max(sizes) <= 851968


def fixed_record_calls(segments, hop):
    """(records, hops a record) of each simulate call in the layout of
    records of WINDOWS_PER_RECORD windows, an even number a call within
    _CALL_SAMPLES, and one shorter record for the windows left over."""
    per = oracle.WINDOWS_PER_RECORD
    full, left = divmod(segments, per)
    step = max(2, oracle._CALL_SAMPLES // ((per + 1) * hop) // 2 * 2)
    calls = [(min(step, full - first), per + 1)
             for first in range(0, full, step)]
    return calls + [(1, left + 1)] * (left > 0)


@pytest.mark.parametrize("segments", [32, 33, 36, 200, 201])
@pytest.mark.parametrize("omega_lo, hop", [(1e-2 * G0, 1 << 13),
                                           (6.25e-4 * G0, 1 << 17)],
                         ids=["bench", "figure-band"])
def test_validate_record_layout(monkeypatch, segments, omega_lo, hop):
    # validate's record layout at the bench config and at a figure-band
    # window of 2**18 samples, with simulate and the periodogram stage
    # replaced by spies, so nothing is simulated.  Every call holds an even
    # number of equal records; only the last call leaves simulated windows
    # unaveraged, fewer than its records, and exactly ``segments`` are
    # averaged.  On two and on four workers the busiest one steps no more
    # hops than in the fixed-record layout, and in all at most 2 hops more
    # are stepped.
    calls, added, means = [], [], []
    mean = oracle._window_mean

    def spy_simulate(ss, *, segments, samples, dt, seed, segment_offset):
        calls.append((segment_offset, segments, samples))
        return oracle.SimulationResult(
            np.broadcast_to(np.zeros(1), (segments, samples, 2)))

    def spy_add(sums, records, step, *args):
        added.append((records.shape[0] * (records.shape[1] // step - 1),
                      args[-1], step))

    def spy_mean(sums, windows, records, *args):
        means.append((windows, records))
        return mean(sums, windows, records, *args)

    monkeypatch.setattr(oracle, "simulate", spy_simulate)
    monkeypatch.setattr(oracle, "_add_periodograms", spy_add)
    monkeypatch.setattr(oracle, "_window_mean", spy_mean)
    validate(config("two_photon", 0.5), "nondeg-sub", segments=segments,
             omega_lo=omega_lo)
    assert {step for _, _, step in added} == {hop}
    assert [first for first, _, _ in calls] == list(itertools.accumulate(
        [0] + [records for _, records, _ in calls[:-1]]))
    assert len(added) == len(calls)
    for i, ((_, records, samples), (simulated, averaged, _)) in enumerate(
            zip(calls, added)):
        assert records >= 2 and records % 2 == 0 and samples % hop == 0
        unaveraged = simulated - averaged
        assert unaveraged == 0 or i == len(calls) - 1
        assert 0 <= unaveraged < records
    assert sum(averaged for _, averaged, _ in added) == segments
    assert means == [(segments, sum(records for _, records, _ in calls))]
    hops = [(records, samples // hop) for _, records, samples in calls]
    fixed = fixed_record_calls(segments, hop)
    for workers in (2, 4):   # _in_parallel's largest part of a call
        assert sum(-(-n // min(workers, n)) * h for n, h in hops) \
            <= sum(-(-n // min(workers, n)) * h for n, h in fixed)
    assert sum(n * h for n, h in hops) <= sum(n * h for n, h in fixed) + 2
    if segments == 200:   # 8 records of 25 windows; 18 of 8 and 8 of 7
        assert hops == ([(4, 26)] * 2 if hop == 1 << 13
                        else [(2, 8)] * 4 + [(2, 9)] * 9)


def test_add_periodograms_first_windows():
    # _add_periodograms adds the first ``windows`` windows, record by
    # record: two records of three windows, the last window left out, add
    # what the first record and two windows of the second add.
    dt, hop = 1e-4, 256
    records = white_records(np.random.default_rng(2), 2, 4 * hop, dt)
    bins = np.arange(hop - 1)
    sums, want = np.zeros((2, hop - 2)), np.zeros((2, hop - 2))
    args = (hop, dt, slice(1, hop), None, np.ones(hop - 1), bins)
    oracle._add_periodograms(sums, records, *args, 5)
    oracle._add_periodograms(want, records[:1], *args, 3)
    oracle._add_periodograms(want, records[1:, :3 * hop], *args, 2)
    assert np.allclose(sums, want, rtol=1e-12)
    oracle._add_periodograms(want, records[1:, 2 * hop:], *args, 1)
    assert not np.allclose(sums, want, rtol=1e-12)


def test_validate_references_pinned_and_worker_independent(monkeypatch):
    # The bench's validate, seed 1: the record layout moves no reference.
    # grid, dt, closed_form and state_space_psd equal, bit for bit, the
    # values stored in validate_references.json, taken with records of
    # WINDOWS_PER_RECORD windows; the whole report is the same on one, two
    # and four workers.  The simulated estimate, stderr and pass_fraction
    # are pinned to 1e-12 relative, so a refactor that moves the report
    # fails here.
    with open(Path(__file__).with_name("validate_references.json"),
              encoding="utf-8") as fh:
        stored = json.load(fh)
    texts = []
    for workers in (1, 2, 4):
        monkeypatch.setattr(oracle, "WORKERS", workers)
        report = validate(config("two_photon", 0.5), "nondeg-sub",
                          segments=200, seed=1)
        texts.append(model.json_text(report.to_json_dict()))
    assert texts[0] == texts[1] == texts[2]
    doc = report.to_json_dict()
    for name in ("estimate", "stderr", "pass_fraction"):
        np.testing.assert_allclose(doc[name], stored.pop(name), rtol=1e-12,
                                   atol=0, err_msg=name)
    for name, values in stored.items():
        assert doc[name] == values, name


def test_validate_rejects_few_segments():
    with pytest.raises(SimulationError):
        validate(config(), "baseline", segments=8)


def test_array_results_compare_by_identity():
    # Dataclasses of arrays compare and hash by identity: a generated
    # field-wise == would ask numpy for the truth value of an array.
    cfg = config()
    pairs = [(build_state_space(cfg), build_state_space(cfg)),
             (spectra.spectrum_series(cfg, "baseline", [1.0, 2.0]),
              spectra.spectrum_series(cfg, "baseline", [1.0, 2.0])),
             (oracle.SimulationResult(np.zeros((1, 4, 2))),
              oracle.SimulationResult(np.zeros((1, 4, 2))))]
    names = [f.name for f in dataclasses.fields(oracle.ValidationReport)]
    pairs.append(tuple(oracle.ValidationReport(**dict.fromkeys(names, np.zeros(3)))
                       for _ in range(2)))
    for a, b in pairs:
        assert a == a and a != b
        assert hash(a) != hash(b)
