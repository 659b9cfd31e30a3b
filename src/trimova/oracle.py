"""Independent time-domain validation of the frequency-domain spectra.

The quadrature dynamics of each family form a three-state linear Langevin
system (driving pair, measured pair, mechanical quadrature) forced by five
white channels: the two input-port vacua, the two loss vacua and the
mechanical bath.  This module integrates that system, forms the two output
time series through the input/output boundary relation (the reflected input
must be built from the *same* noise realization that drove the cavity, or
the output spectrum is wrong at order one), estimates single-sided PSDs by
segment-averaged Hann periodograms, and compares the signal-referred result
against the closed-form spectra.

Integration uses the exact one-step propagator: the matrix exponential of
the drift together with the exact joint covariance of (state increment,
windowed state integral, noise increment), obtained by Van Loan's block
trick.  A linear SDE is discretized without bias this way; an Euler scheme
is kept for cross-checking.  Noise conventions match the spectra module:
vacuum channels have unit single-sided PSD (delta correlation strength 1/2),
the bath channel 2*n_T + 1.

For every family and squeeze kind the drift, and hence the one-step
propagator, is lower-triangular in the cascade order driving pair ->
mechanics -> measured pair.  The state recursion is therefore three scalar
first-order recurrences run in turn, each fed by the states upstream of it,
and each is evaluated as a blocked prefix scan (lower-triangular Toeplitz
matmuls within blocks, a carried state between them; Blelloch 1990) over all
segments at once.  A propagator with an entry against that order is
rejected.  Time is processed in chunks, so the working memory does not grow
with the record length.

Randomness is counter-based and parallel-safe: each (seed, segment,
component) triple owns a Philox stream, so results are reproducible and
independent of batching.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .model import SystemConfig
from .spectra import closed_form_psd, measurement_for_case
from .transfer import (AMPLITUDE, PHASE, Channel, MeasurementCase,
                       measured_port_name, transfer_coefficients)

CHANNELS = ("alpha_sum", "alpha_diff", "eps_sum", "eps_diff", "thermal")

DT_SAFETY = 0.05          # dt <= DT_SAFETY / fastest rate
MIN_SEGMENTS = 32
MIN_CORRELATION_TIMES = 100.0
_SCAN_BLOCK = 64          # steps per Toeplitz block of the state scan


class SimulationError(ValueError):
    """Preconditions of the stochastic integrator violated."""


@dataclass(frozen=True)
class StateSpace:
    """Linear Langevin model x' = A x + B w + e_f f(t), y = C x + D w.

    State order (g_sum, g_diff, d); outputs (sum port, difference port);
    noise channels as in CHANNELS with single-sided PSDs channel_psd.
    """

    drift: np.ndarray
    noise_gain: np.ndarray
    output_gain: np.ndarray
    feedthrough: np.ndarray
    channel_psd: np.ndarray
    signal_gain: np.ndarray
    measured_port: int

    def frequency_response(self, omega) -> np.ndarray:
        """H[frequency, output, channel] (Fourier kernel exp(-i*Omega*t))."""
        w = np.atleast_1d(np.asarray(omega, dtype=float))
        n = self.drift.shape[0]
        lhs = -1j * w[:, None, None] * np.eye(n) - self.drift[None, :, :]
        rhs = np.broadcast_to(self.noise_gain.astype(complex),
                              (w.size, n, self.noise_gain.shape[1]))
        x = np.linalg.solve(lhs, rhs)
        return np.einsum("oj,fjc->foc", self.output_gain, x) \
            + self.feedthrough[None, :, :]

    def signal_response(self, omega) -> np.ndarray:
        """Signal-to-output transfer [output] at each Omega."""
        w = np.atleast_1d(np.asarray(omega, dtype=float))
        n = self.drift.shape[0]
        lhs = -1j * w[:, None, None] * np.eye(n) - self.drift[None, :, :]
        x = np.linalg.solve(lhs, np.broadcast_to(self.signal_gain[:, None],
                                                 (w.size, n, 1)))
        return np.einsum("oj,fj->fo", self.output_gain, x[:, :, 0])

    def nulling_weight(self, omega) -> np.ndarray:
        """Reference-port filter cancelling the driving-pair input vacuum."""
        h = self.frequency_response(omega)
        drive_channel = 0 if self.measured_port == 1 else 1
        ref = 1 - self.measured_port
        return -h[:, self.measured_port, drive_channel] / h[:, ref, drive_channel]

    def output_psd(self, omega, port: int | None = None,
                   ref_weight=None) -> np.ndarray:
        """Single-sided PSD of one port or of (measured + weight*reference)."""
        h = self.frequency_response(omega)
        if ref_weight is None:
            row = h[:, self.measured_port if port is None else port, :]
        else:
            ref = 1 - self.measured_port
            row = h[:, self.measured_port, :] + ref_weight[:, None] * h[:, ref, :]
        return np.einsum("fc,c->f", np.abs(row) ** 2, self.channel_psd).real

    def steady_covariance(self) -> np.ndarray:
        """Stationary state covariance (Lyapunov solution)."""
        forcing = self.noise_gain @ np.diag(self.channel_psd / 2.0) @ self.noise_gain.T
        return scipy.linalg.solve_continuous_lyapunov(self.drift, -forcing)


def build_state_space(config: SystemConfig, family: str = AMPLITUDE,
                      squeeze_rate: float | None = None,
                      coupling: float | None = None) -> StateSpace:
    """Quadrature Langevin model of one family.

    Two-photon squeezing damps the pair that feeds back action at
    gamma - kappa (antisqueezed) and the measured pair at gamma + kappa;
    degenerate squeezing damps both amplitude pairs at gamma + upsilon and
    both phase pairs at gamma - upsilon.  For the amplitude family the
    mechanics are driven by the sum pair and read out in the difference
    pair; the phase family exchanges the ports.

    ``squeeze_rate`` overrides the configured rate (used by negative
    controls), ``coupling`` overrides the optomechanical rate (0 gives an
    empty cavity).
    """
    if family not in (AMPLITUDE, PHASE):
        raise ValueError("state space is defined per family: amplitude or phase")
    cav, mech = config.cavity, config.mechanical
    g0, ge, g = cav.gamma0, cav.gamma_e, cav.gamma
    rate = config.squeeze.rate if squeeze_rate is None else squeeze_rate
    kind = config.squeeze.kind

    drive_port = 0 if family == AMPLITUDE else 1   # pair pushing the mechanics
    measured = 1 - drive_port
    if kind == "degenerate":
        off = rate if family == AMPLITUDE else -rate
        decay = {drive_port: g + off, measured: g + off}
    else:
        decay = {drive_port: g - rate, measured: g + rate}

    c = math.sqrt(config.derived.K0 * g * (g0 - ge) / (2.0 * g0)) \
        if coupling is None else coupling

    A = np.zeros((3, 3))
    A[0, 0] = -decay[0]
    A[1, 1] = -decay[1]
    A[2, 2] = -mech.gamma_m
    A[measured, 2] = -c
    A[2, drive_port] = c

    B = np.zeros((3, 5))
    B[0, 0] = math.sqrt(2.0 * g0)
    B[1, 1] = math.sqrt(2.0 * g0)
    B[0, 2] = math.sqrt(2.0 * ge)
    B[1, 3] = math.sqrt(2.0 * ge)
    B[2, 4] = math.sqrt(2.0 * mech.gamma_m)

    C = np.zeros((2, 3))
    C[0, 0] = math.sqrt(2.0 * g0)
    C[1, 1] = math.sqrt(2.0 * g0)
    D = np.zeros((2, 5))
    D[0, 0] = -1.0
    D[1, 1] = -1.0

    psd = np.array([1.0, 1.0, 1.0, 1.0, 2.0 * config.derived.n_T + 1.0])
    e_f = np.array([0.0, 0.0, 1.0])

    eig = np.linalg.eigvals(A)
    if np.any(eig.real > 1e-12 * max(g, 1.0)):
        raise SimulationError(f"unstable drift, eigenvalues {eig}")
    return StateSpace(A, B, C, D, psd, e_f, measured)


def max_rate(ss: StateSpace) -> float:
    """Fastest rate scale of the model, bounding the usable step."""
    return float(max(np.max(np.abs(np.linalg.eigvals(ss.drift))),
                     np.max(np.abs(ss.drift))))


def _discretize(ss: StateSpace, dt: float, channel_scale=None):
    """Exact one-step update for (state, per-step output integrals, increments).

    Returns (phi_xx, phi_zx, m_sig, factor) where the per-step sample is
        x'   = phi_xx x + m_sig[:3] f + n[:3]
        zeta = phi_zx x + m_sig[3:5] f + n[3:5]   (integral of g over the step)
        dW   = n[5:7]                              (alpha increments)
    and n = factor @ iid standard normals (7).
    """
    scale = np.ones(5) if channel_scale is None else np.asarray(channel_scale,
                                                                dtype=float)
    n_aug = 7
    A = np.zeros((n_aug, n_aug))
    A[:3, :3] = ss.drift
    A[3, 0] = 1.0
    A[4, 1] = 1.0
    B = np.zeros((n_aug, 5))
    B[:3, :] = ss.noise_gain
    B[5, 0] = 1.0
    B[6, 1] = 1.0
    intensity = np.diag(ss.channel_psd * scale**2 / 2.0)
    Qc = B @ intensity @ B.T

    # Van Loan: exp([[-A, Qc], [0, A^T]] dt) packs the propagator and the
    # discrete noise covariance into one matrix exponential.
    block = np.zeros((2 * n_aug, 2 * n_aug))
    block[:n_aug, :n_aug] = -A
    block[:n_aug, n_aug:] = Qc
    block[n_aug:, n_aug:] = A.T
    G = scipy.linalg.expm(block * dt)
    phi = G[n_aug:, n_aug:].T
    Qd = phi @ G[:n_aug, n_aug:]
    Qd = (Qd + Qd.T) / 2.0

    vals, vecs = np.linalg.eigh(Qd)
    factor = vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None)))

    sig_block = np.zeros((n_aug + 1, n_aug + 1))
    sig_block[:n_aug, :n_aug] = A
    sig_block[:3, n_aug] = ss.signal_gain
    m_sig = scipy.linalg.expm(sig_block * dt)[:n_aug, n_aug]

    return phi[:3, :3], phi[3:5, :3], m_sig[:5], factor


def _step_model(ss: StateSpace, dt: float, method: str, channel_scale=None):
    """One-step update (phi_xx, phi_zx, m_sig, factor) of ``method``.

    "exact" is the Van Loan discretization; "euler" is first order, with the
    output integral zeta = x*dt and its noise part omitted.
    """
    if method == "exact":
        return _discretize(ss, dt, channel_scale)
    if method != "euler":
        raise ValueError(f"unknown method {method!r}")
    phi_xx = np.eye(3) + ss.drift * dt
    phi_zx = np.hstack([np.eye(2), np.zeros((2, 1))]) * dt
    m_sig = np.concatenate([ss.signal_gain * dt, np.zeros(2)])
    scale = np.ones(5) if channel_scale is None else np.asarray(channel_scale)
    amp = np.sqrt(ss.channel_psd * scale**2 / 2.0 * dt)
    factor = np.zeros((7, 7))
    factor[:3, :5] = ss.noise_gain * amp[None, :]
    factor[5, 0] = amp[0]
    factor[6, 1] = amp[1]
    return phi_xx, phi_zx, m_sig, factor


def _scan(a: float, u: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """States of x[k+1] = a*x[k] + u[..., k] from x[..., 0] = x0.

    Returns x[..., 0..n] for u of length n along its last axis.  Each block
    of _SCAN_BLOCK steps is one matmul with the lower-triangular Toeplitz
    matrix a**(i-j); the state entering a block is then added with weights
    a**(1..L).
    """
    L = _SCAN_BLOCK
    lead, n = u.shape[:-1], u.shape[-1]
    blocks = -(-n // L)
    padded = np.zeros(lead + (blocks * L,))
    padded[..., :n] = u
    lag = np.subtract.outer(np.arange(L), np.arange(L))
    toeplitz = np.tril(a ** np.abs(lag))
    y = (padded.reshape(-1, L) @ toeplitz.T).reshape(lead + (blocks, L))
    powers = a ** np.arange(1, L + 1)
    entering = np.empty(lead + (blocks,))
    carry = x0
    for b in range(blocks):
        entering[..., b] = carry
        carry = powers[-1] * carry + y[..., b, -1]
    y += entering[..., None] * powers
    x = np.empty(lead + (n + 1,))
    x[..., 0] = x0
    x[..., 1:] = y.reshape(lead + (blocks * L,))[..., :n]
    return x


@dataclass
class SimulationResult:
    """Output samples of a batch of independent segments."""

    outputs: np.ndarray      # (segments, samples, 2): sum port, difference port
    dt: float
    seed: int
    segment_offset: int
    states: np.ndarray | None = None


def _segment_generators(seed: int, segment: int, components: int):
    return [np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=seed, spawn_key=(segment, comp))))
        for comp in range(components)]


def simulate(config: SystemConfig, family: str = AMPLITUDE, *,
             segments: int = 1, samples: int, dt: float | None = None,
             seed: int = 0, segment_offset: int = 0,
             squeeze_rate: float | None = None,
             coupling: float | None = None,
             channel_scale=None,
             signal=None,
             method: str = "exact",
             burn_in: int | None = None,
             keep_states: bool = False) -> SimulationResult:
    """Integrate the quadrature Langevin model, emitting output samples.

    Each segment is an independent realization (its own noise streams keyed
    by absolute segment index).  Output samples are step averages of
    b = -a + sqrt(2*gamma0)*g built from the same increments that drove the
    state.  ``signal`` is an optional callable f(t) added to the mechanical
    equation.  ``method`` is "exact" (default) or "euler"; both run the same
    recursion.

    The state update is a triangular cascade: the driving pair, then the
    mechanics, then the measured pair, each a scalar first-order recurrence
    (see _scan) whose input is its own noise, the upstream states through
    the off-diagonal propagator entries, and the signal.  SimulationError is
    raised when the propagator has an entry against that order.  Time runs
    in chunks of about 2**19 steps summed over segments, so the working
    memory besides the returned arrays stays near 120 MB whatever the record
    length: the noise of a whole segment is never held at once.
    """
    ss = build_state_space(config, family, squeeze_rate=squeeze_rate,
                           coupling=coupling)
    rate_max = max_rate(ss)
    if dt is None:
        dt = DT_SAFETY / rate_max
    elif dt > DT_SAFETY / rate_max * (1 + 1e-9):
        raise SimulationError(
            f"dt = {dt:.3g} too coarse; need <= {DT_SAFETY / rate_max:.3g}")
    optical = np.linalg.eigvals(ss.drift[:2, :2])
    t_corr = 1.0 / min(abs(optical.real.min()), rate_max)
    if segments * samples * dt < MIN_CORRELATION_TIMES * t_corr:
        raise SimulationError(
            f"duration {segments * samples * dt:.3g} s below "
            f"{MIN_CORRELATION_TIMES} optical correlation times "
            f"({MIN_CORRELATION_TIMES * t_corr:.3g} s)")
    if burn_in is None:
        burn_in = int(math.ceil(10.0 / (min(abs(optical.real)) * dt))) \
            if np.all(np.abs(optical.real) > 0) else 0

    phi_xx, phi_zx, m_sig, factor = _step_model(ss, dt, method, channel_scale)
    order = (1 - ss.measured_port, 2, ss.measured_port)
    against = np.triu(phi_xx[np.ix_(order, order)], 1)
    # The Van Loan solve leaves rounding of ~1e-21 of the largest entry where
    # the propagator is structurally zero; the cascade drops it.
    if np.any(np.abs(against) > 1e-12 * np.abs(phi_xx).max()):
        raise SimulationError(
            "propagator couples against the cascade order driving pair -> "
            "mechanics -> measured pair")

    sqrt_2g0 = math.sqrt(2.0 * config.cavity.gamma0)
    total = burn_in + samples
    out = np.empty((segments, samples, 2))
    states = np.empty((segments, samples, 3)) if keep_states else None
    times = (np.arange(total) + 0.5) * dt
    f_vals = np.asarray([signal(t) for t in times]) if signal is not None else None

    all_gens = [_segment_generators(seed, segment_offset + s, 7)
                for s in range(segments)]
    x_start = np.zeros((3, segments))
    chunk = max(1, (8 << 20) // (16 * segments))   # 2**19 segment-steps
    z = np.empty((7, segments, chunk))
    for start in range(0, total, chunk):
        size = min(chunk, total - start)
        for s, gens in enumerate(all_gens):
            for comp, gen in enumerate(gens):
                gen.standard_normal(out=z[comp, s, :size])
        noise = (factor @ z[:, :, :size].reshape(7, -1)).reshape(7, segments, size)
        if f_vals is not None:
            noise[:5] += m_sig[:, None, None] * f_vals[start:start + size]
        # x[:, :, k] is the state entering step start + k; x[:, :, size] the
        # state handed to the next chunk.
        x = np.empty((3, segments, size + 1))
        for i, row in enumerate(order):
            u = noise[row]
            for col in order[:i]:
                u += phi_xx[row, col] * x[col, :, :-1]
            x[row] = _scan(phi_xx[row, row], u, x_start[row])
        x_start = x[:, :, -1].copy()

        first = max(0, burn_in - start)
        if first >= size:
            continue
        keep = slice(start + first - burn_in, start + size - burn_in)
        x_kept = x[:, :, first:-1]
        zeta = np.einsum("pj,jsk->psk", phi_zx, x_kept) + noise[3:5, :, first:]
        out[:, keep, :] = ((sqrt_2g0 * zeta - noise[5:7, :, first:]) / dt
                           ).transpose(1, 2, 0)
        if keep_states:
            states[:, keep, :] = x_kept.transpose(1, 2, 0)
    return SimulationResult(out, dt, seed, segment_offset, states)


# --- spectral estimation --------------------------------------------------------

@dataclass
class OracleEstimate:
    """Averaged single-sided periodogram with per-bin standard errors."""

    grid: np.ndarray
    psd: np.ndarray
    stderr: np.ndarray
    segments: int
    dt: float
    seed: int | None = None


def _windowed_ffts(y: np.ndarray, detrend: bool = True):
    """Hann-windowed rFFTs of segment rows; returns (ffts, norm)."""
    n = y.shape[-1]
    win = np.hanning(n)
    data = y - y.mean(axis=-1, keepdims=True) if detrend else y
    return np.fft.rfft(data * win, axis=-1), float(np.sum(win**2))


def estimate_psd(series: np.ndarray, dt: float,
                 segment_length: int | None = None,
                 window: str = "hann", detrend: bool = True,
                 seed: int | None = None) -> OracleEstimate:
    """Segment-averaged single-sided PSD (unit-PSD white noise reads 1).

    ``series`` is either 1-d (split into ``segment_length`` blocks) or 2-d
    with one segment per row.  At least 32 segments are required for the
    error bars to mean anything.
    """
    if window != "hann":
        raise ValueError("only the hann window is supported")
    y = np.asarray(series, dtype=float)
    if y.ndim == 1:
        if not segment_length:
            raise ValueError("segment_length required for a flat series")
        count = y.size // segment_length
        y = y[:count * segment_length].reshape(count, segment_length)
    if y.shape[0] < MIN_SEGMENTS:
        raise SimulationError(f"need at least {MIN_SEGMENTS} segments, "
                              f"got {y.shape[0]}")
    ffts, norm = _windowed_ffts(y, detrend)
    per = 2.0 * dt * np.abs(ffts) ** 2 / norm
    grid = 2.0 * math.pi * np.fft.rfftfreq(y.shape[-1], dt)
    return OracleEstimate(grid=grid,
                          psd=per.mean(axis=0),
                          stderr=per.std(axis=0, ddof=1) / math.sqrt(y.shape[0]),
                          segments=y.shape[0], dt=dt, seed=seed)


def log_binned(grid, columns, lo: float, hi: float, per_decade: int = 40):
    """Average linear-frequency columns into log-spaced bins.

    Returns (centers, [binned columns], counts); stderr-like columns must be
    combined separately (see _bin_stderr).
    """
    decades = math.log10(hi / lo)
    edges = np.geomspace(lo, hi, max(2, int(round(decades * per_decade)) + 1))
    idx = np.digitize(grid, edges) - 1
    keep = (idx >= 0) & (idx < edges.size - 1)
    counts = np.bincount(idx[keep], minlength=edges.size - 1)
    full = counts > 0
    outs = []
    for col in columns:
        sums = np.bincount(idx[keep], weights=col[keep], minlength=edges.size - 1)
        outs.append(sums[full] / counts[full])
    centers = np.sqrt(edges[:-1] * edges[1:])[full]
    return centers, outs, counts[full]


def _bin_stderr(grid, stderr, lo, hi, per_decade=40):
    centers, (var_sum,), counts = log_binned(grid, [stderr**2], lo, hi, per_decade)
    return np.sqrt(var_sum / counts)


# --- validation harness -----------------------------------------------------------

@dataclass
class ValidationReport:
    """Comparison of the simulated spectrum against the closed form."""

    case: str
    passed: bool
    pass_fraction: float
    tolerance: float
    segments: int
    seed: int
    dt: float
    perturb: float
    grid: np.ndarray
    estimate: np.ndarray
    stderr: np.ndarray
    closed_form: np.ndarray
    state_space_psd: np.ndarray   # what the simulated dynamics predict

    def to_json_dict(self) -> dict:
        out = {
            "case": self.case,
            "passed": bool(self.passed),
            "pass_fraction": float(self.pass_fraction),
            "tolerance": float(self.tolerance),
            "segments": int(self.segments),
            "seed": int(self.seed),
            "dt": float(self.dt),
            "perturb": float(self.perturb),
        }
        for name in ("grid", "estimate", "stderr", "closed_form",
                     "state_space_psd"):
            out[name] = [float(x) for x in getattr(self, name)]
        return out

    def write_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def validate(config: SystemConfig, case: str, *, segments: int = 200,
             seed: int = 1, tolerance: float = 0.05, perturb: float = 0.0,
             omega_lo: float | None = None, omega_hi: float | None = None,
             dt: float | None = None, points_per_decade: int = 40,
             batch: int = 50) -> ValidationReport:
    """Simulate one measured case and compare with its closed-form spectrum.

    A grid point agrees when |estimate - closed| <= max(3*stderr,
    tolerance*closed); the run passes when at least 95% of points agree.
    ``perturb`` scales the squeeze rate inside the simulated dynamics by
    (1 + perturb) while every analytic reference (closed form, signal
    coefficient, subtraction filter) stays nominal - the designed-mismatch
    negative control.
    """
    if segments < MIN_SEGMENTS:
        raise SimulationError(f"need at least {MIN_SEGMENTS} segments")
    meas = measurement_for_case(case)
    family = meas.family
    port_idx = 0 if measured_port_name(family) == "sum" else 1
    g0 = config.cavity.gamma0
    omega_lo = 1e-2 * g0 if omega_lo is None else omega_lo
    omega_hi = 10.0 * g0 if omega_hi is None else omega_hi

    sim_rate = config.squeeze.rate * (1.0 + perturb)
    ss_sim = build_state_space(config, family, squeeze_rate=sim_rate)
    ss_nom = build_state_space(config, family)
    if dt is None:
        dt = DT_SAFETY / max(max_rate(ss_sim), max_rate(ss_nom))
        if math.pi / dt < 3.0 * omega_hi:
            dt = math.pi / (3.0 * omega_hi)
    samples = 1 << max(8, math.ceil(math.log2(4.0 * 2.0 * math.pi
                                              / (omega_lo * dt))))
    grid_full = 2.0 * math.pi * np.fft.rfftfreq(samples, dt)

    weight = None
    if meas.port == "subtracted":
        # rFFT bins of a real record carry the exp(+i*Omega*t) component, so
        # the per-bin filter is the conjugate of the exp(-i*Omega*t) weight.
        weight = np.conj(ss_nom.nulling_weight(grid_full))

    # Analytic signal coefficient of the measured raw port (signal referring).
    raw_case = MeasurementCase(family, measured_port_name(family))
    sig = transfer_coefficients(config, raw_case, grid_full)[Channel.SIGNAL]
    sig2 = np.abs(sig) ** 2
    sig2[0] = np.inf   # DC bin is never compared

    per_sum = np.zeros(grid_full.size)
    per_sq = np.zeros(grid_full.size)
    done = 0
    while done < segments:
        todo = min(batch, segments - done)
        sim = simulate(config, family, segments=todo, samples=samples, dt=dt,
                       seed=seed, segment_offset=done, squeeze_rate=sim_rate)
        ffts, norm = _windowed_ffts(sim.outputs.transpose(0, 2, 1))
        combined = ffts[:, port_idx, :]
        if weight is not None:
            combined = combined + weight[None, :] * ffts[:, 1 - port_idx, :]
        per = 2.0 * dt * np.abs(combined) ** 2 / norm / sig2[None, :]
        per_sum += per.sum(axis=0)
        per_sq += (per**2).sum(axis=0)
        done += todo
        # Free this batch before the next simulate call allocates its own.
        del sim, ffts, combined, per

    est = per_sum / segments
    var = (per_sq - segments * est**2) / (segments - 1)
    stderr = np.sqrt(np.clip(var, 0.0, None) / segments)

    closed = closed_form_psd(case, config, grid_full[1:])
    ss_pred = ss_sim.output_psd(grid_full[1:],
                                ref_weight=None if weight is None
                                else np.conj(weight[1:])) / sig2[1:]

    # The first few window bins are biased by the sub-band mechanical wander;
    # compare from bin 8 upward.
    lo = max(omega_lo, 8.0 * grid_full[1])
    centers, (est_b, closed_b, ss_b), _ = log_binned(
        grid_full[1:], [est[1:], closed, ss_pred], lo, omega_hi,
        points_per_decade)
    err_b = _bin_stderr(grid_full[1:], stderr[1:], lo, omega_hi,
                        points_per_decade)

    ok = np.abs(est_b - closed_b) <= np.maximum(3.0 * err_b,
                                                tolerance * closed_b)
    fraction = float(np.mean(ok))
    return ValidationReport(
        case=case, passed=fraction >= 0.95, pass_fraction=fraction,
        tolerance=tolerance, segments=segments, seed=seed, dt=dt,
        perturb=perturb, grid=centers, estimate=est_b, stderr=err_b,
        closed_form=closed_b, state_space_psd=ss_b)
