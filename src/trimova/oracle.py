"""Independent time-domain validation of the frequency-domain spectra.

The amplitude quadratures form a three-state linear Langevin system (the
sum pair, which drives the mechanics; the difference pair, which is
measured; the mechanical quadrature) forced by five white channels: the two
input-port vacua, the two loss vacua and the mechanical bath.
``build_state_space`` states that system once, as a ``StateSpace`` (drift,
noise gain, output map, feedthrough).  ``simulate`` integrates the
``StateSpace`` it is given and forms the two output time series through
that model's own output map y = C x + D w (the reflected input D w must be
built from the *same* noise realization that drove the cavity, or the
output spectrum is wrong at order one).  ``validate`` estimates
single-sided PSDs by segment-averaged Hann periodograms and compares the
signal-referred result against the closed-form spectra.

Integration uses the exact one-step propagator: the matrix exponential of
the drift together with the exact joint covariance of (state increment,
windowed state integral, noise increment), obtained by Van Loan's block
trick (Van Loan, IEEE TAC 23, 395 (1978)).  A linear SDE is discretized
without bias this way at any step, so ``simulate`` accepts any dt.  Noise
conventions match the spectra module: vacuum channels have unit
single-sided PSD (delta correlation strength 1/2), the bath channel
2*n_T + 1.

``validate`` sizes its default step to the band, not to the dynamics alone:
dt = pi / max(3*omega_hi, 20*max_rate), the larger rate of the simulated and
the nominal model.  Its reference is the expectation of the estimator it
computes, a Hann periodogram of step-averaged samples: averaging over a step
multiplies the output PSD S by sinc^2(Omega*dt/2), and sampling folds the
aliases Omega + 2*pi*m/dt onto each bin.  The white floor (1 for a raw port,
1 + |w|^2 for the subtracted port with nulling weight w) folds to exactly
itself, so the reference is floor + sinc^2(Omega*dt/2) * (S - floor); the
m != 0 terms are dropped, being below 1e-4 of it at the default step.

For every squeeze kind the drift, and hence the one-step propagator, is
lower-triangular in the cascade order sum pair -> mechanics -> difference
pair.  The state recursion is therefore three scalar first-order
recurrences run in turn, each fed by the states upstream of it, and each is
evaluated as a two-level blocked prefix scan (Blelloch 1990): all blocks
advance in lockstep, the states entering them come from the same scan run
over the block ends, and are then carried in.  A propagator
with an entry against that order is rejected.  Time is processed in
chunks, so the working memory does not grow with the record length.  scipy
is imported on the first discretization only, so importing this module
(and the frequency-domain commands) loads no scipy module.

Randomness is counter-based and parallel-safe: each (seed, segment,
component) triple owns a Philox stream, so results are reproducible and
independent of batching.

``simulate`` and the periodogram stage of ``validate`` run on WORKERS
threads, one for each core the process may run on.  ``simulate`` splits the
segments into contiguous parts, one thread each, and a thread owns its
segments for the whole record: their draws, noise mixing, the three scans
and the output samples.  The periodogram stage gives each thread whole
groups of _FFT_GROUP segments and adds the per-group sums in group order.
A segment's arithmetic is the same whichever thread runs it, so outputs and
reports do not depend on the core count.  The threads spend their time in
the generators, einsum, the FFT and elementwise array operations, which
release the interpreter lock.  They make no BLAS call: a multithreaded
BLAS (OpenBLAS) lets its own idle threads spin after every small product,
and from several callers those would take the cores the workers need.  The
public functions run on the calling thread only.

Memory of ``validate``: it holds the output samples of at most BATCH
segments at once (one ``simulate`` call), one window buffer of _FFT_GROUP
segments per periodogram thread, and per-bin arrays of the compared band
only.  Each group's rFFT is cut to the band before the next is taken, and
every per-bin step (subtraction weight, signal coefficient, closed form,
state-space PSD, periodogram sums) runs on the band alone.  BATCH is a
fixed constant and not derived from WORKERS: the time chunk of ``simulate``,
and with it the last-bit rounding of each segment, depends on the segments
per call, and reports must not depend on the core count.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .model import SystemConfig, json_text
from .spectra import closed_form_psd, port_for_case
from .transfer import Channel, transfer_coefficients

DT_SAFETY = 0.05          # default step of simulate: DT_SAFETY / fastest rate
MIN_SEGMENTS = 32
MIN_CORRELATION_TIMES = 100.0
POINTS_PER_DECADE = 40    # log bins per decade of a validation report
BATCH = 30                # segments per simulate call in validate
# Threads of simulate and of validate's periodogram stage: every core this
# process may run on.
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)
_FFT_GROUP = 5            # segments per windowed-rFFT group in validate
_SCAN_BLOCK = 64          # steps per block of the state scan
_CASCADE = (0, 2, 1)      # sum pair -> mechanics -> difference pair


class SimulationError(ValueError):
    """Preconditions of the stochastic integrator violated."""


@dataclass(frozen=True)
class StateSpace:
    """Linear Langevin model x' = A x + B w + e_f f(t), y = C x + D w.

    State order (g_sum, g_diff, d); outputs (sum port, difference port);
    noise channels (alpha_sum, alpha_diff, eps_sum, eps_diff, thermal) with
    single-sided PSDs channel_psd.  The difference port is measured, the sum
    port is the subtraction reference.
    """

    drift: np.ndarray
    noise_gain: np.ndarray
    output_gain: np.ndarray
    feedthrough: np.ndarray
    channel_psd: np.ndarray
    signal_gain: np.ndarray
    measured_port: ClassVar[int] = 1

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
        """Reference-port filter cancelling the sum-pair input vacuum."""
        h = self.frequency_response(omega)
        return -h[:, 1, 0] / h[:, 0, 0]

    def output_psd(self, omega, ref_weight=None) -> np.ndarray:
        """Single-sided PSD of the measured port or of (measured +
        weight*reference)."""
        h = self.frequency_response(omega)
        row = h[:, 1, :]
        if ref_weight is not None:
            row = row + ref_weight[:, None] * h[:, 0, :]
        return np.einsum("fc,c->f", np.abs(row) ** 2, self.channel_psd).real


def build_state_space(config: SystemConfig,
                      squeeze_rate: float | None = None) -> StateSpace:
    """Langevin model of the amplitude quadratures.

    The sum pair drives the mechanics and the mechanics are read out in the
    difference pair.  Two-photon squeezing damps the sum pair at
    gamma - kappa (antisqueezed) and the difference pair at gamma + kappa;
    degenerate squeezing damps both pairs at gamma + upsilon.

    ``squeeze_rate`` overrides the configured rate (used by negative
    controls).
    """
    cav, mech = config.cavity, config.mechanical
    g0, ge, g = cav.gamma0, cav.gamma_e, cav.gamma
    rate = config.squeeze.rate if squeeze_rate is None else squeeze_rate

    c = math.sqrt(config.derived.K0 * g * (g0 - ge) / (2.0 * g0))

    A = np.zeros((3, 3))
    A[0, 0] = -(g + rate if config.squeeze.kind == "degenerate" else g - rate)
    A[1, 1] = -(g + rate)
    A[2, 2] = -mech.gamma_m
    A[1, 2] = -c
    A[2, 0] = c

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
    return StateSpace(A, B, C, D, psd, e_f)


def max_rate(ss: StateSpace) -> float:
    """Fastest rate scale of the model, which sets the default steps."""
    return float(max(np.max(np.abs(np.linalg.eigvals(ss.drift))),
                     np.max(np.abs(ss.drift))))


def _band_step(omega_hi: float, *models: StateSpace) -> float:
    """Default step of validate: Nyquist at least 3*omega_hi, so the band is
    resolved, and at least 20 times the fastest rate of the models, so the
    aliases the reference drops stay below 1e-4 of it."""
    return math.pi / max(3.0 * omega_hi,
                         20.0 * max(max_rate(ss) for ss in models))


def _discretize(ss: StateSpace, dt: float):
    """Exact one-step update for (state, per-step output integrals, increments).

    Returns (phi_xx, phi_zx, m_sig, factor) where the per-step sample is
        x'   = phi_xx x + m_sig[:3] f + n[:3]
        zeta = phi_zx x + m_sig[3:5] f + n[3:5]   (integral of g over the step)
        dW   = n[5:7]                              (alpha increments)
    and n = factor @ iid standard normals (7).
    """
    import scipy.linalg   # here, not at module level: only simulation needs it

    n_aug = 7
    A = np.zeros((n_aug, n_aug))
    A[:3, :3] = ss.drift
    A[3, 0] = 1.0
    A[4, 1] = 1.0
    B = np.zeros((n_aug, 5))
    B[:3, :] = ss.noise_gain
    B[5, 0] = 1.0
    B[6, 1] = 1.0
    intensity = np.diag(ss.channel_psd / 2.0)
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


def _scan(a: float, x: np.ndarray) -> None:
    """In place, x[..., k+1] = a*x[..., k] + x[..., k+1] for k = 0, 1, ...

    On entry x[..., 0] is the initial state and x[..., 1:] the inputs, a
    whole number of _SCAN_BLOCK-step blocks; on return x holds the states.
    All blocks advance in lockstep, one step at a time from a zero state.
    The states entering the blocks are found by the same scan over the block
    ends, and are then added with weights a**(1..L).  The interpreter work
    is L steps per level, whatever the number of blocks.  Only elementwise
    array operations are used, no BLAS call.
    """
    L = _SCAN_BLOCK
    lead = x.shape[:-1]
    blocks = (x.shape[-1] - 1) // L
    # A view: the last axis of x is contiguous and split into whole blocks.
    y = x[..., 1:].reshape(lead + (blocks, L))
    # Step i of every block at once, from contiguous rows t[i].
    t = np.moveaxis(y, -1, 0).copy()
    for i in range(1, L):
        t[i] += a * t[i - 1]
    powers = a ** np.arange(1, L + 1)
    if blocks <= 1:
        entering = x[..., :1]
    else:
        # The states entering the blocks obey the same recurrence over the
        # block ends, with multiplier a**L: scan them the same way.
        ends = np.zeros(lead + (1 + -(-blocks // L) * L,))
        ends[..., 0] = x[..., 0]
        ends[..., 1:blocks + 1] = t[-1]
        _scan(powers[-1], ends)
        entering = ends[..., :blocks]
    t += powers.reshape((L,) + (1,) * (len(lead) + 1)) * entering
    y[...] = np.moveaxis(t, 0, -1)


def _in_parallel(task, items: int) -> None:
    """Run task(lo, hi) on contiguous parts of range(items), one thread each.

    There are min(WORKERS, items) parts, differing in size by at most one.
    Every thread is joined before the first exception raised in any of them
    is re-raised here.
    """
    parts = min(WORKERS, items)
    bounds = [items * i // parts for i in range(parts + 1)]
    errors = []

    def run(lo, hi):
        try:
            task(lo, hi)
        except BaseException as exc:   # re-raised on the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=run, args=part, name="trimova-oracle")
               for part in zip(bounds[:-1], bounds[1:])]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


@dataclass
class SimulationResult:
    """Output samples of a batch of independent segments."""

    outputs: np.ndarray      # (segments, samples, 2): sum port, difference port
    dt: float
    states: np.ndarray | None = None


def _segment_generators(seed: int, segment: int, components: int):
    return [np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=seed, spawn_key=(segment, comp))))
        for comp in range(components)]


def simulate(ss: StateSpace, *, segments: int = 1, samples: int,
             dt: float | None = None, seed: int = 0, segment_offset: int = 0,
             signal=None,
             burn_in: int | None = None,
             keep_states: bool = False) -> SimulationResult:
    """Integrate the given Langevin model ``ss``, emitting output samples.

    Each segment is an independent realization (its own noise streams keyed
    by absolute segment index).  Output samples are step averages of
    y = C x + D w, the model's own output map, built from the same
    increments that drove the state; C may read the two pairs and D their
    input vacua (channels 0 and 1), and SimulationError is raised for any
    other entry.  ``signal`` is an optional callable f(t) entering through
    the model's signal gain.  The step is exact at any dt (default
    DT_SAFETY / fastest rate).

    The state update is a triangular cascade: the sum pair, then the
    mechanics, then the difference pair, each a scalar first-order recurrence
    (see _scan) whose input is its own noise, the upstream states through
    the off-diagonal propagator entries, and the signal.  SimulationError is
    raised when the propagator has an entry against that order.  Time runs
    in chunks of about 2**19 steps summed over segments, so the working
    memory besides the returned arrays stays under about 70 MB whatever the
    record length: the noise of a whole segment is never held at once.  The
    segments are split over WORKERS threads (see the module docstring).
    """
    if np.any(ss.output_gain[:, 2]) or np.any(ss.feedthrough[:, 2:]):
        raise SimulationError("output map reads beyond the two pairs and "
                              "their input vacua")
    rate_max = max_rate(ss)
    if dt is None:
        dt = DT_SAFETY / rate_max
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

    phi_xx, phi_zx, m_sig, factor = _discretize(ss, dt)
    against = np.triu(phi_xx[np.ix_(_CASCADE, _CASCADE)], 1)
    # The Van Loan solve leaves rounding of ~1e-21 of the largest entry where
    # the propagator is structurally zero; the cascade drops it.
    if np.any(np.abs(against) > 1e-12 * np.abs(phi_xx).max()):
        raise SimulationError(
            "propagator couples against the cascade order sum pair -> "
            "mechanics -> difference pair")

    C, D = ss.output_gain[:, :2], ss.feedthrough[:, :2]
    total = burn_in + samples
    out = np.empty((segments, samples, 2))
    states = np.empty((segments, samples, 3)) if keep_states else None
    times = (np.arange(total) + 0.5) * dt
    f_vals = np.asarray([signal(t) for t in times]) if signal is not None else None

    # Rows 0-2 are the state noise; rows 3-4 give output sample p as
    # read_x[p] . x + mix[3 + p] . z + drive[3 + p] * f, the step average of
    # y = C x + D w.
    mix = np.vstack([factor[:3], (C @ factor[3:5] + D @ factor[5:7]) / dt])
    drive = np.concatenate([m_sig[:3], C @ m_sig[3:5] / dt])
    read_x = C @ phi_zx / dt
    chunk = max(1, (8 << 20) // (16 * segments))   # 2**19 segment-steps
    width = 1 + -(-chunk // _SCAN_BLOCK) * _SCAN_BLOCK

    def integrate(lo: int, hi: int) -> None:
        gens = [_segment_generators(seed, segment_offset + s, 7)
                for s in range(lo, hi)]
        # x[:, :, k] is the state entering step start + k, x[:, :, 1:] holds
        # the scan inputs until the scan; y holds the output samples.
        x = np.zeros((3, hi - lo, width))
        y = np.empty((2, hi - lo, chunk))
        z = np.empty((7, chunk))
        for start in range(0, total, chunk):
            size = min(chunk, total - start)
            for s, seg_gens in enumerate(gens):
                for comp, gen in enumerate(seg_gens):
                    gen.standard_normal(out=z[comp, :size])
                np.einsum("rc,ck->rk", mix[:3], z[:, :size],
                          out=x[:, s, 1:size + 1])
                np.einsum("rc,ck->rk", mix[3:], z[:, :size],
                          out=y[:, s, :size])
            x[:, :, size + 1:] = 0.0   # zero inputs fill the last block
            if f_vals is not None:
                f = f_vals[start:start + size]
                x[:, :, 1:size + 1] += drive[:3, None, None] * f
                y[:, :, :size] += drive[3:, None, None] * f
            stop = 1 + -(-size // _SCAN_BLOCK) * _SCAN_BLOCK
            for i, row in enumerate(_CASCADE):
                u = x[row, :, 1:size + 1]
                for col in _CASCADE[:i]:
                    u += phi_xx[row, col] * x[col, :, :size]
                _scan(phi_xx[row, row], x[row, :, :stop])

            first = max(0, burn_in - start)
            if first < size:
                keep = slice(start + first - burn_in, start + size - burn_in)
                for p in range(2):
                    yp = y[p, :, first:size]
                    for j in range(3):
                        yp += read_x[p, j] * x[j, :, first:size]
                    out[lo:hi, keep, p] = yp
                if keep_states:
                    states[lo:hi, keep, :] = \
                        x[:, :, first:size].transpose(1, 2, 0)
            x[:, :, 0] = x[:, :, size]

    _in_parallel(integrate, segments)
    return SimulationResult(out, dt, states)


# --- spectral estimation --------------------------------------------------------

def _hann(n: int):
    """Hann window of n samples and its power sum."""
    win = np.hanning(n)
    return win, float(np.sum(win**2))


def estimate_psd(rows: np.ndarray, dt: float):
    """Segment-averaged Hann-window single-sided PSD (unit-PSD white noise
    reads 1): (grid, psd, stderr) of ``rows``, one segment per row.

    Each segment is detrended (mean removed).  At least 32 segments are
    required for the error bars to mean anything.
    """
    y = np.asarray(rows, dtype=float)
    if y.shape[0] < MIN_SEGMENTS:
        raise SimulationError(f"need at least {MIN_SEGMENTS} segments, "
                              f"got {y.shape[0]}")
    win, norm = _hann(y.shape[-1])
    data = y - y.mean(axis=-1, keepdims=True)
    per = 2.0 * dt * np.abs(np.fft.rfft(data * win, axis=-1)) ** 2 / norm
    grid = 2.0 * math.pi * np.fft.rfftfreq(y.shape[-1], dt)
    return (grid, per.mean(axis=0),
            per.std(axis=0, ddof=1) / math.sqrt(y.shape[0]))


def log_binned(grid, columns, lo: float, hi: float, per_decade: int = 40):
    """Average linear-frequency columns into log-spaced bins.

    Returns (centers, [binned columns], counts); a binned variance column
    divided by counts is the variance of the bin mean.
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


# --- validation harness -----------------------------------------------------------

@dataclass
class ValidationReport:
    """Comparison of the simulated spectrum against the closed form.

    ``closed_form`` and ``state_space_psd`` are the expectations of the
    estimate: the closed-form and the simulated model's PSD, each rolled off
    by sinc^2(Omega*dt/2) above the white floor of the step-averaged
    samples, then signal-referred (see the module docstring).
    """

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
        text = json_text(self.to_json_dict())
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def validate(config: SystemConfig, case: str, *, segments: int = 200,
             seed: int = 1, tolerance: float = 0.05, perturb: float = 0.0,
             omega_lo: float | None = None, omega_hi: float | None = None,
             dt: float | None = None) -> ValidationReport:
    """Simulate one measured case and compare with its closed-form spectrum.

    A grid point agrees when |estimate - closed| <= max(3*stderr,
    tolerance*closed); the run passes when at least 95% of points agree.
    ``perturb`` scales the squeeze rate inside the simulated dynamics by
    (1 + perturb) while every analytic reference (closed form, signal
    coefficient, subtraction filter) stays nominal - the designed-mismatch
    negative control.  An explicit ``dt`` must be finite and positive and
    give pi/dt >= 3*omega_hi; the default is _band_step's.
    """
    if segments < MIN_SEGMENTS:
        raise SimulationError(f"need at least {MIN_SEGMENTS} segments")
    port = port_for_case(case)
    g0 = config.cavity.gamma0
    omega_lo = 1e-2 * g0 if omega_lo is None else omega_lo
    omega_hi = 10.0 * g0 if omega_hi is None else omega_hi

    ss_sim = build_state_space(config,
                               squeeze_rate=config.squeeze.rate * (1.0 + perturb))
    ss_nom = build_state_space(config)
    if dt is None:
        dt = _band_step(omega_hi, ss_sim, ss_nom)
    elif not (math.isfinite(dt) and dt > 0.0):
        raise SimulationError(f"dt = {dt} s: the step must be finite and "
                              "positive")
    elif math.pi / dt < 3.0 * omega_hi:
        raise SimulationError(
            f"dt = {dt:.3g} s too coarse for the band: Nyquist {math.pi / dt:.3g}"
            f" rad/s is below 3 * omega_hi = {3.0 * omega_hi:.3g} rad/s")
    samples = 1 << max(8, math.ceil(math.log2(4.0 * 2.0 * math.pi
                                              / (omega_lo * dt))))
    grid_full = 2.0 * math.pi * np.fft.rfftfreq(samples, dt)

    # The first few window bins are biased by the sub-band mechanical wander;
    # compare from bin 8 upward.  Every per-bin step below runs on the
    # compared bins lo <= Omega < omega_hi only, the bins log_binned keeps.
    # None of them is the DC bin, which at gamma_m = 0 is the mechanical pole.
    lo = max(omega_lo, 8.0 * grid_full[1])
    band = slice(int(np.searchsorted(grid_full, lo)),
                 int(np.searchsorted(grid_full, omega_hi)))
    grid = grid_full[band]
    if grid.size == 0:
        raise SimulationError(f"no frequency bin in the comparison band "
                              f"[{lo:.3g}, {omega_hi:.3g}) rad/s")
    weight = None
    if port == "subtracted":
        # rFFT bins of a real record carry the exp(+i*Omega*t) component, so
        # the per-bin filter is the conjugate of the exp(-i*Omega*t) weight.
        weight = np.conj(ss_nom.nulling_weight(grid))

    # Analytic signal coefficient of the measured raw port (signal referring).
    sig2 = np.abs(transfer_coefficients(config, "difference", grid)
                  [Channel.SIGNAL]) ** 2
    win, norm = _hann(samples)

    def band_fft(rows: np.ndarray, buf: np.ndarray) -> np.ndarray:
        """Band bins of the rFFTs of the Hann-windowed, mean-removed rows,
        windowed in place in buf."""
        buf[...] = rows
        buf -= buf.mean(axis=-1, keepdims=True)
        buf *= win
        return np.fft.rfft(buf, axis=-1)[:, band].copy()

    per_sum = np.zeros(grid.size)
    per_sq = np.zeros(grid.size)
    done = 0
    while done < segments:
        todo = min(BATCH, segments - done)
        outputs = simulate(ss_sim, segments=todo, samples=samples, dt=dt,
                           seed=seed, segment_offset=done).outputs
        # Per-bin sums of each fixed group of segments, added in group order
        # below, so that the result does not depend on the thread count.
        groups = -(-todo // _FFT_GROUP)
        partial = np.empty((groups, 2, grid.size))

        def periodogram(begin: int, end: int) -> None:
            buf = np.empty((_FFT_GROUP, samples))
            for g in range(begin, end):
                y = outputs[g * _FFT_GROUP:(g + 1) * _FFT_GROUP]
                rows = buf[:y.shape[0]]
                combined = band_fft(y[:, :, 1], rows)
                if weight is not None:
                    combined += weight * band_fft(y[:, :, 0], rows)
                per = 2.0 * dt * np.abs(combined) ** 2 / norm / sig2
                partial[g, 0] = per.sum(axis=0)
                partial[g, 1] = (per**2).sum(axis=0)

        _in_parallel(periodogram, groups)
        for part_sum, part_sq in partial:
            per_sum += part_sum
            per_sq += part_sq
        done += todo
        # Free this batch before the next simulate call allocates its own.
        del outputs

    est = per_sum / segments
    var = (per_sq - segments * est**2) / (segments - 1)
    stderr = np.sqrt(np.clip(var, 0.0, None) / segments)

    # Both references are the expectation of this estimator (see the module
    # docstring): the output PSD, before signal referring, rolls off by
    # sinc^2(Omega*dt/2) above the white floor that the step average keeps.
    floor = 1.0 if weight is None else 1.0 + np.abs(weight) ** 2
    roll = np.sinc(grid * dt / (2.0 * math.pi)) ** 2

    def expected(output_psd: np.ndarray) -> np.ndarray:
        return (floor + roll * (output_psd - floor)) / sig2

    closed = expected(closed_form_psd(case, config, grid) * sig2)
    ss_pred = expected(ss_sim.output_psd(grid, ref_weight=None if weight is None
                                         else np.conj(weight)))

    centers, (est_b, closed_b, ss_b, var_b), counts = log_binned(
        grid, [est, closed, ss_pred, stderr ** 2], lo,
        omega_hi, POINTS_PER_DECADE)
    err_b = np.sqrt(var_b / counts)

    ok = np.abs(est_b - closed_b) <= np.maximum(3.0 * err_b,
                                                tolerance * closed_b)
    fraction = float(np.mean(ok))
    return ValidationReport(
        case=case, passed=fraction >= 0.95, pass_fraction=fraction,
        tolerance=tolerance, segments=segments, seed=seed, dt=dt,
        perturb=perturb, grid=centers, estimate=est_b, stderr=err_b,
        closed_form=closed_b, state_space_psd=ss_b)
