"""Independent time-domain validation of the frequency-domain spectra.

The model, stated and derived in the transfer module (``StateSpace``,
``build_state_space``, both importable from here too), is a three-state
linear Langevin system of the amplitude quadratures (the sum pair, which
drives the mechanics; the difference pair, which is measured; the
mechanics) forced by five white channels: the two input-port vacua, the two
loss vacua and the mechanical bath.  ``simulate`` integrates the
``StateSpace`` it is given, noise only (no signal force enters), and forms
the two output time series through that model's own output map
y = C x + D w (the reflected input D w must be built from the *same* noise
realization that drove the cavity, or the output spectrum is wrong at order
one).  Its burn-in and ``validate``'s shortest record count correlation
times of the slower optical pair (optical_decay).  ``validate`` estimates
single-sided PSDs by averaging the Hann periodograms of windows that overlap
by half (Welch, IEEE Trans. Audio Electroacoust. 15, 70 (1967)), cut from a
few long simulated records, and compares the signal-referred result against
the closed-form spectra in log bins.  A record of m windows takes m + 1
hops, so every record boundary costs a hop, and the records are as long as
memory allows.  Its periodogram stage, _add_periodograms, the one estimator
of this module and the one the calibration tests check, log-bins each window
before averaging, so a log bin's error is measured within the windows; only
the share of their overlap is taken from the window (_window_mean).  The
negative control, ``perturb``, simulates a perturbed config, a copy whose
squeeze rate is scaled by (1 + perturb) and which passes the same checks as
any config; a config of squeeze rate 0 refuses it.

Integration uses the exact one-step propagator: the matrix exponential of
the drift together with the exact joint covariance of (state increment,
state integral over the step, input-vacuum increment), obtained by Van
Loan's block trick (Van Loan, IEEE TAC 23, 395 (1978)).  A linear SDE is
discretized without bias this way at any step, so ``simulate`` accepts any
dt.  That covariance is projected onto the two things a step produces, the
next state (3 values) and the step-averaged output sample (2 values), and
factored once, so a step takes five standard normals.  The exponential is
numpy's own scaling and squaring of a Taylor polynomial (_expm), with the
noise block normalized to the drift's size; the oracle imports no scipy
module.  Noise conventions match the spectra module: vacuum channels have
unit single-sided PSD (delta correlation strength 1/2), the bath channel
2*n_T + 1.

``validate`` sizes its default step to the band, not to the dynamics alone:
dt = pi / max(1.5*omega_hi, 10*max_rate), the larger rate of the simulated
and the nominal model.  Its references are the expectation of the estimator
it computes, a Hann periodogram of step-averaged samples, taken exactly
from the sampled model (_sampled_psd): averaging over a step multiplies the
output PSD S by sinc^2(Omega*dt/2) and sampling folds every alias
Omega + 2*pi*m/dt onto each bin; the discrete model that ``simulate`` steps
holds both.  No alias is dropped, so the step need not keep them small; at
the default step the aliases m != 0 are up to 5e-4 of the reference.  The
closed-form reference is the nominal model's with its own alias m = 0
replaced by the closed form's, sinc^2(Omega*dt/2) times it.
Every response, continuous or sampled at z = exp(i*Omega*dt), is formed by
transfer.response, a forward substitution along the cascade (below).  One
``StateSpace.port_response`` gives the nominal weight, signal coefficient
and PSD; unperturbed, one sampled PSD serves both references.

For every squeeze kind the drift, and hence the one-step propagator, is
lower-triangular in the cascade order sum pair -> mechanics -> difference
pair.  The state recursion is therefore three scalar first-order
recurrences run in turn, each fed by the states upstream of it, and each is
evaluated as a blocked prefix scan (Blelloch 1990): all blocks of
_SCAN_BLOCK steps advance in lockstep, the states entering them come from
the same scan run over the block ends, and are then carried in.  A block
of 8 steps costs least per element: a larger block makes the scan's two
transposes write to more streams at once.  A propagator with an entry
against that order is rejected.  Time is processed in chunks of _CHUNK
steps, so the working memory does not grow with the record length.

Randomness is counter-based and parallel-safe: each (seed, segment,
component) triple owns a Philox stream, components 0-4 for the five normals
of a step.  A segment of ``simulate`` is one record of ``validate``, keyed
by record index and advanced alone, so its samples depend only on the
model, dt, the seed, its index and its length.

``simulate`` and the periodogram stage of ``validate`` run on WORKERS
threads, one for each core the process may run on.  ``simulate`` splits the
segments into contiguous parts, one thread each, and a thread runs its
segments one after another, each for the whole record.  The periodogram
stage gives each thread whole groups of _FFT_GROUP windows and adds the
per-group sums in group order, so outputs and reports do not depend on the
core count.  The threads spend their time in the generators, einsum, the
FFT and elementwise array operations, which release the interpreter lock.
They make no BLAS call: a multithreaded BLAS (OpenBLAS) lets its own idle
threads spin after every small product, and from several callers those
would take the cores the workers need.  The discretization runs on the
calling thread, in products of 14 x 14 matrices that numpy's BLAS runs on
that thread alone.  It does not call scipy.linalg.expm: after each call, a
thread of scipy's bundled OpenBLAS spins for about 130 ms on the core a
worker needs.  The public functions run on the calling thread only.

Memory of ``validate``: it holds the output samples of one ``simulate`` call
at a time: four records of one length (two where four of WINDOWS_PER_RECORD
windows do not fit), within _CALL_SAMPLES samples a port (14 MiB in all)
unless they hold WINDOWS_PER_RECORD windows (two of 1.2 M samples at 2**18).
``simulate`` writes each output sample in place, in one contiguous row per
segment and port: every step's output noise, then the read-out of the
state.  Each of its threads allocates once per call the states of a chunk
(three rows of _CHUNK + 1 values), one scratch row and the draws, about
4.6 MiB; on two threads a call of the bench's four 212,992-sample records
measures about 10 MiB besides its output under tracemalloc, under 12 MiB.
Each periodogram thread has one window buffer of _FFT_GROUP windows, filled
by contiguous copies from the port rows.  Each group's rFFT is cut to the
band and binned before the next is taken, the sums are kept per log bin,
and every per-bin step (subtraction weight, signal coefficient, closed
form, state-space PSD) runs on the band alone.  The records per call are
fixed, not derived from WORKERS: with the _FFT_GROUP window groups they set
the order in which the windows are summed, and so define the report.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, fields, replace

import numpy as np

from .model import SystemConfig, json_text, write_text
from .spectra import check_case, closed_form_psd
from .transfer import (CASCADE, StateSpace, build_state_space, check_cascade,
                       port_psd, response)

MIN_SEGMENTS = 32
MIN_CORRELATION_TIMES = 100.0
POINTS_PER_DECADE = 40    # log bins per decade of a validation report
WINDOWS_PER_RECORD = 8    # windows validate's longest record may always hold
_CALL_SAMPLES = 7 << 17   # output samples a port of a validate simulate call
MAX_WINDOW = 1 << 20      # validate's longest window (figure band: 2**18)
# Threads of simulate and of validate's periodogram stage: every core this
# process may run on.
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)
_FFT_GROUP = 5            # windows per windowed-rFFT group in validate
_SCAN_BLOCK = 8           # steps per block of the state scan
_CHUNK = 1 << 17          # steps simulate advances a segment at a time
_DRAW_BLOCK = 1 << 14     # steps a segment draws at once, so they stay in cache
_TAYLOR_DEGREE = 18       # of the matrix exponential


class SimulationError(ValueError):
    """Preconditions of the stochastic integrator violated."""


def max_rate(ss: StateSpace) -> float:
    """Fastest rate of the model, which sets the default step: the largest
    drift entry, at least every eigenvalue (a diagonal entry)."""
    return float(np.max(np.abs(ss.drift)))


def optical_decay(ss: StateSpace) -> float:
    """Decay rate of the slower optical pair: a diagonal entry of the drift."""
    decay = float(min(-ss.drift[0, 0], -ss.drift[1, 1]))
    if not decay > 0.0:
        raise SimulationError(f"an optical pair does not decay ({decay:.3g} /s)")
    return decay


def _band_step(omega_hi: float, *models: StateSpace) -> float:
    """Default step of validate: Nyquist at least 1.5*omega_hi, so the band
    is resolved, and at least 10 times the fastest rate of the models, so
    the aliases, which both references take from the models, stay a small
    share of them (up to 5e-4)."""
    return math.pi / max(1.5 * omega_hi,
                         10.0 * max(max_rate(ss) for ss in models))


def _expm(m: np.ndarray) -> np.ndarray:
    """exp(m) by scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26,
    1179 (2005)) with a degree-_TAYLOR_DEGREE Taylor polynomial: m is halved
    until its 1-norm is at most 1, where the truncation error is below
    1/19! ~ 1e-17, and the result is squared back.  Products only: the
    structural zeros of a block-triangular m stay exactly zero."""
    norm = float(np.abs(m).sum(axis=0).max())
    squarings = max(0, math.ceil(math.log2(norm))) if norm > 0.0 else 0
    a = m / 2.0 ** squarings
    eye = np.eye(m.shape[0])
    e = eye
    for k in range(_TAYLOR_DEGREE, 0, -1):   # Horner: e = I + a e / k
        e = eye + (a @ e) / k
    for _ in range(squarings):
        e = e @ e
    return e


def _discretize(ss: StateSpace, dt: float):
    """Exact one-step update of the state and of the output sample.

    Returns (phi_xx, read_x, factor): over a step of length dt
        x' = phi_xx x + e[:3]      (the next state)
        y  = read_x x + e[3:5]     (the step average of C x + D w)
    with e = factor @ (5 iid standard normals), whose covariance is the
    exact joint covariance of the state noise and the output noise.
    """
    n_aug = 7   # state, its integral over the step (two pairs), dW (0, 1)
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
    # discrete noise covariance into one matrix exponential.  Its upper
    # right block is linear in Qc, so Qc enters divided by s, which gives it
    # the norm of A (the exponent's norm is then about dt*max_rate), and
    # that block is scaled back by s.
    norm_q = float(np.abs(Qc).sum(axis=0).max())
    s = norm_q / float(np.abs(A).sum(axis=0).max()) if norm_q > 0.0 else 1.0
    block = np.zeros((2 * n_aug, 2 * n_aug))
    block[:n_aug, :n_aug] = -A
    block[:n_aug, n_aug:] = Qc / s
    block[n_aug:, n_aug:] = A.T
    G = _expm(block * dt)
    phi = G[n_aug:, n_aug:].T
    Qd = s * (phi @ G[:n_aug, n_aug:])

    # Project onto what a step produces: the next state and the output
    # sample (C zeta + D dW)/dt, zeta the integral of the pairs.
    C, D = ss.output_gain[:, :2], ss.feedthrough[:, :2]
    P = np.zeros((5, n_aug))
    P[:3, :3] = np.eye(3)
    P[3:, 3:5] = C / dt
    P[3:, 5:] = D / dt
    sigma = P @ Qd @ P.T
    sigma = (sigma + sigma.T) / 2.0

    # Factor at unit diagonal; a zero-variance row stays zero.
    scale = np.sqrt(np.clip(np.diag(sigma), 0.0, None))
    inv = np.divide(1.0, scale, out=np.zeros(5), where=scale > 0.0)
    vals, vecs = np.linalg.eigh(sigma * inv[:, None] * inv[None, :])
    factor = scale[:, None] * vecs * np.sqrt(np.clip(vals, 0.0, None))
    return phi[:3, :3], C @ phi[3:5, :3] / dt, factor


def _sampled_psd(ss: StateSpace, dt: float, omega: np.ndarray,
                 weight=None) -> np.ndarray:
    """Single-sided PSD of the output samples that ``simulate`` forms from
    ``ss`` at step dt: of the difference port, plus ``weight`` (per Omega,
    applied like _add_periodograms' weight) times the sum port when given.

    The samples obey x' = phi_xx x + factor[:3] e, y = read_x x + factor[3:] e
    (see _discretize), so with z = exp(i*Omega*dt), the rFFT's kernel, they
    respond to the normals e by h = read_x (z I - phi_xx)^-1 factor[:3] +
    factor[3:], and the PSD is 2*dt*sum_c |h[1, c] + weight*h[0, c]|^2.
    That is the PSD of the step averages folded over every alias
    Omega + 2*pi*m/dt, with the weight held at its value at Omega.
    """
    phi_xx, read_x, factor = _discretize(ss, dt)
    h = response(phi_xx, factor[:3], read_x, factor[3:], np.exp(1j * omega * dt))
    row = h[:, 1] if weight is None else h[:, 1] + weight[:, None] * h[:, 0]
    return 2.0 * dt * port_psd(row, np.ones(5))


def _scan(a: float, x: np.ndarray, scratch: np.ndarray | None = None) -> None:
    """In place, x[..., k+1] = a*x[..., k] + x[..., k+1] for k = 0, 1, ...

    On entry x[..., 0] is the initial state and x[..., 1:] the inputs, a
    whole number of _SCAN_BLOCK-step blocks; on return x holds the states.
    All blocks advance in lockstep, one step at a time from a zero state.
    The states entering the blocks are found by the same scan over the block
    ends, and are then added with weights a**(1..L).  The interpreter work
    is L steps per level, whatever the number of blocks.  Only elementwise
    array operations are used, no BLAS call.  The steps run in ``scratch``,
    a flat array of at least x[..., 1:].size values, or in a new array.
    """
    L = _SCAN_BLOCK
    lead = x.shape[:-1]
    blocks = (x.shape[-1] - 1) // L
    # A view: the last axis of x is contiguous and split into whole blocks.
    y = x[..., 1:].reshape(lead + (blocks, L))
    # Step i of every block at once, from contiguous rows t[i].
    shape = (L,) + lead + (blocks,)
    t = (np.empty(shape) if scratch is None
         else scratch[:math.prod(shape)].reshape(shape))
    t[...] = np.moveaxis(y, -1, 0)
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
    for i in range(L):
        t[i] += powers[i] * entering
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


@dataclass(eq=False)
class SimulationResult:
    """Output samples of a batch of independent segments."""

    outputs: np.ndarray   # (segments, samples, 2): sum port, difference port


def _segment_generators(seed: int, segment: int, components: int):
    return [np.random.Generator(np.random.Philox(
        np.random.SeedSequence(entropy=seed, spawn_key=(segment, comp))))
        for comp in range(components)]


def simulate(ss: StateSpace, *, segments: int = 1, samples: int, dt: float,
             seed: int = 0, segment_offset: int = 0) -> SimulationResult:
    """Integrate the given Langevin model ``ss``, emitting output samples.

    Each segment is an independent realization (its own noise streams keyed
    by absolute segment index) that starts from rest and is kept after a
    burn-in of ten correlation times of the slower optical pair (see
    optical_decay).  Output samples are step averages of y = C x + D w, the
    model's own output map, of the same realization that drove the state: a
    step's five normals carry the exact covariance of its state noise and
    output noise, cross terms included (see _discretize).  C may read the
    two pairs and D their input vacua (channels 0 and 1), and SimulationError
    is raised for any other entry.  The step is exact at any dt.

    The state update is a triangular cascade: the sum pair, then the
    mechanics, then the difference pair, each a scalar first-order recurrence
    (see _scan) whose input is its own noise and the upstream states through
    the off-diagonal propagator entries, scanned in blocks of _SCAN_BLOCK
    steps.  SimulationError is raised when the propagator has an entry
    against that order.  Each segment is advanced alone, in chunks of
    _CHUNK steps, so its samples do not depend on the other segments of the
    call, and the working memory besides the returned array, about 4.6 MiB
    a thread, does not grow with the record.  The segments are split over
    WORKERS threads (see the module docstring).

    ``outputs`` is a (segments, samples, 2) view of an array stored port by
    port: outputs[s, :, p] is contiguous.  Every step forms its output
    sample; the burn-in's lead each row and are dropped as a prefix.
    """
    if np.any(ss.output_gain[:, 2]) or np.any(ss.feedthrough[:, 2:]):
        raise SimulationError("output map reads beyond the two pairs and "
                              "their input vacua")
    burn_in = int(math.ceil(10.0 / (optical_decay(ss) * dt)))

    phi_xx, read_x, factor = _discretize(ss, dt)
    check_cascade(phi_xx, SimulationError)

    total = burn_in + samples
    out = np.empty((2, segments, total))   # port rows out[p, s]
    chunk = min(total, _CHUNK)
    width = 1 + -(-chunk // _SCAN_BLOCK) * _SCAN_BLOCK

    def integrate(lo: int, hi: int) -> None:
        # x[:, k] is the state entering step start + k, x[:, 1:] holds the
        # scan inputs until the scan.  z holds the draws of up to
        # _DRAW_BLOCK steps; the scans and the products run in scratch, so
        # the chunk loop allocates no array of chunk size.
        x = np.empty((3, width))
        z = np.empty((5, min(chunk, _DRAW_BLOCK)))
        scratch = np.empty(width - 1)

        def times(c: float, a: np.ndarray) -> np.ndarray:
            return np.multiply(c, a, out=scratch[:a.size])

        for s in range(lo, hi):
            gens = _segment_generators(seed, segment_offset + s, 5)
            x[:, 0] = 0.0   # from rest
            for start in range(0, total, chunk):
                size = min(chunk, total - start)
                for at in range(0, size, z.shape[1]):
                    to = min(size, at + z.shape[1])
                    for comp, gen in enumerate(gens):
                        gen.standard_normal(out=z[comp, :to - at])
                    np.einsum("rc,ck->rk", factor[:3], z[:, :to - at],
                              out=x[:, 1 + at:to + 1])
                    # A step's output noise goes straight to out.
                    np.einsum("rc,ck->rk", factor[3:], z[:, :to - at],
                              out=out[:, s, start + at:start + to])
                x[:, size + 1:] = 0.0   # zero inputs fill the last block
                stop = 1 + -(-size // _SCAN_BLOCK) * _SCAN_BLOCK
                for i, row in enumerate(CASCADE):
                    u = x[row, 1:size + 1]
                    for col in CASCADE[:i]:
                        u += times(phi_xx[row, col], x[col, :size])
                    _scan(phi_xx[row, row], x[row, :stop], scratch)

                for p, j in zip(*np.nonzero(read_x)):   # nonzero terms
                    out[p, s, start:start + size] += times(read_x[p, j],
                                                           x[j, :size])
                x[:, 0] = x[:, size]

    _in_parallel(integrate, segments)
    return SimulationResult(out[:, :, burn_in:].transpose(1, 2, 0))


# --- spectral estimation --------------------------------------------------------

def _add_periodograms(sums: np.ndarray, records: np.ndarray, hop: int,
                      dt: float, band: slice, weight, sig2: np.ndarray,
                      bounds: np.ndarray, windows: int | None = None) -> None:
    """Add the log-binned periodograms of the records' first ``windows``
    Hann windows (all by default), record by record, into sums[0] and their
    squares into sums[1], one column a log bin.

    A window is 2*hop samples long and the next starts hop samples later, so
    a record of (m + 1)*hop samples holds m windows, each overlapping its
    neighbours by half; a record of 2*hop samples is one window.  A window's
    periodogram is the single-sided Hann-window estimate (unit-PSD white
    noise reads 1) of its mean-removed difference port records[r, :, 1],
    plus ``weight`` (per band bin) times its sum port when a weight is
    given, divided by ``sig2``, on the rFFT bins ``band`` only; log bin i
    averages the band bins bounds[i]:bounds[i + 1].  The threads take whole
    groups of _FFT_GROUP windows (see the module docstring).
    """
    size = 2 * hop
    per_record = records.shape[1] // hop - 1
    if windows is None:
        windows = records.shape[0] * per_record
    win = np.hanning(size)
    norm = float(np.sum(win**2))
    groups = -(-windows // _FFT_GROUP)
    partial = np.empty((groups,) + sums.shape)

    def band_fft(port: int, first: int, rows: np.ndarray) -> np.ndarray:
        for k, row in enumerate(rows):
            r, j = divmod(first + k, per_record)
            row[...] = records[r, j * hop:j * hop + size, port]
        rows -= rows.mean(axis=-1, keepdims=True)
        rows *= win
        return np.fft.rfft(rows, axis=-1)[:, band].copy()

    def periodogram(begin: int, end: int) -> None:
        buf = np.empty((_FFT_GROUP, size))
        for g in range(begin, end):
            first = g * _FFT_GROUP
            rows = buf[:min(_FFT_GROUP, windows - first)]
            combined = band_fft(1, first, rows)
            if weight is not None:
                combined += weight * band_fft(0, first, rows)
            per = 2.0 * dt * np.abs(combined) ** 2 / norm / sig2
            binned = np.add.reduceat(per[:, :bounds[-1]], bounds[:-1],
                                     axis=1) / np.diff(bounds)
            partial[g, 0] = binned.sum(axis=0)
            partial[g, 1] = (binned**2).sum(axis=0)

    _in_parallel(periodogram, groups)
    for part in partial:
        sums += part


def _window_mean(sums: np.ndarray, windows: int, records: int, hop: int,
                 counts: np.ndarray):
    """Mean and standard error of each log bin (of counts[i] rFFT bins) of
    ``windows`` windows of 2*hop samples in ``records`` records, from the
    sums _add_periodograms adds: the estimator's one error model.

    The variance is the spread of a bin's values across windows.  For a PSD
    white inside a bin of n rFFT bins, adjacent windows w correlate by
        rho(n) = sum_{|d|<n} (n - |d|) |F(w[hop:] w[:-hop])[d]|^2
                 / sum_{|d|<n} (n - |d|) |F(w w)[d]|^2,
    F the 2*hop-point DFT (rho(1): Harris, Proc. IEEE 66, 51 (1978)), and
    windows further apart do not overlap: with windows - records adjacent
    pairs the variance scales by 1 + 2*rho*(windows - records)/windows.
    """
    mean = sums[0] / windows
    var = np.clip((sums[1] - windows * mean**2) / (windows - 1), 0.0, None)
    win, last = np.hanning(2 * hop), counts - 1

    def spread(v: np.ndarray) -> np.ndarray:   # a sum of rho, for each n
        p = np.abs(np.fft.rfft(v, 2 * hop)) ** 2
        c0, c1 = np.cumsum(p)[last], np.cumsum(np.arange(p.size) * p)[last]
        return 2.0 * (counts * c0 - c1) - counts * p[0]

    rho = spread(win[hop:] * win[:-hop]) / spread(win * win)
    share = 1.0 + 2.0 * rho * (windows - records) / windows
    return mean, np.sqrt(var * share / windows)


def log_binned(grid, columns, lo: float, hi: float, per_decade: int):
    """Average columns sampled on the ascending ``grid`` over log-spaced
    bins of [lo, hi), per_decade bins a decade.

    A bin is a contiguous range of grid indices.  Returns (centers, [binned
    columns], bounds) for the nonempty bins: bin i averages the grid points
    bounds[i]:bounds[i + 1], the layout _add_periodograms bins with.
    """
    decades = math.log10(hi / lo)
    edges = np.geomspace(lo, hi, max(2, int(round(decades * per_decade)) + 1))
    at = np.searchsorted(grid, edges)
    full = np.diff(at) > 0
    bounds = np.append(at[:-1][full], at[-1])
    outs = [np.add.reduceat(col[:bounds[-1]], bounds[:-1]) / np.diff(bounds)
            for col in columns]
    centers = np.sqrt(edges[:-1] * edges[1:])[full]
    return centers, outs, bounds


# --- validation harness -----------------------------------------------------------

@dataclass(eq=False)
class ValidationReport:
    """Comparison of the simulated spectrum against the closed form.

    ``closed_form`` and ``state_space_psd`` are the expectations of the
    estimate, signal-referred, per log bin: the PSD of the simulated model's
    step-averaged samples with every alias, and the nominal model's with
    its alias m = 0 taken from the closed form (see the module docstring).
    ``stderr`` is measured within the windows, the overlap share from the window.
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
        """Every field by name, cast by its annotation: an array to a list
        of floats."""
        cast = {"str": str, "bool": bool, "int": int, "float": float,
                "np.ndarray": lambda a: [float(x) for x in a]}
        return {f.name: cast[f.type](getattr(self, f.name))
                for f in fields(self)}

    def write_json(self, path) -> str:
        return write_text(path, json_text(self.to_json_dict()))


def validate(config: SystemConfig, case: str, *, segments: int = 200,
             seed: int = 1, tolerance: float = 0.05, perturb: float = 0.0,
             omega_lo: float | None = None, omega_hi: float | None = None,
             dt: float | None = None) -> ValidationReport:
    """Simulate one measured case and compare with its closed-form spectrum.

    The estimate averages ``segments`` Hann windows of N samples, the next
    starting N/2 samples later.  They are cut from records of consecutive
    windows, one ``simulate`` segment a record, four records a call (two
    where four records of WINDOWS_PER_RECORD windows exceed _CALL_SAMPLES
    samples): the fewest calls, each within _CALL_SAMPLES samples unless
    its records hold WINDOWS_PER_RECORD windows, the windows split evenly.
    Fewer than four windows of the last call may be simulated and not
    averaged, so exactly ``segments`` windows are averaged.  N is the power
    of 2 (at least 256) that spans four periods of omega_lo, and the
    compared band starts at the larger of omega_lo and the 8th window bin.
    A grid point agrees when |estimate - closed| <= max(3*stderr,
    tolerance*closed); the run passes when at least 95% of points agree.
    The points are log bins, POINTS_PER_DECADE a decade; a bin's stderr is
    measured within the windows, and only the share of their overlap is
    taken from the window (_window_mean).  The records must span
    MIN_CORRELATION_TIMES slower-pair correlation times (optical_decay) in all.

    ``perturb`` is the designed-mismatch negative control: the simulated
    model is built from a copy of ``config`` with the squeeze rate scaled by
    (1 + perturb), checked like any config, while every analytic reference
    (closed form, signal coefficient, subtraction filter) stays nominal.  A
    nonzero ``perturb`` at squeeze rate 0 raises SimulationError, and so do
    a negative ``seed`` and a band that is not 0 < omega_lo < omega_hi.  An
    explicit ``dt`` must be finite and positive and give
    pi/dt >= 1.5*omega_hi; the default is _band_step's.  N above MAX_WINDOW
    raises SimulationError.
    """
    if segments < MIN_SEGMENTS:
        raise SimulationError(f"need at least {MIN_SEGMENTS} segments")
    if not (math.isfinite(tolerance) and tolerance >= 0.0):
        raise SimulationError(f"tolerance = {tolerance}: it must be finite "
                              "and nonnegative")
    if not math.isfinite(perturb):
        raise SimulationError(f"perturb = {perturb}: it must be finite")
    if seed < 0:
        raise SimulationError(f"seed = {seed}: it must be nonnegative")
    port = check_case(config, case)
    ss_nom = ss_sim = build_state_space(config)
    if perturb != 0.0:
        if config.squeeze.rate == 0.0:   # kind "none" has rate 0 too
            raise SimulationError(f"perturb = {perturb}: an unsqueezed config "
                                  "has no squeeze rate to perturb")
        ss_sim = build_state_space(replace(config, squeeze=replace(
            config.squeeze, rate=config.squeeze.rate * (1.0 + perturb))))
    g0 = config.cavity.gamma0
    omega_lo = 1e-2 * g0 if omega_lo is None else omega_lo
    omega_hi = 10.0 * g0 if omega_hi is None else omega_hi
    if not 0.0 < omega_lo < omega_hi < math.inf:
        raise SimulationError(
            f"comparison band [{omega_lo:.3g}, {omega_hi:.3g}) rad/s: it needs "
            "0 < omega_lo < omega_hi, both finite")

    if dt is None:
        dt = _band_step(omega_hi, ss_sim, ss_nom)
    elif not (math.isfinite(dt) and dt > 0.0):
        raise SimulationError(f"dt = {dt} s: the step must be finite and "
                              "positive")
    elif math.pi / dt < 1.5 * omega_hi:
        raise SimulationError(
            f"dt = {dt:.3g} s too coarse for the band: Nyquist {math.pi / dt:.3g}"
            f" rad/s is below 1.5 * omega_hi = {1.5 * omega_hi:.3g} rad/s")
    span = 4.0 * 2.0 * math.pi / (omega_lo * dt)   # four periods of omega_lo
    if not span <= MAX_WINDOW:   # checked before anything is allocated
        raise SimulationError(f"a window of {span:.3g} samples at dt = {dt:.3g}"
                              f" s exceeds MAX_WINDOW = {MAX_WINDOW}")
    window = 1 << max(8, math.ceil(math.log2(span)))
    grid_full = 2.0 * math.pi * np.fft.rfftfreq(window, dt)

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
    # One nominal port response gives the subtraction weight, the signal
    # coefficient and the nominal PSD.  rFFT bins of a real record carry the
    # exp(+i*Omega*t) component, so the per-bin filter is the conjugate.
    row, nominal = ss_nom.port_response(grid, port)
    weight = None if nominal is None else np.conj(nominal)
    sig2 = np.abs(row[:, -1]) ** 2
    nominal_psd = port_psd(row, ss_nom.channel_psd) / sig2
    del row   # not held through the simulation, where the peak RSS is

    # The record layout of the docstring, windows hop samples apart.  Four
    # records a call, which one, two or four workers share evenly.
    hop = window // 2
    per_call = 2 if 4 * (WINDOWS_PER_RECORD + 1) * hop > _CALL_SAMPLES else 4
    most = max(WINDOWS_PER_RECORD, _CALL_SAMPLES // (per_call * hop) - 1)
    calls = -(-segments // (per_call * most))
    per, extra = divmod(-(-segments // per_call), calls)
    lengths = [(per + 1 + (c >= calls - extra)) * hop for c in range(calls)]
    duration = per_call * dt * sum(lengths)
    t_corr = 1.0 / optical_decay(ss_sim)
    if duration < MIN_CORRELATION_TIMES * t_corr:
        raise SimulationError(
            f"duration {duration:.3g} s below {MIN_CORRELATION_TIMES} correlation times"
            f" of the slower optical pair ({MIN_CORRELATION_TIMES * t_corr:.3g} s)")

    # Both references are the expectation of this estimator, the PSD of the
    # sampled model (see the module docstring).  The closed form replaces the
    # nominal model's own alias m = 0, sinc^2(Omega*dt/2) times its PSD.
    # Unperturbed, the simulated model is the nominal one: one sampled PSD.
    sampled = _sampled_psd(ss_nom, dt, grid, weight) / sig2
    ss_pred = sampled if ss_sim is ss_nom \
        else _sampled_psd(ss_sim, dt, grid, weight) / sig2
    roll = np.sinc(grid * dt / (2.0 * math.pi)) ** 2
    closed = sampled + roll * (closed_form_psd(case, config, grid)
                               - nominal_psd)
    centers, (closed_b, ss_b), bounds = log_binned(
        grid, [closed, ss_pred], lo, omega_hi, POINTS_PER_DECADE)

    sums = np.zeros((2, centers.size))
    for c, length in enumerate(lengths):
        # The call's output samples live only through this call.
        _add_periodograms(sums, simulate(
            ss_sim, segments=per_call, samples=length, dt=dt, seed=seed,
            segment_offset=c * per_call).outputs, hop, dt, band, weight, sig2,
            bounds, per_call * (length // hop - 1)
            - (c + 1 == calls) * (-segments % per_call))
    est_b, err_b = _window_mean(sums, segments, per_call * calls, hop,
                                np.diff(bounds))

    ok = np.abs(est_b - closed_b) <= np.maximum(3.0 * err_b,
                                                tolerance * closed_b)
    fraction = float(np.mean(ok))
    return ValidationReport(
        case=case, passed=fraction >= 0.95, pass_fraction=fraction,
        tolerance=tolerance, segments=segments, seed=seed, dt=dt,
        perturb=perturb, grid=centers, estimate=est_b, stderr=err_b,
        closed_form=closed_b, state_space_psd=ss_b)
