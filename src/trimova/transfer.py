"""The linear model of the measured quadratures and its transfer coefficients.

The two side-mode outputs are detected separately, each in its amplitude
quadrature (the optimal readout under both squeezing kinds); the sum and the
difference of those quadratures form the working ports.
``build_state_space`` states the linear Langevin model of these quadratures
once, as a ``StateSpace``, with two outputs:

* the sum port, the subtraction reference: a passive reflection of the
  sum-pair vacua that carries no mechanical content;
* the difference port, measured: its own vacua, the signal and thermal
  forces, and the back action fed into the mechanics by the sum-pair vacua.

``StateSpace.port_response`` owns the measured PORTS: from one response it
forms the coefficient of every input channel of CHANNELS (input-port
vacuum, internal-loss vacuum, thermal force, signal force) in "difference",
or in "subtracted", the difference port plus the sum port times the nulling
weight, which cancels the input-vacuum back action exactly.  It alone forms
that weight, behind the pole guard: where the sum port reflects no input
vacuum (upsilon = gamma0 - gamma_e at Omega = 0) it raises PoleError.  The
loss-vacuum residual that survives internal loss is formed without
cancellation, and ``transfer_coefficients`` refers the row to the signal.
Every response, of this model and of the oracle's sampled one, is formed by
``response``: one ``resolvent``, a forward substitution along the CASCADE.

Derivation.  With side modes a+, a-, mechanics b and two-photon squeezing at
rate kappa, H/hbar = G (a+^ b + a-^ b^ + h.c.) + i kappa (a+^ a-^ - a+ a-)
(^ the adjoint).  The sum pair S = a+ + a-^ has [S, S^] = 0 and obeys
dS/dt = -(gamma - kappa) S + noise with no mechanical term, a
quantum-mechanics-free subsystem (Tsang & Caves, PRX 2, 031016 (2012)).  The
difference pair D = a+ - a-^ obeys dD/dt = -(gamma + kappa) D - 2iG b, and
db/dt = -iG S - gamma_m b + noise.  So the amplitude chain runs one way:
X+ + X- (rate gamma - kappa, antisqueezed) -> mechanics -> X+ - X- (rate
gamma + kappa, squeezed).  Back action enters through the antisqueezed pair;
it, the signal and the imprecision leave through the squeezed one.
Degenerate squeezing at rate upsilon damps both pairs at gamma + upsilon.
On the lossless raw port at gamma_m = 0 imprecision times back action is
Omega^2, the SQL product (Clerk et al., RMP 82, 1155 (2010)).

Conventions: Fourier kernel exp(-i*Omega*t), so every coefficient obeys
c(-Omega) = conj(c(Omega)); vacuum channels have unit single-sided PSD, the
bath channel 2*n_T + 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .model import SystemConfig

PORTS = ("difference", "subtracted")


class PoleError(ArithmeticError):
    """Evaluation at a pole of a coefficient or of the subtraction filter."""


# The StateSpace input columns in order: the input-port (alpha) and the
# internal-loss (eps) vacua of the quadrature sum and difference and the
# mechanical bath, whose PSDs channel_psd gives, then the signal force.
CHANNELS = ("alpha_plus", "alpha_minus", "eps_plus", "eps_minus", "thermal",
            "signal")
CASCADE = (0, 2, 1)   # state order sum pair -> mechanics -> difference pair


def check_cascade(m: np.ndarray, error=ValueError) -> None:
    """Raise ``error`` where m has an entry against CASCADE above 1e-12
    max|m|."""
    against = np.triu(m[np.ix_(CASCADE, CASCADE)], 1)
    if np.any(np.abs(against) > 1e-12 * np.abs(m).max()):
        raise error("matrix couples against the cascade order sum pair -> "
                    "mechanics -> difference pair")


def resolvent(m: np.ndarray, s: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """(s I - m)^-1 rhs at each s, as x[state, column, frequency]: m is
    lower-triangular in CASCADE order (check_cascade), so this is a forward
    substitution along the cascade, in elementwise operations on frequency
    vectors.  PoleError where an s lies within 1e-14 max|m| of a diagonal
    entry of m, an eigenvalue."""
    check_cascade(m)
    x = np.empty((m.shape[0], rhs.shape[1], s.size), dtype=complex)
    for i, r in enumerate(CASCADE):
        gap = s - m[r, r]
        if np.any(np.abs(gap) <= 1e-14 * np.abs(m).max()):
            raise PoleError("response evaluated at a pole (stability boundary)")
        x[r] = rhs[r][:, None] + sum(m[r, c] * x[c] for c in CASCADE[:i]
                                     if m[r, c])
        x[r] /= gap
    return x


def response(drift: np.ndarray, gain: np.ndarray, read: np.ndarray,
             feed: np.ndarray, s: np.ndarray) -> np.ndarray:
    """read (s I - drift)^-1 gain + feed at each s, as the view
    h[frequency, output, column]: one ``resolvent``, then the read-out in
    elementwise operations, zero terms of ``read`` skipped."""
    x = resolvent(drift, s, gain)
    y = np.zeros((read.shape[0],) + x.shape[1:], complex) + feed[..., None]
    for o, j in zip(*np.nonzero(read)):
        y[o] += read[o, j] * x[j]
    return y.transpose(2, 0, 1)


def port_psd(row: np.ndarray, channel_psd: np.ndarray) -> np.ndarray:
    """PSD of a port that responds by row[frequency, channel] to channels of
    PSD channel_psd; columns past channel_psd (the signal) are not read."""
    return sum(p * np.abs(row[:, c]) ** 2 for c, p in enumerate(channel_psd))


@dataclass(frozen=True, eq=False)
class StateSpace:
    """Linear Langevin model x' = A x + B w + e_f f(t), y = C x + D w.

    State order (g_sum, g_diff, d); outputs (sum port, difference port);
    noise channels CHANNELS[:-1] (the last is the signal force), of
    single-sided PSDs channel_psd.  The difference port is measured, the
    sum port is the subtraction reference.
    """

    drift: np.ndarray
    noise_gain: np.ndarray
    output_gain: np.ndarray
    feedthrough: np.ndarray
    channel_psd: np.ndarray
    signal_gain: np.ndarray
    measured_port: ClassVar[int] = 1

    def response(self, omega) -> np.ndarray:
        """H[frequency, output, input] over CHANNELS, the noise channels then
        the signal force (Fourier kernel exp(-i*Omega*t))."""
        s = -1j * np.atleast_1d(np.asarray(omega, dtype=float))
        gain = np.c_[self.noise_gain, self.signal_gain]
        feed = np.c_[self.feedthrough, np.zeros(2)]
        return response(self.drift, gain, self.output_gain, feed, s)

    def signal_response(self, omega) -> np.ndarray:
        """Signal-to-output transfer [frequency, output]."""
        return self.response(omega)[:, :, -1]

    def port_response(self, omega, port: str):
        """(row, weight) of a measured port (see PORTS) from one response:
        row[frequency, input] over CHANNELS, and the sum port's nulling
        weight, None for "difference".  Subtracted, alpha+ is 0 by the
        weight's definition, and eps+, which like alpha+ enters through the
        sum-pair state only, is alpha+'s reflection scaled by their gain
        ratio: no column cancels."""
        if port not in PORTS:
            raise ValueError(f"unknown port {port!r}; expected one of {PORTS}")
        h = self.response(omega)
        row = h[:, self.measured_port]
        if port == "difference":
            return row, None
        guard_subtraction(h[:, 0, 0])
        weight = -h[:, 1, 0] / h[:, 0, 0]
        row[:, 0] = 0.0
        row[:, 2] = weight * (-self.feedthrough[0, 0] * self.noise_gain[0, 2]
                              / self.noise_gain[0, 0])
        return row, weight

    def nulling_weight(self, omega) -> np.ndarray:
        """Reference-port filter cancelling the sum-pair input vacuum."""
        return self.port_response(omega, "subtracted")[1]

    def output_psd(self, omega, ref_weight=None) -> np.ndarray:
        """Single-sided PSD of the measured port or of (measured +
        weight*reference), the weighted sum formed directly."""
        h = self.response(omega)
        row = h[:, 1] if ref_weight is None \
            else h[:, 1] + ref_weight[:, None] * h[:, 0]
        return port_psd(row, self.channel_psd)


def build_state_space(config: SystemConfig) -> StateSpace:
    """Langevin model of the amplitude quadratures (see the module docstring).

    The sum pair drives the mechanics and the mechanics are read out in the
    difference pair.  Two-photon squeezing damps the sum pair at
    gamma - kappa (antisqueezed) and the difference pair at gamma + kappa;
    degenerate squeezing damps both pairs at gamma + upsilon.  The drift is
    stable for every config: SystemConfig requires kappa < gamma.
    """
    cav, mech = config.cavity, config.mechanical
    g0, ge, g = cav.gamma0, cav.gamma_e, cav.gamma
    rate = config.squeeze.rate

    c = math.sqrt(config.pump_rate / (2.0 * g0))

    A = np.zeros((3, 3))
    A[0, 0] = -(g + rate if config.squeeze.kind == "degenerate" else g - rate)
    A[1, 1] = -(g + rate)
    A[2, 2] = -mech.gamma_m
    A[1, 2] = -c
    A[2, 0] = c

    B = np.zeros((3, 5))
    B[0, 0] = B[1, 1] = math.sqrt(2.0 * g0)
    B[0, 2] = B[1, 3] = math.sqrt(2.0 * ge)
    B[2, 4] = math.sqrt(2.0 * mech.gamma_m)

    C = np.zeros((2, 3))
    C[0, 0] = C[1, 1] = math.sqrt(2.0 * g0)
    D = np.zeros((2, 5))
    D[0, 0] = D[1, 1] = -1.0

    e_f = np.array([0.0, 0.0, 1.0])
    return StateSpace(A, B, C, D, channel_psd(config), e_f)


def channel_psd(config: SystemConfig) -> np.ndarray:
    """Single-sided PSDs of the StateSpace noise channels: 1 for each
    vacuum, 2*n_T + 1 for the mechanical bath."""
    return np.array([1.0, 1.0, 1.0, 1.0,
                     2.0 * config.mechanical.occupancy + 1.0])


def guard_subtraction(reflection) -> None:
    """Raise PoleError where the reference port reflects no input vacuum.

    ``reflection`` is the reference-port reflection of the sum-pair input
    vacuum, (gamma0 - gamma_e - s + i*Omega)/(gamma + s - i*Omega) with the
    sum pair decaying at gamma + s; the subtraction filter divides by it.
    """
    if np.any(np.abs(reflection) <= 1e-14):
        raise PoleError("subtraction filter undefined: the reference port "
                        "reflects no input vacuum (upsilon = gamma0 - gamma_e "
                        "at Omega = 0)")


def transfer_coefficients(config: SystemConfig, port: str, omega) -> dict:
    """Signal-referred coefficient map, channel name (CHANNELS) -> complex
    array over ``omega``, of one port (see PORTS): the row of
    StateSpace.port_response divided by its signal coefficient, which leaves
    exactly 1 in the signal slot; ValueError where a quotient is not finite
    (a signal coefficient 0 or too small)."""
    row = build_state_space(config).port_response(omega, port)[0]
    sig = row[:, -1]
    with np.errstate(all="ignore"):   # refused below, without warnings
        row = row / sig[:, None]
    finite = np.isfinite(row).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"{port} port at Omega = {np.ravel(omega)[i]:.3g} rad/s: the "
                         f"noise over signal coefficient {abs(sig[i]):.3g} is not finite")
    row[:, -1] = 1.0
    return dict(zip(CHANNELS, row.T))
