"""Per-frequency transfer coefficients from noise/signal channels to outputs.

The two side-mode outputs are detected separately, each in its amplitude
quadrature (the optimal readout under both squeezing kinds); the sum and the
difference of those quadratures form the working ports.  For each spectral
frequency Omega this module gives the complex coefficient with which every
input channel (input-port vacuum, internal-loss vacuum, mechanical thermal
force, signal force) appears in a chosen port:

* "sum", the reference port: a passive reflection of the sum-pair vacua that
  carries no mechanical content;
* "difference", the measured port: its own vacua, the signal and thermal
  forces, and the back action fed into the mechanics by the sum-pair vacua;
* "subtracted": the measured port plus a filtered copy of the reference port,
  the filter chosen so that the input-vacuum back-action channel cancels
  exactly.  With internal loss the cancellation is partial: a loss-vacuum
  residual survives.

Writing D(r) = gamma0 + gamma_e + r - i*Omega, the measured port responds
through D(r_own) and the reference port through D(r_ref), with

    two-photon (rate kappa):        r_own = +kappa, r_ref = -kappa
    degenerate (rate upsilon):      r_own = r_ref = +upsilon

and the back-action/measurement strength K0*gamma*(gamma0-gamma_e)/D(r_own)^2.

Conventions: Fourier kernel exp(-i*Omega*t), so every coefficient obeys
c(-Omega) = conj(c(Omega)).  Square roots take the principal branch (the
back-action denominators have positive real part for stable configs, so
sqrt(strength) = sqrt(K0*gamma*(gamma0-gamma_e))/D); only magnitudes enter
spectral densities, so the branch affects no observable.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .model import SystemConfig

PORTS = ("sum", "difference", "subtracted")


class PoleError(ArithmeticError):
    """Evaluation at a pole of a coefficient or of the subtraction filter."""


class Channel(str, Enum):
    """Input channels of the amplitude quadratures; the set is closed."""

    ALPHA_PLUS = "alpha_plus"    # input vacuum, sum combination
    ALPHA_MINUS = "alpha_minus"  # input vacuum, difference combination
    EPS_PLUS = "eps_plus"        # loss vacuum, sum combination
    EPS_MINUS = "eps_minus"      # loss vacuum, difference combination
    THERMAL = "thermal"          # mechanical bath force
    SIGNAL = "signal"            # signal force


VACUUM_CHANNELS = (Channel.ALPHA_PLUS, Channel.ALPHA_MINUS,
                   Channel.EPS_PLUS, Channel.EPS_MINUS)


def _guard(denom, scale, what: str):
    if np.any(np.abs(denom) <= 1e-14 * scale):
        raise PoleError(f"{what} evaluated at a pole (stability boundary)")


def guard_subtraction(reflection, gamma0: float) -> None:
    """Raise PoleError where the reference port reflects no input vacuum.

    ``reflection`` is the numerator gamma0 - gamma_e - r_ref + i*Omega of the
    reference-port reflection; the subtraction filter divides by it.
    """
    if np.any(np.abs(reflection) <= 1e-14 * gamma0):
        raise PoleError("subtraction filter undefined: the reference port "
                        "reflects no input vacuum (upsilon = gamma0 - gamma_e "
                        "at Omega = 0)")


def _shaped(value, omega):
    """Return ``value`` with the shape of the original omega argument."""
    shape = np.shape(omega)
    arr = np.asarray(value, dtype=complex)
    return arr.reshape(shape) if shape else complex(arr.item())


def _role_coefficients(config: SystemConfig, w: np.ndarray) -> dict:
    """Coefficient set in role space (w must be a 1-d float array).

    Roles: own_vac/own_loss (noise entering the measured port directly),
    ref_vac/ref_loss (the reference port), ba_vac/ba_loss (back action fed
    into the measured port by the reference-side vacua), thermal and signal.
    Thermal is sqrt(2*gamma_m) times the signal coefficient; ref_reflection
    is the numerator of ref_vac.
    """
    cav, mech = config.cavity, config.mechanical
    g0, ge, g = cav.gamma0, cav.gamma_e, cav.gamma
    r_own = config.squeeze.rate
    r_ref = r_own if config.squeeze.kind == "degenerate" else -r_own

    d_own = g + r_own - 1j * w
    d_ref = g + r_ref - 1j * w
    _guard(d_own, g0, "measured-port response")
    _guard(d_ref, g0, "reference-port response")
    mech_pole = mech.gamma_m - 1j * w
    _guard(mech_pole, max(mech.gamma_m, np.max(np.abs(w)), 1.0) * 1e-2,
           "mechanical response")

    reflect_ref = g0 - ge - r_ref + 1j * w
    loss_root = math.sqrt(g0 * ge)
    strength = config.derived.K0 * g * (g0 - ge)  # = 4*g0*eta^2*C0^2
    ba = strength / d_own**2
    sig = -math.sqrt(strength) / (d_own * mech_pole)
    return {
        "own_vac": (g0 - ge - r_own + 1j * w) / d_own,
        "own_loss": 2.0 * loss_root / d_own,
        "ref_reflection": reflect_ref,
        "ref_vac": reflect_ref / d_ref,
        "ref_loss": 2.0 * loss_root / d_ref,
        "ba_vac": -ba / mech_pole,
        "ba_loss": -ba * math.sqrt(ge / g0) / mech_pole,
        "thermal": math.sqrt(2.0 * mech.gamma_m) * sig,
        "signal": sig,
    }


def transfer_coefficients(config: SystemConfig, port: str, omega,
                          referenced: bool = False) -> dict:
    """Coefficient map Channel -> complex value(s) of one port (see PORTS).

    ``omega`` may be a scalar or an array; outputs match its shape.  With
    ``referenced=True`` coefficients are divided by the signal coefficient
    (mechanically coupled ports only), leaving exactly 1 in the signal slot.
    """
    if port not in PORTS:
        raise ValueError(f"unknown port {port!r}; expected one of {PORTS}")
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    roles = _role_coefficients(config, w)

    coeffs = {ch: np.zeros_like(w, dtype=complex) for ch in Channel}
    if port == "sum":
        coeffs[Channel.ALPHA_PLUS] = roles["ref_vac"]
        coeffs[Channel.EPS_PLUS] = roles["ref_loss"]
    else:
        coeffs[Channel.ALPHA_MINUS] = roles["own_vac"]
        coeffs[Channel.EPS_MINUS] = roles["own_loss"]
        coeffs[Channel.ALPHA_PLUS] = roles["ba_vac"]
        coeffs[Channel.EPS_PLUS] = roles["ba_loss"]
        coeffs[Channel.THERMAL] = roles["thermal"]
        coeffs[Channel.SIGNAL] = roles["signal"]
    if port == "subtracted":
        # The filter weight is defined by exact cancellation of the
        # input-vacuum back-action channel, so that coefficient is zero
        # identically; the loss-vacuum channel survives with the
        # algebraically reduced residual.
        cav = config.cavity
        guard_subtraction(roles["ref_reflection"], cav.gamma0)
        bracket = roles["ref_loss"] / roles["ref_vac"] \
            - math.sqrt(cav.gamma_e / cav.gamma0)
        coeffs[Channel.ALPHA_PLUS] = np.zeros_like(w, dtype=complex)
        coeffs[Channel.EPS_PLUS] = -roles["ba_vac"] * bracket

    if referenced:
        sig = coeffs[Channel.SIGNAL]
        if np.all(sig == 0):
            raise ValueError("port carries no signal; cannot signal-reference")
        for ch in Channel:
            coeffs[ch] = coeffs[ch] / sig
        coeffs[Channel.SIGNAL] = np.ones_like(w, dtype=complex)
    return {ch: _shaped(v, omega) for ch, v in coeffs.items()}
