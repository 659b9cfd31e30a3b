"""Per-frequency transfer coefficients from noise/signal channels to outputs.

The two side-mode outputs are detected separately; sums and differences of
their quadratures form the working ports.  For each spectral frequency Omega
this module gives the complex coefficient with which every input channel
(input-port vacuum, internal-loss vacuum, mechanical thermal force, signal
force) appears in a chosen output combination of the amplitude or the phase
quadrature family:

* raw ports ("sum"/"difference" of the selected quadrature family), and
* the "subtracted" combination: the measured port plus a filtered copy of the
  reference port, the filter chosen so that the input-vacuum back-action
  channel cancels exactly.  With internal loss the cancellation is partial: a
  loss-vacuum residual survives.

All four squeezing/family variants share one algebraic shape.  Writing
D(r) = gamma0 + gamma_e + r - i*Omega, the measured port responds through
D(r_own) and the reference port through D(r_ref), with

    two-photon (rate kappa):        r_own = +kappa, r_ref = -kappa
    degenerate (rate upsilon):      r_own = r_ref = +upsilon  (amplitude)
                                    r_own = r_ref = -upsilon  (phase)

and the back-action/measurement strength K0*gamma*(gamma0-gamma_e)/D(r_own)^2.
The amplitude family measures at the difference port, the phase family at
the sum port.  Under two-photon squeezing the two families therefore have the
same coefficients with the sum/difference labels of ports and channels
exchanged.

Conventions: Fourier kernel exp(-i*Omega*t), so every coefficient obeys
c(-Omega) = conj(c(Omega)).  Square roots take the principal branch (the
back-action denominators have positive real part for stable configs, so
sqrt(strength) = sqrt(K0*gamma*(gamma0-gamma_e))/D); only magnitudes enter
spectral densities, so the branch affects no observable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import SystemConfig


class PoleError(ArithmeticError):
    """Evaluation at a pole of the coefficient (stability boundary)."""


class Channel(str, Enum):
    """Input channels of one quadrature family; the set is closed."""

    ALPHA_PLUS = "alpha_plus"    # input vacuum, sum combination
    ALPHA_MINUS = "alpha_minus"  # input vacuum, difference combination
    EPS_PLUS = "eps_plus"        # loss vacuum, sum combination
    EPS_MINUS = "eps_minus"      # loss vacuum, difference combination
    THERMAL = "thermal"          # mechanical bath force
    SIGNAL = "signal"            # signal force


VACUUM_CHANNELS = (Channel.ALPHA_PLUS, Channel.ALPHA_MINUS,
                   Channel.EPS_PLUS, Channel.EPS_MINUS)

AMPLITUDE = "amplitude"
PHASE = "phase"


@dataclass(frozen=True)
class MeasurementCase:
    """Which output combination is measured.

    family: "amplitude" or "phase".  port: "sum", "difference", or
    "subtracted"; subtraction always acts on the mechanically coupled port
    (the difference port for the amplitude family, the sum port for phase).
    """

    family: str = AMPLITUDE
    port: str = "difference"

    def __post_init__(self):
        if self.family not in (AMPLITUDE, PHASE):
            raise ValueError(f"unknown quadrature family {self.family!r}")
        if self.port not in ("sum", "difference", "subtracted"):
            raise ValueError(f"unknown port {self.port!r}")


def _guard(denom, scale, what: str):
    if np.any(np.abs(denom) <= 1e-14 * scale):
        raise PoleError(f"{what} evaluated at a pole (stability boundary)")


def _shaped(value, omega):
    """Return ``value`` with the shape of the original omega argument."""
    shape = np.shape(omega)
    arr = np.asarray(value, dtype=complex)
    return arr.reshape(shape) if shape else complex(arr.item())


def _family_rates(config: SystemConfig, family: str) -> tuple[float, float]:
    """(r_own, r_ref) of the shared algebraic shape; see module docstring."""
    rate = config.squeeze.rate
    if config.squeeze.kind == "degenerate":
        return (-rate, -rate) if family == PHASE else (rate, rate)
    return rate, -rate


def _role_coefficients(config: SystemConfig, w: np.ndarray, family: str) -> dict:
    """Coefficient set in role space (w must be a 1-d float array).

    Roles: own_vac/own_loss (noise entering the measured port directly),
    ref_vac/ref_loss (the reference port), ba_vac/ba_loss (back action fed
    into the measured port by the reference-side vacua), thermal and signal.
    Thermal is sqrt(2*gamma_m) times the signal coefficient.
    """
    cav, mech = config.cavity, config.mechanical
    g0, ge, g = cav.gamma0, cav.gamma_e, cav.gamma
    r_own, r_ref = _family_rates(config, family)

    d_own = g + r_own - 1j * w
    d_ref = g + r_ref - 1j * w
    _guard(d_own, g0, "measured-port response")
    _guard(d_ref, g0, "reference-port response")
    mech_pole = mech.gamma_m - 1j * w
    _guard(mech_pole, max(mech.gamma_m, np.max(np.abs(w)), 1.0) * 1e-2,
           "mechanical response")

    loss_root = math.sqrt(g0 * ge)
    strength = config.derived.K0 * g * (g0 - ge)  # = 4*g0*eta^2*C0^2
    ba = strength / d_own**2
    sig = -math.sqrt(strength) / (d_own * mech_pole)
    return {
        "own_vac": (g0 - ge - r_own + 1j * w) / d_own,
        "own_loss": 2.0 * loss_root / d_own,
        "ref_vac": (g0 - ge - r_ref + 1j * w) / d_ref,
        "ref_loss": 2.0 * loss_root / d_ref,
        "ba_vac": -ba / mech_pole,
        "ba_loss": -ba * math.sqrt(ge / g0) / mech_pole,
        "thermal": math.sqrt(2.0 * mech.gamma_m) * sig,
        "signal": sig,
    }


def _measured_channel_map(family: str):
    """Channel labels of the (own, ba) vacuum/loss pairs at the measured port."""
    if family == PHASE:
        return (Channel.ALPHA_PLUS, Channel.EPS_PLUS,
                Channel.ALPHA_MINUS, Channel.EPS_MINUS)
    return (Channel.ALPHA_MINUS, Channel.EPS_MINUS,
            Channel.ALPHA_PLUS, Channel.EPS_PLUS)


def measured_port_name(family: str) -> str:
    """Lab port ("sum"/"difference") that carries the mechanical signal."""
    return "sum" if family == PHASE else "difference"


def transfer_coefficients(config: SystemConfig, case: MeasurementCase, omega,
                          referenced: bool = False) -> dict:
    """Coefficient map Channel -> complex value(s) for the requested output.

    ``omega`` may be a scalar or an array; outputs match its shape.  With
    ``referenced=True`` coefficients are divided by the signal coefficient
    (mechanically coupled ports only), leaving exactly 1 in the signal slot.
    """
    w = np.atleast_1d(np.asarray(omega, dtype=float))
    roles = _role_coefficients(config, w, case.family)
    own_v, own_l, ba_v, ba_l = _measured_channel_map(case.family)

    coeffs = {ch: np.zeros_like(w, dtype=complex) for ch in Channel}
    measured = measured_port_name(case.family)
    if case.port == "subtracted" or case.port == measured:
        coeffs[own_v] = roles["own_vac"].copy()
        coeffs[own_l] = roles["own_loss"].copy()
        coeffs[ba_v] = roles["ba_vac"].copy()
        coeffs[ba_l] = roles["ba_loss"].copy()
        coeffs[Channel.THERMAL] = roles["thermal"].copy()
        coeffs[Channel.SIGNAL] = roles["signal"].copy()
        if case.port == "subtracted":
            # The filter weight is defined by exact cancellation of the
            # input-vacuum back-action channel, so that coefficient is zero
            # identically; the loss-vacuum channel survives with the
            # algebraically reduced residual.
            cav = config.cavity
            bracket = roles["ref_loss"] / roles["ref_vac"] \
                - math.sqrt(cav.gamma_e / cav.gamma0)
            coeffs[ba_v] = np.zeros_like(w, dtype=complex)
            coeffs[ba_l] = -roles["ba_vac"] * bracket
    else:
        coeffs[ba_v] = roles["ref_vac"].copy()
        coeffs[ba_l] = roles["ref_loss"].copy()

    if referenced:
        sig = coeffs[Channel.SIGNAL]
        if np.all(sig == 0):
            raise ValueError("port carries no signal; cannot signal-reference")
        for ch in Channel:
            coeffs[ch] = coeffs[ch] / sig
        coeffs[Channel.SIGNAL] = np.ones_like(w, dtype=complex)
    return {ch: _shaped(v, omega) for ch, v in coeffs.items()}
