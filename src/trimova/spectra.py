"""Signal-referred force noise spectral densities, SQL ratios and thresholds.

Spectra are single-sided, evaluated against the convention that a vacuum
quadrature channel has unit spectral density; the mechanical bath channel
carries 2*n_T + 1.  Values are normalized-force-squared per unit bandwidth
(the square of f = F/sqrt(2*hbar*omega_m*m) integrated as dOmega/2pi), so a
white spectrum S over a pulse bandwidth 2*pi/tau admits the detection
threshold f_min = sqrt(S/tau).

Every measured case has two independent evaluation routes:

* ``spectrum_series`` assembles |coefficient|^2-weighted channel sums from
  the transfer module (and can split them into a per-channel budget);
* ``closed_form_psd`` evaluates the closed-form expressions directly from
  the cavity rates, with no shared code.

The two agree to floating-point accuracy; tests enforce 1e-10.
"""

from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import (HBAR, TAU_PRESETS, RegimeWarning, Squeezing, SystemConfig,
                    braginsky_factor, config_snapshot, json_text, k0_for_n0,
                    reference_config, reference_rates)
from .transfer import (Channel, VACUUM_CHANNELS, guard_subtraction,
                       transfer_coefficients)

# Measured case -> squeeze kind it belongs to; raw cases precede their
# subtracted partners.
CASE_KIND = {
    "baseline": "none", "baseline-sub": "none",
    "nondeg-raw": "two_photon", "nondeg-sub": "two_photon",
    "deg-raw": "degenerate", "deg-sub": "degenerate",
}
CASES = tuple(CASE_KIND)


def port_for_case(case: str) -> str:
    """Transfer port ("difference" or "subtracted") of a named spectrum case."""
    if case not in CASE_KIND:
        raise ValueError(f"unknown case {case!r}; expected one of {CASES}")
    return "subtracted" if case.endswith("-sub") else "difference"


def _check_case(config: SystemConfig, case: str) -> None:
    port_for_case(case)   # rejects unknown case names
    kind = CASE_KIND[case]
    actual = config.squeeze.kind
    if kind == "none" and actual != "none":
        raise ValueError(f"case {case!r} requires no squeezing, config has {actual!r}")
    if kind != "none" and actual not in ("none", kind):
        raise ValueError(f"case {case!r} requires {kind!r} squeezing, "
                         f"config has {actual!r}")


def default_grid(config: SystemConfig, points: int = 400,
                 lo: float = 1e-3, hi: float = 10.0) -> np.ndarray:
    """Log-spaced spectral frequencies, ``lo``..``hi`` in units of gamma0."""
    g0 = config.cavity.gamma0
    return np.geomspace(lo * g0, hi * g0, points)


def sql_psd(gamma_m: float, omega):
    """Standard-quantum-limit spectral density 2*sqrt(gamma_m^2 + Omega^2)."""
    return 2.0 * np.sqrt(gamma_m**2 + np.asarray(omega, dtype=float) ** 2)


# --- closed forms -------------------------------------------------------------

def closed_form_psd(case: str, config: SystemConfig, omega):
    """Closed-form signal-referred PSD of one measured case.

    The unsqueezed cases are the two-photon forms at rate 0, internal-loss
    residual included.  ``deg-sub`` raises PoleError
    where the reference port reflects no vacuum (upsilon = gamma0 - gamma_e,
    Omega = 0).
    """
    _check_case(config, case)
    w = np.asarray(omega, dtype=float)
    mech, cav = config.mechanical, config.cavity
    g0, ge, g = cav.gamma0, cav.gamma_e, cav.gamma
    gm = mech.gamma_m
    rate = config.squeeze.rate
    thermal = 2.0 * gm * (2.0 * config.derived.n_T + 1.0)
    mech2 = gm**2 + w**2
    K0 = config.derived.K0

    if CASE_KIND[case] != "degenerate":
        n = g0 - ge - rate + 1j * w          # squeezed-pair reflection numerator
        d_minus = g + rate - 1j * w          # squeezed-pair response
        d_plus = g - rate - 1j * w           # antisqueezed-pair response
        xi_plus2 = np.abs(g0 - ge + rate + 1j * w) ** 2 / np.abs(d_plus) ** 2
        pump = K0 * g * (g0 - ge)
        # The pump magnitude pump/(|n| |d_minus|) carries the factor |n| of
        # xi_minus = |n|/|d_minus|; cancelled here, so the removable
        # singularity at rate = gamma0 - gamma_e, Omega = 0 stays finite.
        ba_mag = pump / np.abs(d_minus) ** 2
        out = thermal + mech2 * (np.abs(n) ** 2 + 4.0 * g0 * ge) / pump
        if not case.endswith("-sub"):
            return out + ba_mag * (1.0 + ge / g0)
        return out + ba_mag * ge / (g0 * xi_plus2)

    # degenerate
    d = g + rate - 1j * w
    zeta2 = np.abs(g0 - ge - rate + 1j * w) ** 2 / np.abs(d) ** 2
    sigma2_loss = 4.0 * g0 * ge / np.abs(d) ** 2
    strength_mag = config.derived.N0 * g**2 / np.abs(d) ** 2
    out = thermal + mech2 / strength_mag * (zeta2 + sigma2_loss)
    if case == "deg-raw":
        return out + strength_mag * (1.0 + ge / g0)
    guard_subtraction(g0 - ge - rate + 1j * w, g0)
    return out + strength_mag * ge / (g0 * zeta2)


# --- channel assembly ----------------------------------------------------------

@dataclass
class SpectrumSeries:
    """One spectrum over a frequency grid, with its configuration snapshot."""

    case: str
    grid: np.ndarray
    values: np.ndarray
    config: dict
    budget: dict | None = None
    kind: str = "psd"   # "psd" or "sql-ratio"

    def to_json_dict(self) -> dict:
        out = {
            "case": self.case,
            "kind": self.kind,
            "config": self.config,
            "omega_rad_s": [float(x) for x in self.grid],
            "value": [float(x) for x in self.values],
        }
        if self.budget is not None:
            out["budget"] = {k: [float(x) for x in v]
                             for k, v in self.budget.items()}
        return out

    def write_json(self, path) -> None:
        text = json_text(self.to_json_dict())
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)

    def csv_text(self) -> str:
        cols = ["omega_rad_s", "value"]
        arrays = [self.grid, self.values]
        if self.budget is not None:
            for name in sorted(self.budget):
                cols.append(name)
                arrays.append(self.budget[name])
        buf = io.StringIO()
        buf.write(",".join(cols) + "\n")
        for row in zip(*arrays):
            buf.write(",".join(f"{x:.17g}" for x in row) + "\n")
        return buf.getvalue()

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(self.csv_text())


def spectrum_series(config: SystemConfig, case: str, omega=None,
                    budget: bool = False) -> SpectrumSeries:
    """Assembled spectrum of a named case over ``omega`` (default log grid):
    each channel's |signal-referred coefficient|^2 times its PSD, summed."""
    _check_case(config, case)
    grid = default_grid(config) if omega is None else np.asarray(omega, dtype=float)
    coeffs = transfer_coefficients(config, port_for_case(case), grid,
                                   referenced=True)
    parts = {ch.value: np.abs(coeffs[ch]) ** 2 for ch in VACUUM_CHANNELS}
    parts[Channel.THERMAL.value] = np.abs(coeffs[Channel.THERMAL]) ** 2 \
        * (2.0 * config.derived.n_T + 1.0)
    return SpectrumSeries(case=case, grid=grid, values=sum(parts.values()),
                          config=config_snapshot(config),
                          budget=parts if budget else None)


def ratio_to_sql(series: SpectrumSeries) -> SpectrumSeries:
    """Pointwise ratio of a spectrum to the SQL curve.

    Grid points where the SQL vanishes (gamma_m = 0 and Omega = 0 only) are
    dropped.
    """
    gamma_m = series.config["mechanical"]["gamma_m"]
    sql = sql_psd(gamma_m, series.grid)
    keep = sql > 0.0
    return SpectrumSeries(case=series.case, grid=series.grid[keep],
                          values=series.values[keep] / sql[keep],
                          config=series.config, kind="sql-ratio")


# --- detection thresholds -------------------------------------------------------

def detection_threshold_spectral(config: SystemConfig, case: str,
                                 tau: float | None = None,
                                 omega: float = 0.0) -> float:
    """Normalized force amplitude resolvable over a pulse bandwidth.

    f_min = sqrt(S_f(Omega) * dOmega / 2pi) with dOmega = 2pi/tau, evaluated
    at a caller-chosen Omega (default 0).
    """
    tau = config.signal.tau if tau is None else tau
    value = float(closed_form_psd(case, config, float(omega)))
    return math.sqrt(value / tau)


@dataclass(frozen=True)
class ThresholdReport:
    """Minimum detectable pulse amplitudes for a measurement of length tau."""

    tau: float
    n_T: float
    braginsky: float
    pump_optimum: float          # flat pump minimizing the band-integrated noise
    band_integrated_force: float  # N, from the bandwidth-integrated spectrum
    sql_form_force: float         # N, from the SQL spectral density
    sql_limit_force: float        # N, quantum part of the band-integrated form
    band_integrated_f: float      # normalized (rad/s) counterparts
    sql_form_f: float

    def to_json_dict(self) -> dict:
        return {k: float(getattr(self, k)) for k in (
            "tau", "n_T", "braginsky", "pump_optimum",
            "band_integrated_force", "sql_form_force", "sql_limit_force",
            "band_integrated_f", "sql_form_f")}


def detection_threshold_time_domain(config: SystemConfig,
                                    tau: float | None = None) -> ThresholdReport:
    """Minimum detectable force of the resonant square pulse, two variants.

    band-integrated: integrate the flat-pump noise spectrum over the pulse
    bandwidth [0, 2pi/tau] and minimize over the pump; the optimum is
    K* = sqrt(gamma_m^2 + (2pi/tau)^2/3).  sql-form: use the SQL density at
    the band edge scale instead.  At n_T = gamma_m = 0 the two quantum terms
    differ by exactly 1/sqrt(3).  Also reports the pure quantum limit
    F_SQL = (4/tau)*sqrt(pi*hbar*m*omega_m/sqrt(3)).
    """
    mech = config.mechanical
    tau = config.signal.tau if tau is None else tau
    if mech.gamma_m * tau > 0.1:
        warnings.warn(f"gamma_m*tau = {mech.gamma_m * tau:.3g} is not small; "
                      "short-pulse threshold formulas degrade",
                      RegimeWarning, stacklevel=2)
    n_T = config.derived.n_T
    gm = mech.gamma_m
    band = 2.0 * math.pi / tau
    k_star = math.sqrt(gm**2 + band**2 / 3.0)
    thermal_rate = 2.0 * gm * (2.0 * n_T + 1.0) / tau
    band_f2 = 2.0 * (thermal_rate + 2.0 * k_star / tau)      # f_s0^2
    sqlform_f2 = 2.0 * (thermal_rate + 4.0 * math.pi / tau**2)
    scale2 = 2.0 * HBAR * mech.omega_m * mech.mass            # F^2 = f^2 * scale2
    f_sql = (4.0 / tau) * math.sqrt(math.pi * HBAR * mech.mass * mech.omega_m
                                    / math.sqrt(3.0))
    return ThresholdReport(
        tau=tau,
        n_T=n_T,
        braginsky=braginsky_factor(n_T, mech.omega_m, tau, mech.quality_factor),
        pump_optimum=k_star,
        band_integrated_force=math.sqrt(band_f2 * scale2),
        sql_form_force=math.sqrt(sqlform_f2 * scale2),
        sql_limit_force=f_sql,
        band_integrated_f=math.sqrt(band_f2),
        sql_form_f=math.sqrt(sqlform_f2),
    )


# --- figure presets --------------------------------------------------------------

@dataclass(frozen=True)
class FigureSpec:
    """One published-figure dataset: SQL-ratio curves at gamma_m = 0."""

    figure_id: str
    case: str
    rates: tuple            # squeeze rates as fractions of gamma0
    drive: str              # "K0" or "N0"
    drive_units: float      # multiples of pi/tau
    tau_preset: str
    note: str = ""


FIGURES = {
    "fig3": FigureSpec("fig3", "baseline", (0.0,), "K0", 1.0, "fig3",
                       "no squeezing; quantum noise against the SQL"),
    "fig4": FigureSpec("fig4", "nondeg-raw", (0.0, 0.5, 0.9), "K0", 1.0, "table1",
                       "two-photon squeezing, raw difference port"),
    "fig5": FigureSpec("fig5", "nondeg-sub", (0.0, 0.5, 0.9), "K0", 1.0, "table1",
                       "two-photon squeezing, back action subtracted"),
    "fig6": FigureSpec("fig6", "nondeg-sub", (0.0, 0.5, 0.9), "K0", 4.0, "table1",
                       "as fig5 at four times the pump"),
    "fig7": FigureSpec("fig7", "deg-raw", (0.0, 0.5, 0.9), "N0", 1.0, "table1",
                       "degenerate squeezing, raw difference port"),
    "fig8": FigureSpec("fig8", "deg-sub", (0.0, 0.5, 0.9), "N0", 1.0, "table1",
                       "degenerate squeezing, back action subtracted"),
    "fig9": FigureSpec("fig9", "deg-sub", (0.0, 0.5, 0.9), "N0", 4.0, "table1",
                       "as fig8 at four times the pump"),
}


def figure_config(figure_id: str, rate_fraction: float) -> SystemConfig:
    """Reference configuration for one curve of a published-figure preset."""
    spec = FIGURES[figure_id]
    g0, ge = reference_rates()
    kind = CASE_KIND[spec.case]
    squeeze = Squeezing() if kind == "none" \
        else Squeezing(kind, rate_fraction * g0)
    pump = spec.drive_units * math.pi / TAU_PRESETS[spec.tau_preset]
    K0 = k0_for_n0(pump, g0, ge) if spec.drive == "N0" else pump
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RegimeWarning)
        return reference_config(tau_preset=spec.tau_preset, squeeze=squeeze,
                                K0=K0, gamma_m=0.0)


def figure_curves(figure_id: str, points: int = 400) -> dict:
    """SQL-ratio curves of one preset: {curve label: SpectrumSeries}."""
    if figure_id not in FIGURES:
        raise ValueError(f"unknown figure id {figure_id!r}")
    spec = FIGURES[figure_id]
    param = {"two_photon": "kappa", "degenerate": "upsilon",
             "none": "baseline"}[CASE_KIND[spec.case]]
    curves = {}
    for frac in spec.rates:
        config = figure_config(figure_id, frac)
        series = spectrum_series(config, spec.case,
                                 default_grid(config, points=points))
        label = "baseline" if param == "baseline" else f"{param}_{frac:g}g0"
        curves[label] = ratio_to_sql(series)
    return curves
