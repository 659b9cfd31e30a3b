"""Signal-referred force noise spectral densities, SQL ratios and thresholds.

Spectra are single-sided, evaluated against the convention that a vacuum
quadrature channel has unit spectral density; the mechanical bath channel
carries 2*n_T + 1.  Values are normalized-force-squared per unit bandwidth
(the square of f = F/sqrt(2*hbar*omega_m*m) integrated as dOmega/2pi), so a
white spectrum S over a pulse bandwidth 2*pi/tau admits the detection
threshold f_min = sqrt(S/tau).

Every measured case has two independent evaluation routes:

* ``closed_form_psd`` evaluates the closed-form expressions directly from
  the cavity rates, sharing only the pole guard transfer.guard_subtraction;
* ``spectrum_series`` assembles |coefficient|^2-weighted channel sums from
  the transfer coefficients, which the transfer module reads from the
  frequency response of its ``StateSpace``, the same linear model the
  time-domain oracle integrates (and can split them into a per-channel
  budget).

The two agree to floating-point accuracy; tests enforce 1e-10.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, fields

import numpy as np

from .model import (HBAR, RATE_KEY, TAU_PRESETS, Squeezing, SystemConfig,
                    braginsky_factor, config_snapshot, json_text, k0_for_n0,
                    reference_config, reference_rates, write_text)
from .transfer import (Channel, VACUUM_CHANNELS, channel_psd,
                       guard_subtraction, transfer_coefficients)

# Measured case -> (squeeze kind it belongs to, transfer port it reads);
# raw cases precede their subtracted partners.
CASES = {
    "baseline": ("none", "difference"),
    "baseline-sub": ("none", "subtracted"),
    "nondeg-raw": ("two_photon", "difference"),
    "nondeg-sub": ("two_photon", "subtracted"),
    "deg-raw": ("degenerate", "difference"),
    "deg-sub": ("degenerate", "subtracted"),
}


def check_case(config: SystemConfig, case: str) -> str:
    """Transfer port of a case that ``config`` can run; ValueError for an
    unknown case or one of the other squeeze kind."""
    if case not in CASES:
        raise ValueError(f"unknown case {case!r}; expected one of "
                         f"{tuple(CASES)}")
    (kind, port), actual = CASES[case], config.squeeze.kind
    if actual not in ("none", kind):   # a squeezed case also runs unsqueezed
        raise ValueError(f"case {case!r} requires {kind!r} squeezing, "
                         f"config has {actual!r}")
    return port


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

    One expression for every kind: with P = K0*gamma*(gamma0 - gamma_e) the
    pump rate, imprecision, raw back action and the subtracted port's
    loss-vacuum residual depend on the kind only through the rate gamma + s
    of the sum pair that carries the back action: s = +upsilon (degenerate)
    or -kappa (two-photon; 0 unsqueezed).  The subtracted cases raise
    PoleError where the reference-port reflection (gamma0 - gamma_e - s +
    i*Omega)/(gamma + s - i*Omega) vanishes: upsilon = gamma0 - gamma_e at
    Omega = 0, never under two-photon squeezing.
    """
    port = check_case(config, case)
    w = np.asarray(omega, dtype=float)
    cav, gm = config.cavity, config.mechanical.gamma_m
    g0, ge, g = cav.gamma0, cav.gamma_e, cav.gamma
    rate = config.squeeze.rate
    s = rate if config.squeeze.kind == "degenerate" else -rate
    pump = config.pump_rate
    out = 2.0 * gm * (2.0 * config.mechanical.occupancy + 1.0) \
        + (gm**2 + w**2) * (np.abs(g0 - ge - rate + 1j * w) ** 2
                            + 4.0 * g0 * ge) / pump
    if port == "difference":
        return out + pump / np.abs(g + s - 1j * w) ** 2 * (1.0 + ge / g0)
    reflection = g0 - ge - s + 1j * w
    guard_subtraction(reflection / (g + s - 1j * w))
    return out + pump / np.abs(reflection) ** 2 * (ge / g0)


# --- channel assembly ----------------------------------------------------------

@dataclass(eq=False)
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

    def write_json(self, path) -> str:
        return write_text(path, json_text(self.to_json_dict()))

    def csv_text(self) -> str:
        cols = ["omega_rad_s", "value"]
        arrays = [self.grid, self.values]
        if self.budget is not None:
            for name in sorted(self.budget):
                cols.append(name)
                arrays.append(self.budget[name])
        for name, array in zip(cols, arrays):
            if not np.all(np.isfinite(array)):
                raise ValueError(f"{self.case} {name}: every value must be "
                                 "finite")
        buf = io.StringIO()
        buf.write(",".join(cols) + "\n")
        for row in zip(*arrays):
            buf.write(",".join(f"{x:.17g}" for x in row) + "\n")
        return buf.getvalue()

    def write_csv(self, path) -> str:
        return write_text(path, self.csv_text())


def spectrum_series(config: SystemConfig, case: str, omega,
                    budget: bool = False) -> SpectrumSeries:
    """Assembled spectrum of a named case over ``omega``: each channel's
    |signal-referred coefficient|^2 times its transfer.channel_psd, summed.

    ValueError where a drive too weak for its signal coefficient makes a
    channel overflow.
    """
    grid = np.asarray(omega, dtype=float)
    coeffs = transfer_coefficients(config, check_case(config, case), grid)
    psd = channel_psd(config)
    with np.errstate(over="ignore"):
        parts = {ch.value: np.abs(coeffs[ch]) ** 2 * psd[i] for i, ch
                 in enumerate(VACUUM_CHANNELS + (Channel.THERMAL,))}
        values = sum(parts.values())
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{case}: the assembled spectrum must be finite")
    return SpectrumSeries(case=case, grid=grid, values=values,
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

def detection_threshold_spectral(config: SystemConfig, case: str) -> float:
    """Normalized force amplitude resolvable over the configured pulse's
    bandwidth: f_min = sqrt(S_f(0) * dOmega / 2pi) with dOmega = 2pi/tau;
    ValueError where S_f(0)/tau overflows."""
    with np.errstate(over="ignore"):
        value = float(closed_form_psd(case, config, 0.0)) / config.signal.tau
    if not math.isfinite(value):
        raise ValueError(f"{case}: the spectral threshold must be finite")
    return math.sqrt(value)


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
        return {f.name: float(getattr(self, f.name)) for f in fields(self)}


def detection_threshold_time_domain(config: SystemConfig) -> ThresholdReport:
    """Minimum detectable force of the configured resonant square pulse, two
    variants.

    band-integrated: integrate the flat-pump noise spectrum over the pulse
    bandwidth [0, 2pi/tau] and minimize over the pump; the optimum is
    K* = sqrt(gamma_m^2 + (2pi/tau)^2/3).  sql-form: use the SQL density at
    the band edge scale instead.  At n_T = gamma_m = 0 the two quantum terms
    differ by exactly 1/sqrt(3).  Also reports the pure quantum limit
    F_SQL = (4/tau)*sqrt(pi*hbar*m*omega_m/sqrt(3)); ValueError where its
    radicand, 2*hbar*omega_m*m or a reported value is 0 or not finite (n_T
    and B may be 0).  The formulas assume gamma_m*tau is small, one of the
    config's ``regime_findings``.
    """
    mech = config.mechanical
    tau = config.signal.tau
    n_T, gm = mech.occupancy, mech.gamma_m
    band = 2.0 * math.pi / tau   # products, not **: inf or 0, never raise
    k_star = math.sqrt(gm * gm + band * band / 3.0)
    thermal_rate = 2.0 * gm * (2.0 * n_T + 1.0) / tau
    band_f2 = 2.0 * (thermal_rate + 2.0 * k_star / tau)      # f_s0^2
    sqlform_f2 = 2.0 * (thermal_rate + 2.0 * band / tau)     # 4pi/tau^2
    scale2 = 2.0 * HBAR * mech.omega_m * mech.mass            # F^2 = f^2 * scale2
    sql2 = math.pi * HBAR * mech.mass * mech.omega_m / math.sqrt(3.0)
    if not (0.0 < scale2 < math.inf and 0.0 < sql2 < math.inf):
        raise ValueError(f"force scale 2*hbar*omega_m*m = {scale2:.3g} J kg: "
                         "it must be positive and finite")
    report = ThresholdReport(
        tau=tau,
        n_T=n_T,
        braginsky=braginsky_factor(n_T, mech.omega_m, tau, mech.quality_factor),
        pump_optimum=k_star,
        band_integrated_force=math.sqrt(band_f2 * scale2),
        sql_form_force=math.sqrt(sqlform_f2 * scale2),
        sql_limit_force=(4.0 / tau) * math.sqrt(sql2),
        band_integrated_f=math.sqrt(band_f2),
        sql_form_f=math.sqrt(sqlform_f2),
    )
    for name, value in report.to_json_dict().items():
        if not (0.0 < value < math.inf
                or value == 0.0 and name in ("n_T", "braginsky")):
            raise ValueError(f"pulse length tau = {tau:.3g} s gives {name} = "
                             f"{value:.3g}: it must be positive and finite")
    return report


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
    kind = CASES[spec.case][0]
    squeeze = Squeezing() if kind == "none" \
        else Squeezing(kind, rate_fraction * g0)
    pump = spec.drive_units * math.pi / TAU_PRESETS[spec.tau_preset]
    K0 = k0_for_n0(pump, g0, ge) if spec.drive == "N0" else pump
    return reference_config(tau_preset=spec.tau_preset, squeeze=squeeze,
                            K0=K0, gamma_m=0.0)


def figure_curves(figure_id: str, points: int = 400) -> dict:
    """SQL-ratio curves of one preset: {curve label: SpectrumSeries}."""
    if figure_id not in FIGURES:
        raise ValueError(f"unknown figure id {figure_id!r}")
    spec = FIGURES[figure_id]
    param = RATE_KEY.get(CASES[spec.case][0])
    curves = {}
    for frac in spec.rates:
        config = figure_config(figure_id, frac)
        series = spectrum_series(config, spec.case,
                                 default_grid(config, points=points))
        label = "baseline" if param is None else f"{param}_{frac:g}g0"
        curves[label] = ratio_to_sql(series)
    return curves
