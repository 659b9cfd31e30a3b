"""Physical parameters and derived quantities of the three-mode force sensor.

The sensor couples a mechanical oscillator (a light membrane) to an optical
cavity supporting three modes spaced by the mechanical frequency.  The central
mode is resonantly pumped; the outputs of the two side modes are detected by
homodyne readout.  An intracavity parametric pump may squeeze the side modes,
either pairwise (two-photon, rate ``kappa``) or individually (degenerate,
rate ``upsilon``).

Everything here is plain bookkeeping: unit-checked parameter containers,
regime validation, and the scalar quantities (thermal occupancy, normalized
pump, zero-point scales) that the transfer and spectra modules consume.  All
rates are angular (rad/s) and all other units SI.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field, fields

# Exact SI 2019 values of the reduced Planck and the Boltzmann constants.
HBAR = 6.62607015e-34 / (2 * math.pi)   # J s
K_B = 1.380649e-23                      # J/K

# Pulse-length presets, s: table1 is the default, fig3 the long-pulse figure.
TAU_PRESETS = {"table1": 28e-6, "fig3": 0.28e-3}


class ConfigError(ValueError):
    """Invalid or inconsistent parameter input."""


class StabilityError(ValueError):
    """Parametric pump exceeds the decay it must stay below."""


class RegimeWarning(UserWarning):
    """Parameters leave the regime the closed-form model assumes."""


# Warn thresholds for the separation-of-scales conditions.  The cavity/mechanics
# ratio uses 0.15: the reference membrane set sits at gamma/omega_m = 36/350 =
# 0.103 and is considered in-regime.
RATIO_MECH_VS_CAVITY = 0.1     # gamma_m / gamma
RATIO_CAVITY_VS_MECH_FREQ = 0.15   # gamma / omega_m
RATIO_LOSS_VS_INPUT = 0.1      # gamma_e / gamma0
MIN_PULSE_CYCLES = 10.0        # omega_m * tau

_ROUND_TRIP_TOL = 1e-12


def _require_finite(params) -> None:
    """Raise ConfigError for a NaN or infinite number in a parameter set."""
    for item in fields(params):
        value = getattr(params, item.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{item.name} must be finite, got {value}")


def thermal_occupancy(omega_m: float, temperature: float) -> float:
    """Bose occupancy n_T = 1/(exp(hbar*omega_m/kB*T) - 1); 0 at T = 0."""
    if omega_m <= 0:
        raise ConfigError("omega_m must be positive")
    if temperature < 0:
        raise ConfigError("temperature must be nonnegative")
    if temperature == 0:
        return 0.0
    return 1.0 / math.expm1(HBAR * omega_m / (K_B * temperature))


def braginsky_factor(n_T: float, omega_m: float, tau: float, quality: float) -> float:
    """Thermal-noise-to-SQL ratio B = n_T * omega_m * tau / Q for a pulse of length tau.

    B << 1 is the condition for thermal force noise to stay below the standard
    quantum limit during the measurement.
    """
    if quality == math.inf:
        return 0.0
    return n_T * omega_m * tau / quality


def dimensionless_power(cavity: "OpticalCavity", mech: "MechanicalOscillator",
                        input_power: float) -> float:
    """Normalized pump K0 = 4*g0*w0*P / (m*wm*L^2*g^2*(g0-ge)), units rad/s.

    Rejects gamma0 <= gamma_e, where the normalization is singular.
    """
    g0, ge = cavity.gamma0, cavity.gamma_e
    if g0 <= ge:
        raise ConfigError("dimensionless power requires gamma0 > gamma_e")
    g = cavity.gamma
    return (4.0 * g0 * cavity.omega0 * input_power
            / (mech.mass * mech.omega_m * cavity.length**2 * g**2 * (g0 - ge)))


def k0_for_n0(N0: float, gamma0: float, gamma_e: float) -> float:
    """Normalized pump K0 whose degenerate normalization K0*(g0-ge)/g is N0."""
    return N0 * (gamma0 + gamma_e) / (gamma0 - gamma_e)


def power_for_pump(cavity: "OpticalCavity", mech: "MechanicalOscillator",
                   K0: float) -> float:
    """Input power (W) that produces the normalized pump ``K0``."""
    g0, ge = cavity.gamma0, cavity.gamma_e
    if g0 <= ge:
        raise ConfigError("pump normalization requires gamma0 > gamma_e")
    g = cavity.gamma
    return (K0 * mech.mass * mech.omega_m * cavity.length**2 * g**2 * (g0 - ge)
            / (4.0 * g0 * cavity.omega0))


@dataclass(frozen=True)
class MechanicalOscillator:
    """Membrane oscillator: mass (kg), omega_m (rad/s), gamma_m (rad/s, half
    linewidth so Q = omega_m/(2*gamma_m)), bath temperature (K)."""

    mass: float
    omega_m: float
    gamma_m: float
    temperature: float

    def __post_init__(self):
        _require_finite(self)
        if self.mass <= 0 or self.omega_m <= 0:
            raise ConfigError("mass and omega_m must be positive")
        if self.gamma_m < 0 or self.temperature < 0:
            raise ConfigError("gamma_m and temperature must be nonnegative")
        if self.gamma_m >= self.omega_m:
            raise ConfigError("oscillator must be underdamped (gamma_m < omega_m)")

    @classmethod
    def from_quality_factor(cls, mass, omega_m, quality, temperature):
        if quality <= 0.5:
            raise ConfigError("quality factor must exceed 1/2")
        return cls(mass, omega_m, omega_m / (2.0 * quality), temperature)

    @property
    def quality_factor(self) -> float:
        return math.inf if self.gamma_m == 0 else self.omega_m / (2.0 * self.gamma_m)

    @property
    def occupancy(self) -> float:
        return thermal_occupancy(self.omega_m, self.temperature)


@dataclass(frozen=True)
class OpticalCavity:
    """Cavity mode triplet: gamma0 input-coupler half rate, gamma_e internal
    loss half rate (both rad/s, shared by all three modes), length (m),
    carrier omega0 (rad/s)."""

    gamma0: float
    gamma_e: float
    length: float
    omega0: float

    def __post_init__(self):
        _require_finite(self)
        if self.gamma0 <= 0 or self.length <= 0 or self.omega0 <= 0:
            raise ConfigError("gamma0, length and omega0 must be positive")
        if self.gamma_e < 0:
            raise ConfigError("gamma_e must be nonnegative")
        if self.gamma_e > self.gamma0:
            raise ConfigError("gamma_e must not exceed gamma0")

    @classmethod
    def from_wavelength(cls, gamma0, gamma_e, length, wavelength):
        return cls(gamma0, gamma_e, length, 2.0 * math.pi * 299792458.0 / wavelength)

    @property
    def gamma(self) -> float:
        """Total half rate gamma0 + gamma_e (exact sum)."""
        return self.gamma0 + self.gamma_e

    @property
    def wavelength(self) -> float:
        return 2.0 * math.pi * 299792458.0 / self.omega0


@dataclass(frozen=True)
class Squeezing:
    """Internal squeezing pump: kind in {"none", "two_photon", "degenerate"},
    rate in rad/s (kappa for two-photon pairs, upsilon for per-mode degenerate).

    Stability against the cavity decay is checked when the full SystemConfig
    is assembled (the bound needs gamma0 + gamma_e).
    """

    kind: str = "none"
    rate: float = 0.0

    def __post_init__(self):
        _require_finite(self)
        if self.kind not in ("none", "two_photon", "degenerate"):
            raise ConfigError(f"unknown squeezing kind {self.kind!r}")
        if self.rate < 0:
            raise ConfigError("squeezing rate must be nonnegative")
        if self.kind == "none" and self.rate != 0.0:
            raise ConfigError("kind 'none' cannot carry a rate")


@dataclass(frozen=True)
class DriveConfig:
    """Cavity drive, given as exactly one of normalized pump K0 (rad/s) or
    input power (W)."""

    K0: float | None = None
    input_power: float | None = None

    def __post_init__(self):
        _require_finite(self)
        if (self.K0 is None) == (self.input_power is None):
            raise ConfigError("give exactly one of K0 or input_power")
        value = self.K0 if self.K0 is not None else self.input_power
        if value <= 0:
            raise ConfigError("drive must be positive")


@dataclass(frozen=True)
class SignalPulse:
    """Resonant square force pulse of length tau (s) and phase psi_f (rad).

    The amplitude may be given as F_s0 (N) or pre-normalized f_s0 (rad/s,
    f_s0 = F_s0/sqrt(2*hbar*omega_m*m)); both are optional since the
    signal-referred spectra do not depend on it.
    """

    tau: float
    psi_f: float = 0.0
    F_s0: float | None = None
    f_s0: float | None = None

    def __post_init__(self):
        _require_finite(self)
        if self.tau <= 0:
            raise ConfigError("tau must be positive")
        if self.F_s0 is not None and self.f_s0 is not None:
            raise ConfigError("give at most one of F_s0 or f_s0")
        for v in (self.F_s0, self.f_s0):
            if v is not None and v <= 0:
                raise ConfigError("signal amplitude must be positive")


@dataclass(frozen=True)
class DerivedQuantities:
    """Scalar quantities fixed at configuration time.

    x0:           zero-point length sqrt(hbar/(2 m omega_m)), m
    eta:          optomechanical coupling x0*omega0/L, 1/s
    n_T:          thermal occupancy of the mechanical bath
    braginsky:    n_T*omega_m*tau/Q for the configured pulse
    K0:           normalized pump, rad/s
    input_power:  drive power, W
    C0_squared:   intracavity pump amplitude squared, 4*g0*eta^2*C0^2 = K0*g*(g0-ge)
    N0:           degenerate-normalization of the same drive, K0*(g0-ge)/g
    F_s0, f_s0:   signal amplitude in N and normalized form (None if not set)
    """

    x0: float
    eta: float
    n_T: float
    braginsky: float
    K0: float
    input_power: float
    C0_squared: float
    N0: float
    F_s0: float | None
    f_s0: float | None


def _check_stability(squeeze: Squeezing, cavity: OpticalCavity) -> None:
    # The antisqueezed pair decays at gamma - rate (the sum pair under
    # two-photon squeezing) and must stay damped, so the bound is strict.
    g = cavity.gamma
    if squeeze.kind != "none" and squeeze.rate >= g:
        kind = squeeze.kind.replace("_", "-")
        raise StabilityError(
            f"{kind} rate {squeeze.rate:.6g} reaches gamma0+gamma_e = {g:.6g}")


@dataclass(frozen=True)
class SystemConfig:
    """Complete, immutable description of one sensor configuration.

    Construction resolves the drive to both K0 and input power, freezes all
    derived scalars, raises StabilityError for an overdriven parametric pump,
    and emits RegimeWarning for soft regime violations.
    """

    mechanical: MechanicalOscillator
    cavity: OpticalCavity
    squeeze: Squeezing = field(default_factory=Squeezing)
    drive: DriveConfig = field(default_factory=lambda: DriveConfig(K0=1.0))
    signal: SignalPulse = field(
        default_factory=lambda: SignalPulse(tau=TAU_PRESETS["table1"]))
    derived: DerivedQuantities = field(init=False, repr=False)

    def __post_init__(self):
        _check_stability(self.squeeze, self.cavity)
        mech, cav = self.mechanical, self.cavity
        if self.drive.K0 is not None:
            K0 = self.drive.K0
            power = power_for_pump(cav, mech, K0)
        else:
            power = self.drive.input_power
            K0 = dimensionless_power(cav, mech, power)
        x0 = math.sqrt(HBAR / (2.0 * mech.mass * mech.omega_m))
        eta = x0 * cav.omega0 / cav.length
        n_T = mech.occupancy
        f_s0 = self.signal.f_s0
        F_s0 = self.signal.F_s0
        scale = math.sqrt(2.0 * HBAR * mech.omega_m * mech.mass)
        if F_s0 is not None:
            f_s0 = F_s0 / scale
        elif f_s0 is not None:
            F_s0 = f_s0 * scale
        derived = DerivedQuantities(
            x0=x0,
            eta=eta,
            n_T=n_T,
            braginsky=braginsky_factor(n_T, mech.omega_m, self.signal.tau,
                                       mech.quality_factor),
            K0=K0,
            input_power=power,
            C0_squared=K0 * cav.gamma * (cav.gamma0 - cav.gamma_e)
                       / (4.0 * cav.gamma0 * eta**2),
            N0=K0 * (cav.gamma0 - cav.gamma_e) / cav.gamma,
            F_s0=F_s0,
            f_s0=f_s0,
        )
        object.__setattr__(self, "derived", derived)
        for message in self.regime_findings():
            warnings.warn(message, RegimeWarning, stacklevel=3)

    def regime_findings(self) -> list[str]:
        """Soft separation-of-scale violations, as warning strings."""
        mech, cavity = self.mechanical, self.cavity
        out = []
        g = cavity.gamma
        if mech.gamma_m > RATIO_MECH_VS_CAVITY * g:
            out.append(f"gamma_m/gamma = {mech.gamma_m / g:.3g} exceeds "
                       f"{RATIO_MECH_VS_CAVITY}; mechanical decay is not slow "
                       "against the cavity")
        if g > RATIO_CAVITY_VS_MECH_FREQ * mech.omega_m:
            out.append(f"gamma/omega_m = {g / mech.omega_m:.3g} exceeds "
                       f"{RATIO_CAVITY_VS_MECH_FREQ}; sidebands are not well "
                       "resolved")
        if cavity.gamma_e > RATIO_LOSS_VS_INPUT * cavity.gamma0:
            out.append(f"gamma_e/gamma0 = {cavity.gamma_e / cavity.gamma0:.3g} "
                       f"exceeds {RATIO_LOSS_VS_INPUT}; internal loss is not "
                       "small against the input coupler")
        wm_tau = mech.omega_m * self.signal.tau
        if wm_tau < MIN_PULSE_CYCLES:
            out.append(f"omega_m*tau = {wm_tau:.3g} is below {MIN_PULSE_CYCLES}; "
                       "the pulse is not many-cycle resonant")
        return out


# --- configuration files -----------------------------------------------------

_SECTION_KEYS = {
    "mechanical": {"mass", "omega_m", "gamma_m", "Q", "temperature"},
    "cavity": {"gamma0", "gamma_e", "length", "omega0", "wavelength"},
    "drive": {"K0", "input_power"},
    "squeeze": {"type", "kappa", "upsilon"},
    "signal": {"tau", "psi_f", "F_s0", "f_s0"},
}


def _reject_unknown(section: str, data: dict) -> None:
    unknown = set(data) - _SECTION_KEYS[section]
    if unknown:
        raise ConfigError(f"unknown keys in [{section}]: {sorted(unknown)}")


def parse_config(data: dict) -> SystemConfig:
    """Build a SystemConfig from a parsed JSON document (strict schema)."""
    if not isinstance(data, dict):
        raise ConfigError("config document must be a JSON object")
    unknown = set(data) - set(_SECTION_KEYS)
    if unknown:
        raise ConfigError(f"unknown sections: {sorted(unknown)}")
    try:
        mech_d = dict(data["mechanical"])
        cav_d = dict(data["cavity"])
        drive_d = dict(data["drive"])
    except KeyError as exc:
        raise ConfigError(f"missing section {exc}") from None
    squeeze_d = dict(data.get("squeeze", {"type": "none"}))
    signal_d = dict(data.get("signal", {"tau": TAU_PRESETS["table1"]}))
    for name, d in [("mechanical", mech_d), ("cavity", cav_d), ("drive", drive_d),
                    ("squeeze", squeeze_d), ("signal", signal_d)]:
        _reject_unknown(name, d)

    if ("gamma_m" in mech_d) == ("Q" in mech_d):
        raise ConfigError("[mechanical] needs exactly one of gamma_m or Q")
    if "Q" in mech_d:
        mech = MechanicalOscillator.from_quality_factor(
            mech_d["mass"], mech_d["omega_m"], mech_d["Q"], mech_d["temperature"])
    else:
        mech = MechanicalOscillator(
            mech_d["mass"], mech_d["omega_m"], mech_d["gamma_m"], mech_d["temperature"])

    if ("omega0" in cav_d) == ("wavelength" in cav_d):
        raise ConfigError("[cavity] needs exactly one of omega0 or wavelength")
    if "wavelength" in cav_d:
        cavity = OpticalCavity.from_wavelength(
            cav_d["gamma0"], cav_d["gamma_e"], cav_d["length"], cav_d["wavelength"])
    else:
        cavity = OpticalCavity(
            cav_d["gamma0"], cav_d["gamma_e"], cav_d["length"], cav_d["omega0"])

    kind = squeeze_d.get("type", "none")
    if kind == "two_photon":
        squeeze = Squeezing("two_photon", squeeze_d.get("kappa", 0.0))
    elif kind == "degenerate":
        squeeze = Squeezing("degenerate", squeeze_d.get("upsilon", 0.0))
    elif kind == "none":
        if set(squeeze_d) - {"type"}:
            raise ConfigError("[squeeze] type 'none' takes no rate")
        squeeze = Squeezing()
    else:
        raise ConfigError(f"unknown squeeze type {kind!r}")

    drive = DriveConfig(K0=drive_d.get("K0"), input_power=drive_d.get("input_power"))
    signal = SignalPulse(tau=signal_d["tau"], psi_f=signal_d.get("psi_f", 0.0),
                         F_s0=signal_d.get("F_s0"), f_s0=signal_d.get("f_s0"))
    return SystemConfig(mech, cavity, squeeze, drive, signal)


def load_config(path) -> SystemConfig:
    """Read a JSON configuration file."""
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    return parse_config(data)


def json_text(doc) -> str:
    """Indented, key-sorted JSON text of ``doc`` with a trailing newline.

    Non-finite numbers raise ValueError (NaN and Infinity are not JSON), so
    callers serialize before opening a file and a failure writes nothing.
    """
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def config_snapshot(config: SystemConfig) -> dict:
    """JSON-serializable snapshot, round-trippable through parse_config."""
    mech, cav = config.mechanical, config.cavity
    snap = {
        "mechanical": {"mass": mech.mass, "omega_m": mech.omega_m,
                       "gamma_m": mech.gamma_m, "temperature": mech.temperature},
        "cavity": {"gamma0": cav.gamma0, "gamma_e": cav.gamma_e,
                   "length": cav.length, "omega0": cav.omega0},
        "drive": {"K0": config.derived.K0},
        "squeeze": {"type": config.squeeze.kind},
        "signal": {"tau": config.signal.tau, "psi_f": config.signal.psi_f},
    }
    if config.squeeze.kind == "two_photon":
        snap["squeeze"]["kappa"] = config.squeeze.rate
    elif config.squeeze.kind == "degenerate":
        snap["squeeze"]["upsilon"] = config.squeeze.rate
    if config.signal.f_s0 is not None:
        snap["signal"]["f_s0"] = config.signal.f_s0
    elif config.signal.F_s0 is not None:
        snap["signal"]["F_s0"] = config.signal.F_s0
    return snap


# --- reference parameter set --------------------------------------------------

# SiN membrane in a 10 cm cavity.  36 kHz total half-bandwidth split between
# input coupler and internal loss according to the power transmittances
# T^2 = 3e-4 and eps^2 = 1e-6; 1550 nm carrier; 50 ug membrane at 350 kHz,
# Q = 1e8, 20 K.
_REF = {
    "mass": 5e-8,
    "freq": 350e3,
    "quality": 1e8,
    "temperature": 20.0,
    "length": 0.10,
    "wavelength": 1.55e-6,
    "bandwidth": 36e3,
    "T2": 3e-4,
    "eps2": 1e-6,
}


def reference_rates() -> tuple[float, float]:
    """(gamma0, gamma_e) of the reference cavity, rad/s."""
    g = 2.0 * math.pi * _REF["bandwidth"]
    split = _REF["T2"] / (_REF["T2"] + _REF["eps2"])
    return g * split, g * (1.0 - split)


def reference_config(tau_preset: str | float = "table1",
                     squeeze: Squeezing | None = None,
                     K0: float | None = None,
                     gamma_m: float | None = None,
                     lossless: bool = False,
                     f_s0: float | None = 1.0) -> SystemConfig:
    """Membrane reference configuration.

    tau_preset: 'table1' (28 us, default), 'fig3' (0.28 ms), or a time in
    seconds.  The drive defaults to K0 = pi/tau.  ``gamma_m`` overrides the
    Q = 1e8 damping (0 is accepted, for SQL-ratio curves); ``lossless`` zeroes
    the internal loss for ideal-case checks.
    """
    tau = TAU_PRESETS.get(tau_preset, tau_preset) if isinstance(tau_preset, str) \
        else float(tau_preset)
    if isinstance(tau, str):
        raise ConfigError(f"unknown tau preset {tau!r}")
    omega_m = 2.0 * math.pi * _REF["freq"]
    if gamma_m is None:
        mech = MechanicalOscillator.from_quality_factor(
            _REF["mass"], omega_m, _REF["quality"], _REF["temperature"])
    else:
        mech = MechanicalOscillator(_REF["mass"], omega_m, gamma_m,
                                    _REF["temperature"])
    g0, ge = reference_rates()
    if lossless:
        g0, ge = g0 + ge, 0.0
    cavity = OpticalCavity.from_wavelength(g0, ge, _REF["length"], _REF["wavelength"])
    drive = DriveConfig(K0=math.pi / tau if K0 is None else K0)
    return SystemConfig(mech, cavity, squeeze or Squeezing(), drive,
                        SignalPulse(tau=tau, f_s0=f_s0))
