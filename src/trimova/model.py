"""Physical parameters of the three-mode force sensor.

The sensor couples a mechanical oscillator (a light membrane) to an optical
cavity supporting three modes spaced by the mechanical frequency.  The central
mode is resonantly pumped; the outputs of the two side modes are detected by
homodyne readout.  An intracavity parametric pump may squeeze the side modes,
either pairwise (two-photon, rate ``kappa``) or individually (degenerate,
rate ``upsilon``).

Everything here is plain bookkeeping: unit-checked parameter containers,
regime validation, and the two scalars every spectrum scales with, the
thermal occupancy (``MechanicalOscillator.occupancy``) and the pump rate
(``SystemConfig.pump_rate``).  All rates are angular (rad/s) and all other
units SI.

Each container stores one quantity per parameter, and an alternative input is
resolved to it where it arrives: Q to gamma_m (``from_quality_factor``), a
wavelength to omega0 (``from_wavelength``), and an input power or the
degenerate normalization N0 to K0 (``dimensionless_power``, ``k0_for_n0``).
A config file's [mechanical], [cavity] and [signal] hold their container's
fields by name, [drive] K0 and [squeeze] a type and its rate, and a section
may give its one alternative input instead.  Every value but [squeeze] type
is a JSON number or null (absent), checked once by ``parse_config``.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, asdict, dataclass, fields, replace
from pathlib import Path

# Exact SI 2019 values of the reduced Planck and the Boltzmann constants.
HBAR = 6.62607015e-34 / (2 * math.pi)   # J s
K_B = 1.380649e-23                      # J/K

# Pulse-length presets, s: table1 is the default, fig3 the long-pulse figure.
TAU_PRESETS = {"table1": 28e-6, "fig3": 0.28e-3}


class ConfigError(ValueError):
    """Invalid or inconsistent parameter input."""


class StabilityError(ValueError):
    """Parametric pump exceeds the decay it must stay below."""


# Thresholds of the separation-of-scales conditions ``regime_findings``
# reports.  The cavity/mechanics ratio uses 0.15: the reference membrane set
# sits at gamma/omega_m = 36/350 = 0.103 and is considered in-regime.
RATIO_MECH_VS_CAVITY = 0.1     # gamma_m / gamma
RATIO_CAVITY_VS_MECH_FREQ = 0.15   # gamma / omega_m
RATIO_LOSS_VS_INPUT = 0.1      # gamma_e / gamma0
MIN_PULSE_CYCLES = 10.0        # omega_m * tau
MAX_DECAY_IN_PULSE = 0.1       # gamma_m * tau

# Squeeze kind -> its rate's key in a config file's [squeeze] section.
RATE_KEY = {"two_photon": "kappa", "degenerate": "upsilon"}


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
    quantum, thermal = HBAR * omega_m, K_B * temperature
    # Past hbar*omega_m/kB*T = 709.78 exp overflows, and n_T is below 1e-308.
    if quantum > 709.78 * thermal or thermal == 0.0:
        return 0.0
    # Below omega_m ~ 5e-290 rad/s hbar*omega_m underflows: n_T is unbounded.
    return 1.0 / math.expm1(quantum / thermal) if quantum else math.inf


def braginsky_factor(n_T: float, omega_m: float, tau: float, quality: float) -> float:
    """Thermal-noise-to-SQL ratio B = n_T * omega_m * tau / Q for a pulse of length tau.

    B << 1 is the condition for thermal force noise to stay below the standard
    quantum limit during the measurement.
    """
    if quality == math.inf:
        return 0.0
    return n_T * omega_m * tau / quality


def _drive_k0(name: str, value: float, unit: str, K0: float) -> float:
    """K0 set by the drive input ``name``, refused by that name where the
    input is not finite and positive or the K0 it sets is not finite."""
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite, got {value}")
    if value <= 0.0:
        raise ConfigError(f"{name} must be positive, got {value}")
    if not math.isfinite(K0):
        raise ConfigError(f"K0 of {name} = {value}{unit} must be finite, "
                          f"got {K0}")
    return K0


def dimensionless_power(cavity: "OpticalCavity", mech: "MechanicalOscillator",
                        input_power: float) -> float:
    """Normalized pump K0 = 4*g0*w0*P / (m*wm*L^2*g^2*(g0-ge)), units rad/s
    (OpticalCavity requires gamma_e < gamma0, so it is never singular)."""
    g0, ge = cavity.gamma0, cavity.gamma_e
    g = cavity.gamma
    return _drive_k0("input_power", input_power, " W", (
        4.0 * g0 * cavity.omega0 * input_power
        / (mech.mass * mech.omega_m * cavity.length**2 * g**2 * (g0 - ge))))


def k0_for_n0(N0: float, gamma0: float, gamma_e: float) -> float:
    """Normalized pump K0 whose degenerate normalization K0*(g0-ge)/g is N0."""
    return _drive_k0("N0", N0, " rad/s",
                     N0 * (gamma0 + gamma_e) / (gamma0 - gamma_e))


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
        # A finite but huge temperature can overflow the occupancy.
        if not math.isfinite(self.occupancy):
            raise ConfigError(f"n_T must be finite, got {self.occupancy}")

    @classmethod
    def from_quality_factor(cls, mass, omega_m, Q, temperature):
        if Q <= 0.5:
            raise ConfigError("quality factor must exceed 1/2")
        if not math.isfinite(Q):
            raise ConfigError(f"Q must be finite, got {Q}")
        return cls(mass, omega_m, omega_m / (2.0 * Q), temperature)

    @property
    def quality_factor(self) -> float:
        return math.inf if self.gamma_m == 0 else self.omega_m / (2.0 * self.gamma_m)

    @property
    def occupancy(self) -> float:
        """Thermal occupancy n_T of the mechanical bath."""
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
        if self.gamma_e >= self.gamma0:
            raise ConfigError("gamma_e must be below gamma0")

    @classmethod
    def from_wavelength(cls, gamma0, gamma_e, length, wavelength):
        if not 0.0 < wavelength < math.inf:
            raise ConfigError(f"wavelength must be finite and positive, "
                              f"got {wavelength}")
        omega0 = 2.0 * math.pi * 299792458.0 / wavelength
        if not math.isfinite(omega0):
            raise ConfigError(f"carrier 2*pi*c/wavelength of wavelength = "
                              f"{wavelength} m must be finite, got {omega0}")
        return cls(gamma0, gamma_e, length, omega0)

    @property
    def gamma(self) -> float:
        """Total half rate gamma0 + gamma_e (exact sum)."""
        return self.gamma0 + self.gamma_e


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
        if self.kind not in ("none", *RATE_KEY):
            raise ConfigError(f"unknown squeezing kind {self.kind!r}")
        if self.rate < 0:
            raise ConfigError("squeezing rate must be nonnegative")
        if self.kind == "none" and self.rate != 0.0:
            raise ConfigError("kind 'none' cannot carry a rate")


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
class SystemConfig:
    """Complete, immutable description of one sensor configuration, driven
    at the normalized pump ``K0`` (rad/s).

    Construction raises ConfigError for a K0 that is not finite and positive
    or whose pump rate overflows and StabilityError for an overdriven
    parametric pump; it has no other effect.  Soft regime violations are
    data, listed by ``regime_findings``.
    """

    mechanical: MechanicalOscillator
    cavity: OpticalCavity
    squeeze: Squeezing
    K0: float
    signal: SignalPulse

    def __post_init__(self):
        _require_finite(self)
        if self.K0 <= 0:
            raise ConfigError("drive must be positive")
        # The antisqueezed pair decays at gamma - rate (the sum pair under
        # two-photon squeezing) and must stay damped, so the bound is strict.
        squeeze, g = self.squeeze, self.cavity.gamma
        if squeeze.kind != "none" and squeeze.rate >= g:
            raise StabilityError(f"{squeeze.kind.replace('_', '-')} rate "
                                 f"{squeeze.rate:.6g} reaches gamma0+gamma_e = {g:.6g}")
        # A finite but huge or tiny K0 can overflow the pump rate.
        if not math.isfinite(self.pump_rate):
            raise ConfigError(f"pump rate K0*gamma*(gamma0-gamma_e) must be "
                              f"finite, got {self.pump_rate} at K0 = {self.K0:.6g}")

    @property
    def pump_rate(self) -> float:
        """Pump rate P = K0*gamma*(gamma0 - gamma_e), the scale of both
        spectral paths' back action and imprecision."""
        cav = self.cavity
        return self.K0 * cav.gamma * (cav.gamma0 - cav.gamma_e)

    def regime_findings(self) -> list[str]:
        """Soft separation-of-scale violations, one message each: the only
        place a regime finding is worded."""
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
        gm_tau = mech.gamma_m * self.signal.tau
        if gm_tau > MAX_DECAY_IN_PULSE:
            out.append(f"gamma_m*tau = {gm_tau:.3g} is not small; "
                       "short-pulse threshold formulas degrade")
        return out


# --- configuration files -----------------------------------------------------

_CONTAINERS = {"mechanical": MechanicalOscillator, "cavity": OpticalCavity,
               "signal": SignalPulse}
_ALTERNATIVE = {"mechanical": ("gamma_m", "Q"), "cavity": ("omega0", "wavelength"),
                "drive": ("K0", "input_power")}
_SECTION_KEYS = {name: {*_ALTERNATIVE.get(name, ()), *(f.name for f in fields(cls))}
                 for name, cls in _CONTAINERS.items()}
_SECTION_KEYS.update(drive=set(_ALTERNATIVE["drive"]),
                     squeeze={"type", *RATE_KEY.values()})


def _number(section: str, key: str, value) -> float:
    """A config value as a float: a JSON number, not a boolean, in float range."""
    if isinstance(value, float) or (type(value) is int
                                    and abs(value) <= sys.float_info.max):
        return float(value)
    raise ConfigError(f"[{section}] {key} must be a number in float range or "
                      f"null, got {type(value).__name__}")


def _one_of(name: str, d: dict) -> bool:
    """True if section d gives its alternative input, False if its field; not both."""
    field, alternative = _ALTERNATIVE[name]
    if (field in d) == (alternative in d):
        raise ConfigError(f"[{name}] needs exactly one of {field} or {alternative}")
    return alternative in d


def parse_config(data: dict) -> SystemConfig:
    """Build a SystemConfig from a parsed JSON document (strict schema)."""
    if not isinstance(data, dict):
        raise ConfigError("config document must be a JSON object")
    unknown = set(data) - set(_SECTION_KEYS)
    if unknown:
        raise ConfigError(f"unknown sections: {sorted(unknown)}")
    data = {"squeeze": {}, "signal": {"tau": TAU_PRESETS["table1"]},   # if left out
            **{key: section for key, section in data.items() if section is not None}}
    sections = {}
    for name, keys in _SECTION_KEYS.items():
        section = data.get(name)
        if not isinstance(section, dict):
            raise ConfigError(f"missing section {name!r}" if section is None else
                              f"[{name}] must be a JSON object, "
                              f"got {type(section).__name__}")
        unknown = sorted(set(section) - keys)
        if unknown:
            raise ConfigError(f"unknown keys in [{name}]: {unknown}")
        sections[name] = d = {key: value if key == "type" else _number(name, key, value)
                              for key, value in section.items() if value is not None}
        given = {*d, *_ALTERNATIVE.get(name, ())}   # _one_of checks the pair
        for item in fields(_CONTAINERS[name]) if name in _CONTAINERS else ():
            if item.default is MISSING and item.name not in given:
                raise ConfigError(f"[{name}] needs {item.name}")

    mech_d, cav_d, drive_d = (sections[n] for n in ("mechanical", "cavity", "drive"))
    mech = (MechanicalOscillator.from_quality_factor
            if _one_of("mechanical", mech_d) else MechanicalOscillator)(**mech_d)
    cavity = (OpticalCavity.from_wavelength
              if _one_of("cavity", cav_d) else OpticalCavity)(**cav_d)

    squeeze_d = sections["squeeze"]
    kind = squeeze_d.pop("type", "none")
    if kind not in ("none", *RATE_KEY):
        raise ConfigError(f"unknown squeeze type {kind!r}")
    key = RATE_KEY.get(kind)
    if set(squeeze_d) - {key}:
        raise ConfigError(f"[squeeze] type {kind!r} takes no rate"
                          + ("" if key is None else f" but {key!r}"))
    squeeze = Squeezing(kind, squeeze_d.get(key, 0.0))

    K0 = (dimensionless_power(cavity, mech, drive_d["input_power"])
          if _one_of("drive", drive_d) else drive_d["K0"])
    return SystemConfig(mech, cavity, squeeze, K0, SignalPulse(**sections["signal"]))


def load_config(path) -> SystemConfig:
    """Read a JSON configuration file."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:   # not JSON, or nested too deep
        raise ConfigError(f"{path}: {exc}") from None
    return parse_config(data)


def json_text(doc) -> str:
    """Indented, key-sorted JSON text of ``doc`` with a trailing newline.

    Non-finite numbers raise ValueError (NaN and Infinity are not JSON), so
    callers serialize before opening a file and a failure writes nothing.
    """
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_text(path, text: str) -> str:
    """Write serialized ``text`` to ``path`` as UTF-8 with its newlines as
    given, creating the parent directory; the sha256 hex digest of the bytes
    written."""
    import hashlib   # here, so that importing trimova does not load OpenSSL
    data = text.encode("utf-8")
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def config_snapshot(config: SystemConfig) -> dict:
    """JSON-serializable snapshot, round-trippable through parse_config: each
    container's fields by name, less those that are None."""
    squeeze = config.squeeze
    rate = {RATE_KEY[squeeze.kind]: squeeze.rate} if squeeze.kind in RATE_KEY else {}
    snap = {name: {key: v for key, v in asdict(getattr(config, name)).items()
                   if v is not None} for name in _CONTAINERS}
    return snap | {"drive": {"K0": config.K0},
                   "squeeze": {"type": squeeze.kind, **rate}}


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


def reference_config(tau_preset: str = "table1",
                     squeeze: Squeezing | None = None,
                     K0: float | None = None,
                     gamma_m: float | None = None,
                     lossless: bool = False) -> SystemConfig:
    """Membrane reference configuration.

    tau_preset: 'table1' (28 us, default) or 'fig3' (0.28 ms).  The drive
    defaults to K0 = pi/tau.  ``gamma_m`` overrides the Q = 1e8 damping (0 is
    accepted, for SQL-ratio curves); ``lossless`` zeroes the internal loss for
    ideal-case checks.
    """
    if tau_preset not in TAU_PRESETS:
        raise ConfigError(f"unknown tau preset {tau_preset!r}")
    tau = TAU_PRESETS[tau_preset]
    omega_m = 2.0 * math.pi * _REF["freq"]
    mech = MechanicalOscillator.from_quality_factor(
        _REF["mass"], omega_m, _REF["quality"], _REF["temperature"])
    if gamma_m is not None:
        mech = replace(mech, gamma_m=gamma_m)
    g0, ge = reference_rates()
    if lossless:
        g0, ge = g0 + ge, 0.0
    cavity = OpticalCavity.from_wavelength(g0, ge, _REF["length"], _REF["wavelength"])
    return SystemConfig(mech, cavity, squeeze or Squeezing(),
                        math.pi / tau if K0 is None else K0,
                        SignalPulse(tau=tau, f_s0=1.0))
