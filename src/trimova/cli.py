"""Command-line front end: spectra, figure datasets, thresholds, validation.

Every run that writes files also writes a manifest (command line, config
snapshot, seeds, output hashes) sufficient to reproduce them bit-identically;
``trimova replay <manifest>`` re-executes the recorded command.  Exit codes:
0 success, 1 validation failure, 2 usage or configuration error.  Each regime
finding of the resolved config (``SystemConfig.regime_findings``) prints to
stderr once, as one ``warning:`` line, before the command runs.

Rate-valued options accept either rad/s or multiples of the input-coupler
rate with a ``g0`` suffix (``--kappa 0.9g0``).  The default configuration
file may be set through the ``TRIMOVA_CONFIG`` environment variable.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, model, oracle, spectra
from .model import (Squeezing, SystemConfig, config_snapshot, json_text,
                    load_config, reference_config)
from .transfer import PoleError

ENV_CONFIG = "TRIMOVA_CONFIG"


class UsageError(Exception):
    pass


def parse_rate(option: str, text: str, gamma0: float) -> float:
    """A finite rate in rad/s, or relative to the input coupler via a g0
    suffix, given to ``option``, which the refusals name."""
    text = text.strip()
    try:
        value = float(text[:-2]) * gamma0 if text.endswith("g0") else float(text)
    except ValueError:
        raise UsageError(f"cannot parse {option} {text!r}") from None
    if not math.isfinite(value):
        raise UsageError(f"{option} {text!r} must be finite")
    return value


def positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _base_config(args) -> SystemConfig:
    path = args.config or os.environ.get(ENV_CONFIG)
    if path:
        if args.tau_preset:
            raise UsageError(f"--tau-preset is for the built-in configuration "
                             f"only, not with the config file {path}")
        if not Path(path).is_file():
            raise UsageError(f"config file not found: {path}")
        return load_config(path)
    return reference_config(tau_preset=args.tau_preset or "table1")


def _resolve_config(args) -> SystemConfig:
    base = _base_config(args)
    g0 = base.cavity.gamma0
    changes = {}
    rates = {kind: vars(args)[key] for kind, key in model.RATE_KEY.items()
             if vars(args)[key] is not None}
    if len(rates) > 1:
        raise UsageError("give at most one of " + "/".join(
            f"--{key}" for key in model.RATE_KEY.values()))
    for kind, text in rates.items():
        changes["squeeze"] = Squeezing(
            kind, parse_rate(f"--{model.RATE_KEY[kind]}", text, g0))

    drives = [f"--{name}" for name in ("k0", "power", "n0")
              if vars(args)[name] is not None]
    if len(drives) > 1:
        raise UsageError(f"give at most one of --k0/--power/--n0, "
                         f"got {' and '.join(drives)}")
    if args.k0 is not None:
        changes["K0"] = parse_rate("--k0", args.k0, g0)
    if args.power is not None:
        changes["K0"] = model.dimensionless_power(base.cavity, base.mechanical,
                                                  args.power)
    if args.n0 is not None:
        changes["K0"] = model.k0_for_n0(parse_rate("--n0", args.n0, g0), g0,
                                        base.cavity.gamma_e)

    if args.gamma_m is not None:
        changes["mechanical"] = dataclasses.replace(
            base.mechanical, gamma_m=parse_rate("--gamma-m", args.gamma_m, g0))
    if args.tau is not None:
        changes["signal"] = dataclasses.replace(base.signal, tau=args.tau)
    config = dataclasses.replace(base, **changes)
    for finding in config.regime_findings():
        print(f"warning: {finding}", file=sys.stderr)
    return config


def _write_manifest(stem: Path, argv: list[str], config: SystemConfig | None,
                    outputs: dict[Path, str], seed: int | None = None) -> Path:
    manifest = {
        "tool": "trimova",
        "version": __version__,
        "command": list(argv),
        "config": config_snapshot(config) if config is not None else None,
        "seed": seed,
        "outputs": [{"path": str(p), "sha256": h} for p, h in outputs.items()],
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    path = stem.with_suffix(stem.suffix + ".manifest.json")
    model.write_text(path, json_text(manifest))
    return path


def _band(args, g0: float) -> tuple:
    """(--omega-min, --omega-max) in rad/s, each None where not given."""
    return tuple(None if text is None else parse_rate(option, text, g0)
                 for option, text in (("--omega-min", args.omega_min),
                                      ("--omega-max", args.omega_max)))


def cmd_spectrum(args, argv) -> int:
    if args.budget and args.sql_ratio:
        raise UsageError("--budget and --sql-ratio cannot be combined: the "
                         "SQL ratio carries no per-channel columns")
    config = _resolve_config(args)
    g0 = config.cavity.gamma0
    lo, hi = _band(args, g0)
    lo, hi = 1e-3 * g0 if lo is None else lo, 10.0 * g0 if hi is None else hi
    if not 0.0 < lo < hi:
        raise UsageError(f"grid band [{lo:.3g}, {hi:.3g}] rad/s: it needs "
                         "0 < omega-min < omega-max")
    grid = np.geomspace(lo, hi, args.points)
    series = spectra.spectrum_series(config, args.case, grid, budget=args.budget)
    if args.sql_ratio:
        series = spectra.ratio_to_sql(series)
    out = Path(args.out)
    side = out.with_suffix(".json")
    outputs = {out: series.write_csv(out), side: series.write_json(side)}
    _write_manifest(out, argv, config, outputs)
    print(f"wrote {out} ({series.grid.size} rows) and {side}")
    return 0


def cmd_figure(args, argv) -> int:
    outdir = Path(args.out_dir)
    curves = spectra.figure_curves(args.id, points=args.points)
    spec = spectra.FIGURES[args.id]
    outputs = {}
    for label, series in curves.items():
        path = outdir / f"{args.id}_{label}.csv"
        outputs[path] = series.write_csv(path)
    sidecar = outdir / f"{args.id}_preset.json"
    outputs[sidecar] = model.write_text(sidecar, json_text({
        "figure": args.id,
        "case": spec.case,
        "rates_of_gamma0": list(spec.rates),
        "drive": spec.drive,
        "drive_pi_over_tau": spec.drive_units,
        "tau_s": model.TAU_PRESETS[spec.tau_preset],
        "gamma_m": 0.0,
        "note": spec.note,
        "curves": {label: f"{args.id}_{label}.csv" for label in curves},
    }))
    _write_manifest(outdir / args.id, argv, None, outputs)
    print(f"wrote {len(curves)} curves for {args.id} into {outdir}")
    return 0


def cmd_threshold(args, argv) -> int:
    config = _resolve_config(args)
    report = spectra.detection_threshold_time_domain(config)
    spectral = {case: spectra.detection_threshold_spectral(config, case)
                for case, (kind, _) in spectra.CASES.items()
                if kind == config.squeeze.kind}
    if args.json:
        payload = report.to_json_dict()
        payload["spectral_f"] = {k: float(v) for k, v in spectral.items()}
        sys.stdout.write(json_text(payload))
        return 0
    print(f"pulse length tau         : {report.tau:.6g} s")
    print(f"thermal occupancy n_T    : {report.n_T:.6g}")
    print(f"thermal/SQL factor B     : {report.braginsky:.6g}")
    print(f"optimal flat pump        : {report.pump_optimum:.6g} rad/s")
    print(f"min force, band form     : {report.band_integrated_force:.6g} N")
    print(f"min force, SQL form      : {report.sql_form_force:.6g} N")
    print(f"quantum-limit force      : {report.sql_limit_force:.6g} N")
    for case, value in spectral.items():
        print(f"spectral threshold {case:12s}: {value:.6g} rad/s (normalized)")
    return 0


def cmd_validate(args, argv) -> int:
    config = _resolve_config(args)
    lo, hi = _band(args, config.cavity.gamma0)
    report = oracle.validate(config, args.case, segments=args.segments,
                             seed=args.seed, tolerance=args.tolerance,
                             perturb=args.perturb_kappa, dt=args.dt,
                             omega_lo=lo, omega_hi=hi)
    out = Path(args.out)
    _write_manifest(out, argv, config, {out: report.write_json(out)},
                    seed=args.seed)
    status = "PASS" if report.passed else "FAIL"
    print(f"{status} {args.case}: {100 * report.pass_fraction:.1f}% of "
          f"{report.grid.size} grid points within max(3*stderr, "
          f"{100 * report.tolerance:g}%)  [report: {out}]")
    return 0 if report.passed else 1


def cmd_replay(args, argv) -> int:
    try:
        with open(args.manifest, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:   # no JSON document
        raise UsageError(f"cannot read manifest {args.manifest}: {exc}") \
            from None
    command = manifest.get("command") if isinstance(manifest, dict) else None
    if not (isinstance(command, list) and command
            and all(isinstance(item, str) for item in command)):
        raise UsageError("manifest has no recorded command: a JSON object "
                         "whose 'command' is a non-empty list of strings")
    if command[0] == "replay":
        raise UsageError("manifest records a replay, which is not re-run")
    print(f"replaying: trimova {' '.join(command)}")
    return main(command)


def _add_config_options(p: argparse.ArgumentParser):
    p.add_argument("--config", "-c", help="JSON configuration file "
                   f"(default: ${ENV_CONFIG} or built-in membrane preset)")
    p.add_argument("--tau-preset", choices=tuple(model.TAU_PRESETS),
                   help="pulse-length preset, built-in configuration only: "
                        "table1 = 28 us (default), fig3 = 0.28 ms")
    for kind, key in model.RATE_KEY.items():
        p.add_argument(f"--{key}", help=f"{kind.replace('_', '-')} squeeze "
                                        "rate (rad/s or '0.9g0')")
    p.add_argument("--gamma-m", help="override mechanical half linewidth")
    p.add_argument("--tau", type=float, help="override pulse length, s")
    p.add_argument("--k0", help="normalized pump (rad/s or g0 units)")
    p.add_argument("--n0", help="degenerate-normalized pump; sets the "
                                "equivalent K0")
    p.add_argument("--power", type=float, help="input power, W")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trimova",
        description="Quantum noise spectra, SQL ratios and detection "
                    "thresholds of a three-mode optomechanical force sensor")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="write one spectrum as CSV + JSON")
    _add_config_options(p)
    p.add_argument("--case", required=True, choices=spectra.CASES)
    p.add_argument("--omega-min", help="grid start (rad/s or g0 units)")
    p.add_argument("--omega-max", help="grid end (rad/s or g0 units)")
    p.add_argument("--points", type=positive_int, default=400)
    p.add_argument("--budget", action="store_true",
                   help="add per-channel noise columns")
    p.add_argument("--sql-ratio", action="store_true",
                   help="emit the ratio to the SQL instead of the PSD")
    p.add_argument("--out", "-o", default="spectrum.csv")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("figure", help="reproduce a published-figure dataset")
    p.add_argument("id", choices=sorted(spectra.FIGURES))
    p.add_argument("--points", type=positive_int, default=400)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("threshold", help="detection thresholds and scales")
    _add_config_options(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("validate",
                       help="cross-check a case against the time-domain model")
    _add_config_options(p)
    p.add_argument("--case", required=True, choices=spectra.CASES)
    p.add_argument("--segments", type=int, default=200,
                   help="Hann windows averaged; consecutive windows overlap "
                        f"by half (at least {oracle.MIN_SEGMENTS})")
    p.add_argument("--seed", type=int, default=1,
                   help="seed of the noise streams; a seed repeats its "
                        "report exactly")
    p.add_argument("--tolerance", type=float, default=0.05)
    p.add_argument("--dt", type=float, help="integrator step, s; pi/dt must "
                   "be at least 1.5*omega-max (default pi/max(1.5*omega-max, "
                   "10*fastest rate))")
    p.add_argument("--omega-min", help="comparison band start (rad/s or g0, "
                   "default 0.01g0); the compared band starts at the larger "
                   "of this and the 8th bin of a window")
    p.add_argument("--omega-max", help="comparison band end (rad/s or g0)")
    p.add_argument("--perturb-kappa", type=float, default=0.0,
                   help="scale the simulated squeeze rate by (1+x): "
                        "negative control")
    p.add_argument("--out", "-o", default="validation_report.json")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("replay", help="re-run the command recorded in a manifest")
    p.add_argument("manifest")
    p.set_defaults(func=cmd_replay)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, argv)
    except (UsageError, PoleError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
