"""The benchmark's three workloads and its instrumentation of trimova.

cli-cold  16 fresh ``python -m trimova.cli`` processes per pass, each in its
          own directory: interpreter start and imports dominate.
sweep     warm in-process spectra over a 40-point parameter grid plus the
          seven figure presets: model/transfer/spectra arithmetic only.
validate  one 200-segment ``oracle.validate`` of nondeg-sub: the oracle only.

``SETUPS`` build each workload's configs and grids (the part ``setup_s``
times); ``build`` turns them into checked operations.  Every call into the
program goes through a module attribute, so ``instrument`` can trace it.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import json
import math
import os
import random
import shutil
import struct
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from trimova import model, oracle, spectra, transfer

import checks

POINTS = 400
SEGMENTS = 200
RATE = 0.5            # squeeze rate of the cli-cold and validate configs, gamma0
CLI_TIMEOUT_S = 120
KIND = {"baseline": "none", "nondeg": "two_photon", "deg": "degenerate"}
SQUEEZE_OPTION = {"two_photon": "--kappa", "degenerate": "--upsilon"}


@dataclass
class Op:
    """One timed operation.  ``name`` keys the repetition check;
    ``prepare`` runs untimed before each repetition."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple[list[str], dict[str, str]]]
    prepare: Callable[[], None] | None = None


@dataclass
class Workload:
    ops: list[Op]
    warm_up: int          # leading ops run once, untimed, before measuring
    accuracy: Callable[[], tuple[dict, dict]]   # (metrics, details)
    rss: str              # whose peak RSS counts: "self" or "children"


def case_kind(case: str) -> str:
    return KIND[case.split("-")[0]]


def _two_photon_config():
    g0 = model.reference_rates()[0]
    return model.reference_config(squeeze=model.Squeezing("two_photon", RATE * g0))


# --- set-up (timed by setup_s) ----------------------------------------------------

def setup_cli_cold(seed: int) -> dict:
    rate = f"{RATE:g}g0"
    commands = [("threshold", ["threshold"]),
                ("threshold-json", ["threshold", "--json", "--kappa", rate])]
    for case in spectra.CASES:
        option = SQUEEZE_OPTION.get(case_kind(case))
        commands.append((f"spectrum-{case}", [
            "spectrum", "--points", str(POINTS), "--budget", "--case", case,
            *([option, rate] if option else []), "--out", "spectrum.csv"]))
    commands.append(("spectrum-config", [
        "spectrum", "--config", "{config}", "--case", "nondeg-sub",
        "--points", str(POINTS), "--out", "spectrum.csv"]))
    commands += [(f"figure-{fid}", ["figure", fid, "--out-dir", "."])
                 for fid in sorted(spectra.FIGURES)]
    random.Random(seed).shuffle(commands)
    return {"snapshot": model.config_snapshot(_two_photon_config()),
            "commands": commands}


def setup_sweep(seed: int) -> list:
    g0 = model.reference_rates()[0]
    tau = model.TAU_PRESETS["table1"]
    items = []
    for case in spectra.CASES:
        kind = case_kind(case)
        for lossless in (False, True):
            for rate in ((0.0,) if kind == "none" else (0.5, 0.9)):
                squeeze = model.Squeezing() if kind == "none" \
                    else model.Squeezing(kind, rate * g0)
                for pump in (1.0, 4.0):
                    config = model.reference_config(
                        squeeze=squeeze, K0=pump * math.pi / tau,
                        lossless=lossless)
                    label = (f"{case}/{'lossless' if lossless else 'lossy'}"
                             f"/rate{rate:g}/pump{pump:g}")
                    items.append(("point", label, case, config,
                                  spectra.default_grid(config, POINTS)))
    items += [("figure", fid) for fid in sorted(spectra.FIGURES)]
    random.Random(seed).shuffle(items)
    return items


def setup_validate(seed: int) -> dict:
    return {"config": _two_photon_config(), "seed": seed}


SETUPS = {"cli-cold": setup_cli_cold, "sweep": setup_sweep,
          "validate": setup_validate}


# --- cli-cold -----------------------------------------------------------------------

@dataclass
class CliResult:
    returncode: int
    cwd: Path
    stdout: bytes | None = None     # None: in cwd/stdout.txt
    maxrss_kb: int = 0


def _run_cli(argv: list[str], cwd: Path, launcher: str, env: dict) -> CliResult:
    if launcher == "warm":
        from trimova import cli
        buf = io.StringIO()
        here = os.getcwd()
        os.chdir(cwd)
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
        finally:
            os.chdir(here)
        return CliResult(code, cwd, buf.getvalue().encode())
    with open(cwd / "stdout.txt", "wb") as out, \
            open(cwd / "stderr.txt", "wb") as err:
        proc = subprocess.Popen([sys.executable, "-m", "trimova.cli", *argv],
                                cwd=cwd, env=env, stdout=out, stderr=err)
        watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CliResult(proc.returncode, cwd, None, usage.ru_maxrss)


def _numbers(node) -> list[float]:
    if isinstance(node, dict):
        return [x for v in node.values() for x in _numbers(v)]
    return [float(node)] if isinstance(node, (int, float)) else []


def _check_spectrum(name: str, cwd: Path, budget: bool) -> tuple[list, dict]:
    text = (cwd / "spectrum.csv").read_text(encoding="utf-8")
    problems = checks.check_csv(name, text, POINTS)
    if budget and text.count(",", 0, text.find("\n")) < 2:
        problems.append(f"{name}: budget columns missing")
    side = json.loads((cwd / "spectrum.json").read_text(encoding="utf-8"))
    problems += checks.check_values(f"{name} json", side["value"], POINTS)
    problems += checks.check_manifest(name, cwd / "spectrum.csv.manifest.json", cwd)
    return problems, {f: checks.sha256((cwd / f).read_bytes())
                      for f in ("spectrum.csv", "spectrum.json")}


def _check_figure(name: str, cwd: Path, fid: str) -> tuple[list, dict]:
    curves = sorted(cwd.glob(f"{fid}_*.csv"))
    problems = []
    expected = len(spectra.FIGURES[fid].rates)
    if len(curves) != expected:
        problems.append(f"{name}: {len(curves)} curves, expected {expected}")
    for path in curves:
        problems += checks.check_csv(f"{name} {path.name}",
                                     path.read_text(encoding="utf-8"), POINTS)
    preset = cwd / f"{fid}_preset.json"
    json.loads(preset.read_text(encoding="utf-8"))
    problems += checks.check_manifest(name, cwd / f"{fid}.manifest.json", cwd)
    return problems, {p.name: checks.sha256(p.read_bytes())
                      for p in curves + [preset]}


def _cli_check(name: str, argv: list[str]):
    def check(result: CliResult):
        cwd = result.cwd
        if result.returncode != 0:
            err = (cwd / "stderr.txt").read_text(errors="replace")[-300:] \
                if (cwd / "stderr.txt").exists() else ""
            return [f"{name}: exit code {result.returncode} {err}"], {}
        stdout = result.stdout if result.stdout is not None \
            else (cwd / "stdout.txt").read_bytes()
        hashes = {"stdout": checks.sha256(stdout)}
        if argv[0] == "threshold" and "--json" in argv:
            problems = checks.check_values(name, _numbers(json.loads(stdout)))
        elif argv[0] == "threshold":
            lines = stdout.decode().splitlines()
            values = [float(line.split(":", 1)[1].split()[0]) for line in lines]
            problems = checks.check_values(name, values, rows=9)
        elif argv[0] == "spectrum":
            problems, files = _check_spectrum(name, cwd, "--budget" in argv)
            hashes.update(files)
        else:
            problems, files = _check_figure(name, cwd, argv[1])
            hashes.update(files)
        return problems, hashes
    return check


def _fresh_dir(path: Path):
    def prepare():
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
    return prepare


def build_cli_cold(setup: dict, tmp: Path, launcher: str, env: dict) -> list[Op]:
    """Ops of one cli-cold pass; ``launcher`` is "cold" (python -m
    trimova.cli) or "warm" (in-process ``cli.main``)."""
    config_file = tmp / "config.json"
    if not config_file.exists():
        config_file.write_text(json.dumps(setup["snapshot"], indent=2),
                               encoding="utf-8")
    ops = []
    for name, template in setup["commands"]:
        argv = [str(config_file) if a == "{config}" else a for a in template]
        cwd = tmp / launcher / name
        ops.append(Op(name, functools.partial(_run_cli, argv, cwd, launcher, env),
                      _cli_check(name, argv), _fresh_dir(cwd)))
    return ops


# --- sweep ----------------------------------------------------------------------------

def _digest(*arrays) -> str:
    return checks.sha256(b"".join(np.ascontiguousarray(a, dtype=float).tobytes()
                                  for a in arrays))


def _point_op(label: str, case: str, config, grid) -> Op:
    def run():
        series = spectra.spectrum_series(config, case, grid, budget=True)
        return (series, spectra.ratio_to_sql(series),
                spectra.closed_form_psd(case, config, grid),
                spectra.detection_threshold_spectral(config, case))

    def check(result):
        series, ratio, closed, threshold = result
        problems = checks.check_values(f"{label} psd", series.values, POINTS)
        for part in sorted(series.budget):
            problems += checks.check_values(f"{label} budget {part}",
                                            series.budget[part], POINTS,
                                            positive=False)
        problems += checks.check_values(f"{label} sql ratio", ratio.values, POINTS)
        problems += checks.check_values(f"{label} closed form", closed, POINTS)
        problems += checks.check_values(f"{label} threshold", [threshold])
        budget = [series.budget[part] for part in sorted(series.budget)]
        return problems, {"psd": _digest(series.values),
                          "budget": _digest(*budget),
                          "sql_ratio": _digest(ratio.values),
                          "closed_form": _digest(closed),
                          "threshold": checks.sha256(struct.pack("<d", threshold))}
    return Op(label, run, check)


def _figure_op(fid: str) -> Op:
    def check(curves):
        expected = len(spectra.FIGURES[fid].rates)
        problems = [] if len(curves) == expected \
            else [f"{fid}: {len(curves)} curves, expected {expected}"]
        for label, series in curves.items():
            problems += checks.check_values(f"{fid} {label}", series.values, POINTS)
        return problems, {label: _digest(series.grid, series.values)
                          for label, series in curves.items()}
    return Op(fid, lambda: spectra.figure_curves(fid), check)


def crosspath(setup: list) -> dict:
    """Largest |a/b - 1| between closed form, assembled sum and the
    signal-referred state-space PSD, over every sweep point."""
    worst = {}
    for item in setup:
        if item[0] != "point":
            continue
        _, label, case, config, grid = item
        ss = oracle.build_state_space(config)
        weight = ss.nulling_weight(grid) if case.endswith("-sub") else None
        signal = ss.signal_response(grid)[:, ss.measured_port]
        paths = [spectra.closed_form_psd(case, config, grid),
                 spectra.spectrum_series(config, case, grid).values,
                 ss.output_psd(grid, ref_weight=weight) / np.abs(signal) ** 2]
        worst[label] = max(float(np.max(np.abs(a / b - 1.0)))
                           for i, a in enumerate(paths)
                           for j, b in enumerate(paths) if i != j)
    return worst


def build_sweep(setup: list) -> list[Op]:
    return [_point_op(*item[1:]) if item[0] == "point" else _figure_op(item[1])
            for item in setup]


# --- validate ---------------------------------------------------------------------------

def build_validate(setup: dict, fractions: list) -> list[Op]:
    def run():
        return oracle.validate(setup["config"], "nondeg-sub",
                               segments=SEGMENTS, seed=setup["seed"])

    def check(report):
        data = report.to_json_dict()
        fractions.append(data["pass_fraction"])
        problems = checks.check_report("validate", data)
        if data["segments"] != SEGMENTS:
            problems.append(f"validate: {data['segments']} segments")
        text = json.dumps(data, sort_keys=True).encode()
        return problems, {"report": checks.sha256(text)}
    return [Op("validate", run, check)]


def build(name: str, seed: int, tmp: Path, env: dict,
          launcher: str = "cold") -> Workload:
    """Set a workload up and return its ops; ``launcher`` applies to cli-cold."""
    setup = SETUPS[name](seed)
    if name == "cli-cold":
        return Workload(build_cli_cold(setup, tmp, launcher, env),
                        warm_up=1, accuracy=lambda: ({}, {}),
                        rss="children")
    if name == "sweep":
        def accuracy():
            worst = crosspath(setup)
            return ({"crosspath_max_rel": max(worst.values())},
                    {"crosspath_by_point": worst})
        ops = build_sweep(setup)
        return Workload(ops, warm_up=len(ops), accuracy=accuracy, rss="self")
    fractions: list[float] = []
    return Workload(build_validate(setup, fractions), warm_up=0, rss="self",
                    accuracy=lambda: ({"validate_pass_fraction":
                                       float(np.median(fractions))}, {}))


# --- instrumentation ---------------------------------------------------------------------

def _points(args, kwargs, result) -> float:
    return float(np.size(next(iter(result.values()))))


def _samples(args, kwargs, result) -> float:
    return float(result.outputs.shape[0] * result.outputs.shape[1])


def _bins(args, kwargs, result) -> float:
    return float(result.grid.size)


def instrument(tracer) -> None:
    """Wrap the program's public callables at every module attribute that
    binds them, so calls from any trimova module are traced."""
    from trimova import cli
    modules = (model, transfer, spectra, oracle, cli)
    targets = [(model, "reference_config", None), (model, "load_config", None),
               (transfer, "transfer_coefficients", _points),
               (oracle, "simulate", _samples),
               (oracle, "validate", _bins), (oracle, "build_state_space", None),
               (oracle, "log_binned", None), (cli, "main", None)]
    targets += [(spectra, name, None) for name, value in vars(spectra).items()
                if inspect.isfunction(value) and not name.startswith("_")
                and value.__module__ == spectra.__name__]
    for module, attr, count in targets:
        target = getattr(module, attr)
        span = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        bindings = [(m, a) for m in modules for a, v in vars(m).items()
                    if v is target]
        for owner, binding in bindings:
            tracer.wrap(owner, binding, span, count)
    for name, value in list(vars(oracle.StateSpace).items()):
        if inspect.isfunction(value) and not name.startswith("_"):
            tracer.wrap(oracle.StateSpace, name, f"oracle.StateSpace.{name}")
    for name in ("write_csv", "write_json"):
        tracer.wrap(spectra.SpectrumSeries, name, f"spectra.{name}")
