"""Output checks of the benchmark.

Each check returns a list of problems; an empty list means the output is
good.  An operation fails when any check on it reports a problem.  Nothing
here imports trimova.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

REPORT_FIELDS = ("case", "passed", "pass_fraction", "tolerance", "segments",
                 "seed", "dt", "perturb", "grid", "estimate", "stderr",
                 "closed_form", "state_space_psd")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_values(label: str, values, rows: int | None = None,
                 positive: bool = True) -> list[str]:
    """Every value finite and, with ``positive``, above zero (else >= 0)."""
    values = np.fromiter(values, dtype=float)
    problems = []
    if rows is not None and values.size != rows:
        problems.append(f"{label}: {values.size} values, expected {rows}")
    bad = ~np.isfinite(values) | ((values <= 0.0) if positive else (values < 0.0))
    if bad.any():
        kind = "positive" if positive else "non-negative"
        problems.append(f"{label}: {int(bad.sum())} values not finite and "
                        f"{kind}, first {float(values[bad][0])!r}")
    return problems


def check_csv(label: str, text: str, rows: int,
              columns: tuple[str, ...] = ("omega_rad_s", "value")) -> list[str]:
    """A CSV spectrum: the header starts with ``columns`` and ``rows`` data rows
    follow.  The grid and value columns must be positive, budget columns
    non-negative, every field finite."""
    lines = text.splitlines()
    if not lines:
        return [f"{label}: empty CSV"]
    header = lines[0].split(",")
    if tuple(header[:len(columns)]) != columns:
        return [f"{label}: header {header[:len(columns)]}, expected {list(columns)}"]
    data = lines[1:]
    problems = []
    if len(data) != rows:
        problems.append(f"{label}: {len(data)} rows, expected {rows}")
    table = []
    for number, line in enumerate(data, start=2):
        fields = line.split(",")
        if len(fields) != len(header):
            problems.append(f"{label}: line {number} has {len(fields)} fields, "
                            f"expected {len(header)}")
            return problems
        try:
            table.append([float(f) for f in fields])
        except ValueError:
            return problems + [f"{label}: line {number} is not numeric"]
    for j, name in enumerate(header):
        problems += check_values(f"{label}[{name}]", (row[j] for row in table),
                                 positive=j < 2)
    return problems


def check_manifest(label: str, manifest_path: Path, base: Path) -> list[str]:
    """Every output listed in a run manifest exists and has the recorded sha256."""
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{label}: unreadable manifest {manifest_path.name}: {exc}"]
    outputs = manifest.get("outputs") or []
    if not outputs:
        return [f"{label}: manifest lists no outputs"]
    problems = []
    for entry in outputs:
        path = base / entry["path"]
        try:
            actual = sha256(path.read_bytes())
        except OSError:
            problems.append(f"{label}: manifest output {entry['path']} missing")
            continue
        if actual != entry.get("sha256"):
            problems.append(f"{label}: sha256 of {entry['path']} does not match "
                            "its manifest")
    return problems


def check_report(label: str, report: dict) -> list[str]:
    """A validation report: every field present, every number finite."""
    problems = [f"{label}: report lacks {name!r}" for name in REPORT_FIELDS
                if name not in report]
    for name in REPORT_FIELDS:
        value = report.get(name)
        items = value if isinstance(value, list) else [value]
        if any(isinstance(v, float) and not math.isfinite(v) for v in items):
            problems.append(f"{label}: report field {name!r} is not finite")
    fraction = report.get("pass_fraction")
    if isinstance(fraction, float) and not 0.0 <= fraction <= 1.0:
        problems.append(f"{label}: pass_fraction {fraction} outside [0, 1]")
    if not report.get("grid"):
        problems.append(f"{label}: report has an empty grid")
    return problems
