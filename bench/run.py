#!/usr/bin/env python3
"""Benchmark of trimova: cold CLI calls, a warm spectrum sweep, oracle validation.

Run from the repository root:

    python3 bench/run.py                      # every workload, seed 1
    python3 bench/run.py --workload sweep --seed 4 --seconds 45 --trace 0
    python3 bench/run.py --workload validate --trace 1

One process drives the program as a single client in a closed loop, one
operation at a time.  ``--trace 0`` measures the workload for ``--seconds``
and reports its end-to-end metrics; ``--trace 1`` is a separate run that
traces a fixed layer profile and reports the per-layer metrics.  The last
line of standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (the metrics BENCHMARK.json lists for that mode).
Every metric, the sha256 of every output and an environment record go to a
results file under .bench_results/.  bench/README.md explains the workloads
and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("cli-cold", "sweep", "validate")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
NPROC = len(os.sched_getaffinity(0))
MIN_PASSES = 2            # so that every timed run compares repetitions
SETUP_EVERY_S = 4.0       # run time per setup_s probe, spread over the run
IMPORT_REPS = 3           # fresh interpreters for the import profile
SWEEP_TRACE_PASSES = 10   # sweep passes in a traced run, traced and not
CHILD_TIMEOUT_S = 120
IMPORTS = {"import.trimova_s": "trimova", "import.numpy_s": "numpy",
           "import.scipy_constants_s": "scipy.constants",
           "import.scipy_linalg_s": "scipy.linalg"}
# Metrics a timed run reports and records but BENCHMARK.json does not gate.
REPORTED_ONLY = {"op_p50_s": ("s", "lower"), "op_p90_s": ("s", "lower"),
                 "fail_ratio": ("ratio", "lower"),
                 "crosspath_max_rel": ("ratio", "lower"),
                 "validate_pass_fraction": ("ratio", "higher")}
# Per-layer metric -> span name; the value is the spans' total duration.
SPAN_TIMES = {
    "cli.main_s": "cli.main",
    "spectra.write_csv_s": "spectra.write_csv",
    "spectra.write_json_s": "spectra.write_json",
    "model.reference_config_s": "model.reference_config",
    "model.load_config_s": "model.load_config",
    "transfer.transfer_coefficients_s": "transfer.transfer_coefficients",
    "spectra.spectrum_series_s": "spectra.spectrum_series",
    "spectra.closed_form_psd_s": "spectra.closed_form_psd",
    "spectra.ratio_to_sql_s": "spectra.ratio_to_sql",
    "spectra.figure_curves_s": "spectra.figure_curves",
    "spectra.detection_threshold_s": "spectra.detection_threshold_spectral",
    "oracle.simulate_s": "oracle.simulate",
    "oracle.build_state_space_s": "oracle.build_state_space",
    "oracle.log_binned_s": "oracle.log_binned",
    "oracle.StateSpace.nulling_weight_s": "oracle.StateSpace.nulling_weight",
    "oracle.StateSpace.output_psd_s": "oracle.StateSpace.output_psd",
}


def cap_threads(environ) -> None:
    """Cap BLAS/OpenMP pools at nproc; children inherit the caps."""
    for var in THREAD_VARS:
        value = environ.get(var, "")
        cap = NPROC if not value.isdigit() or int(value) < 1 \
            else min(int(value), NPROC)
        environ[var] = str(cap)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH"))
                                        if p)
    return env


def run_child(cmd: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                          text=True, check=True, timeout=CHILD_TIMEOUT_S)


# --- measurements in fresh interpreters ----------------------------------------------

def setup_probe(name: str, seed: int) -> None:
    """Child side of setup_s: import trimova and build the workload's inputs."""
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads
    workloads.SETUPS[name](seed)
    print(repr(time.perf_counter() - start))


class SetupProbes:
    """Times setup_s in fresh interpreters, spread over a timed run.

    ``due()`` runs the probes owed so far, one per SETUP_EVERY_S seconds of
    run time, so that the probes meet the same phases of machine speed as
    the passes between them."""

    def __init__(self, name: str, seed: int, env: dict):
        self.cmd = [sys.executable, str(BENCH / "run.py"), "--setup-probe",
                    "--workload", name, "--seed", str(seed)]
        self.env = env
        run_child(self.cmd, env)     # fills the file cache
        self.times: list[float] = []
        self.start = time.perf_counter()

    def due(self) -> None:
        while len(self.times) <= (time.perf_counter() - self.start) / SETUP_EVERY_S:
            self.times.append(float(run_child(self.cmd, self.env).stdout.split()[-1]))


def import_profile(env: dict) -> dict:
    """Cumulative ``-X importtime`` figures of ``import trimova`` (0 for a
    module it does not load) and the bare interpreter start."""
    samples = defaultdict(list)
    run_child([sys.executable, "-c", "import trimova"], env)
    line = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)")
    for _ in range(IMPORT_REPS):
        err = run_child([sys.executable, "-X", "importtime", "-c",
                         "import trimova"], env).stderr
        cumulative = {m.group(2): int(m.group(1)) * 1e-6
                      for m in map(line.match, err.splitlines()) if m}
        for metric, module in IMPORTS.items():
            samples[metric].append(cumulative.get(module, 0.0))
        start = time.perf_counter()
        run_child([sys.executable, "-c", "pass"], env)
        samples["cli.interpreter_s"].append(time.perf_counter() - start)
    return {metric: statistics.median(v) for metric, v in samples.items()}


# --- the closed loop ---------------------------------------------------------------

class Runner:
    """Runs ops one at a time, timing each and checking its outputs.

    An op fails when it raises, when a check reports a problem, or when an
    output's bytes differ from an earlier repetition of the same op."""

    def __init__(self):
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] = {}
        self.child_rss_kb = 0
        self.tracer = None

    def run_op(self, op) -> float:
        if op.prepare is not None:
            op.prepare()
        index = self.attempted
        self.attempted += 1
        problems, hashes = [], {}
        start = time.perf_counter()
        # A failing op or check is counted against the op, never fatal.
        try:
            if self.tracer is None:
                result = op.run()
            else:
                with self.tracer.span("op", op=index):
                    result = op.run()
        except Exception as exc:
            problems.append(f"{op.name}: {type(exc).__name__}: {exc}")
        latency = time.perf_counter() - start
        if not problems:
            self.child_rss_kb = max(self.child_rss_kb,
                                    getattr(result, "maxrss_kb", 0))
            try:
                problems, hashes = op.check(result)
            except Exception as exc:
                problems.append(f"{op.name}: check: {type(exc).__name__}: {exc}")
        for label, digest in hashes.items():
            if self.digests.setdefault(f"{op.name}:{label}", digest) != digest:
                problems.append(f"{op.name}: {label} differs from an earlier "
                                "repetition with the same seed")
        if problems:
            self.failed += 1
            self.problems += problems
        self.latencies.append(latency)
        return latency

    def run_pass(self, ops, between=None) -> float:
        """Run every op once, calling ``between()`` after each; the pass's
        wall time is the sum of op latencies."""
        wall = 0.0
        for op in ops:
            wall += self.run_op(op)
            if between is not None:
                between()
        return wall


def warm_up(ops) -> None:
    scratch = Runner()
    for op in ops:
        scratch.run_op(op)


def timed_run(name: str, seed: int, seconds: float, tmp: Path, env: dict):
    import workloads
    from measure import percentile
    wl = workloads.build(name, seed, tmp, env)
    warm_up(wl.ops[:wl.warm_up])
    runner = Runner()
    walls: list[float] = []
    probes = SetupProbes(name, seed, env)
    probes.due()
    while len(walls) < MIN_PASSES or time.perf_counter() - probes.start \
            + statistics.median(walls) <= seconds:
        walls.append(runner.run_pass(wl.ops, between=probes.due))
    setup = probes.times
    lat = runner.latencies
    rss_kb = runner.child_rss_kb if wl.rss == "children" \
        else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {"setup_s": statistics.median(setup),
               "wall_s": statistics.median(walls),
               "op_p50_s": statistics.median(lat),
               "peak_rss_mb": rss_kb / 1024.0,
               "fail_ratio": runner.failed / runner.attempted}
    if len(lat) >= 100:
        metrics["op_p90_s"] = percentile(lat, 90)
    accuracy, details = wl.accuracy()
    metrics.update(accuracy)
    details.update(setup_samples_s=setup, pass_walls_s=walls, passes=len(walls))
    return metrics, runner, details


def layer_metrics(spans) -> tuple[dict, dict]:
    from measure import self_times, subtree
    selfs = self_times(spans)
    total, own, counted, calls = (defaultdict(float), defaultdict(float),
                                  defaultdict(float), defaultdict(int))
    for span, self_s in zip(spans, selfs):
        total[span.name] += span.duration
        own[span.name] += self_s
        calls[span.name] += 1
        counted[span.name] += span.count or 0.0
    metrics = {metric: total[name] for metric, name in SPAN_TIMES.items()}
    samples = counted["oracle.simulate"]
    metrics.update({
        "oracle.validate.self_s": own["oracle.validate"],
        "oracle.simulate.samples_per_s": samples / total["oracle.simulate"],
        "oracle.simulate.calls": float(calls["oracle.simulate"]),
        "oracle.simulate.output_samples": samples,
        "oracle.validate.bins": counted["oracle.validate"],
        "transfer.transfer_coefficients.points":
            counted["transfer.transfer_coefficients"],
    })
    # Self times over a validate call's subtree must add up to its duration.
    identity = []
    for i, span in enumerate(spans):
        if span.name == "oracle.validate":
            below = subtree(spans, i)
            identity.append({
                "op": span.op, "span_s": span.duration,
                "subtree_self_s": sum(selfs[j] for j in below),
                "simulate_calls": sum(spans[j].name == "oracle.simulate"
                                      for j in below)})
    summary = {name: {"calls": calls[name], "total_s": total[name],
                      "self_s": own[name]} for name in sorted(total)}
    return metrics, {"validate_identity": identity, "spans": summary}


def traced_run(name: str, seed: int, tmp: Path, env: dict):
    """Traced layer profile: one warm in-process ``cli.main`` pass over the
    cli-cold commands, SWEEP_TRACE_PASSES sweep passes and one validate op,
    all under the tracer.  The workload's own part of the profile, run once
    more untraced before it, gives the overhead ratio."""
    import workloads
    from measure import Tracer
    metrics = import_profile(env)
    profile = {w: workloads.build(w, seed, tmp, env, launcher="warm")
               for w in WORKLOADS}
    warm_up(profile["cli-cold"].ops + profile["sweep"].ops)
    repeats = {"cli-cold": 1, "sweep": SWEEP_TRACE_PASSES, "validate": 1}
    runner = Runner()
    untraced = [runner.run_pass(profile[name].ops) for _ in range(repeats[name])]
    with Tracer() as tracer:
        workloads.instrument(tracer)
        runner.tracer = tracer
        walls = {w: [runner.run_pass(profile[w].ops) for _ in range(repeats[w])]
                 for w in WORKLOADS}
        runner.tracer = None
    traced = walls[name]
    layers, details = layer_metrics(tracer.spans)
    metrics.update(layers)
    metrics["trace.overhead_ratio"] = (statistics.median(traced)
                                       / statistics.median(untraced))
    for record in details["validate_identity"]:
        runner.problems += identity_problems(record, runner.latencies[record["op"]])
    details.update(untraced_walls_s=untraced, traced_walls_s=traced)
    return metrics, runner, details


def identity_problems(record: dict, op_latency: float) -> list[str]:
    """Checks of one traced validate call against its subtree and the
    runner's own timing of the op that made it."""
    span = record["span_s"]
    problems = []
    if abs(span - record["subtree_self_s"]) > 1e-9 * span + 1e-9:
        problems.append(f"trace: validate self times add up to "
                        f"{record['subtree_self_s']} s, span is {span} s")
    # Only the op's wrapper calls lie between the runner's clock and the span.
    if not op_latency - 1e-3 * op_latency - 1e-3 <= span <= op_latency:
        problems.append(f"trace: validate span is {span} s, the runner timed "
                        f"the op at {op_latency} s")
    if record["simulate_calls"] < 1:
        problems.append("trace: no oracle.simulate span inside validate")
    return problems


# --- reporting -------------------------------------------------------------------------

def environment() -> dict:
    import numpy
    import scipy
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": NPROC, "cpu": cpu,
            "commit": commit,
            "thread_caps": {v: os.environ[v] for v in THREAD_VARS},
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")}


def run_workload(args, spec: dict) -> int:
    env = child_env()
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        if args.trace:
            metrics, runner, details = traced_run(args.workload, args.seed, tmp, env)
        else:
            metrics, runner, details = timed_run(args.workload, args.seed,
                                                 args.seconds, tmp, env)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()
    listed = spec["per_layer" if args.trace else "end_to_end"]
    kinds = dict(REPORTED_ONLY)
    kinds.update({m["name"]: (m["unit"], m["better"])
                  for m in spec["end_to_end"] + spec["per_layer"]})
    rows = {key: (value, *kinds[key]) for key, value in metrics.items()}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {runner.attempted}  failed {runner.failed}")
    for key, (value, unit, way) in rows.items():
        print(f"  {key:40s} {value:>16.6g} {unit:6s} {way}")
    for problem in runner.problems[:10]:
        print(f"  problem: {problem}")
    results = ROOT / ".bench_results" / \
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "attempted": runner.attempted, "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": unit, "better": way}
                    for k, (v, unit, way) in rows.items()},
        "problems": runner.problems[:100], "outputs_sha256": runner.digests,
        "details": details,
    }
    results.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
    print(f"  results: {results}")
    print(json.dumps({
        "correct": runner.failed == 0 and not runner.problems,
        "attempted": runner.attempted, "failed": runner.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed}}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}/{k}": v
                                 for k, v in result["metrics"].items()})
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    cap_threads(os.environ)
    os.environ.pop("TRIMOVA_CONFIG", None)    # the benchmark sets every input
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if not (SRC / "trimova" / "__init__.py").is_file():
        print(f"error: no trimova sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import trimova
    if Path(trimova.__file__).resolve().parent.parent != SRC.resolve():
        print(f"error: imported trimova from {trimova.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
