"""Benchmark of `wfduality run`, end to end and per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload moment --seed 1 --seconds 40 --trace 0

``--trace 0`` spawns the public CLI as a subprocess, the way a user runs it,
and reports the end-to-end metrics: ``wall_s`` (spawn to exit of
``wfduality run``), ``setup_s`` (``wfduality validate`` as a subprocess),
``replicates_per_s`` (replicates over the run's own ``wall_time_s``, which
excludes interpreter start and imports) and ``peak_rss_mb`` (the child's
``ru_maxrss``).  Each is the median over the pairs of one ``validate`` and
one ``run`` that fit in ``--seconds``.

``--trace 1`` runs the same config in-process, once untraced and then traced
for as long as ``--seconds`` allows, and reports the median of each
per-layer metric of ``spans.layer_metrics`` plus ``trace.overhead_s``: the
spans and counted calls of a traced run times the cost of one wrapper, as
``spans.wrapper_costs`` measures it.

Every run is checked: exit code 0, every verdict PASS, and a ``result.json``
byte-identical to the first run of that workload and seed.  A failed check
counts into ``failed`` and makes the benchmark exit 1.  Without
``--workload`` every workload runs, untraced and traced, and both modes are
checked against the same first ``result.json``.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Provenance, samples and spans go to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from importlib import metadata
from pathlib import Path

from workloads import WORKLOADS, make_config, replicates

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: A child running longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 120.0

#: End-to-end metrics and their units.
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "replicates_per_s": "1/s",
             "peak_rss_mb": "MB"}


class Checks:
    """Attempted and failed operations of one invocation, with reasons."""

    def __init__(self, reference: dict | None = None):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        # the first result.json of a workload and seed, shared between
        # the Checks of the two trace modes
        self.reference = {} if reference is None else reference

    def record(self, label: str, problems: list[str]) -> bool:
        self.attempted += 1
        self.failed += bool(problems)
        for problem in problems:
            self.failures.append(f"{label}: {problem}")
        return not problems

    def check_result(self, out_dir: Path, exit_code: int,
                     output: str = "") -> list[str]:
        """Problems with one `run`: exit code, verdicts, determinism."""
        problems = []
        if exit_code != 0:
            last = output.strip().splitlines()[-1:]
            problems.append(f"exit code {exit_code} {' '.join(last)}".strip())
        path = out_dir / "result.json"
        if not path.exists():
            return problems + ["no result.json"]
        payload = path.read_bytes()
        try:
            verdicts = json.loads(payload)["verdicts"]
        except (ValueError, KeyError) as exc:
            return problems + [f"unreadable result.json: {exc!r}"]
        problems += [f"verdict FAIL {k}" for k, ok in verdicts.items()
                     if not ok]
        if self.reference.setdefault("result.json", payload) != payload:
            problems.append("result.json differs from the first run")
        return problems


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def spawn(argv: list[str], log: Path) -> tuple[int, float, float]:
    """Run a child to its exit: (exit code, wall seconds, peak RSS in MB)."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def cli_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "wfduality.cli", *args]


def run_args(cfg_path: Path, out_dir: Path, workers: int) -> list[str]:
    return ["run", str(cfg_path), "--out", str(out_dir),
            "--workers", str(workers)]


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def validate(cfg_path: Path, log: Path, checks: Checks) -> float | None:
    """One `wfduality validate` run: its wall seconds, None if it failed."""
    code, wall, _ = spawn(cli_argv("validate", str(cfg_path)), log)
    lines = log.read_text().strip().splitlines()
    ok = code == 0 and lines[-1:] == ["OK"]
    checks.record("validate", [] if ok else
                  [f"exit code {code} {' '.join(lines[-1:])}"])
    return wall if ok else None


def measure_e2e(name: str, cfg_path: Path, work: Path, seconds: float,
                checks: Checks) -> tuple[dict, dict]:
    """End-to-end metrics through the CLI; returns (metrics, samples)."""
    workers = WORKLOADS[name]["workers"]
    cfg = json.loads(cfg_path.read_text())

    t_start = time.perf_counter()
    # the first validate warms the file cache and compiles bytecode; untimed
    validate(cfg_path, work / "validate-warm.log", checks)
    samples = {"wall_s": [], "replicates_per_s": [], "peak_rss_mb": [],
               "setup_s": []}
    rounds = []
    rep = 0
    while True:
        # one validate per run, so that setup_s samples the whole budget
        # as wall_s does, not only its first seconds
        setup = validate(cfg_path, work / f"validate-{rep}.log", checks)
        out_dir = work / f"run-{rep}"
        log = work / f"run-{rep}.log"
        code, wall, rss = spawn(
            cli_argv(*run_args(cfg_path, out_dir, workers)), log)
        rounds.append((setup or 0.0) + wall)
        if setup is not None:
            samples["setup_s"].append(setup)
        problems = checks.check_result(out_dir, code, log.read_text())
        if checks.record("run", problems):
            meta = json.loads((out_dir / "run_meta.json").read_text())
            samples["wall_s"].append(wall)
            samples["replicates_per_s"].append(
                replicates(cfg) / meta["wall_time_s"])
            samples["peak_rss_mb"].append(rss)
        rep += 1
        # start another round only if the slowest so far would end in budget
        if time.perf_counter() - t_start + max(rounds) > seconds:
            break
    metrics = {k: (median(samples[k]), unit) for k, unit in E2E_UNITS.items()}
    return metrics, samples


def run_in_process(cfg_path: Path, out_dir: Path, workers: int,
                   tracer=None) -> tuple[int, float, str]:
    """One `wfduality run` in this interpreter: (exit code, wall s, output)."""
    from wfduality import cli

    args = run_args(cfg_path, out_dir, workers)
    scope = tracer.span("cli.run") if tracer else contextlib.nullcontext()
    output = io.StringIO()
    code = 0
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(output), \
            contextlib.redirect_stderr(output), scope:
        try:
            cli.main.main(args, standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash of the program is a failed run
            traceback.print_exc()
            code = 1
    return code, time.perf_counter() - t0, output.getvalue()


def measure_trace(name: str, cfg_path: Path, work: Path, seconds: float,
                  checks: Checks) -> tuple[dict, dict, list]:
    """Per-layer metrics: one untraced run, then traced runs in budget."""
    from spans import Tracer, instrument, layer_metrics, wrapper_costs

    workers = WORKLOADS[name]["workers"]
    t_start = time.perf_counter()
    span_cost, count_cost = wrapper_costs()
    samples = {"untraced_wall_s": [], "traced_wall_s": [],
               "trace.overhead_s": []}
    layers = []
    spans = []
    walls = []
    rep = 0
    while True:
        # the untraced run is the reference that tracing must not change
        tracer = Tracer() if rep else None
        if tracer:
            instrument(tracer)
        out_dir = work / f"run-{rep}"
        try:
            code, wall, output = run_in_process(cfg_path, out_dir, workers,
                                                tracer)
        finally:
            if tracer:
                tracer.restore()
        walls.append(wall)
        kind = "traced" if tracer else "untraced"
        problems = checks.check_result(out_dir, code, output)
        if checks.record(kind, problems):
            samples[f"{kind}_wall_s"].append(wall)
            if tracer:
                layers.append(layer_metrics(tracer))
                spans.append(tracer.export())
                samples["trace.overhead_s"].append(
                    len(tracer.spans) * span_cost
                    + tracer.counted_calls() * count_cost)
        rep += 1
        if rep >= 2 and \
                time.perf_counter() - t_start + max(walls) > seconds:
            break
    metrics = {}
    for key, (_, unit) in (layers[0].items() if layers else []):
        # a count repeats exactly for a seed, so take one run's value as is
        pick = statistics.median_low if unit == "count" else median
        metrics[key] = (pick([run[key][0] for run in layers]), unit)
    metrics["trace.overhead_s"] = (median(samples["trace.overhead_s"]), "s")
    return metrics, samples, spans


def intended_layer(name: str, metrics: dict) -> str:
    """Which layer the traced run loads most, against the workload's aim."""
    own = {k: metrics[k][0] for k in (
        "fvwrs.ensemble_s", "bcre.gillespie_s", "bcre.rate_build_s",
        "bcre.stationary_s", "wf_graph.ancestry_s", "wf_graph.forward_s",
        "duality.self_s", "bridge.self_s", "thresholds.classify_s",
        "cli.self_s")}
    top = max(own, key=own.get)
    line = (f"largest self time: {top} ({own[top]:.4f} s of "
            f"{sum(own.values()):.4f} s)")
    if name == "fixation":
        share = (own["fvwrs.ensemble_s"] + own["bcre.stationary_s"]) \
            / sum(own.values())
        line += f"; fvwrs.ensemble_s + bcre.stationary_s share {share:.3f}"
    return line


def provenance(seed: int) -> dict:
    def version(package: str) -> str:
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return "not installed"

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "machine": platform.machine(),
        "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 reference: dict | None = None) -> dict:
    """Measure one workload; print its metrics and return the result line.

    ``reference`` carries the first ``result.json`` between invocations.
    """
    cfg = make_config(name, seed)
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    checks = Checks(reference)
    extra = {}
    try:
        cfg_path = work / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg, indent=2) + "\n")
        if trace:
            metrics, samples, extra["spans"] = measure_trace(
                name, cfg_path, work, seconds, checks)
        else:
            metrics, samples = measure_e2e(name, cfg_path, work, seconds,
                                           checks)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = checks.failed
    report = {
        "workload": name, "trace": trace, "seconds": seconds,
        "provenance": provenance(seed), "config": cfg,
        "workers": WORKLOADS[name]["workers"], "samples": samples,
        "failures": checks.failures,
    }
    print(f"== {name} (trace {trace}) provenance "
          f"{json.dumps(report['provenance'])}")
    print(f"config {json.dumps(cfg, sort_keys=True)}")
    for key, (value, unit) in metrics.items():
        count = len(samples.get(key, ())) if not trace else \
            len(samples["traced_wall_s"])
        print(f"  {key:40s} {value:14.6g} {unit:6s} (median of {count})")
    print(f"  {'failed_ratio':40s} {failed}/{checks.attempted}")
    if trace and "cli.self_s" in metrics:
        print("  " + intended_layer(name, metrics))
    for problem in checks.failures:
        print(f"  FAILED {problem}")
    (OUT / f"{name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(dict(report, **extra)) + "\n")
    return {
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=None,
                        help="0 end-to-end, 1 per layer; all workloads run "
                             "both when omitted")
    args = parser.parse_args()
    if not (SRC / "wfduality" / "cli.py").is_file():
        print(f"error: no wfduality sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds,
                              args.trace or 0)
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    traces = [0, 1] if args.trace is None else [args.trace]
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    references = {name: {} for name in WORKLOADS}
    # a child's ru_maxrss counts this process's pages at the fork, so every
    # untraced run goes before the traced runs import the program here
    for trace in traces:
        for name in WORKLOADS:
            result = run_workload(name, args.seed, args.seconds, trace,
                                  references[name])
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
            total["metrics"].update({f"{name}.{k}": v for k, v
                                     in result["metrics"].items()})
    print(json.dumps(total))
    return 0 if total["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
