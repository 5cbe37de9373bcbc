"""Record a baseline: every workload over several seeds, through run.py.

Run from the root of a source checkout:

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

For each workload it runs ``run.py --trace 0`` once per seed, one after
another, and ``run.py --trace 1`` on the first seed.  It writes every run's
result line and, per end-to-end metric, the median, the quartiles of
``statistics.quantiles(values, n=4)`` and the spread, their distance as a
share of the median.  It exits 1 if any run failed its output checks.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import provenance
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True,
                          cwd=HERE.parent, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {
        "correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    result.update(seed=seed, exit_code=proc.returncode,
                  took_s=time.perf_counter() - t0)
    return result


def summary(runs: list[dict]) -> dict:
    out = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": first["unit"], "median": statistics.median(values),
                     "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / statistics.median(values),
                     "n": len(values)}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    seeds = seed_range(args.seeds)

    report = {"command": spec["command"], "run_seconds": seconds,
              "provenance": dict(provenance(seeds[0]), seed=None,
                                 platform=platform.platform(),
                                 cpu=cpu_model()),
              "workloads": {}}
    ok = True
    for name in WORKLOADS:
        runs = []
        for seed in seeds:
            runs.append(bench(name, seed, seconds, 0))
            r = runs[-1]
            print(f"{name} seed {seed}: correct {r['correct']} "
                  f"failed {r['failed']}/{r['attempted']} " + " ".join(
                      f"{k}={v['value']:.5g}" for k, v in r["metrics"].items()),
                  flush=True)
        traced = bench(name, seeds[0], seconds, 1)
        ok &= all(r["correct"] for r in runs + [traced])
        report["workloads"][name] = {"end_to_end": summary(runs),
                                     "runs": runs, "traced": traced}
        for metric, s in report["workloads"][name]["end_to_end"].items():
            print(f"{name} {metric}: median {s['median']:.5g} {s['unit']} "
                  f"spread {s['spread']:.4f} (n={s['n']})", flush=True)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
