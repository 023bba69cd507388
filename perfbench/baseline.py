"""Run every workload on several seeds and record medians and spreads.

Usage, from the repository root:

    python3 perfbench/baseline.py --seeds 1 2 3 4 5 6 7 8 9 10 --traced-seeds 1 2 \\
        --seconds 30 --out perfbench/baselines/seeds-1-10.json

Each run is ``perfbench/run.py`` in its own process. For each workload and
end-to-end metric the output holds every run's value, the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median. Traced runs add
their per-layer metrics. Machine, Python and commit are recorded with them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("buy_wide", "buy_narrow", "publish")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _commit() -> str | None:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result.update(workload=workload, seed=seed, trace=trace, wall_s=wall)
    return result


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--traced-seeds", type=int, nargs="*", default=[])
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    runs = []
    for workload in WORKLOADS:
        for seed in args.seeds:
            runs.append(run_once(workload, seed, args.seconds, 0))
            print(json.dumps(runs[-1]), file=sys.stderr)
        for seed in args.traced_seeds:
            runs.append(run_once(workload, seed, args.seconds, 1))

    summary = {}
    for workload in WORKLOADS:
        plain = [r for r in runs if r["workload"] == workload and r["trace"] == 0]
        names = plain[0]["metrics"] if plain else {}
        summary[workload] = {
            "correct": all(r["correct"] for r in plain),
            "error_rate": (sum(r["failed"] for r in plain)
                           / max(1, sum(r["attempted"] for r in plain))),
            "metrics": {name: dict(summarise([r["metrics"][name]["value"] for r in plain]),
                                   unit=plain[0]["metrics"][name]["unit"])
                        for name in names},
        }
    doc = {
        "machine": {"platform": platform.platform(), "cpu": _cpu_model(),
                    "nproc": os.cpu_count(), "python": platform.python_version()},
        "commit": _commit(),
        "seconds": args.seconds,
        "seeds": args.seeds,
        "traced_seeds": args.traced_seeds,
        "summary": summary,
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    for workload, s in summary.items():
        for name, m in s["metrics"].items():
            print(f"{workload:11s} {name:14s} median {m['median']:.6g} {m['unit']} "
                  f"spread {m['spread']:.4f} (n={len(m['values'])})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
