"""Benchmark for wot: TCP purchases on modp-2048 and the seller's publish path.

Usage, from the repository root:

    python3 perfbench/run.py --workload buy_wide --seed 1 --seconds 20 --trace 0

Workloads: ``buy_wide``, ``buy_narrow``, ``publish`` (see perfbench/README.md).
With ``--trace 0`` the run measures the end-to-end metrics with nothing
traced; with ``--trace 1`` it makes a separate traced run and reports the
per-layer metrics. Human-readable ``name value unit`` lines come first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The program is run
from ``src/`` of the checkout; scratch files go under ``.perfbench_work/``
and are removed at exit.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".perfbench_work"
WORKLOADS = ("buy_wide", "buy_narrow", "publish")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "wot" / "__init__.py").is_file():
        print(f"error: no wot sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import run_workload

    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it

    metrics = out.per_layer if args.trace else out.end_to_end
    error_rate = out.failed / out.attempted if out.attempted else 1.0
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    for name, value, unit, samples in out.report:
        print(f"{name} {value:.6g} {unit} (n={samples})")
    print(f"error_rate {error_rate:.6g} failed/attempted (n={out.attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": out.failed == 0 and out.checks_ok,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
