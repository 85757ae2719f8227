#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload kernel-resident --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` runs the separate traced pass and reports the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
code is 0 when every output check passed, 1 when one failed, 2 on a
usage or environment error (e.g. no program sources next to the
benchmark).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("kernel-resident", "green-contended", "serve-http", "sweep-grid")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "smoke"),
        default="full",
        help="input size: 'full' is the benchmark, 'smoke' the harness's own tests",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("perfbench: --seconds must be positive and --seed non-negative", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.common import END_TO_END_UNITS, emit, run_meta, scratch_dir
    from perfbench.layers import PER_LAYER, derive, largest_layer

    pins = json.loads((ROOT / "perfbench" / "digests.json").read_text())
    pinned = pins.get(args.workload, {}).get(str(args.seed)) if args.scale == "full" else None
    meta = run_meta(args.workload, args.seed, args.seconds, bool(args.trace))
    with scratch_dir(f"{args.workload}-") as workdir:
        if args.workload in ("kernel-resident", "green-contended"):
            from perfbench import kernel as module
        elif args.workload == "serve-http":
            from perfbench import serve as module
        else:
            from perfbench import sweep as module
        if args.trace:
            outcome, summary, context = module.trace(
                args.workload, args.seed, args.scale, workdir, pinned
            )
            for name, (value, unit) in derive(summary, context).items():
                outcome.metric(name, value, unit)
            layer, seconds = largest_layer(summary)
            unattributed = outcome.metrics["unattributed_s"].value
            verdict = "ok" if unattributed <= seconds else "FAIL"
            print(
                f"attribution: unattributed {unattributed:.4f} s vs largest layer "
                f"{layer} {seconds:.4f} s: {verdict}"
            )
            names = [name for name, _unit in PER_LAYER]
        else:
            outcome = module.measure(
                args.workload, args.seed, args.seconds, args.scale, workdir, pinned
            )
            names = list(END_TO_END_UNITS)
    result = emit(outcome, meta, names)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
