#!/usr/bin/env python3
"""Record the simulated-result digests the kernel workloads are checked against.

Usage (from the repository root)::

    python3 perfbench/pin_digests.py --first 0 --last 63 --extra 7919

Runs one full-scale unit of ``kernel-resident`` and ``green-contended``
per seed and writes ``perfbench/digests.json``.  A speed-only change
keeps every digest; re-pin only for a change that is meant to alter
simulated results, and say so where the change is described.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first", type=int, default=0)
    parser.add_argument("--last", type=int, default=63)
    parser.add_argument("--extra", type=int, nargs="*", default=[])
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.common import scratch_dir
    from perfbench.kernel import FACTORIES, Probe, run_unit
    from perfbench.tracing import Patcher

    seeds = [*range(args.first, args.last + 1), *args.extra]
    path = ROOT / "perfbench" / "digests.json"
    pins = json.loads(path.read_text()) if path.exists() else {}
    patcher = Patcher()
    probe = Probe(patcher)
    try:
        for workload, factory in FACTORIES.items():
            table = pins.setdefault(workload, {})
            for seed in seeds:
                with scratch_dir(f"pin-{workload}-") as workdir:
                    make, expected = factory(seed, "full", workdir)
                    unit = run_unit(make, probe, expected)
                if not unit.conserved:
                    raise SystemExit(f"{workload} seed {seed}: {unit.conservation}")
                table[str(seed)] = unit.digest
                print(f"{workload} seed {seed}: {unit.digest}", flush=True)
    finally:
        patcher.restore()
    pins = {
        workload: dict(sorted(table.items(), key=lambda item: int(item[0])))
        for workload, table in sorted(pins.items())
    }
    path.write_text(json.dumps(pins, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
