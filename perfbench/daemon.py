#!/usr/bin/env python3
"""Start ``repro serve`` with the layer wrappers installed, then dump its trace.

Usage::

    python3 perfbench/daemon.py --trace-out FILE -- serve --port 0 ...

Everything after ``--`` goes to the ``repro`` command line unchanged.  The
wrappers are installed before the daemon assembles its state, so every
request it serves is traced; when it shuts down, the per-layer summary
of the serving region (from listening to the shutdown request) is
written to ``FILE`` as JSON.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) < 3 or argv[0] != "--trace-out" or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    out, repro_args = Path(argv[1]), argv[3:]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.tracing import Recorder, install
    from repro.cli import main as repro_main

    recorder = Recorder()
    patch = install(recorder, event_loop=True)
    try:
        code = repro_main(repro_args)
    finally:
        patch.restore()
    start = recorder.marks.get("region_start", 0.0)
    end = recorder.marks.get("region_end", start)
    out.write_text(
        json.dumps({"wall_s": end - start, "summary": recorder.summary(start, end)})
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
