"""Run ``repro serve`` with the serving-layer spans installed.

Usage: ``python3 perfbench/daemon_launch.py TRACE_OUT SERVE_ARGS...``

The traced daemon of the ``daemon-closed`` workload.  It imports
``repro``, wraps the server-side layer functions (see
:func:`perfbench.layers.install_server`), runs the ``serve`` entry
point until SIGTERM drains it, then writes every span and the
serving-side counts to ``TRACE_OUT`` as one JSON document.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv) -> int:
    trace_out, serve_args = argv[0], argv[1:]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from repro.__main__ import main as repro_main

    from perfbench import layers
    from perfbench.tracing import Patcher, Tracer

    tracer, patcher = Tracer(), Patcher()
    layers.install_server(tracer, patcher)
    try:
        code = repro_main(serve_args)
    finally:
        patcher.undo()
    Path(trace_out).write_text(
        json.dumps({"spans": tracer.spans, "counts": layers.server_counts(tracer)}),
        encoding="utf-8",
    )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
