"""Run one ``repro`` CLI command with the benchmark's layer wrappers.

Usage: ``python3 perfbench/traced_main.py SPANS_JSON LAYERS -- ARGS...``

LAYERS names a wrapper set in :data:`perfbench.tracing.LAYERS`.  The
command runs exactly as ``python -m repro ARGS...`` would; when it
returns, the recorded spans are written to SPANS_JSON.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

from perfbench.tracing import LAYERS, Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    spans, layers, separator, *args = argv
    if separator != "--" or layers not in LAYERS:
        print(__doc__, file=sys.stderr)
        return 2
    tracer = Tracer()
    for install in LAYERS[layers]:
        install(tracer)
    from repro.cli import main as cli_main

    try:
        return cli_main(args)
    finally:
        tracer.dump(spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
