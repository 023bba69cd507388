"""Run ``wot serve`` with the benchmark's span wrappers installed.

Usage: python3 perfbench/serve_traced.py SPANS_JSON --bundle DIR --listen HOST:PORT

``src`` must be on ``PYTHONPATH``. SIGINT or SIGTERM stops the server the
way Ctrl-C does; the spans are then written to SPANS_JSON.
"""

from __future__ import annotations

import signal
import sys

from tracing import Tracer


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv: list[str]) -> int:
    spans_path, serve_args = argv[0], argv[1:]
    import wot.cli  # imported first so its ``from .x import f`` names get rebound

    tracer = Tracer()
    tracer.install()
    signal.signal(signal.SIGTERM, _interrupt)
    try:
        return wot.cli.main(["serve", *serve_args])
    finally:
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
