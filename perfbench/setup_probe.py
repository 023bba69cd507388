"""Time the publisher's first ``setup_params`` and first ``load_catalog``.

Usage: python3 perfbench/setup_probe.py CATALOG_DIR

Runs in a fresh interpreter so neither call finds a warm cache; prints the
seconds the two calls took together. ``src`` must be on ``PYTHONPATH``.
"""

from __future__ import annotations

import sys
import time

from wot.catalog import load_catalog
from wot.group import setup_params


def main(catalog_dir: str) -> None:
    start = time.perf_counter()
    setup_params("modp-2048")
    load_catalog(catalog_dir)
    print(time.perf_counter() - start)


if __name__ == "__main__":
    main(sys.argv[1])
