import random
import sys
import threading
import time

import pytest

from wot.catalog import Catalog, Item
from wot.group import setup_params


@pytest.fixture(scope="session")
def p23():
    return setup_params("p23")


@pytest.fixture(scope="session")
def p47():
    return setup_params("p47")


@pytest.fixture(autouse=True)
def no_digest_thread_left():
    """Fail a test that leaves a buyer's digest helper running.

    ``fetch_bundle`` joins its ``wot-digest`` thread before it returns or
    raises, on every path.
    """
    yield
    left = [t for t in threading.enumerate() if t.name == "wot-digest"]
    assert not left, f"live digest helper threads: {left}"


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


def make_catalog(weights, rng=None, payload_size=64, ids=None):
    rng = rng or random.Random(1)
    items = []
    for i, w in enumerate(weights):
        item_id = ids[i] if ids else f"item{i:02d}"
        items.append(Item(id=item_id, weight=w, payload=rng.randbytes(payload_size)))
    return Catalog(items=tuple(items))


def write_catalog_dir(path, entries):
    """entries: list of (id, weight, payload bytes). Returns the directory."""
    path.mkdir(parents=True, exist_ok=True)
    lines = ["# id\tweight\tfilename"]
    for item_id, weight, payload in entries:
        filename = f"{item_id}.bin"
        (path / filename).write_bytes(payload)
        lines.append(f"{item_id}\t{weight}\t{filename}")
    (path / "items.tsv").write_text("\n".join(lines) + "\n")
    return path


def billed_lines(caplog, count=0, timeout=10.0):
    """The seller's ``billed`` log lines, waiting until at least ``count`` are in.

    A server session logs its sale after sending DONE, so a buyer can
    return before the line is written.
    """
    deadline = time.monotonic() + timeout
    while True:
        lines = [r.getMessage() for r in caplog.records
                 if r.name == "wot.server" and " billed " in r.getMessage()]
        if len(lines) >= count or time.monotonic() > deadline:
            return lines
        time.sleep(0.01)


def count_calls(monkeypatch, function, record=None):
    """Record every call to ``function``, wherever a ``wot`` module bound it.

    A call is recorded as its arguments, or as what ``record()`` returns.
    """
    calls = []

    def counting(*args, **kwargs):
        calls.append(record() if record else args)
        return function(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("wot") and getattr(module, function.__name__, None) is function:
            monkeypatch.setattr(module, function.__name__, counting)
    return calls


def share_draws(splits) -> int:
    """Random shares drawn by the recorded ``split_key(key, parts, rng)`` calls."""
    return sum(parts - 1 for _, parts, _ in splits)
