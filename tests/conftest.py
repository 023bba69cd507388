import contextlib
import functools
import random
import socket
import sys
import threading
import time

import pytest

from wot import protocol, symcrypto
from wot.catalog import Catalog, Item
from wot.errors import ProtocolError
from wot.group import setup_params
from wot.net import SenderServer, SocketChannel
from wot.protocol import run_session_receiver, serve_session

# The threads the session helpers below start; a test may leave none running.
SELLER_THREAD = "test-seller"
SERVER_THREAD = "test-server"


@pytest.fixture(scope="session")
def p23():
    return setup_params("p23")


@pytest.fixture(scope="session")
def p47():
    return setup_params("p47")


@pytest.fixture(autouse=True)
def no_digest_check_left(monkeypatch):
    """Fail a test that leaves a digest check running.

    ``fetch_bundle`` waits for every check it hands the CPU pool before it
    returns or raises, on every path.
    """
    running = []
    matches = protocol._matches_entry

    @functools.wraps(matches)
    def checking(entry, ct):
        running.append(entry)
        try:
            return matches(entry, ct)
        finally:
            running.remove(entry)

    monkeypatch.setattr(protocol, "_matches_entry", checking)
    yield
    assert not running, f"digest checks still running: {running}"


@pytest.fixture(autouse=True)
def no_session_thread_left():
    """Fail a test that leaves a ``local_session`` seller or a ``serving`` server running."""
    yield
    left = [t for t in threading.enumerate() if t.name in (SELLER_THREAD, SERVER_THREAD)]
    assert not left, f"live session helper threads: {left}"


def seed_source(monkeypatch, rng):
    """Make ``rng`` the package's one random source for the test; returns it."""
    monkeypatch.setattr(symcrypto, "_RNG", rng)
    return rng


@pytest.fixture
def rng(monkeypatch):
    """A seeded stream that is also the package's random source, so every draw is repeatable."""
    return seed_source(monkeypatch, random.Random(0xC0FFEE))


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

    A server session logs its sale after it sends the transfer reply, and
    the buyer hangs up on reading that reply, so a buyer can return before
    the line is written.
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
    """Random shares drawn by the recorded ``split_key(key, parts)`` calls."""
    return sum(parts - 1 for _, parts in splits)


def record(channel, log: list):
    """Log each message ``channel`` sends or receives as ``("local" | "peer", type name)``."""
    send, recv = channel.send, channel.recv

    def sending(msg):
        log.append(("local", type(msg).__name__))
        send(msg)

    def receiving(*args):
        msg = recv(*args)
        log.append(("peer", type(msg).__name__))
        return msg

    channel.send, channel.recv = sending, receiving


def local_session(bundle, secrets, item_ids, log=None):
    """Buy ``item_ids`` from ``serve_session`` over a socket pair: ``(result, billed)``.

    The seller runs on a thread that is joined on every path. A seller's
    error is raised in place of the buyer's result or ``ProtocolError``,
    which is usually fallout from it. ``log``, when given, records the
    buyer's messages (see ``record``).
    """
    rx_sock, tx_sock = socket.socketpair()
    rx_chan, tx_chan = SocketChannel(rx_sock), SocketChannel(tx_sock)
    if log is not None:
        record(rx_chan, log)
    box = {}

    def seller():
        try:
            box["billed"] = serve_session(tx_chan, bundle, secrets)
        except Exception as exc:  # raised on the buyer's side below
            box["error"] = exc
        finally:
            tx_chan.close()

    worker = threading.Thread(target=seller, name=SELLER_THREAD)
    worker.start()
    try:
        result = run_session_receiver(rx_chan, item_ids)
    except ProtocolError:
        # Join before closing: a seller still sending must not fail on a
        # closed socket and hide the buyer's error.
        worker.join(timeout=5)
        if "error" in box:
            raise box["error"] from None
        raise
    finally:
        rx_chan.close()
        worker.join(timeout=30)
    if "error" in box:
        raise box["error"]
    return result, box["billed"]


@contextlib.contextmanager
def serving(bundle, secrets):
    """A ``SenderServer`` on a free loopback port, serving on a thread for the block."""
    server = SenderServer(("127.0.0.1", 0), bundle, secrets)
    thread = threading.Thread(target=server.serve_forever, name=SERVER_THREAD)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=30)
