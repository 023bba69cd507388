"""TCP transport: frame channels, the seller's server and the buyer's client.

``SocketChannel`` moves message objects as frames over one socket. The
session grammar of both sides lives in ``wot.protocol``; this module only
connects, accepts, times out and closes.

Each connection is one session; sessions share only the immutable bundle
and secrets. The persistent log records one line per completed sale with
the billed total and nothing else: the server never learns which items
were bought, and it must not log anything that could narrow them down.

``run_local_session`` runs the same two sides over a socket pair, so an
in-process session goes through the frame codec and the grammar exactly
as a TCP session does.
"""

from __future__ import annotations

import logging
import socket
import socketserver
import threading
from pathlib import Path

from .errors import ProtocolError
from .framing import ERR_INTERNAL, ErrorMsg, encode_frame, read_frame
from .group import GroupParams
from .instrument import Counters
from .protocol import (PublishedBundle, PurchaseResult, SelectionPlan, SenderSecrets,
                       run_session_receiver, serve_session)

log = logging.getLogger("wot.server")

DEFAULT_TIMEOUT = 30.0


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise ProtocolError("connection closed mid-frame")
        buf.extend(chunk)
    return bytes(buf)


class SocketChannel:
    """Frame-codec adapter exposing the message-object channel interface."""

    def __init__(self, sock: socket.socket, timeout: float = DEFAULT_TIMEOUT):
        sock.settimeout(timeout)
        self._sock = sock
        self.log: list = []

    def send(self, msg):
        self.log.append(("local", type(msg).__name__))
        self._sock.sendall(encode_frame(msg))

    def recv(self):
        msg = read_frame(lambda n: _recv_exact(self._sock, n))
        self.log.append(("peer", type(msg).__name__))
        return msg

    def close(self):
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


class _SessionHandler(socketserver.BaseRequestHandler):
    def handle(self):
        server: SenderServer = self.server  # type: ignore[assignment]
        ordinal = server.next_ordinal()
        chan = SocketChannel(self.request)
        try:
            billed = serve_session(chan, server.bundle, server.secrets, server.params)
        except (ProtocolError, OSError) as exc:
            log.debug("session %d aborted: %s", ordinal, exc)
        except Exception:
            try:
                chan.send(ErrorMsg(code=ERR_INTERNAL, text="internal error"))
            except OSError:
                pass
            raise
        else:
            # The billed total is the only session fact worth keeping.
            log.info("session=%d billed T=%d", ordinal, billed)


class SenderServer(socketserver.ThreadingTCPServer):
    """One listening socket, one thread per buyer session."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, bundle: PublishedBundle, secrets: SenderSecrets,
                 params: GroupParams):
        bundle.verify_digests()
        if bundle.manifest.group_id != params.param_id:
            raise ProtocolError("bundle and server group parameters disagree")
        self.bundle = bundle
        self.secrets = secrets
        self.params = params
        self._ordinal = 0
        self._ordinal_lock = threading.Lock()
        super().__init__(address, _SessionHandler)

    def shutdown(self):
        """Stop ``serve_forever`` at once, not at its next half-second poll.

        Shutting the listening socket down wakes the select that
        ``serve_forever`` waits in; sessions already accepted run on.
        """
        try:
            self.socket.shutdown(socket.SHUT_RDWR)
        except OSError:  # platforms that refuse this fall back to the poll
            pass
        super().shutdown()

    def next_ordinal(self) -> int:
        with self._ordinal_lock:
            self._ordinal += 1
            return self._ordinal

    @property
    def port(self) -> int:
        return self.server_address[1]


def start_server(bundle: PublishedBundle, secrets: SenderSecrets, params: GroupParams,
                 host: str = "127.0.0.1", port: int = 0) -> SenderServer:
    """Bind and serve in a background thread; caller shuts it down."""
    server = SenderServer((host, port), bundle, secrets, params)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    log.info("serving on %s:%d", host, server.port)
    return server


def buy(host: str, port: int, item_ids, out_dir, cache_dir=None,
        rng=None, timeout: float = DEFAULT_TIMEOUT):
    """Purchase items from a running server and write their plaintexts.

    Returns the purchase result; the printed/billed total equals the sum
    of the chosen items' weights, which the buyer can verify itself.
    A refused connection, a timeout or a reset raises ``ProtocolError``; an
    output directory it cannot create raises ``OSError`` before it connects.
    """
    item_ids = list(item_ids)
    if not item_ids:
        raise ProtocolError("no items requested")
    out_path = Path(out_dir)
    missing = [d for d in (out_path, *out_path.parents) if not d.exists()]
    out_path.mkdir(parents=True, exist_ok=True)  # fails here, before the buyer pays
    for d in missing:  # deepest first: a failed purchase leaves no directory behind
        d.rmdir()
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        raise ProtocolError(f"cannot connect to {host}:{port}: {exc}") from exc
    chan = SocketChannel(sock, timeout=timeout)
    try:
        result = run_session_receiver(chan, item_ids, cache_dir=cache_dir, rng=rng)
    except OSError as exc:  # timeouts and resets on the socket
        raise ProtocolError(f"connection to {host}:{port} failed: {exc}") from exc
    finally:
        chan.close()

    out_path.mkdir(parents=True, exist_ok=True)
    for item_id, plaintext in result.items:
        (out_path / item_id).write_bytes(plaintext)
    return result


def run_local_session(bundle: PublishedBundle, secrets: SenderSecrets,
                      plan: SelectionPlan, params: GroupParams,
                      receiver_rng=None, sender_rng=None,
                      receiver_counters: Counters | None = None,
                      sender_counters: Counters | None = None,
                      ) -> tuple[PurchaseResult, int, list]:
    """Run both sides in-process over a socket pair.

    Returns the buyer's result, the seller's billed count and the buyer's
    message log. The buyer resolves ``plan.item_ids`` against the manifest
    it receives, as ``buy`` does.
    """
    rx_sock, tx_sock = socket.socketpair()
    rx_chan, tx_chan = SocketChannel(rx_sock), SocketChannel(tx_sock)
    box: dict = {}

    def sender_side():
        try:
            box["sender"] = serve_session(tx_chan, bundle, secrets, params,
                                          sender_rng, sender_counters)
        except Exception as exc:  # surfaced after join
            box["sender_error"] = exc
        finally:
            tx_chan.close()

    worker = threading.Thread(target=sender_side, daemon=True)
    worker.start()
    try:
        result = run_session_receiver(rx_chan, plan.item_ids, params, rng=receiver_rng,
                                      counters=receiver_counters)
    except ProtocolError:
        # A receiver-side protocol error is usually fallout from a sender
        # abort; surface the root cause when there is one.
        worker.join(timeout=5)
        if "sender_error" in box:
            raise box["sender_error"] from None
        raise
    finally:
        rx_chan.close()
        worker.join(timeout=30)
    if "sender_error" in box:
        raise box["sender_error"]
    return result, box["sender"], rx_chan.log
