"""TCP transport: the seller's server and the buyer's client.

Server session grammar::

    HELLO -> MANIFEST -> (CT_REQ -> CT_DATA)* -> OT_BATCH_QUERY
          -> OT_BATCH_RESP -> DONE

Anything else earns an ERROR frame and a closed connection. Each
connection is one session; sessions share only the immutable bundle and
secrets. The persistent log records one line per completed session with
the billed total and nothing else: the server never learns which items
were bought, and it must not log anything that could narrow them down.

The buyer fetches *every* ciphertext it does not already hold, not just
the chosen ones: requesting a subset would reveal the choices out of
band. A previously downloaded bundle directory can be passed as a cache
to skip the transfers entirely.

Each side's grammar is written once (``_serve_session`` and
``_buy_session``). ``run_local_session`` runs the same two functions over
a socket pair, so an in-process session goes through the frame codec and
the grammar exactly as a TCP session does.
"""

from __future__ import annotations

import logging
import socket
import socketserver
import threading
from pathlib import Path

from .catalog import Manifest, ciphertext_digest
from .errors import CatalogError, FrameError, GrammarError, ProtocolError
from .framing import (ANY_GROUP, ANY_KEY_BITS, ANY_MODE, CtData, CtReq,
                      ErrorMsg, Hello, ManifestMsg, OtBatchQuery,
                      ERR_GRAMMAR, ERR_INCOMPATIBLE, ERR_INTERNAL, ERR_UNKNOWN_ITEM,
                      PROTOCOL_VERSION, encode_frame, read_frame)
from .group import GroupParams, setup_params
from .instrument import Counters
from .protocol import (PublishedBundle, PurchaseResult, SelectionPlan, SenderOutcome,
                       SenderSecrets, _expect, load_bundle, plan_selection,
                       run_session_receiver, run_session_sender)

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


def _serve_session(chan: SocketChannel, bundle: PublishedBundle, secrets: SenderSecrets,
                   params: GroupParams, rng=None,
                   counters: Counters | None = None) -> SenderOutcome:
    """The seller's side of one session: grammar, delivery, then the transfer."""
    manifest = bundle.manifest

    def fail(code: int, text: str):
        try:
            chan.send(ErrorMsg(code=code, text=text))
        except OSError:
            pass
        raise GrammarError(text)

    msg = chan.recv()
    if not isinstance(msg, Hello):
        fail(ERR_GRAMMAR, "grammar")
    if msg.version != PROTOCOL_VERSION:
        fail(ERR_INCOMPATIBLE, f"unsupported version {msg.version}")
    if msg.mode not in (ANY_MODE, manifest.mode) \
            or msg.group_id not in (ANY_GROUP, manifest.group_id) \
            or msg.key_bits not in (ANY_KEY_BITS, manifest.key_bits):
        fail(ERR_INCOMPATIBLE, "bundle parameters do not match")
    chan.send(ManifestMsg(manifest=manifest))

    while True:
        msg = chan.recv()
        if isinstance(msg, CtReq):
            try:
                ct = bundle.ciphertext_for(msg.item_id)
            except CatalogError:
                fail(ERR_UNKNOWN_ITEM, "unknown item")
            chan.send(CtData(item_id=msg.item_id, ciphertext=ct))
        elif isinstance(msg, OtBatchQuery):
            return run_session_sender(secrets, msg, chan, params, rng, counters)
        else:
            fail(ERR_GRAMMAR, "grammar")


def _buy_session(chan: SocketChannel, item_ids, cache_dir=None, rng=None,
                 counters: Counters | None = None,
                 params: GroupParams | None = None) -> PurchaseResult:
    """The buyer's side of one session, up to the verified plaintexts.

    ``params`` defaults to the preset the manifest names; an in-process
    session passes the seller's, which may be a ``make_params`` group.
    """
    chan.send(Hello())
    manifest = _expect(chan.recv(), ManifestMsg).manifest
    # Validate the request before any transfer-related traffic.
    plan = plan_selection(manifest, item_ids)
    params = params or setup_params(manifest.group_id)
    bundle = fetch_bundle(chan, manifest, cache_dir=cache_dir)
    return run_session_receiver(bundle, plan, chan, params, rng, counters)


class _SessionHandler(socketserver.BaseRequestHandler):
    def handle(self):
        server: SenderServer = self.server  # type: ignore[assignment]
        ordinal = server.next_ordinal()
        chan = SocketChannel(self.request, timeout=server.timeout)
        try:
            outcome = _serve_session(chan, server.bundle, server.secrets, server.params)
        except (ProtocolError, FrameError, OSError) as exc:
            log.debug("session %d aborted: %s", ordinal, exc)
        except Exception:
            try:
                chan.send(ErrorMsg(code=ERR_INTERNAL, text="internal error"))
            except OSError:
                pass
            raise
        else:
            if server.transcript_store is not None:
                server.transcript_store.append(outcome.transcript)
            # The billed total is the only session fact worth keeping.
            log.info("session=%d billed T=%d", ordinal, outcome.billed)


class SenderServer(socketserver.ThreadingTCPServer):
    """One listening socket, one thread per buyer session."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, bundle: PublishedBundle, secrets: SenderSecrets,
                 params: GroupParams, timeout: float = DEFAULT_TIMEOUT,
                 transcript_store: list | None = None):
        bundle.verify_digests()
        if bundle.manifest.group_id != params.param_id:
            raise ProtocolError("bundle and server group parameters disagree")
        self.bundle = bundle
        self.secrets = secrets
        self.params = params
        self.timeout = timeout
        self.transcript_store = transcript_store
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
                 host: str = "127.0.0.1", port: int = 0,
                 transcript_store: list | None = None) -> SenderServer:
    """Bind and serve in a background thread; caller shuts it down."""
    server = SenderServer((host, port), bundle, secrets, params,
                          transcript_store=transcript_store)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    log.info("serving on %s:%d", host, server.port)
    return server


def fetch_bundle(chan: SocketChannel, manifest: Manifest,
                 cache_dir=None) -> PublishedBundle:
    """Assemble the full ciphertext set, from cache where possible.

    Every item is fetched regardless of what will be bought; see module
    docstring.
    """
    cached: dict[str, bytes] = {}
    if cache_dir is not None:
        try:
            local = load_bundle(cache_dir, verify=False)
            cached = {e.id: ct for e, ct in zip(local.manifest.entries, local.ciphertexts)}
        except CatalogError:
            cached = {}
    cts = []
    for entry in manifest.entries:
        ct = cached.get(entry.id)
        if ct is not None and (len(ct) != entry.ct_len
                               or ciphertext_digest(ct) != entry.digest_hex):
            ct = None  # stale cache entry; refetch
        if ct is None:
            chan.send(CtReq(item_id=entry.id))
            msg = _expect(chan.recv(), CtData)
            if msg.item_id != entry.id:
                raise ProtocolError("unexpected reply to ciphertext request")
            ct = msg.ciphertext
        cts.append(ct)
    # Not verified here: run_session_receiver checks every digest before
    # it sends the first transfer message.
    return PublishedBundle(manifest=manifest, ciphertexts=tuple(cts))


def buy(host: str, port: int, item_ids, out_dir, cache_dir=None,
        rng=None, timeout: float = DEFAULT_TIMEOUT):
    """Purchase items from a running server and write their plaintexts.

    Returns the purchase result; the printed/billed total equals the sum
    of the chosen items' weights, which the buyer can verify itself.
    A refused connection, a timeout or a reset raises ``ProtocolError``.
    """
    item_ids = list(item_ids)
    if not item_ids:
        raise ProtocolError("no items requested")
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        raise ProtocolError(f"cannot connect to {host}:{port}: {exc}") from exc
    chan = SocketChannel(sock, timeout=timeout)
    try:
        result = _buy_session(chan, item_ids, cache_dir, rng)
    except OSError as exc:  # timeouts and resets on the socket
        raise ProtocolError(f"connection to {host}:{port} failed: {exc}") from exc
    finally:
        chan.close()

    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    for item_id, plaintext in result.items:
        (out_path / item_id).write_bytes(plaintext)
    return result


def run_local_session(bundle: PublishedBundle, secrets: SenderSecrets,
                      plan: SelectionPlan, params: GroupParams,
                      receiver_rng=None, sender_rng=None,
                      receiver_counters: Counters | None = None,
                      sender_counters: Counters | None = None,
                      ) -> tuple[PurchaseResult, SenderOutcome, list]:
    """Run both sides in-process over a socket pair.

    Returns the buyer's result, the seller's outcome and the buyer's
    message log. The buyer resolves ``plan.item_ids`` against the manifest
    it receives, as ``buy`` does.
    """
    rx_sock, tx_sock = socket.socketpair()
    rx_chan, tx_chan = SocketChannel(rx_sock), SocketChannel(tx_sock)
    box: dict = {}

    def sender_side():
        try:
            box["sender"] = _serve_session(tx_chan, bundle, secrets, params,
                                           sender_rng, sender_counters)
        except Exception as exc:  # surfaced after join
            box["sender_error"] = exc
        finally:
            tx_chan.close()

    worker = threading.Thread(target=sender_side, daemon=True)
    worker.start()
    try:
        result = _buy_session(rx_chan, plan.item_ids, rng=receiver_rng,
                              counters=receiver_counters, params=params)
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
