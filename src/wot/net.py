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
"""

from __future__ import annotations

import logging
import socket
import socketserver
import threading
from pathlib import Path

from .catalog import Manifest, ciphertext_digest
from .errors import CatalogError, FrameError, GrammarError, ProtocolError, RemoteError
from .framing import (ANY_GROUP, ANY_KEY_BITS, ANY_MODE, CtData, CtReq,
                      ErrorMsg, Hello, ManifestMsg, OtBatchQuery,
                      ERR_GRAMMAR, ERR_INCOMPATIBLE, ERR_INTERNAL, ERR_UNKNOWN_ITEM,
                      PROTOCOL_VERSION, encode_frame, read_frame)
from .group import GroupParams, setup_params
from .protocol import (PublishedBundle, SenderSecrets, load_bundle,
                       plan_selection, run_session_receiver, run_session_sender)

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
        self._pushback = []
        self.log: list = []

    def send(self, msg):
        self.log.append(("local", type(msg).__name__))
        self._sock.sendall(encode_frame(msg))

    def recv(self, timeout: float | None = None):
        if self._pushback:
            return self._pushback.pop()
        msg = read_frame(lambda n: _recv_exact(self._sock, n))
        self.log.append(("peer", type(msg).__name__))
        return msg

    def push(self, msg):
        self._pushback.append(msg)

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
        chan = SocketChannel(self.request, timeout=server.timeout)
        try:
            self._run(server, chan)
        except (ProtocolError, FrameError, OSError) as exc:
            log.debug("session %d aborted: %s", ordinal, exc)
        except Exception:
            try:
                chan.send(ErrorMsg(code=ERR_INTERNAL, text="internal error"))
            except OSError:
                pass
            raise
        else:
            # The billed total is the only session fact worth keeping.
            log.info("session=%d billed T=%d", ordinal, self._billed)

    def _fail(self, chan, code: int, text: str):
        try:
            chan.send(ErrorMsg(code=code, text=text))
        except OSError:
            pass
        raise GrammarError(text)

    def _run(self, server: "SenderServer", chan: SocketChannel):
        bundle = server.bundle
        manifest = bundle.manifest

        msg = chan.recv()
        if not isinstance(msg, Hello):
            self._fail(chan, ERR_GRAMMAR, "grammar")
        if msg.version != PROTOCOL_VERSION:
            self._fail(chan, ERR_INCOMPATIBLE, f"unsupported version {msg.version}")
        if msg.mode not in (ANY_MODE, manifest.mode) \
                or msg.group_id not in (ANY_GROUP, manifest.group_id) \
                or msg.key_bits not in (ANY_KEY_BITS, manifest.key_bits):
            self._fail(chan, ERR_INCOMPATIBLE, "bundle parameters do not match")
        chan.send(ManifestMsg(manifest=manifest))

        while True:
            msg = chan.recv()
            if isinstance(msg, CtReq):
                try:
                    ct = bundle.ciphertext_for(msg.item_id)
                except CatalogError:
                    self._fail(chan, ERR_UNKNOWN_ITEM, "unknown item")
                chan.send(CtData(item_id=msg.item_id, ciphertext=ct))
            elif isinstance(msg, OtBatchQuery):
                chan.push(msg)
                outcome = run_session_sender(server.secrets, chan, server.params)
                self._billed = outcome.billed
                if server.transcript_store is not None:
                    server.transcript_store.append(outcome.transcript)
                return
            else:
                self._fail(chan, ERR_GRAMMAR, "grammar")


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
            msg = chan.recv()
            if isinstance(msg, ErrorMsg):
                raise RemoteError(msg.code, msg.text)
            if not isinstance(msg, CtData) or msg.item_id != entry.id:
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
        chan.send(Hello())
        msg = chan.recv()
        if isinstance(msg, ErrorMsg):
            raise RemoteError(msg.code, msg.text)
        if not isinstance(msg, ManifestMsg):
            raise ProtocolError(f"expected manifest, got {type(msg).__name__}")
        manifest = msg.manifest

        # Validate the request before any transfer-related traffic.
        plan = plan_selection(manifest, item_ids)
        params = setup_params(manifest.group_id)
        bundle = fetch_bundle(chan, manifest, cache_dir=cache_dir)

        result = run_session_receiver(bundle, plan, chan, params, rng)
    except OSError as exc:  # timeouts and resets on the socket
        raise ProtocolError(f"connection to {host}:{port} failed: {exc}") from exc
    finally:
        chan.close()

    out_path = Path(out_dir)
    out_path.mkdir(parents=True, exist_ok=True)
    for item_id, plaintext in result.items:
        (out_path / item_id).write_bytes(plaintext)
    return result
