"""TCP transport: frame channels, the seller's server and the buyer's client.

``SocketChannel`` moves message objects as frames over one socket. The
session grammar of both sides lives in ``wot.protocol``; this module only
connects, accepts, times out and closes.

Each connection is one session; sessions share only the immutable bundle
and secrets. The persistent log records one line per sale with the billed
total and nothing else, written once the transfer reply is sent: the
server never learns which items were bought, and it must not log anything
that could narrow them down. The buyer hangs up as soon as the reply
passes its checks, before it opens anything (``run_session_receiver``).
"""

from __future__ import annotations

import logging
import mmap
import socket
import socketserver
import threading
from pathlib import Path

from .errors import CatalogError, ProtocolError
from .framing import ERR_INTERNAL, CtData, ErrorMsg, _frame_parts, encode_frame, read_frame
from .group import setup_params
from .protocol import (PublishedBundle, SenderSecrets, _replace_file, run_session_receiver,
                       serve_session)
from .symcrypto import MAP_FLOOR

log = logging.getLogger("wot.server")

DEFAULT_TIMEOUT = 30.0


# Read here, once: a stand-in for ``socket`` (``perfbench``) may lack it.
_MSG_MORE = getattr(socket, "MSG_MORE", 0)
_MADV_POPULATE_WRITE = 23  # Linux 5.14 and later


def _recv_exact(sock: socket.socket, n: int) -> bytes | memoryview:
    """Read exactly ``n`` bytes, in ``recv`` calls of at most ``MAP_FLOOR`` bytes.

    Under ``MAP_FLOOR`` bytes: the chunk itself if one ``recv`` fills them,
    else one join. From ``MAP_FLOOR`` up: a read-only view of one anonymous
    mapping, each ``MAP_FLOOR`` window of which is populated (``_populate``)
    when the first bytes for it arrive. So the pages are not faulted in one
    at a time, and a peer cannot make this side commit memory more than
    one window ahead of the bytes it has sent.
    """
    chunks = _chunks(sock, n)
    if n < MAP_FLOOR:
        return b"".join(chunks)  # a lone chunk is returned as it is, not copied
    body = mmap.mmap(-1, n, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
    pos = populated = 0
    for chunk in chunks:
        end = pos + len(chunk)
        while populated < end:
            _populate(body, populated, min(MAP_FLOOR, n - populated))
            populated += MAP_FLOOR
        body[pos:end] = chunk
        pos = end
    return memoryview(body).toreadonly()


def _chunks(sock: socket.socket, n: int):
    """``recv`` chunks of at most ``MAP_FLOOR`` bytes that add up to ``n`` bytes."""
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, MAP_FLOOR))
        if not chunk:
            raise ProtocolError("connection closed mid-frame")
        yield chunk
        remaining -= len(chunk)


def _populate(buf: mmap.mmap, start: int, length: int):
    """Fault ``buf[start:start + length]`` in with one call, where the kernel can.

    Where it cannot (before Linux 5.14, or another system), the pages fault
    in as they are written.
    """
    try:
        buf.madvise(_MADV_POPULATE_WRITE, start, length)
    except OSError:
        pass


class SocketChannel:
    """Frame-codec adapter exposing the message-object channel interface."""

    def __init__(self, sock: socket.socket):
        sock.settimeout(DEFAULT_TIMEOUT)
        self._sock = sock

    def send(self, msg):
        if isinstance(msg, CtData):
            # The header is held back for the ciphertext, which is sent from
            # where it lies: no frame is joined per delivery.
            header, ciphertext = _frame_parts(msg)
            self._sock.sendall(header, _MSG_MORE)
            self._sock.sendall(ciphertext)
        else:
            self._sock.sendall(encode_frame(msg))

    def recv(self, admit=None):
        """The next message; ``admit`` may refuse it before it is decoded (``read_frame``)."""
        return read_frame(lambda n: _recv_exact(self._sock, n), admit)

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
            billed = serve_session(chan, server.bundle, server.secrets)
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
    """One listening socket, one thread per buyer session.

    Before it binds, it refuses a bundle of an unknown group, secrets that
    do not fit the bundle, and a ciphertext that does not match its
    digest. It re-checks no size: a bundle comes from ``publish`` or
    ``load_bundle``, which refuse one whose manifest or ciphertexts do
    not fit a frame.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, bundle: PublishedBundle, secrets: SenderSecrets):
        manifest, flat = bundle.manifest, secrets.flat_secrets
        # Set the group up here, so an unknown one is refused before the
        # port is bound and every session's own setup is a cache hit.
        setup_params(manifest.group_id)
        if secrets.mode != manifest.mode:
            raise CatalogError(f"secrets are for mode {secrets.mode}, the bundle for {manifest.mode}")
        if len(flat) != manifest.total_weight:
            raise CatalogError(f"secrets hold {len(flat)} shares, "
                               f"the bundle prices {manifest.total_weight}")
        if any(len(share) != manifest.key_bits // 8 for share in flat):
            raise CatalogError(f"secrets are not {manifest.key_bits}-bit keys, as the bundle's are")
        bundle.verify_digests()
        self.bundle = bundle
        self.secrets = secrets
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


def buy(host: str, port: int, item_ids, out_dir, cache_dir=None):
    """Purchase items from a running server and write their plaintexts.

    Returns the purchase result; the printed/billed total equals the sum
    of the chosen items' weights, which the buyer can verify itself.
    A refused connection, a timeout or a reset raises ``ProtocolError``; an
    output directory it cannot create, or a directory at ``out_dir/<id>``,
    raises ``OSError`` before it connects. Each output file is replaced,
    never written through: a symlink at ``out_dir/<id>`` is removed, not
    followed (``protocol._replace_file``).
    """
    item_ids = list(item_ids)
    if not item_ids:
        raise ProtocolError("no items requested")
    out_path = Path(out_dir)
    missing = [d for d in (out_path, *out_path.parents) if not d.exists()]
    out_path.mkdir(parents=True, exist_ok=True)  # fails here, before the buyer pays
    for d in missing:  # deepest first: a failed purchase leaves no directory behind
        d.rmdir()
    for target in (out_path / item_id for item_id in item_ids):
        if target.is_dir() and not target.is_symlink():  # it could not be replaced
            raise IsADirectoryError(f"output path {target} is a directory")
    try:
        sock = socket.create_connection((host, port), timeout=DEFAULT_TIMEOUT)
    except OSError as exc:
        raise ProtocolError(f"cannot connect to {host}:{port}: {exc}") from exc
    chan = SocketChannel(sock)
    try:
        result = run_session_receiver(chan, item_ids, cache_dir=cache_dir)
    except OSError as exc:  # timeouts and resets on the socket
        raise ProtocolError(f"connection to {host}:{port} failed: {exc}") from exc
    finally:
        chan.close()

    out_path.mkdir(parents=True, exist_ok=True)
    for item_id, plaintext in result.items:
        _replace_file(out_path / item_id, plaintext)
    return result
