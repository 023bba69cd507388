import logging
import random
import socket
import socketserver
import threading
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from wot.errors import CatalogError, GroupError, ProtocolError, RemoteError
from wot.framing import (CtData, CtReq, Done, ErrorMsg, Hello, ManifestMsg,
                         OtBatchQuery, ERR_GRAMMAR, ERR_INCOMPATIBLE, ERR_INTERNAL,
                         LENGTH_FIELD, TYPE_CT_REQ, TYPE_HELLO,
                         TYPE_OT_BATCH_QUERY, encode_frame, read_frame)
from wot import net
from wot.catalog import ciphertext_digest
from wot.net import SenderServer, SocketChannel, buy, _recv_exact
from wot.protocol import (PublishedBundle, fetch_bundle, publish, run_session_sender,
                          save_bundle)

from conftest import billed_lines, count_calls, make_catalog, serving


@pytest.fixture
def server(p23, caplog):
    """A live server, its catalog, and ``billed(count=0)``: the seller's sale lines."""
    caplog.set_level(logging.INFO, logger="wot.server")
    rng = random.Random(14)
    catalog = make_catalog([1, 2, 3, 7], rng, payload_size=128)
    bundle, secrets = publish(catalog, "p2", p23)
    with serving(bundle, secrets) as srv:
        yield srv, catalog, lambda count=0: billed_lines(caplog, count)


def raw_client(port):
    sock = socket.create_connection(("127.0.0.1", port), timeout=10)
    sock.settimeout(10)
    return sock


def exchange(sock, msg):
    sock.sendall(encode_frame(msg))
    return read_frame(lambda n: _recv_exact(sock, n))


def message_log(monkeypatch):
    """The type name of every message the calling thread's channels send or receive, in order.

    The seller's sessions run on the server's threads and are not logged.
    """
    log, buyer = [], threading.current_thread()
    send, recv = SocketChannel.send, SocketChannel.recv

    def sending(chan, msg):
        if threading.current_thread() is buyer:
            log.append(type(msg).__name__)
        send(chan, msg)

    def receiving(chan):
        msg = recv(chan)
        if threading.current_thread() is buyer:
            log.append(type(msg).__name__)
        return msg

    monkeypatch.setattr(SocketChannel, "send", sending)
    monkeypatch.setattr(SocketChannel, "recv", receiving)
    return log


class ChunkedSocket:
    """A peer that hands out ``data`` in ``recv`` chunks of the sizes ``sizes`` draws."""

    def __init__(self, data, sizes):
        self.data, self.pos, self.sizes = data, 0, sizes

    def recv(self, n):
        chunk = self.data[self.pos:self.pos + min(n, self.sizes())]
        self.pos += len(chunk)
        return chunk


class TestRecvExact:
    def test_small_chunks_make_exactly_n_bytes(self):
        rng = random.Random(25)
        data = rng.randbytes(1000)
        sock = ChunkedSocket(data, lambda: rng.randint(1, 7))
        out = [_recv_exact(sock, n) for n in (1, 4, 0, 250, 745)]
        assert [len(part) for part in out] == [1, 4, 0, 250, 745]
        assert b"".join(out) == data

    def test_one_recv_returns_its_chunk(self):
        chunk = bytes(range(200))
        sock = SimpleNamespace(recv=lambda n: chunk)
        assert _recv_exact(sock, len(chunk)) is chunk

    def test_peer_closing_early_is_a_protocol_error(self):
        sock = ChunkedSocket(b"\x00" * 10, lambda: 3)
        with pytest.raises(ProtocolError, match="connection closed mid-frame"):
            _recv_exact(sock, 11)


class TestBuy:
    def test_purchase_writes_files(self, server, tmp_path):
        srv, catalog, _ = server
        result = buy("127.0.0.1", srv.port, ["item00", "item02"], tmp_path / "out")
        assert result.total == 4
        assert (tmp_path / "out" / "item00").read_bytes() == catalog.items[0].payload
        assert (tmp_path / "out" / "item02").read_bytes() == catalog.items[2].payload
        assert not (tmp_path / "out" / "item01").exists()

    def test_unknown_id_fails_before_any_transfer(self, server, tmp_path):
        srv, _, billed = server
        with pytest.raises(Exception, match="unknown item"):
            buy("127.0.0.1", srv.port, ["ghost"], tmp_path / "out")
        assert billed() == []  # no batch ever reached the transfer core

    def test_cache_dir_skips_fetch(self, server, tmp_path, p23):
        srv, catalog, _ = server
        save_bundle(srv.bundle, tmp_path / "cache")
        result = buy("127.0.0.1", srv.port, ["item01"], tmp_path / "out",
                     cache_dir=tmp_path / "cache")
        assert result.total == 2

    def test_stale_cache_entry_is_refetched(self, server, tmp_path):
        srv, catalog, _ = server
        save_bundle(srv.bundle, tmp_path / "cache")
        stale = tmp_path / "cache" / "item02.ct"
        stale.write_bytes(stale.read_bytes()[:-1] + b"\x00")
        result = buy("127.0.0.1", srv.port, ["item02"], tmp_path / "out",
                     cache_dir=tmp_path / "cache")
        assert (tmp_path / "out" / "item02").read_bytes() == catalog.items[2].payload
        assert result.total == 3

    def test_cache_of_another_publish_is_refetched_whole(self, server, tmp_path, p23,
                                                         monkeypatch):
        """Each publish draws fresh keys, so another publish's cache shares no ciphertext."""
        srv, catalog, _ = server
        other, _ = publish(catalog, "p2", p23)
        save_bundle(other, tmp_path / "cache")
        log = message_log(monkeypatch)
        result = buy("127.0.0.1", srv.port, ["item01"], tmp_path / "out",
                     cache_dir=tmp_path / "cache")
        assert log.count("CtReq") == 1 and log.count("CtData") == catalog.n
        assert result.items == (("item01", catalog.items[1].payload),)

    def test_oversized_cache_file_is_refused_unread(self, server, tmp_path, monkeypatch):
        """A cached ``.ct`` longer than its entry is refused by its size, and all is refetched."""
        srv, catalog, _ = server
        save_bundle(srv.bundle, tmp_path / "cache")
        oversized = tmp_path / "cache" / "item02.ct"
        oversized.write_bytes(oversized.read_bytes() + b"\x00")
        read, read_bytes = [], Path.read_bytes

        def spy(path):
            read.append(path)
            return read_bytes(path)

        monkeypatch.setattr(Path, "read_bytes", spy)
        log = message_log(monkeypatch)
        result = buy("127.0.0.1", srv.port, ["item02"], tmp_path / "out",
                     cache_dir=tmp_path / "cache")
        assert result.items == (("item02", catalog.items[2].payload),)
        assert log.count("CtReq") == 1 and log.count("CtData") == catalog.n
        assert (tmp_path / "cache" / "item00.ct") in read  # loading got as far as the file
        assert oversized not in read

    @pytest.mark.parametrize("manifest", [None, b"\x09garbage"], ids=["missing", "corrupt"])
    def test_unloadable_cache_is_ignored(self, server, tmp_path, manifest):
        """A cache whose manifest is missing or does not decode is refetched in full."""
        srv, catalog, _ = server
        save_bundle(srv.bundle, tmp_path / "cache")
        if manifest is None:
            (tmp_path / "cache" / "manifest.bin").unlink()
        else:
            (tmp_path / "cache" / "manifest.bin").write_bytes(manifest)
        result = buy("127.0.0.1", srv.port, ["item03"], tmp_path / "out",
                     cache_dir=tmp_path / "cache")
        assert result.items == (("item03", catalog.items[3].payload),)

    def test_cached_buy_hashes_each_ciphertext_once(self, server, tmp_path, monkeypatch):
        srv, _, _ = server
        save_bundle(srv.bundle, tmp_path / "cache")
        hashed = count_calls(monkeypatch, ciphertext_digest)
        buy("127.0.0.1", srv.port, ["item01"], tmp_path / "out",
            cache_dir=tmp_path / "cache")
        assert len(hashed) == len(srv.bundle.ciphertexts)
        assert sorted(bytes(args[0]) for args in hashed) == sorted(
            bytes(ct) for ct in srv.bundle.ciphertexts)

    def test_buy_uses_only_create_connection_sendall_and_recv(self, server, tmp_path,
                                                              monkeypatch):
        """A stand-in for ``socket`` with only these names sees every byte of a buy."""
        srv, catalog, _ = server

        class Conn:
            def __init__(self, sock):
                self.sock, self.nbytes, self.writes = sock, 0, []

            def sendall(self, data):
                self.nbytes += len(data)
                self.writes.append(bytes(data))
                self.sock.sendall(data)

            def recv(self, n):
                data = self.sock.recv(n)
                self.nbytes += len(data)
                return data

            def settimeout(self, timeout):
                self.sock.settimeout(timeout)

            def shutdown(self, how):
                self.sock.shutdown(how)

            def close(self):
                self.sock.close()

        class SocketModule:
            SHUT_RDWR = socket.SHUT_RDWR
            conns = []

            def create_connection(self, *args, **kwargs):
                self.conns.append(Conn(socket.create_connection(*args, **kwargs)))
                return self.conns[-1]

        stand_in = SocketModule()
        monkeypatch.setattr(net, "socket", stand_in)
        result = buy("127.0.0.1", srv.port, ["item02"], tmp_path / "out")
        assert result.items == (("item02", catalog.items[2].payload),)
        assert len(stand_in.conns) == 1
        assert stand_in.conns[0].nbytes > sum(map(len, srv.bundle.ciphertexts))
        # One write per frame: a frame split across two writes would invite
        # Nagle/delayed-ACK stalls.
        writes = stand_in.conns[0].writes
        assert [LENGTH_FIELD + int.from_bytes(w[:LENGTH_FIELD], "big") for w in writes] \
            == [len(w) for w in writes]
        assert [w[LENGTH_FIELD] for w in writes] \
            == [TYPE_HELLO, TYPE_CT_REQ, TYPE_OT_BATCH_QUERY]

    def test_all_ciphertexts_fetched_not_only_chosen(self, server, tmp_path, monkeypatch):
        """Fetching a subset of ciphertexts would leak the choices."""
        srv, catalog, _ = server
        log = message_log(monkeypatch)
        buy("127.0.0.1", srv.port, ["item01"], tmp_path / "out")
        assert log == ["Hello", "ManifestMsg", "CtReq"] + ["CtData"] * catalog.n \
            + ["OtBatchQuery", "OtBatchResp", "Done"]

    def test_bad_ciphertext_aborts_before_transfer(self, server, tmp_path):
        """The buyer checks each digest once, before its first transfer message."""
        srv, _, billed = server
        honest = srv.bundle
        # One bad item, then two: the first bad one in manifest order is named.
        for bad in ({1}, {1, 3}):
            cts = [bytes([ct[0] ^ 1]) + ct[1:] if i in bad else ct
                   for i, ct in enumerate(honest.ciphertexts)]
            srv.bundle = PublishedBundle(manifest=honest.manifest, ciphertexts=tuple(cts))
            out = tmp_path / f"out{len(bad)}"
            with pytest.raises(CatalogError, match="digest mismatch for item 'item01'"):
                buy("127.0.0.1", srv.port, ["item03"], out)
            assert billed() == []
            assert not out.exists()

    def test_two_concurrent_buyers(self, server, tmp_path):
        srv, catalog, billed = server
        errors = []

        def one(buyer, items):
            try:
                buy("127.0.0.1", srv.port, items, tmp_path / buyer)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=one, args=(f"buyer{i}", ["item01", "item03"]))
                   for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        lines = billed(2)
        assert len(lines) == 2
        assert all(line.endswith(" billed T=9") for line in lines)


class TestStartUp:
    """A server refuses what it cannot serve before it binds a port."""

    @pytest.fixture
    def unbindable(self, monkeypatch):
        def bind(server):
            raise AssertionError("bound a port")

        monkeypatch.setattr(socketserver.TCPServer, "server_bind", bind)

    @pytest.mark.parametrize("weights, mode, key_bits, message", [
        ((1, 2, 3, 4), "p2", 128, "secrets hold 10 shares, the bundle prices 6"),
        ((1, 2, 3), "p1", 128, "secrets are for mode p1, the bundle for p2"),
        ((1, 2, 3), "p2", 256, "secrets are not 128-bit keys, as the bundle's are"),
    ], ids=["count", "mode", "width"])
    def test_secrets_that_do_not_fit_are_refused(self, p23, unbindable,
                                                 weights, mode, key_bits, message):
        rng = random.Random(19)
        bundle, _ = publish(make_catalog([1, 2, 3], rng), "p2", p23)
        _, other = publish(make_catalog(weights, rng), mode, p23, key_bits=key_bits)
        with pytest.raises(CatalogError) as err:
            SenderServer(("127.0.0.1", 0), bundle, other)
        assert str(err.value) == message

    def test_unknown_group_refused(self, p23, unbindable):
        rng = random.Random(20)
        bundle, secrets = publish(make_catalog([1, 2], rng), "p2", p23)
        foreign = PublishedBundle(manifest=replace(bundle.manifest, group_id="toy-g4"),
                                  ciphertexts=bundle.ciphertexts)
        with pytest.raises(GroupError, match="unknown group preset 'toy-g4'"):
            SenderServer(("127.0.0.1", 0), foreign, secrets)


class TestGrammar:
    def test_query_before_hello(self, server):
        srv, _, _ = server
        with raw_client(srv.port) as sock:
            reply = exchange(sock, OtBatchQuery(elem_len=1, queries=(2,)))
        assert isinstance(reply, ErrorMsg)
        assert reply.code == ERR_GRAMMAR
        assert reply.text == "grammar"

    def test_double_hello(self, server):
        srv, _, _ = server
        with raw_client(srv.port) as sock:
            assert isinstance(exchange(sock, Hello()), ManifestMsg)
            reply = exchange(sock, Hello())
        assert isinstance(reply, ErrorMsg) and reply.code == ERR_GRAMMAR

    def test_version_mismatch(self, server):
        srv, _, _ = server
        with raw_client(srv.port) as sock:
            reply = exchange(sock, Hello(version=9))
        assert isinstance(reply, ErrorMsg) and reply.code == ERR_INCOMPATIBLE

    def test_version_1_hello_refused(self, server):
        """Version 1 answered each pick with N pairs; a version-1 buyer cannot read the reply."""
        srv, _, billed = server
        with raw_client(srv.port) as sock:
            reply = exchange(sock, Hello(version=1))
        assert reply == ErrorMsg(code=ERR_INCOMPATIBLE, text="unsupported version 1")
        assert billed() == []

    def test_version_2_hello_refused(self, server):
        """Version 2 named an item in each CT_REQ; its buyer's HELLO is refused, byte for byte."""
        srv, _, billed = server
        with raw_client(srv.port) as sock:
            sock.sendall(bytes.fromhex("00000007" "01" "02" "0000000000"))
            reply = read_frame(lambda n: _recv_exact(sock, n))
        assert reply == ErrorMsg(code=ERR_INCOMPATIBLE, text="unsupported version 2")
        assert billed() == []

    def test_one_byte_later_version_hello_refused(self, server):
        """A later version's HELLO is refused by its version byte, whatever its layout."""
        srv, _, billed = server
        with raw_client(srv.port) as sock:
            sock.sendall(bytes.fromhex("00000002" "01" "04"))
            reply = read_frame(lambda n: _recv_exact(sock, n))
        assert reply == ErrorMsg(code=ERR_INCOMPATIBLE, text="unsupported version 4")
        assert billed() == []

    def test_hello_with_a_trailing_byte_gets_no_manifest(self, server):
        """A version-3 HELLO is its version byte alone; a HELLO cannot pin a session parameter."""
        srv, _, billed = server
        with raw_client(srv.port) as sock:
            sock.sendall(bytes.fromhex("00000003" "01" "03" "02"))
            reply = read_frame(lambda n: _recv_exact(sock, n))
            assert reply == ErrorMsg(code=ERR_GRAMMAR, text="grammar")
            assert sock.recv(1) == b""  # the seller hung up
        assert billed() == []

    @pytest.mark.parametrize("frame", [
        "00000002" "42" "00",  # an unknown message type
        "00000003" "03" "0005",  # a version-2 CT_REQ whose id runs past the frame
        "00000001" "05",  # an OT_BATCH_QUERY with no fields
    ], ids=["unknown-type", "truncated-ct-req", "empty-query"])
    def test_malformed_frame_mid_delivery_gets_an_error(self, server, frame):
        """A frame that does not decode is out of grammar: ERROR, the session ends, no bill."""
        srv, _, billed = server
        with raw_client(srv.port) as sock:
            assert isinstance(exchange(sock, Hello()), ManifestMsg)
            sock.sendall(bytes.fromhex(frame))
            reply = read_frame(lambda n: _recv_exact(sock, n))
            assert reply == ErrorMsg(code=ERR_GRAMMAR, text="grammar")
            assert sock.recv(1) == b""  # the seller hung up
        assert billed() == []

    def test_second_ct_req_gets_an_error_after_one_catalog(self, server):
        """One session delivers the catalog at most once: a second CT_REQ is out of grammar."""
        srv, catalog, billed = server
        with raw_client(srv.port) as sock:
            assert isinstance(exchange(sock, Hello()), ManifestMsg)
            sock.sendall(encode_frame(CtReq()) + encode_frame(CtReq()))
            frames = [read_frame(lambda n: _recv_exact(sock, n)) for _ in range(catalog.n + 1)]
            assert sock.recv(1) == b""  # the seller hung up
        assert frames == [CtData(ciphertext=ct) for ct in srv.bundle.ciphertexts] \
            + [ErrorMsg(code=ERR_GRAMMAR, text="grammar")]
        assert billed() == []

    def test_done_from_client_is_grammar_error(self, server):
        srv, _, _ = server
        with raw_client(srv.port) as sock:
            exchange(sock, Hello())
            reply = exchange(sock, Done(billed=1))
        assert isinstance(reply, ErrorMsg) and reply.code == ERR_GRAMMAR

    def test_query_of_another_width_refused(self, server, caplog):
        """A query whose elements are not the group's width earns an ERROR and no bill."""
        srv, _, billed = server
        caplog.set_level(logging.DEBUG, logger="wot.server")
        with raw_client(srv.port) as sock:
            exchange(sock, Hello())
            reply = exchange(sock, OtBatchQuery(elem_len=4, queries=(2,)))
        assert reply == ErrorMsg(code=ERR_INCOMPATIBLE, text="element width mismatch")
        deadline = time.monotonic() + 10
        while not (aborted := [r.getMessage() for r in caplog.records
                               if "aborted" in r.getMessage()]):
            assert time.monotonic() < deadline, "the session never ended"
            time.sleep(0.01)
        assert aborted == ["session 1 aborted: element width mismatch"]
        assert billed() == []

    def test_fuzzed_sequences_never_yield_partial_response(self, server):
        """Random message orderings: either ERROR or close, never transfer data."""
        srv, _, billed = server
        rng = random.Random(404)
        pool = [
            Hello(),
            Hello(version=2),
            CtReq(),
            Done(billed=5),
            ErrorMsg(code=1, text="client says no"),
            OtBatchQuery(elem_len=1, queries=(5,)),   # non-member element
            OtBatchQuery(elem_len=1, queries=()),     # empty purchase
            OtBatchQuery(elem_len=4, queries=(2,)),   # wrong width
        ]
        for _ in range(60):
            got_resp = False
            with raw_client(srv.port) as sock:
                try:
                    for _ in range(rng.randint(1, 5)):
                        msg = pool[rng.randrange(len(pool))]
                        sock.sendall(encode_frame(msg))
                        reply = read_frame(lambda n: _recv_exact(sock, n))
                        if type(reply).__name__ == "OtBatchResp":
                            got_resp = True
                        if isinstance(reply, ErrorMsg):
                            break
                except (ProtocolError, OSError):
                    pass  # server closed on us: acceptable
            assert not got_resp
        assert billed() == []  # no fuzz session was billed


class TestSales:
    def test_only_a_query_enters_the_transfer(self, server, tmp_path, caplog, monkeypatch):
        """A connect-and-close is no sale; a purchase enters ``run_session_sender`` once."""
        srv, _, billed = server
        caplog.set_level(logging.DEBUG, logger="wot.server")
        entered = count_calls(monkeypatch, run_session_sender)
        with raw_client(srv.port):
            pass
        deadline = time.monotonic() + 10
        while not any("aborted" in r.getMessage() for r in caplog.records):
            assert time.monotonic() < deadline, "the probe session never ended"
            time.sleep(0.01)
        assert entered == []
        buy("127.0.0.1", srv.port, ["item00"], tmp_path / "out")
        assert len(billed(1)) == 1
        assert len(entered) == 1


class TestServerLog:
    def test_log_contains_only_billing_lines(self, server, tmp_path, caplog):
        srv, _, _ = server
        with caplog.at_level(logging.INFO, logger="wot.server"):
            buy("127.0.0.1", srv.port, ["item01", "item02"], tmp_path / "out")
        lines = [r.getMessage() for r in caplog.records if r.name == "wot.server"]
        billing = [l for l in lines if l.startswith("session=")]
        assert len(billing) == 1
        assert billing[0].endswith("billed T=5")
        import re
        for line in billing:
            assert re.fullmatch(r"session=\d+ billed T=\d+", line)
        assert not any("item" in l for l in lines)

    def test_equal_price_sales_log_identically(self, server, tmp_path, caplog):
        """{item00, item01} and {item02} both cost 3: the seller's lines differ only in ordinal."""
        srv, _, billed = server
        for k, items in enumerate((["item00", "item01"], ["item02"])):
            buy("127.0.0.1", srv.port, items, tmp_path / f"out{k}")
        assert len(billed(2)) == 2
        lines = [r.getMessage() for r in caplog.records if r.name == "wot.server"]
        assert lines == ["session=1 billed T=3", "session=2 billed T=3"]


class TestTransportErrors:
    def test_silent_server_times_out_as_protocol_error(self, tmp_path, monkeypatch):
        monkeypatch.setattr(net, "DEFAULT_TIMEOUT", 0.2)
        held = []  # the accepted socket stays open and never answers
        with socket.create_server(("127.0.0.1", 0)) as listener:
            acceptor = threading.Thread(target=lambda: held.append(listener.accept()[0]))
            acceptor.start()
            try:
                with pytest.raises(ProtocolError, match="failed: timed out"):
                    buy("127.0.0.1", listener.getsockname()[1], ["item00"], tmp_path)
            finally:
                acceptor.join(timeout=5)
                for conn in held:
                    conn.close()
        assert not acceptor.is_alive()


class TestRemoteErrors:
    def test_server_error_frame_surfaces_as_remote_error(self, p23):
        """A seller's ERROR in reply to the CT_REQ maps to RemoteError."""
        bundle, _ = publish(make_catalog([1, 2], random.Random(21)), "p2", p23)
        near, far = socket.socketpair()
        buyer, seller = SocketChannel(near), SocketChannel(far)
        try:
            # The stub seller's answer waits in the socket before the request is sent.
            seller.send(ErrorMsg(code=ERR_INTERNAL, text="internal error"))
            with pytest.raises(RemoteError, match=f"^remote error {ERR_INTERNAL}: internal error$"):
                fetch_bundle(buyer, bundle.manifest)
            assert seller.recv() == CtReq()
        finally:
            buyer.close()
            seller.close()
