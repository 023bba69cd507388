import logging
import random
import socket
import sys
import threading
import time

import pytest

from wot.errors import CatalogError, ProtocolError, RemoteError
from wot.framing import (CtReq, Done, ErrorMsg, Hello, ManifestMsg,
                         OtBatchQuery, ERR_GRAMMAR, ERR_INCOMPATIBLE,
                         ERR_UNKNOWN_ITEM, encode_frame, read_frame)
from wot import net
from wot.catalog import ciphertext_digest
from wot.net import SocketChannel, buy, start_server, _recv_exact
from wot.protocol import PublishedBundle, publish, run_session_sender, save_bundle

from conftest import billed_lines, make_catalog


@pytest.fixture
def server(p23, caplog):
    """A live server, its catalog, and ``billed(count=0)``: the seller's sale lines."""
    caplog.set_level(logging.INFO, logger="wot.server")
    rng = random.Random(14)
    catalog = make_catalog([1, 2, 3, 7], rng, payload_size=128)
    bundle, secrets = publish(catalog, "p2", p23, rng=rng)
    srv = start_server(bundle, secrets, p23)
    yield srv, catalog, lambda count=0: billed_lines(caplog, count)
    srv.shutdown()
    srv.server_close()


def count_calls(monkeypatch, function):
    """Record the arguments of every call to ``function``, wherever a ``wot`` module bound it."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("wot") and getattr(module, function.__name__, None) is function:
            monkeypatch.setattr(module, function.__name__, counting)
    return calls


def raw_client(port):
    sock = socket.create_connection(("127.0.0.1", port), timeout=10)
    sock.settimeout(10)
    return sock


def exchange(sock, msg):
    sock.sendall(encode_frame(msg))
    return read_frame(lambda n: _recv_exact(sock, n))


class TestBuy:
    def test_purchase_writes_files(self, server, tmp_path):
        srv, catalog, _ = server
        result = buy("127.0.0.1", srv.port, ["item00", "item02"], tmp_path / "out",
                     rng=random.Random(15))
        assert result.total == 4
        assert (tmp_path / "out" / "item00").read_bytes() == catalog.items[0].payload
        assert (tmp_path / "out" / "item02").read_bytes() == catalog.items[2].payload
        assert not (tmp_path / "out" / "item01").exists()

    def test_unknown_id_fails_before_any_transfer(self, server, tmp_path):
        srv, _, billed = server
        with pytest.raises(Exception, match="unknown item"):
            buy("127.0.0.1", srv.port, ["ghost"], tmp_path / "out",
                rng=random.Random(15))
        assert billed() == []  # no batch ever reached the transfer core

    def test_cache_dir_skips_fetch(self, server, tmp_path, p23):
        srv, catalog, _ = server
        save_bundle(srv.bundle, tmp_path / "cache")
        result = buy("127.0.0.1", srv.port, ["item01"], tmp_path / "out",
                     cache_dir=tmp_path / "cache", rng=random.Random(16))
        assert result.total == 2

    def test_stale_cache_entry_is_refetched(self, server, tmp_path):
        srv, catalog, _ = server
        save_bundle(srv.bundle, tmp_path / "cache")
        stale = tmp_path / "cache" / "item02.ct"
        stale.write_bytes(stale.read_bytes()[:-1] + b"\x00")
        result = buy("127.0.0.1", srv.port, ["item02"], tmp_path / "out",
                     cache_dir=tmp_path / "cache", rng=random.Random(18))
        assert (tmp_path / "out" / "item02").read_bytes() == catalog.items[2].payload
        assert result.total == 3

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
                     cache_dir=tmp_path / "cache", rng=random.Random(22))
        assert result.items == (("item03", catalog.items[3].payload),)

    def test_cached_buy_hashes_each_ciphertext_once(self, server, tmp_path, monkeypatch):
        srv, _, _ = server
        save_bundle(srv.bundle, tmp_path / "cache")
        hashed = count_calls(monkeypatch, ciphertext_digest)
        buy("127.0.0.1", srv.port, ["item01"], tmp_path / "out",
            cache_dir=tmp_path / "cache", rng=random.Random(23))
        assert len(hashed) == len(srv.bundle.ciphertexts)
        assert sorted(args[0] for args in hashed) == sorted(srv.bundle.ciphertexts)

    def test_buy_uses_only_create_connection_sendall_and_recv(self, server, tmp_path,
                                                              monkeypatch):
        """A stand-in for ``socket`` with only these names sees every byte of a buy."""
        srv, catalog, _ = server

        class Conn:
            def __init__(self, sock):
                self.sock, self.nbytes = sock, 0

            def sendall(self, data):
                self.nbytes += len(data)
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
        result = buy("127.0.0.1", srv.port, ["item02"], tmp_path / "out",
                     rng=random.Random(24))
        assert result.items == (("item02", catalog.items[2].payload),)
        assert len(stand_in.conns) == 1
        assert stand_in.conns[0].nbytes > sum(map(len, srv.bundle.ciphertexts))

    def test_all_ciphertexts_fetched_not_only_chosen(self, server, tmp_path):
        """Fetching a subset of ciphertexts would leak the choices."""
        srv, catalog, _ = server
        counted = []
        original = SocketChannel.send

        def counting_send(self, msg):
            if isinstance(msg, CtReq):
                counted.append(msg.item_id)
            return original(self, msg)

        SocketChannel.send = counting_send
        try:
            buy("127.0.0.1", srv.port, ["item01"], tmp_path / "out",
                rng=random.Random(17))
        finally:
            SocketChannel.send = original
        assert sorted(counted) == ["item00", "item01", "item02", "item03"]

    def test_bad_ciphertext_aborts_before_transfer(self, server, tmp_path):
        """The buyer checks each digest once, before its first transfer message."""
        srv, _, billed = server
        cts = list(srv.bundle.ciphertexts)
        cts[1] = bytes([cts[1][0] ^ 1]) + cts[1][1:]
        srv.bundle = PublishedBundle(manifest=srv.bundle.manifest, ciphertexts=tuple(cts))
        with pytest.raises(CatalogError, match="digest mismatch for item 'item01'"):
            buy("127.0.0.1", srv.port, ["item03"], tmp_path / "out",
                rng=random.Random(19))
        assert billed() == []
        assert not (tmp_path / "out").exists()

    def test_two_concurrent_buyers(self, server, tmp_path):
        srv, catalog, billed = server
        errors = []

        def one(buyer, items):
            try:
                buy("127.0.0.1", srv.port, items, tmp_path / buyer,
                    rng=random.Random(hash(buyer) & 0xFFFF))
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


class TestGrammar:
    def test_query_before_hello(self, server):
        srv, _, _ = server
        sock = raw_client(srv.port)
        reply = exchange(sock, OtBatchQuery(elem_len=1, queries=(2,)))
        assert isinstance(reply, ErrorMsg)
        assert reply.code == ERR_GRAMMAR
        assert reply.text == "grammar"
        sock.close()

    def test_double_hello(self, server):
        srv, _, _ = server
        sock = raw_client(srv.port)
        assert isinstance(exchange(sock, Hello()), ManifestMsg)
        reply = exchange(sock, Hello())
        assert isinstance(reply, ErrorMsg) and reply.code == ERR_GRAMMAR
        sock.close()

    def test_version_mismatch(self, server):
        srv, _, _ = server
        sock = raw_client(srv.port)
        reply = exchange(sock, Hello(version=9))
        assert isinstance(reply, ErrorMsg) and reply.code == ERR_INCOMPATIBLE
        sock.close()

    def test_version_1_hello_refused(self, server):
        """Version 1 answered each pick with N pairs; a version-1 buyer cannot read the reply."""
        srv, _, billed = server
        sock = raw_client(srv.port)
        reply = exchange(sock, Hello(version=1))
        assert reply == ErrorMsg(code=ERR_INCOMPATIBLE, text="unsupported version 1")
        sock.close()
        assert billed() == []

    def test_pinned_mode_mismatch(self, server):
        srv, _, _ = server
        sock = raw_client(srv.port)
        reply = exchange(sock, Hello(mode="p1"))
        assert isinstance(reply, ErrorMsg) and reply.code == ERR_INCOMPATIBLE
        sock.close()

    def test_unknown_item_request(self, server):
        srv, _, _ = server
        sock = raw_client(srv.port)
        exchange(sock, Hello())
        reply = exchange(sock, CtReq(item_id="ghost"))
        assert isinstance(reply, ErrorMsg) and reply.code == ERR_UNKNOWN_ITEM
        sock.close()

    def test_done_from_client_is_grammar_error(self, server):
        srv, _, _ = server
        sock = raw_client(srv.port)
        exchange(sock, Hello())
        reply = exchange(sock, Done(billed=1))
        assert isinstance(reply, ErrorMsg) and reply.code == ERR_GRAMMAR
        sock.close()

    def test_fuzzed_sequences_never_yield_partial_response(self, server):
        """Random message orderings: either ERROR or close, never transfer data."""
        srv, _, billed = server
        rng = random.Random(404)
        pool = [
            Hello(),
            Hello(version=3),
            CtReq(item_id="item00"),
            CtReq(item_id="ghost"),
            Done(billed=5),
            ErrorMsg(code=1, text="client says no"),
            OtBatchQuery(elem_len=1, queries=(5,)),   # non-member element
            OtBatchQuery(elem_len=1, queries=()),     # empty purchase
            OtBatchQuery(elem_len=4, queries=(2,)),   # wrong width
        ]
        for _ in range(60):
            sock = raw_client(srv.port)
            got_resp = False
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
            finally:
                sock.close()
            assert not got_resp
        assert billed() == []  # no fuzz session was billed


class TestSales:
    def test_only_a_query_enters_the_transfer(self, server, tmp_path, caplog, monkeypatch):
        """A connect-and-close is no sale; a purchase enters ``run_session_sender`` once."""
        srv, _, billed = server
        caplog.set_level(logging.DEBUG, logger="wot.server")
        entered = count_calls(monkeypatch, run_session_sender)
        raw_client(srv.port).close()
        deadline = time.monotonic() + 10
        while not any("aborted" in r.getMessage() for r in caplog.records):
            assert time.monotonic() < deadline, "the probe session never ended"
            time.sleep(0.01)
        assert entered == []
        buy("127.0.0.1", srv.port, ["item00"], tmp_path / "out", rng=random.Random(25))
        assert len(billed(1)) == 1
        assert len(entered) == 1


class TestServerLog:
    def test_log_contains_only_billing_lines(self, server, tmp_path, caplog):
        srv, _, _ = server
        with caplog.at_level(logging.INFO, logger="wot.server"):
            buy("127.0.0.1", srv.port, ["item01", "item02"], tmp_path / "out",
                rng=random.Random(21))
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
            buy("127.0.0.1", srv.port, items, tmp_path / f"out{k}", rng=random.Random(26))
        assert len(billed(2)) == 2
        lines = [r.getMessage() for r in caplog.records if r.name == "wot.server"]
        assert lines == ["session=1 billed T=3", "session=2 billed T=3"]


class TestTransportErrors:
    def test_silent_server_times_out_as_protocol_error(self, tmp_path):
        held = []  # the accepted socket stays open and never answers
        with socket.create_server(("127.0.0.1", 0)) as listener:
            acceptor = threading.Thread(target=lambda: held.append(listener.accept()[0]))
            acceptor.start()
            try:
                with pytest.raises(ProtocolError, match="failed: timed out"):
                    buy("127.0.0.1", listener.getsockname()[1], ["item00"], tmp_path,
                        timeout=0.2)
            finally:
                acceptor.join(timeout=5)
                for conn in held:
                    conn.close()
        assert not acceptor.is_alive()


class TestRemoteErrors:
    def test_server_error_frame_surfaces_as_remote_error(self, server):
        """A peer ERROR during ciphertext fetch maps to RemoteError."""
        from wot.catalog import Manifest, ManifestEntry
        from wot.protocol import fetch_bundle
        srv, _, _ = server
        sock = raw_client(srv.port)
        chan = SocketChannel(sock)
        chan.send(Hello())
        manifest = chan.recv().manifest
        doctored = Manifest(
            mode=manifest.mode, group_id=manifest.group_id,
            key_bits=manifest.key_bits,
            entries=manifest.entries + (
                ManifestEntry(id="ghost", weight=1, ct_len=1, digest_hex="0" * 64),),
        )
        with pytest.raises(RemoteError, match="unknown item"):
            fetch_bundle(chan, doctored)
        chan.close()
