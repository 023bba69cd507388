import logging
import random
import socket
import threading

import pytest

from wot.errors import CatalogError, ProtocolError, RemoteError
from wot.framing import (CtReq, Done, ErrorMsg, Hello, ManifestMsg,
                         OtBatchQuery, ERR_GRAMMAR, ERR_INCOMPATIBLE,
                         ERR_UNKNOWN_ITEM, encode_frame, read_frame)
from wot.net import SocketChannel, buy, start_server, _recv_exact
from wot.protocol import PublishedBundle, publish, save_bundle

from conftest import make_catalog


@pytest.fixture
def server(p23):
    rng = random.Random(14)
    catalog = make_catalog([1, 2, 3, 7], rng, payload_size=128)
    bundle, secrets = publish(catalog, "p2", p23, rng=rng)
    transcripts = []
    srv = start_server(bundle, secrets, p23, transcript_store=transcripts)
    yield srv, catalog, transcripts
    srv.shutdown()
    srv.server_close()


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
        srv, _, transcripts = server
        with pytest.raises(Exception, match="unknown item"):
            buy("127.0.0.1", srv.port, ["ghost"], tmp_path / "out",
                rng=random.Random(15))
        assert transcripts == []  # no batch ever reached the transfer core

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
        srv, _, transcripts = server
        cts = list(srv.bundle.ciphertexts)
        cts[1] = bytes([cts[1][0] ^ 1]) + cts[1][1:]
        srv.bundle = PublishedBundle(manifest=srv.bundle.manifest, ciphertexts=tuple(cts))
        with pytest.raises(CatalogError, match="digest mismatch for item 'item01'"):
            buy("127.0.0.1", srv.port, ["item03"], tmp_path / "out",
                rng=random.Random(19))
        assert transcripts == []
        assert not (tmp_path / "out").exists()

    def test_two_concurrent_buyers(self, server, tmp_path):
        srv, catalog, transcripts = server
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
        assert len(transcripts) == 2
        assert all(t.num_picks == 9 for t in transcripts)


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
        srv, _, transcripts = server
        sock = raw_client(srv.port)
        reply = exchange(sock, Hello(version=1))
        assert reply == ErrorMsg(code=ERR_INCOMPATIBLE, text="unsupported version 1")
        sock.close()
        assert transcripts == []

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
        srv, _, transcripts = server
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
        assert transcripts == []  # no fuzz session reached the transfer core


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
        from wot.net import fetch_bundle
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
