import random
import socket
import threading
import concurrent.futures
import time

import pytest

from wot.catalog import Manifest, ManifestEntry, ciphertext_digest, total_price
from wot.cli import main
from wot.errors import (CatalogError, FrameError, ItemAuthenticationError,
                        ProtocolError, WotError)
from wot import group
from wot.base_ot import OtResponse, ot_query, ot_recover, ot_respond
from wot.framing import (ERR_BAD_QUERY, LENGTH_FIELD, MAX_FRAME_LEN, CtData, Done,
                         ManifestMsg, OtBatchQuery, OtBatchResp, encode_frame,
                         encode_manifest)
from wot.group import is_member, kdf_pad, make_params, setup_params
from wot.instrument import Counters
from wot.net import SocketChannel, buy, run_local_session, start_server
from wot.protocol import (PublishedBundle, item_context, plan_for_indices,
                          publish, load_bundle, load_secrets, run_session_receiver,
                          run_session_sender, save_bundle, serve_session)
from wot.symcrypto import NONCE_LEN, TAG_LEN, combine_shares, decrypt

from conftest import count_calls, make_catalog


@pytest.fixture
def channel_pair():
    """Two connected frame channels: the buyer's end and the seller's end."""
    rx_sock, tx_sock = socket.socketpair()
    with rx_sock, tx_sock:
        yield SocketChannel(rx_sock, timeout=5), SocketChannel(tx_sock, timeout=5)


def buy_over(channel_pair, bundle, secrets, params, item_ids, rng):
    """The buyer's side for ``item_ids`` against ``serve_session`` over a socket pair."""
    rx_chan, tx_chan = channel_pair

    def seller():
        try:
            serve_session(tx_chan, bundle, secrets, params, rng)
        except ProtocolError:
            pass  # the buyer hangs up

    worker = threading.Thread(target=seller, daemon=True)
    worker.start()
    try:
        return run_session_receiver(rx_chan, item_ids, params, rng=rng)
    finally:
        rx_chan.close()
        worker.join(timeout=5)
        assert not worker.is_alive()


class TestPublish:
    def test_p2_counters_match_advertised_costs(self, p23, rng):
        cat = make_catalog([1, 2, 3, 7])
        counters = Counters()
        publish(cat, "p2", p23, rng=rng, counters=counters)
        assert counters.encryptions == 4
        assert counters.key_gens == 4
        assert counters.share_draws == 9  # sum of (weight - 1)

    def test_single_item_either_mode(self, p23, rng):
        cat = make_catalog([1])
        for mode in ("p1", "p2"):
            counters = Counters()
            bundle, secrets = publish(cat, mode, p23, rng=rng, counters=counters)
            assert counters.encryptions == 1
            assert counters.share_draws == 0
            assert len(secrets.flat_secrets) == 1
            assert bundle.manifest.weights == (1,)

    def test_p1_layer_encryptions(self, p23, rng):
        cat = make_catalog([2, 1, 3])
        counters = Counters()
        bundle, secrets = publish(cat, "p1", p23, rng=rng, counters=counters)
        assert counters.encryptions == 6  # one per layer
        assert counters.key_gens == 6
        assert len(secrets.flat_secrets) == 6

    def test_manifest_digests_recompute(self, p23, rng):
        cat = make_catalog([2, 3])
        bundle, _ = publish(cat, "p2", p23, rng=rng)
        for entry, ct in zip(bundle.manifest.entries, bundle.ciphertexts):
            assert entry.digest_hex == ciphertext_digest(ct)
            assert entry.ct_len == len(ct)
        bundle.verify_digests()

    def test_p2_shares_recombine_to_item_keys(self, p23, rng):
        cat = make_catalog([3, 2])
        bundle, secrets = publish(cat, "p2", p23, rng=rng)
        flat_map = bundle.flat_map
        for i in range(cat.n):
            shares = [secrets.flat_secrets[f] for f in flat_map.item_range(i)]
            assert len(shares) == cat.weights[i]
            key = combine_shares(shares)
            context = item_context("p2", cat.items[i].id)
            assert decrypt(key, bundle.ciphertexts[i], context) == cat.items[i].payload

    def test_unknown_mode(self, p23, rng):
        with pytest.raises(CatalogError):
            publish(make_catalog([1]), "p3", p23, rng=rng)


class TestSelectionPlan:
    def test_demo_vector(self, p23, rng):
        cat = make_catalog([1, 2, 3, 7])
        bundle, _ = publish(cat, "p2", p23, rng=rng)
        plan = plan_for_indices(bundle.manifest, {0, 2})
        assert plan.total == 4
        assert plan.picks == (0, 3, 4, 5)  # offsets are [0, 1, 3, 6]
        assert plan.item_ids == ("item00", "item02")

    def test_choose_everything(self, p23, rng):
        cat = make_catalog([1, 2, 3, 7])
        bundle, _ = publish(cat, "p2", p23, rng=rng)
        plan = plan_for_indices(bundle.manifest, range(4))
        assert plan.total == 13
        assert plan.picks == tuple(range(13))

    def test_by_item_id(self, p23, rng, channel_pair):
        bundle, secrets = publish(make_catalog([1, 2]), "p2", p23, rng=rng)
        result = buy_over(channel_pair, bundle, secrets, p23, {"item01"}, rng)
        assert [item_id for item_id, _ in result.items] == ["item01"]
        assert result.total == 2

    def test_empty_choice_rejected(self, p23, rng, channel_pair):
        bundle, secrets = publish(make_catalog([1, 2]), "p2", p23, rng=rng)
        with pytest.raises(ProtocolError, match="empty"):
            buy_over(channel_pair, bundle, secrets, p23, set(), rng)
        with pytest.raises(ProtocolError, match="empty"):
            plan_for_indices(bundle.manifest, [])

    def test_unknown_id_rejected(self, p23, rng, channel_pair):
        bundle, secrets = publish(make_catalog([1, 2]), "p2", p23, rng=rng)
        with pytest.raises(CatalogError, match="unknown item"):
            buy_over(channel_pair, bundle, secrets, p23, {"nope"}, rng)

    def test_lookups_and_plans_are_linear(self):
        """10,000 id lookups, and a plan of all 10,000 items, each well under a second."""
        n = 10_000
        entries = tuple(ManifestEntry(id=f"i{i}", weight=1 + i % 3, ct_len=1,
                                      digest_hex="0" * 64) for i in range(n))
        manifest = Manifest(mode="p2", group_id="p23", key_bits=128, entries=entries)
        start = time.perf_counter()
        assert [manifest.index_of(f"i{i}") for i in range(n)] == list(range(n))
        assert time.perf_counter() - start < 1.0
        start = time.perf_counter()
        plan = plan_for_indices(manifest, range(n))
        assert time.perf_counter() - start < 1.0
        assert plan.total == manifest.total_weight == len(plan.picks)


class TestSessions:
    @pytest.mark.parametrize("mode", ["p1", "p2"])
    def test_end_to_end(self, p23, rng, mode):
        cat = make_catalog([1, 2, 3, 7], rng)
        bundle, secrets = publish(cat, mode, p23, rng=rng)
        plan = plan_for_indices(bundle.manifest, {1, 3})
        result, billed, _ = run_local_session(bundle, secrets, plan, p23,
                                              receiver_rng=rng, sender_rng=rng)
        assert dict(result.items) == {
            "item01": cat.items[1].payload,
            "item03": cat.items[3].payload,
        }
        assert billed == 9 == result.total

    def test_modp_2048_sessions(self):
        """Both modes end to end on the production group."""
        params = setup_params("modp-2048")
        rng = random.Random(2048)
        cat = make_catalog([1, 2, 3], rng)
        for mode, chosen, total in (("p2", {0, 2}, 4), ("p1", {1}, 2)):
            bundle, secrets = publish(cat, mode, params, rng=rng)
            plan = plan_for_indices(bundle.manifest, chosen)
            result, billed, _ = run_local_session(bundle, secrets, plan, params,
                                                  receiver_rng=rng, sender_rng=rng)
            assert dict(result.items) == {f"item{i:02d}": cat.items[i].payload for i in chosen}
            assert result.total == billed == total

    def test_custom_group_session(self, rng):
        """In-process sessions run on a make_params group, not only on presets."""
        params = make_params(23, 11, 4, "toy-g4")
        cat = make_catalog([1, 2], rng)
        bundle, secrets = publish(cat, "p2", params, rng=rng)
        plan = plan_for_indices(bundle.manifest, {1})
        result, billed, _ = run_local_session(bundle, secrets, plan, params,
                                              receiver_rng=rng, sender_rng=rng)
        assert result.items == (("item01", cat.items[1].payload),)
        assert billed == 2

    def test_single_weight_one_item(self, p23, rng):
        cat = make_catalog([3, 1], rng)
        bundle, secrets = publish(cat, "p2", p23, rng=rng)
        plan = plan_for_indices(bundle.manifest, {1})
        result, billed, _ = run_local_session(bundle, secrets, plan, p23,
                                              receiver_rng=rng, sender_rng=rng)
        assert result.items == (("item01", cat.items[1].payload),)
        assert billed == 1

    @pytest.mark.parametrize("mode", ["p1", "p2"])
    def test_modes_return_identical_plaintexts(self, p23, rng, mode):
        cat = make_catalog([2, 3, 1], rng)
        bundle, secrets = publish(cat, mode, p23, rng=rng)
        plan = plan_for_indices(bundle.manifest, {0, 2})
        result, _, _ = run_local_session(bundle, secrets, plan, p23,
                                         receiver_rng=rng, sender_rng=rng)
        assert dict(result.items) == {"item00": cat.items[0].payload,
                                      "item02": cat.items[2].payload}

    def test_tampered_ciphertext_names_item(self, p23, rng):
        cat = make_catalog([1, 2], rng)
        bundle, secrets = publish(cat, "p2", p23, rng=rng)
        bad_ct = bytearray(bundle.ciphertexts[1])
        bad_ct[-1] ^= 1
        # Keep the manifest consistent so tampering is caught by AE, not digests.
        entries = list(bundle.manifest.entries)
        entries[1] = ManifestEntry(id=entries[1].id, weight=entries[1].weight,
                                   ct_len=len(bad_ct),
                                   digest_hex=ciphertext_digest(bytes(bad_ct)))
        tampered = PublishedBundle(
            manifest=Manifest(mode="p2", group_id=p23.param_id, key_bits=128,
                              entries=tuple(entries)),
            ciphertexts=(bundle.ciphertexts[0], bytes(bad_ct)),
        )
        plan = plan_for_indices(tampered.manifest, {1})
        with pytest.raises(ItemAuthenticationError) as err:
            run_local_session(tampered, secrets, plan, p23,
                              receiver_rng=rng, sender_rng=rng)
        assert err.value.item_id == "item01"

    def test_digest_mismatch_aborts_before_transfer(self, p23, rng, channel_pair):
        cat = make_catalog([1, 2], rng)
        bundle, secrets = publish(cat, "p2", p23, rng=rng)
        corrupted = PublishedBundle(
            manifest=bundle.manifest,
            ciphertexts=(bundle.ciphertexts[0], bundle.ciphertexts[1] + b"x"),
        )
        rx_chan, tx_chan = channel_pair

        def seller():
            try:
                serve_session(tx_chan, corrupted, secrets, p23, rng)
            except ProtocolError:
                pass  # the buyer hangs up

        worker = threading.Thread(target=seller, daemon=True)
        worker.start()
        with pytest.raises(CatalogError, match="digest mismatch for item 'item01'"):
            run_session_receiver(rx_chan, ["item00"], p23, rng=rng)
        rx_chan.close()
        worker.join(timeout=5)
        assert not worker.is_alive()
        assert ("local", "OtBatchQuery") not in rx_chan.log

    def test_empty_batch_rejected_by_sender(self, p23, rng, channel_pair):
        cat = make_catalog([1, 2], rng)
        _, secrets = publish(cat, "p2", p23, rng=rng)
        rx_chan, tx_chan = channel_pair
        query = OtBatchQuery(elem_len=p23.element_len, queries=())
        with pytest.raises(ProtocolError, match="empty purchase"):
            run_session_sender(secrets, query, tx_chan, p23, rng)

    def test_nonmember_query_aborts_without_responses(self, p23, rng, channel_pair):
        cat = make_catalog([1, 2], rng)
        _, secrets = publish(cat, "p2", p23, rng=rng)
        rx_chan, tx_chan = channel_pair
        counters = Counters()
        for bad in (5, 0):  # neither is in the order-11 subgroup
            query = OtBatchQuery(elem_len=p23.element_len, queries=(2, bad))
            with pytest.raises(ProtocolError, match="not a subgroup member"):
                run_session_sender(secrets, query, tx_chan, p23, rng, counters)
            reply = rx_chan.recv()
            assert (reply.code, reply.text) == (ERR_BAD_QUERY, "invalid query")
        assert counters.response_exponents == 0

    def test_more_picks_than_secrets_refused(self, p23, rng, channel_pair):
        """An honest buyer picks each of the N flat indices at most once."""
        _, secrets = publish(make_catalog([1, 2], rng), "p2", p23, rng=rng)
        n = len(secrets.flat_secrets)
        rx_chan, tx_chan = channel_pair
        query = OtBatchQuery(elem_len=p23.element_len, queries=(2,) * (n + 1))
        counters = Counters()
        with pytest.raises(ProtocolError, match="too many picks"):
            run_session_sender(secrets, query, tx_chan, p23, rng, counters)
        reply = rx_chan.recv()
        assert (reply.code, reply.text) == (ERR_BAD_QUERY, "too many picks")
        assert counters.response_exponents == 0

    def test_nonmember_response_aborts_before_any_pad(self, p23, rng, channel_pair,
                                                      monkeypatch):
        cat = make_catalog([2], rng)
        bundle, secrets = publish(cat, "p2", p23, rng=rng)
        n = len(secrets.flat_secrets)
        rx_chan, tx_chan = channel_pair

        def forging_sender():
            tx_chan.recv()  # HELLO
            tx_chan.send(ManifestMsg(manifest=bundle.manifest))
            tx_chan.recv()  # CT_REQ for the one item
            tx_chan.send(CtData(item_id="item00", ciphertext=bundle.ciphertexts[0]))
            msg = tx_chan.recv()
            forged = OtResponse(a=5, masks=(bytes(16),) * n)  # 5 is not a member
            tx_chan.send(OtBatchResp(elem_len=p23.element_len,
                                     responses=(forged,) * len(msg.queries)))
            tx_chan.send(Done(billed=len(msg.queries)))

        pads = count_calls(monkeypatch, kdf_pad)
        worker = threading.Thread(target=forging_sender, daemon=True)
        worker.start()
        with pytest.raises(ProtocolError, match="invalid response element"):
            run_session_receiver(rx_chan, ["item00"], p23, rng=rng)
        worker.join(timeout=5)
        assert pads == []

    def test_pool_threads_run_no_public_function(self, monkeypatch):
        """Pads, checks, responses and recoveries stay on the thread of the side that made them."""
        params = setup_params("modp-2048")
        rng = random.Random(2049)
        bundle, secrets = publish(make_catalog([1, 2, 3], rng), "p2", params, rng=rng)
        plan = plan_for_indices(bundle.manifest, {0, 2})
        threads = {fn.__name__: count_calls(monkeypatch, fn, record=threading.current_thread)
                   for fn in (kdf_pad, is_member, ot_respond, ot_recover)}
        run_local_session(bundle, secrets, plan, params, receiver_rng=rng, sender_rng=rng)
        buyer = threading.current_thread()
        assert set(threads["ot_recover"]) == {buyer}
        (seller,) = set(threads["ot_respond"])
        assert seller is not buyer and not seller.name.startswith("wot-powmod")
        assert set(threads["kdf_pad"]) == set(threads["is_member"]) == {buyer, seller}

    def test_toy_group_session_starts_no_pool(self, p23, rng, monkeypatch):
        monkeypatch.setattr(group, "_pool", None)
        cat = make_catalog([1, 2, 3, 7], rng)
        bundle, secrets = publish(cat, "p2", p23, rng=rng)
        plan = plan_for_indices(bundle.manifest, {1, 3})
        run_local_session(bundle, secrets, plan, p23, receiver_rng=rng, sender_rng=rng)
        assert group._pool is None

    def test_concurrent_buys_share_one_cpu_sized_pool(self, tmp_path, monkeypatch):
        params = setup_params("modp-2048")
        rng = random.Random(2050)
        bundle, secrets = publish(make_catalog([1, 2, 3], rng), "p2", params, rng=rng)
        pools = []
        real_pool = concurrent.futures.ThreadPoolExecutor

        def recorded_pool(*args, **kwargs):
            pools.append(real_pool(*args, **kwargs))
            return pools[-1]

        monkeypatch.setattr(group, "_pool", None)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recorded_pool)
        srv = start_server(bundle, secrets, params)
        errors = []

        def one(buyer):
            try:
                buy("127.0.0.1", srv.port, ["item01", "item02"], tmp_path / buyer)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        buyers = [threading.Thread(target=one, args=(f"buyer{i}",)) for i in range(4)]
        before = set(threading.enumerate())  # an earlier test's pool stays out of the count
        try:
            for t in buyers:
                t.start()
            for t in buyers:
                t.join(timeout=60)
            workers = [t for t in set(threading.enumerate()) - before
                       if t.name.startswith("wot-powmod")]
        finally:
            srv.shutdown()
            srv.server_close()
            for pool in pools:
                pool.shutdown()
        assert not errors and not any(t.is_alive() for t in buyers)
        assert len(pools) == (group._cpus() > 1)  # one pool, made by the first batch
        assert len(workers) <= group._cpus()

    def test_each_peer_element_checked_once(self, p23, rng, monkeypatch):
        """T picks: T query checks by the seller, T response checks by the buyer."""
        cat = make_catalog([1, 2, 3, 7], rng)
        bundle, secrets = publish(cat, "p2", p23, rng=rng)
        plan = plan_for_indices(bundle.manifest, {1, 3})
        checks = count_calls(monkeypatch, is_member)
        _, billed, _ = run_local_session(bundle, secrets, plan, p23,
                                         receiver_rng=rng, sender_rng=rng)
        assert billed == 9
        assert len(checks) == 2 * billed

    def test_billing_echo_mismatch_aborts(self, p23, rng, channel_pair):
        cat = make_catalog([2], rng)
        bundle, secrets = publish(cat, "p2", p23, rng=rng)
        rx_chan, tx_chan = channel_pair

        def lying_sender():
            tx_chan.recv()  # HELLO
            tx_chan.send(ManifestMsg(manifest=bundle.manifest))
            tx_chan.recv()  # CT_REQ for the one item
            tx_chan.send(CtData(item_id="item00", ciphertext=bundle.ciphertexts[0]))
            msg = tx_chan.recv()
            from wot.base_ot import batch_binding, ot_respond, pick_binding, respond_powers
            sid = batch_binding(p23, msg.queries)
            responses = tuple(
                ot_respond(p23, secrets.flat_secrets, powers, pick_binding(sid, t))
                for t, powers in enumerate(respond_powers(p23, msg.queries, rng)))
            tx_chan.send(OtBatchResp(elem_len=p23.element_len, responses=responses))
            tx_chan.send(Done(billed=99))

        worker = threading.Thread(target=lying_sender, daemon=True)
        worker.start()
        with pytest.raises(ProtocolError, match="billing mismatch"):
            run_session_receiver(rx_chan, ["item00"], p23, rng=rng)
        worker.join(timeout=5)

    def test_oversize_purchase_refused_before_fetching(self, p23, rng, channel_pair,
                                                       monkeypatch):
        """The buyer sizes the reply from (N, T) before any ciphertext or query."""
        entry = ManifestEntry(id="big", weight=200_000, ct_len=1, digest_hex="0" * 64)
        manifest = Manifest(mode="p2", group_id="p23", key_bits=128, entries=(entry,))
        rx_chan, tx_chan = channel_pair

        def lying_sender():
            try:
                tx_chan.recv()  # HELLO
                tx_chan.send(ManifestMsg(manifest=manifest))
                tx_chan.recv()  # the buyer hangs up here
            except ProtocolError:
                pass
            finally:
                tx_chan.close()

        queries = count_calls(monkeypatch, ot_query)
        worker = threading.Thread(target=lying_sender, daemon=True)
        worker.start()
        with pytest.raises(ProtocolError, match="purchase too large"):
            run_session_receiver(rx_chan, ["big"], p23, rng=rng)
        rx_chan.close()
        worker.join(timeout=5)
        assert not worker.is_alive()
        assert ("local", "CtReq") not in rx_chan.log
        assert queries == []

    def test_sender_bills_exactly_the_pick_count(self, p23, rng):
        cat = make_catalog([1, 2, 3, 7], rng)
        bundle, secrets = publish(cat, "p2", p23, rng=rng)
        for choice in ({0, 2}, {1}, {0, 1, 2, 3}):
            plan = plan_for_indices(bundle.manifest, choice)
            _, billed, _ = run_local_session(bundle, secrets, plan, p23,
                                             receiver_rng=rng, sender_rng=rng)
            assert billed == total_price(cat, choice)
            assert billed == len(plan.picks)

    def test_local_session_runs_the_wire_grammar(self, p23, rng):
        """In-process sessions deliver every ciphertext and use the TCP grammar."""
        cat = make_catalog([1, 2, 3], rng)
        bundle, secrets = publish(cat, "p2", p23, rng=rng)
        plan = plan_for_indices(bundle.manifest, {1})
        _, _, log = run_local_session(bundle, secrets, plan, p23,
                                      receiver_rng=rng, sender_rng=rng)
        sent, got = "local", "peer"
        assert log == [(sent, "Hello"), (got, "ManifestMsg"),
                       *[(sent, "CtReq"), (got, "CtData")] * 3,
                       (sent, "OtBatchQuery"), (got, "OtBatchResp"), (got, "Done")]


class TestBundleIO:
    def test_round_trip_with_secrets(self, p23, rng, tmp_path):
        cat = make_catalog([1, 2, 3], rng)
        bundle, secrets = publish(cat, "p2", p23, rng=rng)
        save_bundle(bundle, tmp_path / "bundle", secrets=secrets)
        loaded = load_bundle(tmp_path / "bundle")
        assert loaded == bundle
        reloaded = load_secrets(tmp_path / "bundle")
        assert reloaded == secrets

    def test_version_1_manifest_file_loads(self, tmp_path):
        """The manifest keeps record version 1 across the protocol bump."""
        ct = bytes(40)
        raw = bytes.fromhex(
            "01" "02" "0080" "0003" + b"p23".hex() + "00000001"  # version, p2, 128, group, n
            "0000002f" "0001" + b"a".hex()  # record length, id
            + "00000003" "0000000000000028" + ciphertext_digest(ct))  # weight, ct_len, digest
        (tmp_path / "manifest.bin").write_bytes(raw)
        (tmp_path / "a.ct").write_bytes(ct)
        bundle = load_bundle(tmp_path)
        assert bundle.manifest == Manifest(mode="p2", group_id="p23", key_bits=128, entries=(
            ManifestEntry(id="a", weight=3, ct_len=40, digest_hex=ciphertext_digest(ct)),))
        assert bundle.ciphertexts == (ct,)
        assert encode_manifest(bundle.manifest) == raw

    def test_p1_secrets_round_trip(self, p23, rng, tmp_path):
        cat = make_catalog([2, 1], rng)
        bundle, secrets = publish(cat, "p1", p23, rng=rng)
        save_bundle(bundle, tmp_path / "b", secrets=secrets)
        assert load_secrets(tmp_path / "b") == secrets

    def test_receiver_view_has_no_secrets(self, p23, rng, tmp_path):
        cat = make_catalog([1, 1], rng)
        bundle, _ = publish(cat, "p2", p23, rng=rng)
        save_bundle(bundle, tmp_path / "pub")
        assert load_bundle(tmp_path / "pub") == bundle
        with pytest.raises(CatalogError, match="seller's bundle"):
            load_secrets(tmp_path / "pub")

    @pytest.mark.parametrize("corrupt", [
        lambda data: data[:1] + b"\x00" + data[2:],  # mode code 0
        lambda data: data[:1] + b"\x03" + data[2:],  # mode code 3
        lambda data: data[:5],  # header shorter than 8 bytes
        lambda data: data[:8 + 3 * 16 + 2],  # key count cut in half
        lambda data: b"\x01\x01\x00\x00" + (1 << 20).to_bytes(4, "big") + bytes(4),
    ], ids=["mode-0", "mode-3", "short-header", "truncated-key-count", "zero-length-shares"])
    def test_corrupt_secrets_file_refused(self, p23, rng, tmp_path, corrupt):
        bundle, secrets = publish(make_catalog([1, 2], rng), "p2", p23, rng=rng)
        save_bundle(bundle, tmp_path / "b", secrets=secrets)
        path = tmp_path / "b" / "sender_secrets.bin"
        assert len(secrets.flat_secrets) == 3 and len(secrets.flat_secrets[0]) == 16
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(CatalogError, match="secrets file"):
            load_secrets(tmp_path / "b")

    def test_stored_item_keys_are_checked_and_ignored(self, p23, rng, tmp_path):
        """Secrets files that still carry p2 item keys load to the same shares."""
        bundle, secrets = publish(make_catalog([1, 2], rng), "p2", p23, rng=rng)
        save_bundle(bundle, tmp_path / "b", secrets=secrets)
        path = tmp_path / "b" / "sender_secrets.bin"
        data = path.read_bytes()
        assert data[-4:] == bytes(4)  # no keys written
        keys = rng.randbytes(2 * 16)
        path.write_bytes(data[:-4] + (2).to_bytes(4, "big") + keys)
        assert load_secrets(tmp_path / "b") == secrets
        path.write_bytes(data[:-4] + (2).to_bytes(4, "big") + keys[:-1])
        with pytest.raises(CatalogError, match="corrupt secrets file"):
            load_secrets(tmp_path / "b")

    def test_corrupted_ct_file_detected(self, p23, rng, tmp_path):
        cat = make_catalog([1, 1], rng)
        bundle, _ = publish(cat, "p2", p23, rng=rng)
        save_bundle(bundle, tmp_path / "pub")
        ct_file = tmp_path / "pub" / "item00.ct"
        ct_file.write_bytes(ct_file.read_bytes() + b"!")
        with pytest.raises(CatalogError, match="digest mismatch"):
            load_bundle(tmp_path / "pub")

    def test_session_from_disk(self, p23, rng, tmp_path):
        cat = make_catalog([1, 2], rng)
        bundle, secrets = publish(cat, "p2", p23, rng=rng)
        save_bundle(bundle, tmp_path / "b", secrets=secrets)
        plan = plan_for_indices(bundle.manifest, {1})
        result, _, _ = run_local_session(load_bundle(tmp_path / "b"),
                                         load_secrets(tmp_path / "b"),
                                         plan, p23, receiver_rng=rng, sender_rng=rng)
        assert dict(result.items) == {"item01": cat.items[1].payload}

    def test_dotted_ids_round_trip(self, p23, rng, tmp_path):
        cat = make_catalog([1, 2], rng, ids=["a.b", "..."])
        bundle, _ = publish(cat, "p2", p23, rng=rng)
        save_bundle(bundle, tmp_path / "pub")
        assert (tmp_path / "pub" / "a.b.ct").is_file()
        assert (tmp_path / "pub" / "....ct").is_file()
        assert load_bundle(tmp_path / "pub") == bundle

    def test_manifest_naming_parent_dir_refused(self, p23, rng, tmp_path):
        cat = make_catalog([1], rng, ids=["ok"])
        bundle, _ = publish(cat, "p2", p23, rng=rng)
        save_bundle(bundle, tmp_path / "pub")
        manifest = tmp_path / "pub" / "manifest.bin"
        manifest.write_bytes(manifest.read_bytes().replace(b"\x00\x02ok", b"\x00\x02.."))
        with pytest.raises(WotError, match="invalid manifest entry"):
            load_bundle(tmp_path / "pub")


class TestFrameCap:
    """An item whose CT_DATA frame would pass the frame cap is refused up front."""

    LARGEST = MAX_FRAME_LEN - 3 - len("big")  # type byte, u16 id length, id

    @staticmethod
    def manifest(p23, ct_len):
        entry = ManifestEntry(id="big", weight=1, ct_len=ct_len, digest_hex="0" * 64)
        return Manifest(mode="p2", group_id=p23.param_id, key_bits=128, entries=(entry,))

    def test_boundary(self, p23):
        ct = bytes(self.LARGEST)
        bundle = PublishedBundle(manifest=self.manifest(p23, len(ct)), ciphertexts=(ct,))
        frame = encode_frame(CtData(item_id="big", ciphertext=bundle.ciphertexts[0]))
        assert len(frame) == LENGTH_FIELD + MAX_FRAME_LEN
        del frame
        ct += b"\x00"
        with pytest.raises(CatalogError, match="item 'big'"):
            PublishedBundle(manifest=self.manifest(p23, len(ct)), ciphertexts=(ct,))
        with pytest.raises(FrameError, match="frame too large"):
            encode_frame(CtData(item_id="big", ciphertext=ct))

    def test_oversize_reply_refused_before_any_work(self, p23, rng, channel_pair):
        """A batch whose reply frame would pass the cap is refused from (N, T) alone."""
        _, secrets = publish(make_catalog([1, 2, 3, 7], rng), "p2", p23, rng=rng)
        per_pick = p23.element_len + sum(map(len, secrets.flat_secrets))  # a, N masks
        picks = (MAX_FRAME_LEN - 13) // per_pick + 1
        assert 1 + 12 + picks * per_pick > MAX_FRAME_LEN
        # Non-member queries: refusing them would take the membership pass.
        query = OtBatchQuery(elem_len=p23.element_len, queries=(5,) * picks)
        counters = Counters()
        rx_chan, tx_chan = channel_pair
        with pytest.raises(ProtocolError, match="purchase too large"):
            run_session_sender(secrets, query, tx_chan, p23, rng, counters)
        reply = rx_chan.recv()
        assert (reply.code, reply.text) == (ERR_BAD_QUERY, "purchase too large")
        assert counters.response_exponents == 0

    def test_publish_load_and_serve_refuse(self, p23, rng, tmp_path, capsys):
        payload_size = self.LARGEST + 1 - NONCE_LEN - TAG_LEN
        cat = make_catalog([1], rng, payload_size=payload_size, ids=["big"])
        with pytest.raises(CatalogError, match="item 'big'"):
            publish(cat, "p2", p23, rng=rng)

        # A bundle directory made by other means: load_bundle refuses it,
        # so wot serve does not start on it.
        (tmp_path / "manifest.bin").write_bytes(
            encode_manifest(self.manifest(p23, self.LARGEST + 1)))
        (tmp_path / "big.ct").write_bytes(bytes(self.LARGEST + 1))
        with pytest.raises(CatalogError, match="item 'big'"):
            load_bundle(tmp_path, verify=False)
        assert main(["serve", "--bundle", str(tmp_path), "--listen", "127.0.0.1:0"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: item 'big': ciphertext of")


def test_exhaustive_small_catalog_correctness(p23):
    """Every nonempty choice set of a 4-item catalog, both modes."""
    rng = random.Random(4242)
    cat = make_catalog([1, 2, 1, 3], rng)
    for mode in ("p1", "p2"):
        bundle, secrets = publish(cat, mode, p23, rng=rng)
        for mask in range(1, 1 << 4):
            choice = {i for i in range(4) if mask >> i & 1}
            plan = plan_for_indices(bundle.manifest, choice)
            result, billed, _ = run_local_session(bundle, secrets, plan, p23,
                                                  receiver_rng=rng, sender_rng=rng)
            assert dict(result.items) == {cat.items[i].id: cat.items[i].payload
                                          for i in choice}
            assert billed == total_price(cat, choice)
