import os
import random
import socket
import stat
import struct
import threading
import concurrent.futures
import time
from dataclasses import replace

import pytest

from wot.catalog import (Catalog, FlatIndexMap, Item, Manifest, ManifestEntry,
                         ciphertext_digest)
from wot.cli import main
from wot.errors import (CatalogError, FrameError, GroupError, ItemAuthenticationError,
                        ProtocolError, WotError)
from wot import framing, group, net, protocol
from wot import symcrypto
from wot.base_ot import (batch_binding, ot_query, ot_recover, ot_reply, ot_respond,
                         pick_binding, respond_powers)
from wot.framing import (ERR_BAD_QUERY, ERR_GRAMMAR, ERR_INCOMPATIBLE, LENGTH_FIELD,
                         MAX_FRAME_LEN, TYPE_HELLO, TYPE_OT_BATCH_QUERY, CtData, CtReq,
                         ErrorMsg, Hello, ManifestMsg, OtBatchQuery, OtBatchResp, _manifest_len,
                         _ot_batch_resp_len, decode_manifest, encode_frame, encode_manifest)
from wot.group import is_member, kdf_pad, setup_params
from wot.net import SocketChannel, buy
from wot.protocol import (PublishedBundle, item_context, publish,
                          load_bundle, load_secrets, run_session_receiver,
                          run_session_sender, save_bundle, serve_session)
from wot.symcrypto import NONCE_LEN, TAG_LEN, combine_shares, decrypt

from conftest import (SELLER_THREAD, count_calls, local_session, make_catalog, record,
                      seed_source, serving, share_draws)


@pytest.fixture
def channel_pair(monkeypatch):
    """Two connected frame channels: the buyer's end and the seller's end."""
    monkeypatch.setattr(net, "DEFAULT_TIMEOUT", 5)
    rx_sock, tx_sock = socket.socketpair()
    with rx_sock, tx_sock:
        yield SocketChannel(rx_sock), SocketChannel(tx_sock)


def against(seller, buyer):
    """Run ``buyer(rx_chan)`` against ``seller(tx_chan)`` over a socket pair."""
    rx_sock, tx_sock = socket.socketpair()
    rx_chan, tx_chan = SocketChannel(rx_sock), SocketChannel(tx_sock)
    for sock in (rx_sock, tx_sock):
        sock.settimeout(5)  # a hung peer fails the test in seconds

    def seller_side():
        try:
            seller(tx_chan)
        except (ProtocolError, OSError):
            pass  # the buyer hangs up
        finally:
            tx_chan.close()

    worker = threading.Thread(target=seller_side, name=SELLER_THREAD)
    worker.start()
    try:
        return buyer(rx_chan)
    finally:
        rx_chan.close()
        worker.join(timeout=5)
        assert not worker.is_alive()


def query_refusal(channel_pair, bundle, secrets, query, monkeypatch):
    """``serve_session``'s ERROR for a HELLO then ``query``, and the error it raised.

    The buyer's frames wait in the socket before the seller runs. No
    query is decoded: the seller must refuse this one from its header.
    """
    decoded = count_calls(monkeypatch, framing._decode_payload)
    rx_chan, tx_chan = channel_pair
    rx_chan.send(Hello())
    rx_chan.send(query)
    with pytest.raises(ProtocolError) as err:
        serve_session(tx_chan, bundle, secrets)
    assert [msg_type for msg_type, _ in decoded] == [TYPE_HELLO]
    assert isinstance(rx_chan.recv(), ManifestMsg)
    return rx_chan.recv(), str(err.value)


def buying(item_ids, log=None):
    """The buyer's side for ``against``, recording its messages in ``log`` when given."""
    def buyer(rx_chan):
        if log is not None:
            record(rx_chan, log)
        return run_session_receiver(rx_chan, item_ids)

    return buyer


class TestPublish:
    def test_p2_counters_match_advertised_costs(self, p23, rng, monkeypatch):
        cat = make_catalog([1, 2, 3, 7])
        encrypts = count_calls(monkeypatch, symcrypto.encrypt)
        key_gens = count_calls(monkeypatch, symcrypto.new_key)
        splits = count_calls(monkeypatch, symcrypto.split_key)
        publish(cat, "p2", p23)
        assert len(encrypts) == 4
        assert len(key_gens) == 4
        assert share_draws(splits) == 9  # sum of (weight - 1)

    def test_single_item_either_mode(self, p23, rng, monkeypatch):
        cat = make_catalog([1])
        encrypts = count_calls(monkeypatch, symcrypto.encrypt)
        splits = count_calls(monkeypatch, symcrypto.split_key)
        for mode in ("p1", "p2"):
            encrypts.clear()
            splits.clear()
            bundle, secrets = publish(cat, mode, p23)
            assert len(encrypts) == 1
            assert share_draws(splits) == 0
            assert len(secrets.flat_secrets) == 1
            assert bundle.manifest.weights == (1,)

    def test_p1_layer_encryptions(self, p23, rng, monkeypatch):
        cat = make_catalog([2, 1, 3])
        encrypts = count_calls(monkeypatch, symcrypto.encrypt)
        key_gens = count_calls(monkeypatch, symcrypto.new_key)
        bundle, secrets = publish(cat, "p1", p23)
        assert len(encrypts) == 6  # one per layer
        assert len(key_gens) == 6
        assert len(secrets.flat_secrets) == 6

    def test_manifest_digests_recompute(self, p23, rng):
        cat = make_catalog([2, 3])
        bundle, _ = publish(cat, "p2", p23)
        for entry, ct in zip(bundle.manifest.entries, bundle.ciphertexts):
            assert entry.digest_hex == ciphertext_digest(ct)
            assert entry.ct_len == len(ct)
        bundle.verify_digests()

    def test_p2_shares_recombine_to_item_keys(self, p23, rng):
        cat = make_catalog([3, 2])
        bundle, secrets = publish(cat, "p2", p23)
        flat_map = FlatIndexMap(bundle.manifest.weights)
        for i in range(cat.n):
            shares = [secrets.flat_secrets[f] for f in flat_map.item_range(i)]
            assert len(shares) == cat.items[i].weight
            key = combine_shares(shares)
            context = item_context("p2", cat.items[i].id)
            assert decrypt(key, bundle.ciphertexts[i], context) == cat.items[i].payload

    def test_unknown_mode(self, p23, rng):
        with pytest.raises(CatalogError):
            publish(make_catalog([1]), "p3", p23)

    def test_every_draw_reaches_the_one_source(self, p23, monkeypatch):
        """Reseeding ``symcrypto._RNG`` repeats every key, nonce, share and exponent."""
        cat = make_catalog([1, 2, 3])
        assert isinstance(symcrypto._RNG, random.SystemRandom)
        assert publish(cat, "p2", p23) != publish(cat, "p2", p23)
        bindings = count_calls(monkeypatch, batch_binding)  # the query block, both sides
        answers = count_calls(monkeypatch, ot_respond)  # the seller's h^-k and y^k per pick

        def run():
            seed_source(monkeypatch, random.Random(7))
            bindings.clear()
            answers.clear()
            p2, p1 = (publish(cat, mode, p23) for mode in ("p2", "p1"))
            local_session(*p2, ["item00", "item02"])
            return p2, p1, list(bindings), list(answers)

        first = run()
        assert len(first[2]) == 2 and len(first[3]) == 4
        assert run() == first


class TestSelectionPlan:
    def test_demo_vector(self, p23, rng, monkeypatch):
        cat = make_catalog([1, 2, 3, 7])
        bundle, secrets = publish(cat, "p2", p23)
        queries = count_calls(monkeypatch, ot_query)
        result, billed = local_session(bundle, secrets, ["item02", "item00"])
        assert result.total == billed == 4
        [(_, _, picks)] = queries
        assert tuple(picks) == (0, 3, 4, 5)  # offsets are [0, 1, 3, 6]
        assert [item_id for item_id, _ in result.items] == ["item00", "item02"]

    def test_choose_everything(self, p23, rng, monkeypatch):
        cat = make_catalog([1, 2, 3, 7])
        bundle, secrets = publish(cat, "p2", p23)
        queries = count_calls(monkeypatch, ot_query)
        result, billed = local_session(bundle, secrets,
                                       [item.id for item in cat.items])
        assert result.total == billed == 13
        [(_, _, picks)] = queries
        assert tuple(picks) == tuple(range(13))

    def test_by_item_id(self, p23, rng):
        bundle, secrets = publish(make_catalog([1, 2]), "p2", p23)
        result, _ = local_session(bundle, secrets, {"item01"})
        assert [item_id for item_id, _ in result.items] == ["item01"]
        assert result.total == 2

    def test_empty_choice_rejected(self, p23, rng):
        bundle, secrets = publish(make_catalog([1, 2]), "p2", p23)
        with pytest.raises(ProtocolError, match="empty"):
            against(lambda tx: serve_session(tx, bundle, secrets), buying(set()))

    def test_unknown_id_rejected(self, p23, rng):
        bundle, secrets = publish(make_catalog([1, 2]), "p2", p23)
        with pytest.raises(CatalogError, match="unknown item"):
            local_session(bundle, secrets, {"nope"})

    def test_lookups_and_plans_are_linear(self, p23):
        """10,000 id lookups, and a buy of all 10,000 items, each well under a second.

        The buy resolves every id and prices the purchase, then refuses its
        reply size before it sends anything past HELLO.
        """
        n = 10_000
        entries = tuple(ManifestEntry(id=f"i{i}", weight=1 + i % 3, ct_len=1,
                                      digest_hex="0" * 64) for i in range(n))
        manifest = Manifest(mode="p2", group_id="p23", key_bits=128, entries=entries)
        start = time.perf_counter()
        assert [manifest.index_of(f"i{i}") for i in range(n)] == list(range(n))
        assert time.perf_counter() - start < 1.0
        sent = []

        class ManifestOnly:
            send = sent.append

            def recv(self, admit=None):
                return ManifestMsg(manifest=manifest)

        t = manifest.total_weight
        reply_len = _ot_batch_resp_len(t, t, p23.element_len, 16)  # T = N picks
        start = time.perf_counter()
        with pytest.raises(ProtocolError, match=f"reply would be a {reply_len}-byte frame"):
            run_session_receiver(ManifestOnly(), [e.id for e in manifest.entries])
        assert time.perf_counter() - start < 1.0
        assert [type(msg).__name__ for msg in sent] == ["Hello"]


class TestSessions:
    @pytest.mark.parametrize("mode", ["p1", "p2"])
    def test_end_to_end(self, p23, rng, mode):
        cat = make_catalog([1, 2, 3, 7], rng)
        bundle, secrets = publish(cat, mode, p23)
        result, billed = local_session(bundle, secrets, ["item01", "item03"])
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
            bundle, secrets = publish(cat, mode, params)
            result, billed = local_session(bundle, secrets,
                                           [cat.items[i].id for i in chosen])
            assert dict(result.items) == {f"item{i:02d}": cat.items[i].payload for i in chosen}
            assert result.total == billed == total

    def test_unknown_group_refused_before_query(self, p23, rng):
        """A manifest can only name a preset; the buyer refuses any other group."""
        bundle, _ = publish(make_catalog([1, 2], rng), "p2", p23)
        foreign = replace(bundle.manifest, group_id="toy-g4")

        def foreign_seller(tx_chan):
            tx_chan.recv()  # HELLO
            tx_chan.send(ManifestMsg(manifest=foreign))
            tx_chan.recv()  # the buyer hangs up here

        log = []
        with pytest.raises(GroupError) as err:
            against(foreign_seller, buying(["item01"], log))
        assert str(err.value) == "unknown group preset 'toy-g4'"
        assert ("local", "OtBatchQuery") not in log

    def test_single_weight_one_item(self, p23, rng):
        cat = make_catalog([3, 1], rng)
        bundle, secrets = publish(cat, "p2", p23)
        result, billed = local_session(bundle, secrets, ["item01"])
        assert result.items == (("item01", cat.items[1].payload),)
        assert billed == 1

    @pytest.mark.parametrize("mode", ["p1", "p2"])
    def test_modes_return_identical_plaintexts(self, p23, rng, mode):
        cat = make_catalog([2, 3, 1], rng)
        bundle, secrets = publish(cat, mode, p23)
        result, _ = local_session(bundle, secrets, ["item00", "item02"])
        assert dict(result.items) == {"item00": cat.items[0].payload,
                                      "item02": cat.items[2].payload}

    def test_tampered_ciphertext_names_item(self, p23, rng):
        cat = make_catalog([1, 2], rng)
        bundle, secrets = publish(cat, "p2", p23)
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
        with pytest.raises(ItemAuthenticationError,
                           match="^authentication failure for item 'item01'$"):
            local_session(tampered, secrets, ["item01"])

    def test_mis_split_share_fails_authentication(self, p23):
        """Mutation check: corrupt one share and the buyer of that item must notice."""
        cat = make_catalog([1, 2], random.Random(8))
        bundle, secrets = publish(cat, "p2", p23)
        broken = list(secrets.flat_secrets)
        broken[1] = bytes(16)  # item 1 loses a share
        bad = replace(secrets, flat_secrets=tuple(broken))
        with pytest.raises(ItemAuthenticationError):
            local_session(bundle, bad, [cat.items[1].id])

    def test_digest_mismatch_aborts_before_transfer(self, p23, rng, monkeypatch):
        cat = make_catalog([1, 2, 3, 4], rng)
        bundle, secrets = publish(cat, "p2", p23)
        sales = count_calls(monkeypatch, run_session_sender)
        # One bad item, then two: the first bad one in manifest order is named.
        for bad in ({1}, {1, 3}):
            corrupted = replace(bundle, ciphertexts=tuple(
                bytes(ct) + b"x" if i in bad else ct for i, ct in enumerate(bundle.ciphertexts)))
            log = []
            with pytest.raises(CatalogError, match="digest mismatch for item 'item01'"):
                against(lambda tx: serve_session(tx, corrupted, secrets),
                        buying(["item00"], log))
            assert ("local", "OtBatchQuery") not in log
        assert sales == []

    def test_empty_batch_rejected_by_sender(self, p23, rng, channel_pair, monkeypatch):
        bundle, secrets = publish(make_catalog([1, 2], rng), "p2", p23)
        query = OtBatchQuery(count=0, elem_len=p23.element_len, queries=b"")
        reply, error = query_refusal(channel_pair, bundle, secrets, query, monkeypatch)
        assert reply == ErrorMsg(code=ERR_BAD_QUERY, text="empty purchase")
        assert error == "empty purchase rejected"

    def test_nonmember_query_aborts_without_responses(self, p23, rng, channel_pair,
                                                      monkeypatch):
        cat = make_catalog([1, 2], rng)
        _, secrets = publish(cat, "p2", p23)
        rx_chan, tx_chan = channel_pair
        responses = count_calls(monkeypatch, respond_powers)
        for bad in (5, 0):  # neither is in the order-11 subgroup
            query = OtBatchQuery(count=2, elem_len=p23.element_len, queries=bytes([2, bad]))
            with pytest.raises(ProtocolError, match="not a subgroup member"):
                run_session_sender(secrets, query, tx_chan, p23)
            reply = rx_chan.recv()
            assert (reply.code, reply.text) == (ERR_BAD_QUERY, "invalid query")
        assert responses == []

    def test_more_picks_than_secrets_refused(self, p23, rng, channel_pair, monkeypatch):
        """An honest buyer picks each of the N flat indices at most once."""
        bundle, secrets = publish(make_catalog([1, 2], rng), "p2", p23)
        n = len(secrets.flat_secrets)
        query = OtBatchQuery(count=n + 1, elem_len=p23.element_len, queries=b"\x02" * (n + 1))
        responses = count_calls(monkeypatch, respond_powers)
        reply, error = query_refusal(channel_pair, bundle, secrets, query, monkeypatch)
        assert reply == ErrorMsg(code=ERR_BAD_QUERY, text="too many picks")
        assert error == f"too many picks: {n + 1} for {n} secrets"
        assert responses == []

    def test_query_of_another_width_refused_undecoded(self, channel_pair, monkeypatch):
        """A ``modp-2048`` seller refuses 1-byte elements from the header, not after decoding them."""
        params = setup_params("modp-2048")
        bundle, secrets = publish(make_catalog([1, 2], random.Random(31)), "p2", params)
        query = OtBatchQuery(count=2, elem_len=1, queries=b"\x02\x03")
        reply, error = query_refusal(channel_pair, bundle, secrets, query, monkeypatch)
        assert reply == ErrorMsg(code=ERR_INCOMPATIBLE, text="element width mismatch")
        assert error == "element width mismatch"

    def test_nonmember_response_aborts_before_any_pad(self, p23, rng, monkeypatch):
        cat = make_catalog([2], rng)
        bundle, secrets = publish(cat, "p2", p23)
        n = len(secrets.flat_secrets)

        def forging_sender(tx_chan):
            tx_chan.recv()  # HELLO
            tx_chan.send(ManifestMsg(manifest=bundle.manifest))
            tx_chan.recv()  # CT_REQ
            tx_chan.send(CtData(ciphertext=bundle.ciphertexts[0]))
            msg = tx_chan.recv()
            count = msg.count
            tx_chan.send(OtBatchResp(count=count, n=n, elem_len=p23.element_len, mask_len=16,
                                     a=b"\x05", masks=bytes(count * n * 16)))  # not a member

        checks = count_calls(monkeypatch, is_member)
        pads = count_calls(monkeypatch, kdf_pad)
        with pytest.raises(ProtocolError, match="invalid response element"):
            against(forging_sender, buying(["item00"]))
        assert checks == [(p23, 5)]  # one check for the reply's one a, whatever T is
        assert pads == []

    def test_pool_threads_run_no_public_function(self, monkeypatch):
        """Pads, checks, responses and recoveries stay on the thread of the side that made them."""
        params = setup_params("modp-2048")
        rng = random.Random(2049)
        bundle, secrets = publish(make_catalog([1, 2, 3], rng), "p2", params)
        threads = {fn.__name__: count_calls(monkeypatch, fn, record=threading.current_thread)
                   for fn in (kdf_pad, is_member, ot_respond, ot_recover)}
        local_session(bundle, secrets, ["item00", "item02"])
        buyer = threading.current_thread()
        assert set(threads["ot_recover"]) == {buyer}
        (seller,) = set(threads["ot_respond"])
        assert seller is not buyer and not seller.name.startswith("wot-cpu")
        assert set(threads["kdf_pad"]) == set(threads["is_member"]) == {buyer, seller}

    def test_toy_group_exponentiations_stay_off_the_pool(self, p23, rng, monkeypatch):
        cat = make_catalog([1, 2, 3, 7], rng)
        bundle, secrets = publish(cat, "p2", p23)
        threads = count_calls(monkeypatch, group._powmod, record=threading.current_thread)
        local_session(bundle, secrets, ["item01", "item03"])
        assert threads and not any(t.name.startswith("wot-cpu") for t in threads)

    def test_concurrent_buys_share_one_cpu_sized_pool(self, tmp_path, monkeypatch):
        params = setup_params("modp-2048")
        rng = random.Random(2050)
        bundle, secrets = publish(make_catalog([1, 2, 3], rng), "p2", params)
        pools = []
        real_pool = concurrent.futures.ThreadPoolExecutor

        def recorded_pool(*args, **kwargs):
            pools.append(real_pool(*args, **kwargs))
            return pools[-1]

        monkeypatch.setattr(group, "_pool", None)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recorded_pool)
        errors = []

        def one(port, buyer):
            try:
                buy("127.0.0.1", port, ["item01", "item02"], tmp_path / buyer)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        try:
            with serving(bundle, secrets) as srv:
                buyers = [threading.Thread(target=one, args=(srv.port, f"buyer{i}"))
                          for i in range(4)]
                before = set(threading.enumerate())  # an earlier test's pool stays out
                for t in buyers:
                    t.start()
                for t in buyers:
                    t.join(timeout=60)
                workers = [t for t in set(threading.enumerate()) - before
                           if t.name.startswith("wot-cpu")]
        finally:
            for pool in pools:
                pool.shutdown()
        assert not errors and not any(t.is_alive() for t in buyers)
        assert len(pools) == (group._cpus() > 1)  # one pool, made by the first batch
        assert len(workers) <= group._cpus()

    def test_each_peer_element_checked_once(self, p23, rng, monkeypatch):
        """T picks: T query checks by the seller, one check of the batch's ``a`` by the buyer."""
        cat = make_catalog([1, 2, 3, 7], rng)
        bundle, secrets = publish(cat, "p2", p23)
        checks = count_calls(monkeypatch, is_member)
        _, billed = local_session(bundle, secrets, ["item01", "item03"])
        assert billed == 9
        assert len(checks) == billed + 1

    @pytest.mark.parametrize("forged_at", [0, 2])
    def test_buyer_checks_every_distinct_response_element(self, p23, rng, monkeypatch,
                                                          forged_at):
        """The reply's one ``a`` is the only element checked, and a per-pick ``k`` is refused.

        A seller that answers one pick under a fresh ``k`` can still send
        only the batch's ``a``. The buyer checks that ``a`` once, and the
        odd pick's share does not unmask, wherever that pick sits.
        """
        cat = make_catalog([3], rng)
        bundle, secrets = publish(cat, "p2", p23)
        sent = []

        def per_pick_sender(tx_chan):
            tx_chan.recv()  # HELLO
            tx_chan.send(ManifestMsg(manifest=bundle.manifest))
            tx_chan.recv()  # CT_REQ
            tx_chan.send(CtData(ciphertext=bundle.ciphertexts[0]))
            msg = tx_chan.recv()
            ys = tuple(msg.queries)  # p23's elements are one byte each
            sid = batch_binding(msg.queries)
            a, step, elements = respond_powers(p23, ys)
            powers = [(step, element) for element in elements]
            _, fresh_step, (fresh,) = respond_powers(p23, [ys[forged_at]])
            powers[forged_at] = (fresh_step, fresh)  # a fresh k for this pick alone
            masks = b"".join(mask for t, pick in enumerate(powers)
                             for mask in ot_respond(p23, secrets.flat_secrets, *pick,
                                                    pick_binding(sid, t)).masks)
            sent.append(a)
            tx_chan.send(OtBatchResp(count=len(powers), n=len(secrets.flat_secrets),
                                     elem_len=p23.element_len, mask_len=16, a=bytes([a]),
                                     masks=masks))

        checks = count_calls(monkeypatch, is_member)
        with pytest.raises(ItemAuthenticationError):
            against(per_pick_sender, buying(["item00"]))
        assert checks == [(p23, sent[0])]  # one check, of the batch's a

    @pytest.mark.parametrize("forge, message", [
        (lambda resp: replace(resp, count=resp.count - 1,
                              masks=resp.masks[resp.n * resp.mask_len:]),
         "response count does not match pick count"),  # the bill: one pick dropped
        (lambda resp: replace(resp, count=resp.count + 1,
                              masks=resp.masks + resp.masks[:resp.n * resp.mask_len]),
         "response count does not match pick count"),  # the bill: one pick added
        (lambda resp: replace(resp, n=resp.n - 1,
                              masks=resp.masks[:resp.count * (resp.n - 1) * resp.mask_len]),
         "response does not cover the flat index space"),
        (lambda resp: replace(resp, elem_len=resp.elem_len + 1, a=b"\x00" + resp.a),
         "response element width mismatch"),
        (lambda resp: replace(resp, mask_len=8, masks=resp.masks[:resp.count * resp.n * 8]),
         "response mask width mismatch"),  # 64-bit masks for 128-bit keys
    ], ids=["count", "extra-pick", "width", "elem-width", "mask-width"])
    def test_reply_of_another_shape_refused(self, p23, rng, monkeypatch, forge, message):
        """A reply that does not answer every pick over all N secrets, at the widths the
        group and the manifest fix, is refused before recovery.

        The reply's count is the bill, so a dropped or an added pick is a
        seller that bills another total than the buyer's.
        """
        bundle, secrets = publish(make_catalog([2, 1], rng), "p2", p23)

        def forging_sender(tx_chan):
            tx_chan.recv()  # HELLO
            tx_chan.send(ManifestMsg(manifest=bundle.manifest))
            tx_chan.recv()  # CT_REQ
            for ct in bundle.ciphertexts:
                tx_chan.send(CtData(ciphertext=ct))
            msg = tx_chan.recv()
            a, masks = ot_reply(p23, secrets.flat_secrets, msg.queries, tuple(msg.queries))
            tx_chan.send(forge(OtBatchResp(count=msg.count, n=len(secrets.flat_secrets),
                                           elem_len=p23.element_len, mask_len=16, a=bytes([a]),
                                           masks=masks)))
            tx_chan.recv()  # the buyer hangs up here

        recoveries = count_calls(monkeypatch, ot_recover)
        with pytest.raises(ProtocolError, match=f"^{message}$"):
            against(forging_sender, buying(["item00"]))
        assert recoveries == []

    def test_ciphertext_for_another_item_refused(self, p23, rng):
        """The k-th CT_DATA is entry k's; one out of place fails that entry's digest check."""
        bundle, _ = publish(make_catalog([1, 2], rng), "p2", p23)

        def swapping_sender(tx_chan):
            tx_chan.recv()  # HELLO
            tx_chan.send(ManifestMsg(manifest=bundle.manifest))
            assert tx_chan.recv() == CtReq()
            for ct in reversed(bundle.ciphertexts):  # item 1's first
                tx_chan.send(CtData(ciphertext=ct))
            tx_chan.recv()  # the buyer hangs up here

        log = []
        with pytest.raises(CatalogError, match="^ciphertext digest mismatch for item 'item00'$"):
            against(swapping_sender, buying(["item00"], log))
        assert ("local", "OtBatchQuery") not in log

    def test_oversize_purchase_refused_before_fetching(self, p23, rng, monkeypatch):
        """The buyer sizes the reply from (N, T) before any ciphertext or query."""
        entry = ManifestEntry(id="big", weight=200_000, ct_len=1, digest_hex="0" * 64)
        manifest = Manifest(mode="p2", group_id="p23", key_bits=128, entries=(entry,))

        def lying_sender(tx_chan):
            tx_chan.recv()  # HELLO
            tx_chan.send(ManifestMsg(manifest=manifest))
            tx_chan.recv()  # the buyer hangs up here

        queries = count_calls(monkeypatch, ot_query)
        log = []
        with pytest.raises(ProtocolError, match="purchase too large"):
            against(lying_sender, buying(["big"], log))
        assert ("local", "CtReq") not in log
        assert queries == []

    @pytest.mark.parametrize("mode", ["p1", "p2"])
    def test_buyer_hangs_up_before_it_opens_anything(self, p23, rng, monkeypatch, mode):
        """The reply ends the session: the buyer closes before it recovers a key or decrypts."""
        bundle, secrets = publish(make_catalog([1, 2], rng), mode, p23)
        order = []

        def buyer(rx_chan):
            close = rx_chan.close
            rx_chan.close = lambda: order.append("close") or close()
            return run_session_receiver(rx_chan, ["item00", "item01"])

        count_calls(monkeypatch, ot_recover, record=lambda: order.append("ot_recover"))
        count_calls(monkeypatch, decrypt, record=lambda: order.append("decrypt"))
        result = against(lambda tx: serve_session(tx, bundle, secrets), buyer)
        assert result.total == 3
        opens = 2 if mode == "p2" else 3  # one per item in p2, one per unit of weight in p1
        assert order == ["close", "ot_recover"] + ["decrypt"] * opens + ["close"]

    def test_sender_bills_exactly_the_pick_count(self, p23, rng):
        cat = make_catalog([1, 2, 3, 7], rng)
        bundle, secrets = publish(cat, "p2", p23)
        for choice in ({0, 2}, {1}, {0, 1, 2, 3}):
            result, billed = local_session(bundle, secrets,
                                           [cat.items[i].id for i in choice])
            assert billed == result.total == sum(cat.items[i].weight for i in choice)

    def test_local_session_runs_the_wire_grammar(self, p23, rng):
        """In-process sessions deliver every ciphertext and use the TCP grammar.

        One CT_REQ brings every ciphertext; the buyer sends nothing more until
        it has read them all.
        """
        cat = make_catalog([1, 2, 3], rng)
        bundle, secrets = publish(cat, "p2", p23)
        log = []
        local_session(bundle, secrets, ["item01"], log)
        sent, got = "local", "peer"
        assert log == [(sent, "Hello"), (got, "ManifestMsg"), (sent, "CtReq"),
                       (got, "CtData"), (got, "CtData"), (got, "CtData"),
                       (sent, "OtBatchQuery"), (got, "OtBatchResp")]


class TestPipelinedDelivery:
    """The buyer checks each digest on the CPU pool while the next ciphertext arrives."""

    @staticmethod
    def buyer_awaiting_checks(monkeypatch, item_ids):
        """The buyer's side, checking as it returns or raises that every digest check has ended.

        There is one check per ciphertext received, and each ran on the pool.
        """
        checks, matches = [], protocol._matches_entry  # [thread, ended] per check

        def checking(entry, ct):
            checks.append(check := [threading.current_thread(), False])
            try:
                return matches(entry, ct)
            finally:
                check[1] = True

        monkeypatch.setattr(protocol, "_matches_entry", checking)

        def buyer(rx_chan):
            log, started = [], len(checks)
            record(rx_chan, log)
            try:
                return run_session_receiver(rx_chan, item_ids)
            finally:
                assert len(checks) - started == log.count(("peer", "CtData")) > 0
                assert all(ended and thread.name.startswith("wot-cpu")
                           for thread, ended in checks[started:])

        return buyer

    @staticmethod
    def open_delivery(tx_chan, bundle, first=None):
        """Send the manifest, read the CT_REQ, send ``first`` (by default the true item00)."""
        tx_chan.recv()  # HELLO
        tx_chan.send(ManifestMsg(manifest=bundle.manifest))
        assert tx_chan.recv() == CtReq()
        tx_chan.send(CtData(ciphertext=first or bundle.ciphertexts[0]))

    def test_every_fetched_digest_is_checked_on_the_pool(self, p23, rng, monkeypatch):
        bundle, secrets = publish(make_catalog([1, 2, 3], rng), "p2", p23)
        threads = count_calls(monkeypatch, ciphertext_digest, record=threading.current_thread)
        local_session(bundle, secrets, ["item01"])
        assert len(threads) == 3 and all(t.name.startswith("wot-cpu") for t in threads)

    def test_checks_end_when_a_digest_fails(self, p23, rng, monkeypatch):
        bundle, secrets = publish(make_catalog([1, 2, 3], rng), "p2", p23)
        corrupted = replace(bundle, ciphertexts=(bytes(bundle.ciphertexts[0]) + b"x",
                                                 *bundle.ciphertexts[1:]))
        with pytest.raises(CatalogError, match="digest mismatch for item 'item00'"):
            against(lambda tx: serve_session(tx, corrupted, secrets),
                         self.buyer_awaiting_checks(monkeypatch, ["item02"]))

    def test_checks_end_when_the_seller_closes_mid_frame(self, p23, rng, monkeypatch):
        """A bad item received before the cut is reported over the cut, as it was first."""
        bundle, _ = publish(make_catalog([1, 2, 3], rng), "p2", p23)
        buyer = self.buyer_awaiting_checks(monkeypatch, ["item00"])
        for first, error, match in (
                (None, ProtocolError, "connection closed mid-frame"),
                (bytes(bundle.ciphertexts[0]) + b"x", CatalogError,
                 "digest mismatch for item 'item00'")):

            def close_mid_frame(tx_chan, first=first):
                self.open_delivery(tx_chan, bundle, first)
                frame = encode_frame(CtData(ciphertext=bundle.ciphertexts[1]))
                tx_chan._sock.sendall(frame[:len(frame) // 2])

            with pytest.raises(error, match=match):
                against(close_mid_frame, buyer)


class TestBundleIO:
    def test_round_trip_with_secrets(self, p23, rng, tmp_path):
        cat = make_catalog([1, 2, 3], rng)
        bundle, secrets = publish(cat, "p2", p23)
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
        bundle, secrets = publish(cat, "p1", p23)
        save_bundle(bundle, tmp_path / "b", secrets=secrets)
        assert load_secrets(tmp_path / "b") == secrets

    def test_receiver_view_has_no_secrets(self, p23, rng, tmp_path):
        cat = make_catalog([1, 1], rng)
        bundle, _ = publish(cat, "p2", p23)
        save_bundle(bundle, tmp_path / "pub")
        assert load_bundle(tmp_path / "pub") == bundle
        with pytest.raises(CatalogError, match="seller's bundle"):
            load_secrets(tmp_path / "pub")

    @pytest.mark.parametrize("corrupt, message", [
        (lambda data: data[:1] + b"\x00" + data[2:], "corrupt secrets file: unknown mode code 0"),
        (lambda data: data[:1] + b"\x03" + data[2:], "corrupt secrets file: unknown mode code 3"),
        (lambda data: data[:5], "corrupt secrets file: truncated header"),
        (lambda data: data[:8 + 3 * 16 + 2], "corrupt secrets file: truncated"),
        (lambda data: b"\x01\x01\x00\x00" + (1 << 20).to_bytes(4, "big") + bytes(4),
         "corrupt secrets file: zero-length shares"),
        (lambda data: b"\x02" + data[1:], "unsupported secrets file version 2"),
    ], ids=["mode-0", "mode-3", "short-header", "truncated-key-count", "zero-length-shares",
            "version-2"])
    def test_corrupt_secrets_file_refused(self, p23, rng, tmp_path, corrupt, message):
        bundle, secrets = publish(make_catalog([1, 2], rng), "p2", p23)
        save_bundle(bundle, tmp_path / "b", secrets=secrets)
        path = tmp_path / "b" / "sender_secrets.bin"
        assert len(secrets.flat_secrets) == 3 and len(secrets.flat_secrets[0]) == 16
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(CatalogError) as err:
            load_secrets(tmp_path / "b")
        assert str(err.value) == message

    def test_stored_item_keys_are_checked_and_ignored(self, p23, rng, tmp_path):
        """Secrets files that still carry p2 item keys load to the same shares."""
        bundle, secrets = publish(make_catalog([1, 2], rng), "p2", p23)
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

    @pytest.mark.skipif(not os.path.exists("/proc/self/io"), reason="needs /proc/self/io")
    def test_extended_secrets_file_refused_unread(self, p23, rng, tmp_path):
        """A secrets file longer than its header says is refused from its header and key count.

        The header says 3 shares of 16 bytes; the file is extended to 64 MiB
        (sparse, so nothing is written). ``rchar`` in ``/proc/self/io`` counts
        every byte this process reads, its own read of that file included.
        """
        bundle, secrets = publish(make_catalog([1, 2], rng), "p2", p23)
        save_bundle(bundle, tmp_path / "b", secrets=secrets)
        os.truncate(tmp_path / "b" / "sender_secrets.bin", 64 << 20)

        def bytes_read():
            with open("/proc/self/io") as fh:
                return int(next(line for line in fh if line.startswith("rchar:")).split()[1])

        before = bytes_read()
        with pytest.raises(CatalogError) as err:
            load_secrets(tmp_path / "b")
        read = bytes_read() - before
        assert str(err.value) == "corrupt secrets file"
        assert read < 1024  # 12 bytes of the file, and one read of /proc/self/io

    def test_missing_ct_file_refused(self, p23, rng, tmp_path):
        bundle, _ = publish(make_catalog([1, 2], rng), "p2", p23)
        save_bundle(bundle, tmp_path / "pub")
        (tmp_path / "pub" / "item01.ct").unlink()
        with pytest.raises(CatalogError) as err:
            load_bundle(tmp_path / "pub")
        assert str(err.value) == f"missing ciphertext file {tmp_path / 'pub' / 'item01.ct'}"

    @pytest.mark.parametrize("key_bits, n, weight, message", [
        (64, 1, 3, "invalid manifest: unsupported key length 64"),
        (128, 0, 3, "invalid manifest: manifest has no entries"),
        (128, 1, 0, "invalid manifest entry: entry 'a': nonpositive weight"),
    ], ids=["key-bits-64", "no-entries", "weight-0"])
    def test_hostile_manifest_file_refused(self, tmp_path, key_bits, n, weight, message):
        """A manifest.bin the publisher could not have written is one ``FrameError``."""
        ct = bytes(40)
        record = ("0000002f" "0001" + b"a".hex() + f"{weight:08x}" "0000000000000028"
                  + ciphertext_digest(ct))
        (tmp_path / "manifest.bin").write_bytes(bytes.fromhex(
            "01" "02" f"{key_bits:04x}" "0003" + b"p23".hex() + f"{n:08x}" + record * n))
        (tmp_path / "a.ct").write_bytes(ct)
        with pytest.raises(FrameError) as err:
            load_bundle(tmp_path)
        assert str(err.value) == message

    def test_corrupted_ct_file_detected(self, p23, rng, tmp_path):
        cat = make_catalog([1, 1], rng)
        bundle, _ = publish(cat, "p2", p23)
        save_bundle(bundle, tmp_path / "pub")
        ct_file = tmp_path / "pub" / "item00.ct"
        ct = ct_file.read_bytes()
        ct_file.write_bytes(ct[:-1] + bytes([ct[-1] ^ 1]))
        with pytest.raises(CatalogError, match="digest mismatch"):
            load_bundle(tmp_path / "pub")
        ct_file.write_bytes(ct + b"!")  # refused by its size, before it is read
        with pytest.raises(CatalogError) as err:
            load_bundle(tmp_path / "pub")
        assert str(err.value) == f"ciphertext file {ct_file} is not {len(ct)} bytes"

    def test_session_from_disk(self, p23, rng, tmp_path):
        cat = make_catalog([1, 2], rng)
        bundle, secrets = publish(cat, "p2", p23)
        save_bundle(bundle, tmp_path / "b", secrets=secrets)
        result, _ = local_session(load_bundle(tmp_path / "b"),
                                  load_secrets(tmp_path / "b"), ["item01"])
        assert dict(result.items) == {"item01": cat.items[1].payload}

    def test_republish_replaces_every_file(self, p23, rng, tmp_path):
        """Old files are unlinked and new ones created, never truncated and rewritten."""
        cat = make_catalog([1, 2, 3], rng)
        directory = tmp_path / "b"
        old, old_secrets = publish(cat, "p2", p23)
        save_bundle(old, directory, secrets=old_secrets)
        linked = tmp_path / "old-item00.ct"
        os.link(directory / "item00.ct", linked)
        (directory / "item01.ct").chmod(0o444)
        new, secrets = publish(cat, "p2", p23)
        save_bundle(new, directory, secrets=secrets)
        assert linked.read_bytes() == old.ciphertexts[0] != new.ciphertexts[0]
        replaced = directory / "item01.ct"
        assert replaced.read_bytes() == new.ciphertexts[1]
        assert replaced.stat().st_mode & stat.S_IWUSR
        assert sorted(os.listdir(directory)) == [
            "item00.ct", "item01.ct", "item02.ct", "manifest.bin", "sender_secrets.bin"]
        loaded = load_bundle(directory, verify=True)
        assert loaded == new
        result, billed = local_session(loaded, load_secrets(directory), ["item01"])
        assert dict(result.items) == {"item01": cat.items[1].payload} and billed == 2

    def test_republish_removes_ciphertexts_of_dropped_items(self, p23, rng, tmp_path):
        """A ``.ct`` file the new manifest does not list goes; nothing else is touched."""
        directory = tmp_path / "b"
        cat = make_catalog([1, 2], rng, ids=["paper-a", "paper-b"])
        bundle, secrets = publish(cat, "p2", p23)
        save_bundle(bundle, directory, secrets=secrets)
        kept = {"notes.txt": b"n", "paper-b.ct.bak": b"b", "paper-b.cts": b"c"}
        for name, data in kept.items():
            (directory / name).write_bytes(data)
        (directory / "old.ct").mkdir()
        (directory / "stale.ct").write_bytes(b"s")
        smaller = Catalog(items=cat.items[:1])
        bundle, secrets = publish(smaller, "p2", p23)
        save_bundle(bundle, directory, secrets=secrets)
        assert sorted(os.listdir(directory)) == sorted(
            ["manifest.bin", "old.ct", "paper-a.ct", "sender_secrets.bin", *kept])
        assert all((directory / name).read_bytes() == data for name, data in kept.items())
        assert load_bundle(directory) == bundle

    def test_secrets_file_is_owner_only(self, p23, rng, tmp_path):
        bundle, secrets = publish(make_catalog([1, 2], rng), "p2", p23)
        path = tmp_path / "b" / "sender_secrets.bin"
        path.parent.mkdir()
        path.write_bytes(b"old")
        path.chmod(0o644)
        save_bundle(bundle, tmp_path / "b", secrets=secrets)
        assert stat.S_IMODE(path.stat().st_mode) & 0o077 == 0
        assert load_secrets(tmp_path / "b") == secrets

    def test_dotted_ids_round_trip(self, p23, rng, tmp_path):
        cat = make_catalog([1, 2], rng, ids=["a.b", "..."])
        bundle, _ = publish(cat, "p2", p23)
        save_bundle(bundle, tmp_path / "pub")
        assert (tmp_path / "pub" / "a.b.ct").is_file()
        assert (tmp_path / "pub" / "....ct").is_file()
        assert load_bundle(tmp_path / "pub") == bundle

    def test_manifest_naming_parent_dir_refused(self, p23, rng, tmp_path):
        cat = make_catalog([1], rng, ids=["ok"])
        bundle, _ = publish(cat, "p2", p23)
        save_bundle(bundle, tmp_path / "pub")
        manifest = tmp_path / "pub" / "manifest.bin"
        manifest.write_bytes(manifest.read_bytes().replace(b"\x00\x02ok", b"\x00\x02.."))
        with pytest.raises(WotError, match="invalid manifest entry"):
            load_bundle(tmp_path / "pub")


class TestFrameCap:
    """An item whose CT_DATA frame would pass the frame cap is refused up front."""

    LARGEST = MAX_FRAME_LEN - 1  # after the type byte

    @staticmethod
    def manifest(p23, ct_len):
        entry = ManifestEntry(id="big", weight=1, ct_len=ct_len, digest_hex="0" * 64)
        return Manifest(mode="p2", group_id=p23.param_id, key_bits=128, entries=(entry,))

    def test_boundary(self, p23, tmp_path):
        """A bundle may list a ciphertext that fills a CT_DATA frame, and not one byte more."""
        (tmp_path / "big.ct").write_bytes(bytes(self.LARGEST))
        (tmp_path / "manifest.bin").write_bytes(encode_manifest(self.manifest(p23, self.LARGEST)))
        bundle = load_bundle(tmp_path, verify=False)
        frame = encode_frame(CtData(ciphertext=bundle.ciphertexts[0]))
        assert len(frame) == LENGTH_FIELD + MAX_FRAME_LEN
        del frame, bundle
        (tmp_path / "manifest.bin").write_bytes(
            encode_manifest(self.manifest(p23, self.LARGEST + 1)))
        with pytest.raises(CatalogError, match="item 'big'"):
            load_bundle(tmp_path, verify=False)
        with pytest.raises(FrameError, match="frame too large"):
            encode_frame(CtData(ciphertext=bytes(self.LARGEST + 1)))

    @pytest.mark.parametrize("mode, layers", [("p2", 1), ("p1", 3)])
    def test_publish_refuses_before_encrypting(self, p23, rng, monkeypatch, mode, layers):
        """An item one byte over the cap is refused before any key is drawn."""
        fits = self.LARGEST - layers * (NONCE_LEN + TAG_LEN)
        calls = [count_calls(monkeypatch, fn) for fn in
                 (symcrypto.new_key, symcrypto.encrypt, symcrypto.nested_encrypt)]
        for payload_size in (fits + 1, fits):
            cat = Catalog(items=(Item(id="small", weight=1, payload=b"x"),
                                 Item(id="big", weight=3, payload=bytes(payload_size))))
            if payload_size > fits:
                with pytest.raises(CatalogError, match=f"item 'big': ciphertext of "
                                                       f"{self.LARGEST + 1} bytes"):
                    publish(cat, mode, p23)
                assert calls == [[], [], []]
            else:  # the bound is exact: one byte less publishes
                bundle, _ = publish(cat, mode, p23)
                assert len(bundle.ciphertexts[1]) == self.LARGEST

    def test_oversize_reply_refused_before_any_work(self, p23, rng, channel_pair,
                                                    monkeypatch):
        """A batch whose reply frame would pass the cap is refused from (N, T) alone."""
        bundle, secrets = publish(make_catalog([1, 2, 3, 7], rng), "p2", p23)
        per_pick = sum(map(len, secrets.flat_secrets))  # N masks; the one a is in the header
        picks = (MAX_FRAME_LEN - 13 - p23.element_len) // per_pick + 1
        assert 1 + 12 + p23.element_len + picks * per_pick > MAX_FRAME_LEN
        # Non-member queries: refusing them would take the membership pass.
        query = OtBatchQuery(count=picks, elem_len=p23.element_len, queries=b"\x05" * picks)
        responses = count_calls(monkeypatch, respond_powers)
        reply, error = query_refusal(channel_pair, bundle, secrets, query, monkeypatch)
        assert reply == ErrorMsg(code=ERR_BAD_QUERY, text="purchase too large")
        assert error.startswith("purchase too large: its reply would be")
        assert responses == []

    def test_publish_load_and_serve_refuse(self, p23, rng, tmp_path, capsys):
        payload_size = self.LARGEST + 1 - NONCE_LEN - TAG_LEN
        cat = make_catalog([1], rng, payload_size=payload_size, ids=["big"])
        with pytest.raises(CatalogError, match="item 'big'"):
            publish(cat, "p2", p23)

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

    def test_hand_made_bundle_refused_unread(self, p23, tmp_path, monkeypatch, capsys):
        """``load_bundle`` refuses a ciphertext one byte over from its manifest entry.

        No ``.ct`` file is opened, though this one is there and of the listed
        size, so ``wot serve`` exits with one line and reads nothing.
        """
        over = self.LARGEST + 1
        (tmp_path / "manifest.bin").write_bytes(encode_manifest(self.manifest(p23, over)))
        (tmp_path / "big.ct").write_bytes(bytes(over))
        loads = count_calls(monkeypatch, protocol._load_ct)
        with pytest.raises(CatalogError) as err:
            load_bundle(tmp_path)
        assert str(err.value) == (f"item 'big': ciphertext of {over} bytes would need a "
                                  f"{over + 1}-byte frame, over the {MAX_FRAME_LEN}-byte frame cap")
        assert main(["serve", "--bundle", str(tmp_path), "--listen", "127.0.0.1:0"]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines == [f"error: {err.value}"]
        assert loads == []


def test_exhaustive_small_catalog_correctness(p23):
    """Every nonempty choice set of a 4-item catalog, both modes."""
    rng = random.Random(4242)
    cat = make_catalog([1, 2, 1, 3], rng)
    for mode in ("p1", "p2"):
        bundle, secrets = publish(cat, mode, p23)
        for mask in range(1, 1 << 4):
            choice = {i for i in range(4) if mask >> i & 1}
            result, billed = local_session(bundle, secrets,
                                           [cat.items[i].id for i in choice])
            assert dict(result.items) == {cat.items[i].id: cat.items[i].payload
                                          for i in choice}
            assert billed == sum(cat.items[i].weight for i in choice)


class TestManifestCap:
    """A manifest must travel in one MANIFEST frame: with 64-character ids, 147,168 items fit."""

    FITS = 147_168

    @pytest.fixture(scope="class")
    def entries(self):
        """``FITS + 1`` entries with 64-character ids; the frame's size follows from the ids."""
        return tuple(ManifestEntry(id=f"{i:064d}", weight=1, ct_len=0, digest_hex="0" * 64)
                     for i in range(self.FITS + 1))

    @staticmethod
    def manifest(entries):
        return Manifest(mode="p2", group_id="p23", key_bits=128, entries=entries)

    def test_boundary(self, entries):
        fits, over = self.manifest(entries[:-1]), self.manifest(entries)
        assert _manifest_len("p23", (e.id for e in fits.entries)) == MAX_FRAME_LEN - 50
        assert _manifest_len("p23", (e.id for e in over.entries)) == MAX_FRAME_LEN + 64
        frame = encode_frame(ManifestMsg(manifest=fits))
        assert len(frame) == LENGTH_FIELD + MAX_FRAME_LEN - 50
        del frame
        with pytest.raises(FrameError, match="frame too large: 16777280 bytes"):
            encode_frame(ManifestMsg(manifest=over))

    def test_publish_refuses_before_drawing_a_key(self, entries, p23, monkeypatch):
        cat = Catalog(items=tuple(Item(id=e.id, weight=1, payload=b"") for e in entries))
        keys = count_calls(monkeypatch, symcrypto.new_key)
        with pytest.raises(CatalogError, match="^manifest too large: it would be a 16777280-byte "
                                               "frame, over the 16777216-byte frame cap$"):
            publish(cat, "p2", p23)
        assert keys == []

    def test_hand_made_bundle_refused_unread(self, entries, tmp_path, monkeypatch, capsys):
        """``load_bundle`` refuses it from the file's size, so ``wot serve`` exits with one line."""
        (tmp_path / "manifest.bin").write_bytes(encode_manifest(self.manifest(entries)))
        decodes = count_calls(monkeypatch, decode_manifest)
        with pytest.raises(CatalogError, match="^manifest too large"):
            load_bundle(tmp_path)
        assert main(["serve", "--bundle", str(tmp_path), "--listen", "127.0.0.1:0"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: manifest too large")
        assert decodes == []


class TestBuyerDecodesNothingItRefuses:
    """A hostile seller cannot make the buyer decode a frame it will refuse."""

    def test_query_in_place_of_the_manifest_refused_from_its_type_byte(self, channel_pair,
                                                                      monkeypatch):
        """A 16 MiB query of 1-byte elements: 16 million of them to decode, were it decoded."""
        count = MAX_FRAME_LEN - 7  # type byte, count and element width, then the elements
        frame = struct.pack("!IBIH", MAX_FRAME_LEN, TYPE_OT_BATCH_QUERY, count, 1) + bytes(count)
        rx_chan, tx_chan = channel_pair
        decoded = count_calls(monkeypatch, framing._decode_payload)
        seller = threading.Thread(target=tx_chan._sock.sendall, args=(frame,))
        seller.start()
        try:
            with pytest.raises(ProtocolError, match="^expected message type 0x02, got 0x05$"):
                run_session_receiver(rx_chan, ["item00"])
        finally:
            seller.join(timeout=10)
        assert not seller.is_alive()
        assert decoded == []

    @pytest.mark.parametrize("count, n, message", [
        (1, MAX_FRAME_LEN - 13 - 256, "response does not cover the flat index space"),
        (MAX_FRAME_LEN - 13 - 256, 1, "response count does not match pick count"),
    ], ids=["one-pick-of-16M-masks", "16M-picks"])
    def test_cap_size_reply_refused_from_its_fields(self, monkeypatch, count, n, message):
        """A 16 MiB ``modp-2048`` reply of 1-byte masks: 16 million of them, were each decoded.

        The buyer bought one pick of one secret. Decoding the reply reads its
        header and its ``a``, and the masks not at all: the field checks
        refuse it, with no recovery and so no purchase.
        """
        params = setup_params("modp-2048")
        bundle, _ = publish(make_catalog([1], random.Random("cap-reply")), "p2", params)
        frame = (struct.pack("!IBIIHH", MAX_FRAME_LEN, framing.TYPE_OT_BATCH_RESP, count, n,
                             params.element_len, 1)
                 + params.encode_element(params.g) + bytes(count * n))
        assert len(frame) == LENGTH_FIELD + MAX_FRAME_LEN

        def hostile_sender(tx_chan):
            tx_chan.recv()  # HELLO
            tx_chan.send(ManifestMsg(manifest=bundle.manifest))
            tx_chan.recv()  # CT_REQ
            tx_chan.send(CtData(ciphertext=bundle.ciphertexts[0]))
            tx_chan.recv()  # the query
            tx_chan._sock.sendall(frame)
            tx_chan.recv()  # the buyer hangs up here

        takes, take = [], framing._Reader.take

        def bounded_take(reader, size):
            takes.append(size)
            if len(takes) > 64:  # every frame of this session, both sides, needs fewer
                raise AssertionError("the decoder's work grows with the reply")
            return take(reader, size)

        monkeypatch.setattr(framing._Reader, "take", bounded_take)
        recoveries = count_calls(monkeypatch, ot_recover)
        with pytest.raises(ProtocolError, match=f"^{message}$"):
            against(hostile_sender, buying(["item00"]))
        assert recoveries == []


class TestSellerDecodesNothingItRefuses:
    """A hostile buyer cannot make the seller decode a frame it will refuse."""

    @pytest.mark.parametrize("before", [[], [Hello()], [Hello(), CtReq()]],
                             ids=["first", "after-hello", "after-delivery"])
    def test_manifest_frame_refused_from_its_type_byte(self, p23, rng, channel_pair,
                                                       monkeypatch, before):
        bundle, secrets = publish(make_catalog([1, 2], rng), "p2", p23)
        rx_chan, tx_chan = channel_pair
        for msg in before:
            rx_chan.send(msg)
        rx_chan.send(ManifestMsg(manifest=bundle.manifest))
        decodes = count_calls(monkeypatch, decode_manifest)
        with pytest.raises(ProtocolError, match="^grammar$"):
            serve_session(tx_chan, bundle, secrets)
        assert decodes == []
        while not isinstance(reply := rx_chan.recv(), ErrorMsg):
            pass  # the manifest and the ciphertexts the seller sent before
        assert reply == ErrorMsg(code=ERR_GRAMMAR, text="grammar")

