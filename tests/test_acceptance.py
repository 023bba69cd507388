"""Acceptance suite: one test per release criterion.

Each test prints a PASS/FAIL line (visible with ``pytest -s`` or in the
failure report). Statistical checks run on the tiny order-11 group with
fixed seeds and the thresholds stated inline.
"""

import logging
import random
import threading
import time
from collections import Counter

import pytest

from wot import symcrypto
from wot.auditor import VERDICT_OK, VERDICT_UNSAFE, audit_prices
from wot.base_ot import ot_query, ot_recover, ot_reply
from wot.catalog import Catalog, FlatIndexMap, Item
from wot.errors import HarnessError, WotError
from wot.framing import OtBatchResp
from wot.group import rand_exponent, setup_params
from wot.harness import privacy_experiment
from wot.protocol import item_context, publish
from wot.symcrypto import combine_shares, decrypt, nested_decrypt
from wot.weights import approx_reduce, gcd_reduce

from conftest import (billed_lines, count_calls, local_session, make_catalog, seed_source,
                      serving, share_draws, write_catalog_dir)


def _report(number, ok, text):
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {number}: {text}"


def random_catalog(rng, n=6, max_weight=6, max_payload=1024):
    items = tuple(
        Item(id=f"item{i:02d}", weight=rng.randint(1, max_weight),
             payload=rng.randbytes(rng.randint(1, max_payload)))
        for i in range(n)
    )
    return Catalog(items=items)


def test_criterion_1_correctness_exhaustive(monkeypatch):
    """All 2^6-1 choice sets, random catalogs, both modes, under 60 s."""
    params = setup_params("p23")
    started = time.time()
    sessions = 0
    for seed in (101, 202, 303):
        rng = seed_source(monkeypatch, random.Random(seed))
        catalog = random_catalog(rng)
        for mode in ("p1", "p2"):
            bundle, secrets = publish(catalog, mode, params)
            for mask in range(1, 1 << catalog.n):
                choice = {i for i in range(catalog.n) if mask >> i & 1}
                result, billed = local_session(
                    bundle, secrets, [catalog.items[i].id for i in choice])
                expected = {catalog.items[i].id: catalog.items[i].payload
                            for i in choice}
                assert dict(result.items) == expected
                assert billed == result.total == sum(catalog.items[i].weight
                                                     for i in choice)
                sessions += 1
    elapsed = time.time() - started
    _report(1, elapsed < 60.0,
            f"correctness: {sessions} exhaustive sessions (3 catalogs x 2 modes), "
            f"{elapsed:.1f}s < 60s")


def test_criterion_2_receiver_privacy(monkeypatch):
    """Equal-total transcripts indistinguishable at M=1e5 on the order-11 group."""
    params = setup_params("p23")
    sessions = 100_000
    seed_source(monkeypatch, random.Random(2718))
    report = privacy_experiment((1, 2, 3), {0, 1}, {2}, sessions, params)
    assert report.billed == 3
    assert report.chi2_p > 0.01, f"chi-square p={report.chi2_p}"

    seed_source(monkeypatch, random.Random(2719))
    control_report = privacy_experiment((1, 2, 3), {2}, {2}, sessions, params)
    assert control_report.verdict == "PASS"

    with pytest.raises(HarnessError):
        privacy_experiment((1, 2, 3), {0}, {2}, 10, params)
    _report(2, report.verdict == "PASS",
            f"receiver privacy: T identical, chi2 p={report.chi2_p:.3f} > 0.01 "
            f"(M={sessions}), control PASS, unequal totals refused")


def test_criterion_3_no_extra_information(monkeypatch):
    """Every combination of learned key material fails on every unchosen item (N <= 10).

    In ``p2`` a guess is an XOR of learned shares, tried as an item key; in
    ``p1`` it is an XOR of learned layer keys, tried as a one-layer lock.
    """
    params = setup_params("p23")
    rng = seed_source(monkeypatch, random.Random(31415))
    catalog = make_catalog([2, 3, 4], rng)  # N = 9
    attempts = 0
    breaches = 0
    for mode in ("p2", "p1"):
        bundle, secrets = publish(catalog, mode, params)
        flat_map = FlatIndexMap(bundle.manifest.weights)
        for mask in range(1, (1 << catalog.n) - 1):  # proper nonempty choice sets
            choice = {i for i in range(catalog.n) if mask >> i & 1}
            result, _ = local_session(bundle, secrets,
                                      [catalog.items[i].id for i in choice])
            assert len(result.items) == len(choice)
            learned = [secrets.flat_secrets[f] for i in sorted(choice)
                       for f in flat_map.item_range(i)]
            unchosen = [i for i in range(catalog.n) if i not in choice]
            for submask in range(1, 1 << len(learned)):
                key_guess = combine_shares(
                    [learned[j] for j in range(len(learned)) if submask >> j & 1])
                for i in unchosen:
                    attempts += 1
                    context = item_context(mode, catalog.items[i].id)
                    try:
                        if mode == "p2":
                            decrypt(key_guess, bundle.ciphertexts[i], context)
                        else:
                            nested_decrypt([key_guess], bundle.ciphertexts[i], context)
                        breaches += 1
                    except WotError:
                        pass
    _report(3, breaches == 0,
            f"receiver learns nothing extra: {attempts} key-combination "
            f"decryption attempts on unchosen items (p2 and p1), {breaches} succeeded")


def test_criterion_4_complexity_claims(monkeypatch):
    """Publish costs, transfer flights, and receiver costs match exactly.

    ``p2`` publish: ``n`` keys and encryptions, ``sum(p_i - 1)`` share draws.
    ``p1`` publish: ``sum(p_i)`` keys and encryptions, no share draws. The
    buyer decrypts once per chosen item (``p2``) or per layer (``p1``). The
    buyer draws one fresh exponent per pick and the seller one per batch,
    whatever ``N`` is.
    """
    params = setup_params("p23")
    rng = seed_source(monkeypatch, random.Random(6174))
    buyer = threading.current_thread()  # the seller answers on a worker thread
    key_gens = count_calls(monkeypatch, symcrypto.new_key)
    encrypts = count_calls(monkeypatch, symcrypto.encrypt)
    splits = count_calls(monkeypatch, symcrypto.split_key)
    decrypts = count_calls(monkeypatch, symcrypto.decrypt)
    combines = count_calls(monkeypatch, symcrypto.combine_shares)
    exponents = count_calls(monkeypatch, rand_exponent, record=threading.current_thread)
    counted = (key_gens, encrypts, splits, decrypts, combines, exponents)
    checked = 0
    for _ in range(100):
        n = rng.randint(1, 5)
        weights = [rng.randint(1, 4) for _ in range(n)]
        catalog = make_catalog(weights, rng, payload_size=32)
        choice = {i for i in range(n) if rng.random() < 0.5} or {rng.randrange(n)}
        mode = rng.choice(("p1", "p2"))
        for calls in counted:
            calls.clear()
        bundle, secrets = publish(catalog, mode, params)
        assert (len(key_gens), len(encrypts)) == ((n, n) if mode == "p2"
                                                  else (sum(weights), sum(weights)))
        assert share_draws(splits) == (sum(w - 1 for w in weights) if mode == "p2" else 0)
        assert decrypts == [] and exponents == []

        log = []
        result, billed = local_session(
            bundle, secrets, [catalog.items[i].id for i in sorted(choice)], log)
        billed_weight = sum(weights[i] for i in choice)
        assert billed == result.total == billed_weight
        assert len(decrypts) == (len(choice) if mode == "p2" else billed_weight)
        assert sum(len(shares) for (shares,) in combines) == (
            billed_weight if mode == "p2" else 0)
        query_exponents = sum(thread is buyer for thread in exponents)
        response_exponents = len(exponents) - query_exponents
        assert (query_exponents, response_exponents) == (billed_weight, 1)
        assert [name for _, name in log].count("OtBatchQuery") == 1
        assert [name for _, name in log].count("OtBatchResp") == 1
        checked += 1
    _report(4, checked == 100,
            "complexity: encryptions=n, share draws=sum(p_i-1), one query and one "
            "response flight "
            f"over {checked} random catalogs (both modes)")


def test_criterion_5_weight_reduction(monkeypatch):
    """The reduction examples and the exact factor-q work shrinkage."""
    exact = gcd_reduce([100, 200, 300, 700])
    assert exact.q == 100 and exact.reduced == (1, 2, 3, 7)
    approx = approx_reduce([105, 190, 307, 689], 100)
    assert approx.reduced == (1, 2, 3, 7)

    params = setup_params("p23")
    rng = seed_source(monkeypatch, random.Random(55))
    original = make_catalog([100, 200, 300, 700], rng, payload_size=8)
    reduced = make_catalog([1, 2, 3, 7], rng, payload_size=8)
    splits = count_calls(monkeypatch, symcrypto.split_key)
    bundle_orig, _ = publish(original, "p2", params)
    draws_orig = share_draws(splits)
    splits.clear()
    bundle_red, _ = publish(reduced, "p2", params)
    draws_red = share_draws(splits)
    n_orig = bundle_orig.manifest.total_weight
    n_red = bundle_red.manifest.total_weight
    assert n_orig == n_red * exact.q == 1300
    assert sum(original.items[i].weight for i in (0, 2)) == \
        sum(reduced.items[i].weight for i in (0, 2)) * exact.q
    assert draws_orig == 1296
    assert draws_red == 9
    _report(5, True,
            "weight reduction: gcd (100,[1,2,3,7]), rounding [105,190,307,689]/100"
            f" -> [1,2,3,7]; transfer space {n_orig} -> {n_red} (factor {exact.q})")


def test_criterion_6_leakage_auditor():
    """Binary pricing flagged, flat pricing passes, counts match enumeration."""
    binary = audit_prices([1, 2, 4, 8])
    assert binary.verdict == VERDICT_UNSAFE
    assert binary.fully_leaking == tuple(range(1, 16))  # all 15 nonzero totals
    flat = audit_prices([1, 1, 1, 1])
    assert flat.verdict == VERDICT_OK

    rng = random.Random(1618)
    vectors = 0
    for _ in range(1000):
        n = rng.randint(1, 16)
        prices = [rng.randint(1, 40) for _ in range(n)]
        naive = [0]
        for p in prices:
            naive += [s + p for s in naive]
        assert {t.total: t.count for t in audit_prices(prices).totals} == Counter(naive)
        vectors += 1
    for _ in range(25):  # pin the top of the range explicitly
        prices = [rng.randint(1, 40) for _ in range(16)]
        naive = [0]
        for p in prices:
            naive += [s + p for s in naive]
        assert {t.total: t.count for t in audit_prices(prices).totals} == Counter(naive)
        vectors += 1
    _report(6, True,
            f"auditor: [1,2,4,8] UNSAFE with 15 unique totals, [1,1,1,1] OK, "
            f"subset-sum pass == naive enumeration on {vectors} vectors (n <= 16)")


def test_criterion_7_base_transfer(monkeypatch):
    """Exhaustive recovery, query uniformity, zero cross-index recoveries."""
    params = setup_params("p23")
    rng = seed_source(monkeypatch, random.Random(777))

    # (a) exhaustive correctness for every space size up to 8
    for n in range(1, 9):
        secrets = [rng.randbytes(16) for _ in range(n)]
        for index in range(n):
            (query,), (r,) = ot_query(params, n, [index])
            a, responses = ot_reply(params, secrets, [query])
            assert ot_recover(params, a, [query], responses, [index], [r]) == (secrets[index],)

    # (b) query-element distributions for two fixed choices: TV < 0.02 at 1e5
    trials = 100_000
    hist = {0: Counter(), 5: Counter()}
    for _ in range(trials):
        for index in (0, 5):
            (q,), _ = ot_query(params, 6, [index])
            hist[index][q] += 1
    support = set(hist[0]) | set(hist[5])
    tv = 0.5 * sum(abs(hist[0][y] - hist[5][y]) / trials for y in support)
    assert tv < 0.02, f"TV distance {tv}"

    # (c) 1e5 adversarial wrong-index recoveries: zero successes
    adversarial = 100_000
    cross = 0
    secrets = [bytes([tag]) * 16 for tag in range(4)]
    for _ in range(adversarial):
        index = rng.randrange(4)
        (query,), (r,) = ot_query(params, 4, [index])
        a, responses = ot_reply(params, secrets, [query])
        wrong = (index + 1 + rng.randrange(3)) % 4
        if ot_recover(params, a, [query], responses, [wrong], [r]) == (secrets[wrong],):
            cross += 1
    _report(7, cross == 0,
            f"base transfer: exhaustive recovery N<=8, query TV={tv:.4f} < 0.02, "
            f"{cross}/{adversarial} cross-index recoveries")


def test_criterion_8_wire_protocol(tmp_path, caplog):
    """Codec fuzz, grammar fuzz, and the publish -> serve -> buy demo."""
    # codec round trips over random messages
    from test_framing import check_round_trip, message_strategy
    from hypothesis import given, settings

    @given(message_strategy())
    @settings(max_examples=300, deadline=None)
    def codec_roundtrip(msg):
        check_round_trip(msg)

    codec_roundtrip()

    # grammar fuzz: covered live in tests/test_net.py; re-run the core check here
    import socket
    from wot.framing import (Hello, OtBatchQuery, ErrorMsg,
                             encode_frame as enc, read_frame)
    from wot.net import _recv_exact
    from wot.protocol import load_bundle, load_secrets
    from wot.cli import main

    catalog_dir = write_catalog_dir(tmp_path / "catalog", [
        ("paper-a", 1, b"A" * 100),
        ("paper-b", 2, b"B" * 200),
        ("paper-c", 3, b"C" * 300),
        ("paper-d", 7, b"D" * 700),
    ])
    bundle_dir = tmp_path / "bundle"
    assert main(["publish", "--catalog", str(catalog_dir), "--mode", "p2",
                 "--out", str(bundle_dir), "--group", "p23"]) == 0

    bundle = load_bundle(bundle_dir)
    caplog.set_level(logging.INFO, logger="wot.server")
    with serving(bundle, load_secrets(bundle_dir)) as server:
        rng = random.Random(808)
        pool = [enc(Hello()), enc(Hello(version=1)),
                bytes.fromhex("00000005" "07" "00000001"),  # version 4's DONE(1)
                enc(OtBatchQuery(elem_len=1, queries=(5,))),
                enc(OtBatchQuery(elem_len=1, queries=()))]
        for _ in range(40):
            sock = socket.create_connection(("127.0.0.1", server.port), timeout=10)
            sock.settimeout(10)
            try:
                for _ in range(rng.randint(1, 4)):
                    sock.sendall(pool[rng.randrange(len(pool))])
                    reply = read_frame(lambda n: _recv_exact(sock, n))
                    assert not isinstance(reply, OtBatchResp)
                    if isinstance(reply, ErrorMsg):
                        break
            except (WotError, OSError):
                pass
            finally:
                sock.close()
        assert billed_lines(caplog) == []  # no fuzz session was billed

        # the demo purchase
        out_dir = tmp_path / "downloads"
        assert main(["buy", "--server", f"127.0.0.1:{server.port}",
                     "--items", "paper-b,paper-d", "--out", str(out_dir)]) == 0
        assert (out_dir / "paper-b").read_bytes() == b"B" * 200
        assert (out_dir / "paper-d").read_bytes() == b"D" * 700
        assert [line.split()[1:] for line in billed_lines(caplog, 1)] == [["billed", "T=9"]]
    _report(8, True,
            "wire protocol: codec fuzz round-trips, grammar fuzz yields no "
            "partial responses, publish->serve->buy demo verified")
