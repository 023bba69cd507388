"""Acceptance suite: one test per release criterion.

Each test prints a PASS/FAIL line (visible with ``pytest -s`` or in the
failure report). Statistical checks run on the tiny order-11 group with
fixed seeds and the thresholds stated inline.
"""

import logging
import random
import time
from collections import Counter

import pytest

from wot.auditor import VERDICT_OK, VERDICT_UNSAFE, audit_prices
from wot.base_ot import ot_query, ot_recover, ot_respond, respond_powers
from wot.catalog import Catalog, Item, total_price
from wot.errors import HarnessError, WotError
from wot.framing import OtBatchResp
from wot.group import setup_params
from wot.harness import PrivacyExperiment, complexity_check, privacy_experiment
from wot.instrument import Counters
from wot.net import run_local_session
from wot.protocol import plan_for_indices, publish
from wot.symcrypto import combine_shares, decrypt
from wot.weights import approx_reduce, gcd_reduce

from conftest import billed_lines, make_catalog, write_catalog_dir


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


def test_criterion_1_correctness_exhaustive():
    """All 2^6-1 choice sets, random catalogs, both modes, under 60 s."""
    params = setup_params("p23")
    started = time.time()
    sessions = 0
    for seed in (101, 202, 303):
        rng = random.Random(seed)
        catalog = random_catalog(rng)
        for mode in ("p1", "p2"):
            bundle, secrets = publish(catalog, mode, params, rng=rng)
            for mask in range(1, 1 << catalog.n):
                choice = {i for i in range(catalog.n) if mask >> i & 1}
                plan = plan_for_indices(bundle.manifest, choice)
                result, billed, _ = run_local_session(
                    bundle, secrets, plan, params,
                    receiver_rng=rng, sender_rng=rng)
                expected = {catalog.items[i].id: catalog.items[i].payload
                            for i in choice}
                assert dict(result.items) == expected
                assert billed == total_price(catalog, choice)
                sessions += 1
    elapsed = time.time() - started
    _report(1, elapsed < 60.0,
            f"correctness: {sessions} exhaustive sessions (3 catalogs x 2 modes), "
            f"{elapsed:.1f}s < 60s")


def test_criterion_2_receiver_privacy():
    """Equal-total transcripts indistinguishable at M=1e5 on the order-11 group."""
    params = setup_params("p23")
    sessions = 100_000
    exp = PrivacyExperiment(weights=(1, 2, 3), choice_a=frozenset({0, 1}),
                            choice_b=frozenset({2}), sessions=sessions)
    report = privacy_experiment(exp, params, random.Random(2718))
    assert report.totals_identical and report.billed_a == report.billed_b == 3
    assert report.chi2_p > 0.01, f"chi-square p={report.chi2_p}"

    control = PrivacyExperiment(weights=(1, 2, 3), choice_a=frozenset({2}),
                                choice_b=frozenset({2}), sessions=sessions)
    control_report = privacy_experiment(control, params, random.Random(2719))
    assert control_report.verdict == "PASS"

    with pytest.raises(HarnessError):
        privacy_experiment(
            PrivacyExperiment(weights=(1, 2, 3), choice_a=frozenset({0}),
                              choice_b=frozenset({2}), sessions=10),
            params, random.Random(1))
    _report(2, report.verdict == "PASS",
            f"receiver privacy: T identical, chi2 p={report.chi2_p:.3f} > 0.01 "
            f"(M={sessions}), control PASS, unequal totals refused")


def test_criterion_3_no_extra_information():
    """Every share combination fails on every unchosen ciphertext (N <= 10)."""
    params = setup_params("p23")
    rng = random.Random(31415)
    catalog = make_catalog([2, 3, 4], rng)  # N = 9
    bundle, secrets = publish(catalog, "p2", params, rng=rng)
    flat_map = bundle.flat_map
    attempts = 0
    breaches = 0
    for mask in range(1, (1 << catalog.n) - 1):  # proper nonempty choice sets
        choice = {i for i in range(catalog.n) if mask >> i & 1}
        plan = plan_for_indices(bundle.manifest, choice)
        result, _, _ = run_local_session(bundle, secrets, plan, params,
                                         receiver_rng=rng, sender_rng=rng)
        assert len(result.items) == len(choice)
        learned = [secrets.flat_secrets[f] for f in plan.picks]
        unchosen = [i for i in range(catalog.n) if i not in choice]
        for submask in range(1, 1 << len(learned)):
            key_guess = combine_shares(
                [learned[j] for j in range(len(learned)) if submask >> j & 1])
            for i in unchosen:
                attempts += 1
                from wot.protocol import item_context
                try:
                    decrypt(key_guess, bundle.ciphertexts[i],
                            item_context("p2", catalog.items[i].id))
                    breaches += 1
                except WotError:
                    pass
    _report(3, breaches == 0,
            f"receiver learns nothing extra: {attempts} share-combination "
            f"decryption attempts on unchosen items, {breaches} succeeded")


def test_criterion_4_complexity_claims():
    """Publish costs, transfer flights, and receiver costs match exactly."""
    params = setup_params("p23")
    rng = random.Random(6174)
    checked = 0
    for _ in range(100):
        n = rng.randint(1, 5)
        weights = [rng.randint(1, 4) for _ in range(n)]
        catalog = make_catalog(weights, rng, payload_size=32)
        choice = {i for i in range(n) if rng.random() < 0.5} or {rng.randrange(n)}
        mode = rng.choice(("p1", "p2"))
        report = complexity_check(catalog, mode, params, rng, choice=choice)
        assert report.passed, report.failures
        checked += 1
    _report(4, checked == 100,
            "complexity: encryptions=n, share draws=sum(p_i-1), one query and one "
            "response flight "
            f"over {checked} random catalogs (both modes)")


def test_criterion_5_weight_reduction():
    """The reduction examples and the exact factor-q work shrinkage."""
    exact = gcd_reduce([100, 200, 300, 700])
    assert exact.q == 100 and exact.reduced == (1, 2, 3, 7)
    approx = approx_reduce([105, 190, 307, 689], 100)
    assert approx.reduced == (1, 2, 3, 7)

    params = setup_params("p23")
    rng = random.Random(55)
    original = make_catalog([100, 200, 300, 700], rng, payload_size=8)
    reduced = make_catalog([1, 2, 3, 7], rng, payload_size=8)
    counters_orig, counters_red = Counters(), Counters()
    bundle_orig, _ = publish(original, "p2", params, rng=rng, counters=counters_orig)
    bundle_red, _ = publish(reduced, "p2", params, rng=rng, counters=counters_red)
    n_orig = bundle_orig.flat_map.total
    n_red = bundle_red.flat_map.total
    assert n_orig == n_red * exact.q == 1300
    plan_orig = plan_for_indices(bundle_orig.manifest, {0, 2})
    plan_red = plan_for_indices(bundle_red.manifest, {0, 2})
    assert plan_orig.total == plan_red.total * exact.q
    assert counters_orig.share_draws == 1296
    assert counters_red.share_draws == 9
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
            f"meet-in-the-middle == naive enumeration on {vectors} vectors (n <= 16)")


def test_criterion_7_base_transfer():
    """Exhaustive recovery, query uniformity, zero cross-index recoveries."""
    params = setup_params("p23")
    rng = random.Random(777)

    # (a) exhaustive correctness for every space size up to 8
    for n in range(1, 9):
        secrets = [rng.randbytes(16) for _ in range(n)]
        for index in range(n):
            (query,), (r,) = ot_query(params, n, [index], rng)
            (powers,) = respond_powers(params, [query], rng)
            response = ot_respond(params, secrets, powers, b"acc")
            assert ot_recover(params, [response], [index], [r], [b"acc"]) == (secrets[index],)

    # (b) query-element distributions for two fixed choices: TV < 0.02 at 1e5
    trials = 100_000
    hist = {0: Counter(), 5: Counter()}
    for _ in range(trials):
        for index in (0, 5):
            (q,), _ = ot_query(params, 6, [index], rng)
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
        (query,), (r,) = ot_query(params, 4, [index], rng)
        (powers,) = respond_powers(params, [query], rng)
        response = ot_respond(params, secrets, powers, b"adv")
        wrong = (index + 1 + rng.randrange(3)) % 4
        if ot_recover(params, [response], [wrong], [r], [b"adv"]) == (secrets[wrong],):
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
    from wot.framing import (Done, Hello, OtBatchQuery, ErrorMsg,
                             encode_frame as enc, read_frame)
    from wot.net import start_server, _recv_exact
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
    server = start_server(bundle, load_secrets(bundle_dir), setup_params("p23"))
    try:
        rng = random.Random(808)
        pool = [Hello(), Hello(version=1), Done(billed=1),
                OtBatchQuery(elem_len=1, queries=(5,)),
                OtBatchQuery(elem_len=1, queries=())]
        for _ in range(40):
            sock = socket.create_connection(("127.0.0.1", server.port), timeout=10)
            sock.settimeout(10)
            try:
                for _ in range(rng.randint(1, 4)):
                    sock.sendall(enc(pool[rng.randrange(len(pool))]))
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
    finally:
        server.shutdown()
        server.server_close()
    _report(8, True,
            "wire protocol: codec fuzz round-trips, grammar fuzz yields no "
            "partial responses, publish->serve->buy demo verified")
