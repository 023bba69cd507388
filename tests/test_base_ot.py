import random

import pytest

from wot.base_ot import (OtResponse, batch_binding, ot_query, ot_recover, ot_respond,
                         pick_binding, respond_powers)
from wot.errors import ProtocolError
from wot.framing import OtBatchQuery, OtBatchResp, encode_frame
from wot.group import GroupParams, kdf_pad, rand_exponent, setup_params
from wot.instrument import Counters
from wot.protocol import SenderSecrets, run_session_sender


def reference_respond(params, secrets, y, binding, rng):
    """Textbook sender with plain ``pow``: one ``k``, ``a = g^k``, pads from ``(y * h^-i)^k``."""
    p = params.p
    k = rand_exponent(params, rng, include_zero=False)
    masks = []
    for i, secret in enumerate(secrets):
        element = pow(y * pow(params.h, -i, p) % p, k, p)
        pad = kdf_pad(params, element, binding + i.to_bytes(4, "big"), len(secret))
        masks.append(bytes(x ^ s for x, s in zip(pad, secret)))
    return OtResponse(a=pow(params.g, k, p), masks=tuple(masks))


class Scripted:
    """An ``rng`` whose ``getrandbits`` returns the given values in order."""

    def __init__(self, values):
        self.values = iter(values)

    def getrandbits(self, bits):
        return next(self.values)


def query(params, n, index, rng, counters=None):
    """One pick's query element and secret exponent."""
    (y,), (r,) = ot_query(params, n, [index], rng, counters)
    return y, r


def respond(params, secrets, y, binding, rng, counters=None):
    """One pick's response: its batch of powers, then its masks."""
    (powers,) = respond_powers(params, [y], rng, counters)
    return ot_respond(params, secrets, powers, binding)


def recover(params, response, index, r, binding):
    (secret,) = ot_recover(params, [response], [index], [r], [binding])
    return secret


def run_single(params, secrets, index, rng, binding=b"t"):
    y, r = query(params, len(secrets), index, rng)
    response = respond(params, secrets, y, binding, rng)
    return recover(params, response, index, r, binding), response, y, r


class TestQuery:
    def test_frozen_vector(self):
        # On (p=23, q=11, g=2) with a hand-picked h = g^3 = 8:
        # index 2, exponent 4 -> y = 2^4 * 8^2 mod 23 = 12.
        params = GroupParams(p=23, q=11, g=2, h=8, param_id="toy-frozen")
        assert ot_query(params, 6, [2], Scripted([4])) == ((12,), (4,))

    def test_index_zero_is_pure_generator_power(self, p23, rng):
        y, r = query(p23, 6, 0, rng)
        assert y == pow(p23.g, r, p23.p)

    def test_out_of_range(self, p23, rng):
        with pytest.raises(ProtocolError):
            ot_query(p23, 6, [6], rng)
        with pytest.raises(ProtocolError):
            ot_query(p23, 6, [1, -1], rng)

    def test_query_histograms_indistinguishable(self, p23):
        """Fixed vs varying index: the query element looks the same."""
        rng = random.Random(2024)
        trials = 100_000
        hist_fixed: dict[int, int] = {}
        hist_varying: dict[int, int] = {}
        for i in range(trials):
            q1, _ = query(p23, 6, 3, rng)
            q2, _ = query(p23, 6, i % 6, rng)
            hist_fixed[q1] = hist_fixed.get(q1, 0) + 1
            hist_varying[q2] = hist_varying.get(q2, 0) + 1
        support = sorted(hist_fixed) + sorted(set(hist_varying) - set(hist_fixed))
        tv = 0.5 * sum(abs(hist_fixed.get(y, 0) - hist_varying.get(y, 0)) / trials
                       for y in support)
        assert tv < 0.02


@pytest.mark.parametrize("preset", ["p23", "p47", "modp-2048"])
class TestTextbookEquivalence:
    """The batch kernel ``group._powmods`` gives exactly what plain ``pow`` gives."""

    def test_respond(self, preset):
        params = setup_params(preset)
        rng = random.Random(preset)
        for n in range(1, 17):
            secrets = [rng.randbytes(16) for _ in range(n)]
            y, _ = query(params, n, rng.randrange(n), rng)
            seed = rng.getrandbits(64)
            got = respond(params, secrets, y, b"bind", random.Random(seed))
            want = reference_respond(params, secrets, y, b"bind", random.Random(seed))
            assert got == want, n

    def test_query_element(self, preset):
        params = setup_params(preset)
        rng = random.Random(preset)
        picks = [(index, r) for index in range(16)
                 for r in (0, params.q - 1, rand_exponent(params, rng))]
        queries, exponents = ot_query(params, 16, [index for index, _ in picks],
                                      Scripted([r for _, r in picks]))
        assert exponents == tuple(r for _, r in picks)
        assert queries == tuple(
            pow(params.g, r, params.p) * pow(params.h, index, params.p) % params.p
            for index, r in picks)


def test_batch_frames_match_per_pick_reference():
    """A seeded batch puts the textbook per-pick bytes on the wire, both ways."""
    params = setup_params("modp-2048")
    p = params.p
    rng = random.Random("frames")
    secrets = tuple(rng.randbytes(16) for _ in range(5))
    picks = [3, 0, 4, 1, 1]
    seed = rng.getrandbits(64)

    queries, _ = ot_query(params, len(secrets), picks, random.Random(seed))
    reference_rng = random.Random(seed)
    want_queries = []
    for index in picks:
        r = rand_exponent(params, reference_rng)
        want_queries.append(pow(params.g, r, p) * pow(params.h, index, p) % p)
    query_msg = OtBatchQuery(elem_len=params.element_len, queries=queries)
    assert encode_frame(query_msg) == encode_frame(
        OtBatchQuery(elem_len=params.element_len, queries=tuple(want_queries)))

    class Recorder:
        def __init__(self):
            self.sent = []

        def send(self, msg):
            self.sent.append(msg)

    channel = Recorder()
    run_session_sender(SenderSecrets(mode="p2", flat_secrets=secrets), query_msg, channel,
                       params, random.Random(seed))
    sid = batch_binding(params, queries)
    reference_rng = random.Random(seed)
    want = OtBatchResp(elem_len=params.element_len, responses=tuple(
        reference_respond(params, secrets, y, pick_binding(sid, ordinal), reference_rng)
        for ordinal, y in enumerate(queries)))
    assert isinstance(channel.sent[0], OtBatchResp)
    assert encode_frame(channel.sent[0]) == encode_frame(want)


class TestRespondRecover:
    def test_single_secret_always_recovered(self, p23, rng):
        secrets = [b"\x42" * 16]
        got, *_ = run_single(p23, secrets, 0, rng)
        assert got == secrets[0]

    def test_full_protocol_recovers_chosen(self, p23, rng):
        secrets = [bytes([i]) * 16 for i in range(6)]
        got, response, _, _ = run_single(p23, secrets, 2, rng)
        assert got == secrets[2]
        assert response.n_secrets == 6

    def test_zero_secret_round_trips(self, p23, rng):
        secrets = [b"\x00" * 16, b"\xff" * 16]
        got, *_ = run_single(p23, secrets, 0, rng)
        assert got == b"\x00" * 16

    def test_empty_secret_list_rejected(self, p23, rng):
        y, _ = query(p23, 1, 0, rng)
        (powers,) = respond_powers(p23, [y], rng)
        with pytest.raises(ProtocolError):
            ot_respond(p23, [], powers, b"t")

    def test_exhaustive_recovery_small_spaces(self, p23, rng):
        for n in range(1, 9):
            secrets = [rng.randbytes(16) for _ in range(n)]
            for index in range(n):
                got, *_ = run_single(p23, secrets, index, rng)
                assert got == secrets[index]

    def test_recovery_on_p47(self, p47, rng):
        secrets = [rng.randbytes(16) for _ in range(5)]
        got, *_ = run_single(p47, secrets, 4, rng)
        assert got == secrets[4]

    def test_wrong_index_recovery_yields_garbage(self, p23):
        """Honest-exponent recovery at a wrong index never lands on a secret."""
        rng = random.Random(555)
        trials = 10_000
        secrets = [bytes([i]) * 16 for i in range(6)]
        for _ in range(trials):
            index = rng.randrange(6)
            y, r = query(p23, 6, index, rng)
            response = respond(p23, secrets, y, b"t", rng)
            wrong = (index + 1 + rng.randrange(5)) % 6
            got = recover(p23, response, wrong, r, b"t")
            assert got != secrets[wrong]

    def test_fresh_exponents_counted(self, p23, rng):
        counters = Counters()
        secrets = [rng.randbytes(16) for _ in range(6)]
        y, r = query(p23, 6, 1, rng, counters)
        respond(p23, secrets, y, b"t", rng, counters)
        assert counters.query_exponents == 1
        assert counters.response_exponents == 1  # one k per pick, whatever N is
        queries, _ = ot_query(p23, 6, [0, 2, 5], rng, counters)
        respond_powers(p23, queries, rng, counters)
        assert (counters.query_exponents, counters.response_exponents) == (4, 4)


@pytest.mark.parametrize("preset, n", [("p47", 12), ("modp-2048", 5)])
def test_two_pads_of_one_pick_extract_h_to_the_k(preset, n):
    """The sender's elements differ by powers of ``h^k`` and only ``a^r`` opens ``c``.

    Knowing the elements of two indices ``i != j`` of one pick yields
    ``h^k = CDH(g, h, g^k)``; so a buyer who could open two indices could
    compute Diffie-Hellman values without ``log_g h``.
    """
    params = setup_params(preset)
    p, q = params.p, params.q
    rng = random.Random(f"extract-{preset}")
    secrets = [rng.randbytes(16) for _ in range(n)]
    c = rng.randrange(n)
    y, r = query(params, n, c, rng)
    seed = rng.getrandbits(64)
    response = respond(params, secrets, y, b"bind", random.Random(seed))
    k = rand_exponent(params, random.Random(seed), include_zero=False)  # the sender's draw
    assert response.a == pow(params.g, k, p)
    elements = [pow(y * pow(params.h, -i, p) % p, k, p) for i in range(n)]
    for i, (element, masked) in enumerate(zip(elements, response.masks)):
        pad = kdf_pad(params, element, b"bind" + i.to_bytes(4, "big"), 16)
        assert bytes(x ^ y for x, y in zip(pad, masked)) == secrets[i]
    h_k = pow(params.h, k, p)
    for i in range(n):
        for j in range(n):
            if i != j:
                ratio = elements[i] * pow(elements[j], -1, p) % p
                assert pow(ratio, pow(j - i, -1, q), p) == h_k
    opened = pow(response.a, r, p)
    assert [i for i in range(n) if elements[i] == opened] == [c]
    assert recover(params, response, c, r, b"bind") == secrets[c]
    for i in range(n):
        if i != c:
            assert recover(params, response, i, r, b"bind") != secrets[i]


class TestBatch:
    def test_equal_size_batches_indistinguishable(self, p23):
        """Same T, different picks: pooled query histograms match."""
        rng = random.Random(99)
        trials = 20_000
        hists = {"a": {}, "b": {}}
        for _ in range(trials):
            for name, picks in (("a", [2, 3, 4]), ("b", [0, 1, 5])):
                for y in ot_query(p23, 6, picks, rng)[0]:  # the sender's view of a batch
                    hists[name][y] = hists[name].get(y, 0) + 1
        from scipy.stats import chi2_contingency
        support = sorted(set(hists["a"]) | set(hists["b"]))
        table = [[hists["a"].get(y, 0) for y in support],
                 [hists["b"].get(y, 0) for y in support]]
        assert chi2_contingency(table).pvalue > 0.01

    def test_pick_bindings_differ_per_ordinal(self, p23, rng):
        queries, _ = ot_query(p23, 6, (1, 2), rng)
        sid = batch_binding(p23, queries)
        assert pick_binding(sid, 0) != pick_binding(sid, 1)
        assert batch_binding(p23, queries) == sid  # deterministic in the batch
