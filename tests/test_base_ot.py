import hashlib
import random

import pytest

from wot import base_ot, group
from wot.base_ot import (batch_binding, ot_query, ot_recover, ot_reply, pick_binding,
                         respond_powers)
from wot.errors import ProtocolError
from wot.framing import OtBatchQuery, OtBatchResp, encode_frame
from wot.group import GroupParams, encode_elements, kdf_pad, rand_exponent, setup_params
from wot.net import SocketChannel
from wot.protocol import SenderSecrets, publish, run_session_sender

from conftest import count_calls, local_session, make_catalog, seed_source

# SHA-256 of every frame, in the order sent, of the seeded one-pick session below.
ONE_PICK_SESSION_SHA256 = "9695a96e85f81e48dc00e5f8078f4176c061a8a6cb61c2cc39f9ace367d1e775"


def reference_reply(params, secrets, queries, k=None):
    """Textbook sender with plain ``pow``: one ``k``, ``a = g^k``, pads from ``(y * h^-i)^k``.

    Returns ``a`` and the reply's block, N masks per pick; each pad binds
    the batch, the pick ordinal and the index. ``k`` is drawn here unless
    the caller gives the batch's.
    """
    p = params.p
    if k is None:
        k = rand_exponent(params, include_zero=False)
    sid = batch_binding(encode_elements(params, queries))
    masks = []
    for ordinal, y in enumerate(queries):
        for i, secret in enumerate(secrets):
            element = pow(y * pow(params.h, -i, p) % p, k, p)
            binding = sid + ordinal.to_bytes(4, "big") + i.to_bytes(4, "big")
            pad = kdf_pad(params, element, binding, len(secret))
            masks.append(bytes(x ^ s for x, s in zip(pad, secret)))
    return pow(params.g, k, p), b"".join(masks)


class Scripted:
    """A random source whose ``getrandbits`` returns the given values in order."""

    def __init__(self, values):
        self.values = iter(values)

    def getrandbits(self, bits):
        return next(self.values)


def query(params, n, index):
    """One pick's query element and secret exponent."""
    (y,), (r,) = ot_query(params, n, [index])
    return y, r


def respond(params, secrets, y):
    """A one-pick batch's reply: ``a`` and the pick's N masks."""
    return ot_reply(params, secrets, encode_elements(params, [y]), [y])


def recover(params, a, y, masks, n, index, r):
    (secret,) = ot_recover(params, a, encode_elements(params, [y]), masks, n, [index], [r])
    return secret


def run_single(params, secrets, index):
    y, r = query(params, len(secrets), index)
    a, masks = respond(params, secrets, y)
    return recover(params, a, y, masks, len(secrets), index, r), masks


class TestQuery:
    def test_frozen_vector(self, monkeypatch):
        # On (p=23, q=11, g=2) with a hand-picked h = g^3 = 8:
        # index 2, exponent 4 -> y = 2^4 * 8^2 mod 23 = 12.
        params = GroupParams(p=23, q=11, g=2, h=8, param_id="toy-frozen")
        seed_source(monkeypatch, Scripted([4]))
        assert ot_query(params, 6, [2]) == ((12,), (4,))

    def test_index_zero_is_pure_generator_power(self, p23, rng):
        y, r = query(p23, 6, 0)
        assert y == pow(p23.g, r, p23.p)

    def test_out_of_range(self, p23, rng):
        with pytest.raises(ProtocolError):
            ot_query(p23, 6, [6])
        with pytest.raises(ProtocolError):
            ot_query(p23, 6, [1, -1])

    def test_query_histograms_indistinguishable(self, p23, monkeypatch):
        """Fixed vs varying index: the query element looks the same."""
        seed_source(monkeypatch, random.Random(2024))
        trials = 100_000
        hist_fixed: dict[int, int] = {}
        hist_varying: dict[int, int] = {}
        for i in range(trials):
            q1, _ = query(p23, 6, 3)
            q2, _ = query(p23, 6, i % 6)
            hist_fixed[q1] = hist_fixed.get(q1, 0) + 1
            hist_varying[q2] = hist_varying.get(q2, 0) + 1
        support = sorted(hist_fixed) + sorted(set(hist_varying) - set(hist_fixed))
        tv = 0.5 * sum(abs(hist_fixed.get(y, 0) - hist_varying.get(y, 0)) / trials
                       for y in support)
        assert tv < 0.02


@pytest.mark.parametrize("preset", ["p23", "p47", "modp-2048"])
class TestTextbookEquivalence:
    """The batch kernel ``group._powmods`` gives exactly what plain ``pow`` gives."""

    def test_respond(self, preset, monkeypatch):
        params = setup_params(preset)
        rng = seed_source(monkeypatch, random.Random(preset))
        for n in range(1, 17):
            secrets = [rng.randbytes(16) for _ in range(n)]
            y, _ = query(params, n, rng.randrange(n))
            seed = rng.getrandbits(64)
            with monkeypatch.context() as m:
                seed_source(m, random.Random(seed))
                got = respond(params, secrets, y)
                seed_source(m, random.Random(seed))
                want = reference_reply(params, secrets, [y])
            assert got == want, n

    def test_query_element(self, preset, monkeypatch):
        params = setup_params(preset)
        seed_source(monkeypatch, random.Random(preset))
        picks = [(index, r) for index in range(16)
                 for r in (0, params.q - 1, rand_exponent(params))]
        seed_source(monkeypatch, Scripted([r for _, r in picks]))
        queries, exponents = ot_query(params, 16, [index for index, _ in picks])
        assert exponents == tuple(r for _, r in picks)
        assert queries == tuple(
            pow(params.g, r, params.p) * pow(params.h, index, params.p) % params.p
            for index, r in picks)


def test_batch_frames_match_per_pick_reference(monkeypatch):
    """A seeded batch puts the textbook bytes on the wire, both ways.

    The buyer draws one ``r`` per pick, in pick order; the seller one ``k``
    for the whole batch, whose ``a = g^k`` the reply carries once.
    """
    params = setup_params("modp-2048")
    p = params.p
    rng = random.Random("frames")
    secrets = tuple(rng.randbytes(16) for _ in range(5))
    picks = [3, 0, 4, 1, 1]
    seed = rng.getrandbits(64)

    seed_source(monkeypatch, random.Random(seed))
    queries, _ = ot_query(params, len(secrets), picks)
    seed_source(monkeypatch, random.Random(seed))
    want_queries = []
    for index in picks:
        r = rand_exponent(params)
        want_queries.append(pow(params.g, r, p) * pow(params.h, index, p) % p)
    query_msg = OtBatchQuery(count=len(picks), elem_len=params.element_len,
                             queries=encode_elements(params, queries))
    assert encode_frame(query_msg) == encode_frame(
        OtBatchQuery(count=len(picks), elem_len=params.element_len,
                     queries=b"".join(y.to_bytes(params.element_len, "big")
                                      for y in want_queries)))

    class Recorder:
        def __init__(self):
            self.sent = []

        def send(self, msg):
            self.sent.append(msg)

    channel = Recorder()
    seed_source(monkeypatch, random.Random(seed))
    run_session_sender(SenderSecrets(mode="p2", flat_secrets=secrets), query_msg, channel,
                       params)
    seed_source(monkeypatch, random.Random(seed))
    k = rand_exponent(params, include_zero=False)
    a, masks = reference_reply(params, secrets, queries, k)
    want = OtBatchResp(count=len(picks), n=len(secrets), elem_len=params.element_len,
                       mask_len=16, a=a.to_bytes(params.element_len, "big"), masks=masks)
    assert isinstance(channel.sent[0], OtBatchResp)
    assert encode_frame(channel.sent[0]) == encode_frame(want)


class TestRespondRecover:
    def test_single_secret_always_recovered(self, p23, rng):
        secrets = [b"\x42" * 16]
        got, *_ = run_single(p23, secrets, 0)
        assert got == secrets[0]

    def test_full_protocol_recovers_chosen(self, p23, rng):
        secrets = [bytes([i]) * 16 for i in range(6)]
        got, masks = run_single(p23, secrets, 2)
        assert got == secrets[2]
        assert len(masks) == 6 * 16  # N masks for the one pick

    def test_zero_secret_round_trips(self, p23, rng):
        secrets = [b"\x00" * 16, b"\xff" * 16]
        got, *_ = run_single(p23, secrets, 0)
        assert got == b"\x00" * 16

    def test_empty_secret_list_rejected(self, p23, rng):
        y, _ = query(p23, 1, 0)
        with pytest.raises(ProtocolError):
            respond(p23, [], y)

    def test_exhaustive_recovery_small_spaces(self, p23, rng):
        for n in range(1, 9):
            secrets = [rng.randbytes(16) for _ in range(n)]
            for index in range(n):
                got, *_ = run_single(p23, secrets, index)
                assert got == secrets[index]

    def test_recovery_on_p47(self, p47, rng):
        secrets = [rng.randbytes(16) for _ in range(5)]
        got, *_ = run_single(p47, secrets, 4)
        assert got == secrets[4]

    def test_wrong_index_recovery_yields_garbage(self, p23, monkeypatch):
        """Honest-exponent recovery at a wrong index never lands on a secret."""
        rng = seed_source(monkeypatch, random.Random(555))
        trials = 10_000
        secrets = [bytes([i]) * 16 for i in range(6)]
        for _ in range(trials):
            index = rng.randrange(6)
            y, r = query(p23, 6, index)
            a, masks = respond(p23, secrets, y)
            wrong = (index + 1 + rng.randrange(5)) % 6
            got = recover(p23, a, y, masks, 6, wrong, r)
            assert got != secrets[wrong]

    def test_fresh_exponents_counted(self, p23, rng, monkeypatch):
        secrets = [rng.randbytes(16) for _ in range(6)]
        draws = count_calls(monkeypatch, rand_exponent)
        y, r = query(p23, 6, 1)
        assert len(draws) == 1  # one r per pick
        respond(p23, secrets, y)
        assert len(draws) == 2  # one k per batch, whatever N is
        queries, _ = ot_query(p23, 6, [0, 2, 5])
        assert len(draws) == 5
        respond_powers(p23, queries)
        assert len(draws) == 6  # one k per batch, whatever T is


@pytest.mark.parametrize("preset, n", [("p47", 12), ("modp-2048", 5)])
def test_two_pads_of_one_pick_extract_h_to_the_k(preset, n, monkeypatch):
    """The sender's elements differ by powers of ``h^k`` and only ``a^r`` opens ``c``.

    Knowing the elements of two indices ``i != j`` of one pick yields
    ``h^k = CDH(g, h, g^k)``; so a buyer who could open two indices could
    compute Diffie-Hellman values without ``log_g h``. The two picks of the
    batch share ``k`` and their queries are correlated (``y_2 = y_1 * h^d``):
    each pick still gives ``h^k`` from any two of its indices, and one
    ``a^r`` opens exactly one index per pick, under pads that all differ.
    """
    params = setup_params(preset)
    p, q = params.p, params.q
    rng = seed_source(monkeypatch, random.Random(f"extract-{preset}"))
    secrets = [rng.randbytes(16) for _ in range(n)]
    c = rng.randrange(n - 1)
    d = rng.randrange(1, n - c)
    y, r = query(params, n, c)
    queries = [y, y * pow(params.h, d, p) % p]  # g^r * h^(c + d): pick c + d under the same r
    block = encode_elements(params, queries)
    sid = batch_binding(block)
    bindings = [pick_binding(sid, ordinal) for ordinal in range(2)]
    seed = rng.getrandbits(64)
    seed_source(monkeypatch, random.Random(seed))
    a, masks = ot_reply(params, secrets, block, queries)
    seed_source(monkeypatch, random.Random(seed))
    k = rand_exponent(params, include_zero=False)  # the sender's one draw for the batch
    assert a == pow(params.g, k, p)
    h_k = pow(params.h, k, p)
    pads = set()
    for t, (y_t, c_t, binding) in enumerate(zip(queries, (c, c + d), bindings)):
        elements = [pow(y_t * pow(params.h, -i, p) % p, k, p) for i in range(n)]
        pick_masks = [masks[(t * n + i) * 16:(t * n + i + 1) * 16] for i in range(n)]
        for i, (element, masked) in enumerate(zip(elements, pick_masks)):
            pad = kdf_pad(params, element, binding + i.to_bytes(4, "big"), 16)
            assert bytes(x ^ y for x, y in zip(pad, masked)) == secrets[i]
            pads.add(pad)
        for i in range(n):
            for j in range(n):
                if i != j:
                    ratio = elements[i] * pow(elements[j], -1, p) % p
                    assert pow(ratio, pow(j - i, -1, q), p) == h_k
        opened = pow(a, r, p)
        assert [i for i in range(n) if elements[i] == opened] == [c_t]
        for i in range(n):  # pick t at index i, the other pick at its own
            indices = [c, c + d]
            indices[t] = i
            got = ot_recover(params, a, block, masks, n, indices, (r, r))[t]
            assert (got == secrets[i]) == (i == c_t)
    assert len(pads) == 2 * n


@pytest.mark.parametrize("t", [1, 4])
def test_seller_raises_t_plus_two_powers_after_every_check(t, monkeypatch):
    """One batch: every ``y`` checked, then one draw of ``k``, then ``T + 2`` modexps at once."""
    params = setup_params("modp-2048")
    seed_source(monkeypatch, random.Random(f"cost-{t}"))
    secrets = SenderSecrets(mode="p2", flat_secrets=tuple(bytes([i]) * 16 for i in range(6)))
    queries, _ = ot_query(params, 6, range(t))
    events = []

    def logged(target, fn, record):
        def wrapper(*args, **kwargs):
            events.append(record(*args))
            return fn(*args, **kwargs)
        monkeypatch.setattr(target, wrapper)

    logged("wot.group.is_member", group.is_member, lambda params, y: "check")
    logged("wot.base_ot.rand_exponent", base_ot.rand_exponent, lambda *args: "draw")
    logged("wot.base_ot._powmods", base_ot._powmods, lambda jobs, mod: ("powmods", len(jobs)))

    class Sink:
        def send(self, msg):
            pass

    query = OtBatchQuery(count=t, elem_len=params.element_len,
                         queries=encode_elements(params, queries))
    billed = run_session_sender(secrets, query, Sink(), params)
    assert billed == t
    assert events == ["check"] * t + ["draw", ("powmods", t + 2)]


def test_one_pick_session_bytes_are_frozen(monkeypatch):
    """A seeded ``T = 1`` session on ``modp-2048`` sends exactly the bytes it always has.

    One ``k`` per batch is one ``k`` per pick when the batch has one pick,
    and one ``a`` per reply is one ``a`` per pick, so every frame of both
    sides, hashed in the order sent, is pinned. Protocol version 5 changed
    the HELLO frame's version byte and dropped the final DONE frame; every
    other frame of this session is version 4's, byte for byte.
    """
    params = setup_params("modp-2048")
    rng = seed_source(monkeypatch, random.Random("one-pick-session"))
    bundle, secrets = publish(make_catalog([1, 2], rng, payload_size=32), "p2", params)
    transcript = hashlib.sha256()
    real_send = SocketChannel.send

    def hashing_send(channel, msg):
        transcript.update(encode_frame(msg))  # before the peer can answer
        real_send(channel, msg)

    monkeypatch.setattr(SocketChannel, "send", hashing_send)
    result, billed = local_session(bundle, secrets, ["item00"])
    assert billed == result.total == 1
    assert transcript.hexdigest() == ONE_PICK_SESSION_SHA256


class TestBatch:
    def test_equal_size_batches_indistinguishable(self, p23, monkeypatch):
        """Same T, different picks: pooled query histograms match."""
        seed_source(monkeypatch, random.Random(99))
        trials = 20_000
        hists = {"a": {}, "b": {}}
        for _ in range(trials):
            for name, picks in (("a", [2, 3, 4]), ("b", [0, 1, 5])):
                for y in ot_query(p23, 6, picks)[0]:  # the sender's view of a batch
                    hists[name][y] = hists[name].get(y, 0) + 1
        from scipy.stats import chi2_contingency
        support = sorted(set(hists["a"]) | set(hists["b"]))
        table = [[hists["a"].get(y, 0) for y in support],
                 [hists["b"].get(y, 0) for y in support]]
        assert chi2_contingency(table).pvalue > 0.01

    def test_pick_bindings_differ_per_ordinal(self, p23, rng):
        queries, _ = ot_query(p23, 6, (1, 2))
        block = encode_elements(p23, queries)
        sid = batch_binding(block)
        assert pick_binding(sid, 0) != pick_binding(sid, 1)
        assert batch_binding(encode_elements(p23, queries)) == sid  # deterministic in the batch
