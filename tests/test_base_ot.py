import random

import pytest

from wot.base_ot import (OtResponse, batch_binding, ot_query, ot_recover, ot_respond,
                         pick_binding, query_element)
from wot.errors import GroupError, ProtocolError
from wot.group import GroupParams, kdf_pad, rand_exponent, setup_params
from wot.instrument import Counters


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


def run_single(params, secrets, index, rng, binding=b"t"):
    query, r = ot_query(params, len(secrets), index, rng)
    response = ot_respond(params, secrets, query, binding, rng)
    return ot_recover(params, response, index, r, binding), response, query, r


class TestQuery:
    def test_frozen_vector(self):
        # On (p=23, q=11, g=2) with a hand-picked h = g^3 = 8:
        # index 2, exponent 4 -> y = 2^4 * 8^2 mod 23 = 12.
        params = GroupParams(p=23, q=11, g=2, h=8, param_id="toy-frozen")
        assert query_element(params, index=2, r=4) == 12

    def test_index_zero_is_pure_generator_power(self, p23, rng):
        y, r = ot_query(p23, 6, 0, rng)
        assert y == pow(p23.g, r, p23.p)

    def test_out_of_range(self, p23, rng):
        with pytest.raises(ProtocolError):
            ot_query(p23, 6, 6, rng)
        with pytest.raises(ProtocolError):
            ot_query(p23, 6, -1, rng)

    def test_query_histograms_indistinguishable(self, p23):
        """Fixed vs varying index: the query element looks the same."""
        rng = random.Random(2024)
        trials = 100_000
        hist_fixed: dict[int, int] = {}
        hist_varying: dict[int, int] = {}
        for i in range(trials):
            q1, _ = ot_query(p23, 6, 3, rng)
            q2, _ = ot_query(p23, 6, i % 6, rng)
            hist_fixed[q1] = hist_fixed.get(q1, 0) + 1
            hist_varying[q2] = hist_varying.get(q2, 0) + 1
        support = sorted(hist_fixed) + sorted(set(hist_varying) - set(hist_fixed))
        tv = 0.5 * sum(abs(hist_fixed.get(y, 0) - hist_varying.get(y, 0)) / trials
                       for y in support)
        assert tv < 0.02


@pytest.mark.parametrize("preset", ["p23", "p47", "modp-2048"])
class TestTextbookEquivalence:
    """The fixed-base code returns exactly what plain ``pow`` returns."""

    def test_respond(self, preset):
        params = setup_params(preset)
        rng = random.Random(preset)
        for n in range(1, 17):
            secrets = [rng.randbytes(16) for _ in range(n)]
            query, _ = ot_query(params, n, rng.randrange(n), rng)
            seed = rng.getrandbits(64)
            got = ot_respond(params, secrets, query, b"bind", random.Random(seed))
            want = reference_respond(params, secrets, query, b"bind", random.Random(seed))
            assert got == want, n

    def test_query_element(self, preset):
        params = setup_params(preset)
        rng = random.Random(preset)
        for index in range(16):
            for r in (0, params.q - 1, rand_exponent(params, rng)):
                assert query_element(params, index, r) == \
                    pow(params.g, r, params.p) * pow(params.h, index, params.p) % params.p


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

    def test_zero_query_rejected(self, p23, rng):
        with pytest.raises(GroupError, match="not a subgroup member"):
            ot_respond(p23, [b"\x00" * 16], 0, b"t", rng)

    def test_nonmember_query_rejected(self, p23, rng):
        assert pow(5, 11, 23) != 1
        with pytest.raises(GroupError):
            ot_respond(p23, [b"\x00" * 16], 5, b"t", rng)

    def test_zero_secret_round_trips(self, p23, rng):
        secrets = [b"\x00" * 16, b"\xff" * 16]
        got, *_ = run_single(p23, secrets, 0, rng)
        assert got == b"\x00" * 16

    def test_empty_secret_list_rejected(self, p23, rng):
        query, _ = ot_query(p23, 1, 0, rng)
        with pytest.raises(ProtocolError):
            ot_respond(p23, [], query, b"t", rng)

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
            query, r = ot_query(p23, 6, index, rng)
            response = ot_respond(p23, secrets, query, b"t", rng)
            wrong = (index + 1 + rng.randrange(5)) % 6
            got = ot_recover(p23, response, wrong, r, b"t")
            assert got != secrets[wrong]

    def test_fresh_exponents_counted(self, p23, rng):
        counters = Counters()
        secrets = [rng.randbytes(16) for _ in range(6)]
        query, r = ot_query(p23, 6, 1, rng, counters)
        ot_respond(p23, secrets, query, b"t", rng, counters)
        assert counters.query_exponents == 1
        assert counters.response_exponents == 1  # one k per pick, whatever N is


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
    query, r = ot_query(params, n, c, rng)
    seed = rng.getrandbits(64)
    response = ot_respond(params, secrets, query, b"bind", random.Random(seed))
    k = rand_exponent(params, random.Random(seed), include_zero=False)  # the sender's draw
    assert response.a == pow(params.g, k, p)
    elements = [pow(query * pow(params.h, -i, p) % p, k, p) for i in range(n)]
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
    assert ot_recover(params, response, c, r, b"bind") == secrets[c]
    for i in range(n):
        if i != c:
            assert ot_recover(params, response, i, r, b"bind") != secrets[i]


class TestBatch:
    def test_equal_size_batches_indistinguishable(self, p23):
        """Same T, different picks: pooled query histograms match."""
        rng = random.Random(99)
        trials = 20_000
        hists = {"a": {}, "b": {}}
        for _ in range(trials):
            for name, picks in (("a", [2, 3, 4]), ("b", [0, 1, 5])):
                for pick in picks:  # the sender's view of a batch: its queries
                    y = ot_query(p23, 6, pick, rng)[0]
                    hists[name][y] = hists[name].get(y, 0) + 1
        from scipy.stats import chi2_contingency
        support = sorted(set(hists["a"]) | set(hists["b"]))
        table = [[hists["a"].get(y, 0) for y in support],
                 [hists["b"].get(y, 0) for y in support]]
        assert chi2_contingency(table).pvalue > 0.01

    def test_pick_bindings_differ_per_ordinal(self, p23, rng):
        queries = [ot_query(p23, 6, i, rng)[0] for i in (1, 2)]
        sid = batch_binding(p23, queries)
        assert pick_binding(sid, 0) != pick_binding(sid, 1)
        assert batch_binding(p23, queries) == sid  # deterministic in the batch
