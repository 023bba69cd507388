import random
import sys
import threading

import pytest
from scipy.stats import chisquare

from wot import group
from wot.errors import GroupError
from wot.group import (GroupParams, decode_elements, derive_h, encode_elements, is_member,
                       kdf_pad, rand_exponent, setup_params, _jacobi, _on_cpus, _powmod,
                       _powmods)

from conftest import count_calls, seed_source


def member_oracle(params, x):
    """The textbook subgroup test that ``is_member`` must agree with."""
    return 1 <= x < params.p and pow(x, params.q, params.p) == 1


class TestSetup:
    def test_tiny_preset(self, p23):
        assert (p23.p, p23.q, p23.g) == (23, 11, 2)
        assert pow(2, 11, 23) == 1  # direct oracle for the generator order

    def test_unknown_preset(self):
        with pytest.raises(GroupError, match="unknown group preset"):
            setup_params("p17")

    def test_production_preset_is_safe_prime_group(self):
        """Every preset is a safe-prime group; ``setup_params`` relies on it and proves nothing."""
        import sympy
        for name in ("p23", "p47", "modp-2048"):
            params = setup_params(name)
            p, q, g, h = params.p, params.q, params.g, params.h
            assert sympy.isprime(q) and sympy.isprime(p) and p == 2 * q + 1, name
            assert 1 < g < p and pow(g, q, p) == 1, name
            assert h == derive_h(p, q, name) and h not in (0, 1) and pow(h, q, p) == 1, name
        params = setup_params("modp-2048")
        assert params.p.bit_length() == 2048
        assert params.element_len == 256

    def test_setup_does_no_primality_work(self, monkeypatch):
        """A cold set-up raises only the powers ``derive_h`` raises."""
        params = setup_params("modp-2048")
        calls = count_calls(monkeypatch, _powmod)
        derive_h(params.p, params.q, "modp-2048")
        derive_calls = len(calls)
        calls.clear()
        assert setup_params.__wrapped__("modp-2048") == params
        assert len(calls) == derive_calls

    def test_modp_2048_matches_published_formula(self):
        # Independent reconstruction: p = 2^2048 - 2^1984 - 1 + 2^64*(floor(2^1918*pi) + 124476)
        import mpmath
        mpmath.mp.prec = 2100
        middle = int(mpmath.floor(mpmath.mpf(2) ** 1918 * mpmath.pi)) + 124476
        expected = 2**2048 - 2**1984 - 1 + 2**64 * middle
        assert setup_params("modp-2048").p == expected


class TestMembership:
    def test_examples(self, p23):
        assert is_member(p23, 2)  # 2^11 mod 23 == 1
        assert not is_member(p23, 0)
        # 5^11 mod 23 computed directly: it is 22, not 1.
        assert pow(5, 11, 23) == 22
        assert not is_member(p23, 5)

    def test_exhaustive_against_oracle(self, p23):
        members = {x for x in range(23) if x != 0 and pow(x, 11, 23) == 1}
        assert members == {x for x in range(23) if is_member(p23, x)}
        assert len(members) == 11

    def test_identity_is_member(self, p23):
        assert is_member(p23, 1)

    def test_out_of_range(self, p23):
        assert not is_member(p23, 23)
        assert not is_member(p23, -1)


class TestElementBlocks:
    """Elements travel as blocks of ``element_len`` bytes; a peer's decode only as members."""

    def test_block_of_members_decodes(self, p23):
        assert decode_elements(p23, b"\x02\x01\x0c") == (2, 1, 12)
        assert decode_elements(p23, memoryview(b"\x0c").toreadonly()) == (12,)
        assert decode_elements(p23, b"") == ()

    def test_one_non_member_decodes_nothing(self, p23, monkeypatch):
        for block in (b"\x02\x05", b"\x00", b"\x17", b"\x02\xff"):  # 5, 0, p, past p
            assert decode_elements(p23, block) is None
        checks = count_calls(monkeypatch, is_member)
        assert decode_elements(p23, b"\x05\x02\x03") is None
        assert checks == [(p23, 5)]  # the checks stop at the first non-member

    def test_round_trip_and_ragged_block(self):
        params = setup_params("modp-2048")
        block = encode_elements(params, [params.g, params.h, 1])
        assert len(block) == 3 * params.element_len == 768
        assert block[:params.element_len] == params.g.to_bytes(256, "big")
        assert decode_elements(params, block) == (params.g, params.h, 1)
        for ragged in (block[:-1], block + b"\x00", bytes(1)):
            with pytest.raises(GroupError, match="not whole 256-byte elements"):
                decode_elements(params, ragged)


class TestMembershipEquivalence:
    def test_every_input_on_toy_groups(self, p23, p47):
        for params in (p23, p47):
            for x in range(-1, params.p + 1):
                assert is_member(params, x) == member_oracle(params, x), (params.param_id, x)

    def test_modp_2048(self, monkeypatch):
        params = setup_params("modp-2048")
        rng = seed_source(monkeypatch, random.Random(2048))
        members = [pow(params.g, rand_exponent(params), params.p) for _ in range(4)]
        samples = members + [params.p - 1, (params.p - params.g) % params.p]
        samples += [rng.randrange(params.p) for _ in range(8)]
        verdicts = [member_oracle(params, x) for x in samples]
        assert [is_member(params, x) for x in samples] == verdicts
        assert all(verdicts[:4]) and not verdicts[4] and not verdicts[5]  # -1 and -g are not squares


class TestKernel:
    """``_powmod`` and ``_jacobi`` agree with builtin ``pow`` and Euler's criterion."""

    def test_powmod_matches_pow(self, p23, p47):
        rng = random.Random(6)
        for bits in (64, 100, 127, 128, 129, 256, 1024, 2048):  # both sides of the cutoff
            for _ in range(2):
                mod = rng.getrandbits(bits) | 1 << (bits - 1) | 1  # Montgomery needs odd
                for e in (0, 1, 2, mod - 1, rng.getrandbits(bits)):
                    for base in (0, 1, mod - 1, mod + 5, rng.getrandbits(bits + 8)):
                        assert _powmod(base, e, mod) == pow(base, e, mod), (bits, mod, e)
        for params in (p23, p47, setup_params("modp-2048")):
            p, q = params.p, params.q
            for e in (0, 1, q - 1, q):
                for base in (params.g, params.h, rng.randrange(p)):
                    assert _powmod(base, e, p) == pow(base, e, p), (params.param_id, e)

    def test_jacobi_is_eulers_criterion_on_modp_2048(self):
        params = setup_params("modp-2048")
        p, q = params.p, params.q
        rng = random.Random(2048)
        samples = [rng.randrange(1, p) for _ in range(8)] + [1, 2, p - 1, params.g, params.h]
        symbols = [_jacobi(x, p) for x in samples]
        assert symbols == [1 if pow(x, q, p) == 1 else -1 for x in samples]
        assert {1, -1} <= set(symbols)
        assert _jacobi(0, p) == _jacobi(p, p) == 0

    def test_threads_get_their_own_results(self):
        params = setup_params("modp-2048")
        rng = random.Random(8)
        jobs = [(rng.randrange(params.p), rng.randrange(params.q)) for _ in range(8)]
        want = [pow(base, e, params.p) for base, e in jobs]
        got = [[] for _ in jobs]

        def work(slot, base, e):
            for _ in range(6):
                got[slot].append(_powmod(base, e, params.p))

        threads = [threading.Thread(target=work, args=(i, *job)) for i, job in enumerate(jobs)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [[w] * 6 for w in want]

    def test_powmods_matches_pow_from_four_threads(self, monkeypatch):
        """Batches of 1, 2, 3 and 12 jobs on the shared pool, four callers at once."""
        params = setup_params("modp-2048")
        p, q = params.p, params.q
        rng = seed_source(monkeypatch, random.Random(12))
        exponents = [0, 1, q - 1] + [rand_exponent(params) for _ in range(15)]
        jobs = [(rng.randrange(p), e) for e in exponents]
        want = [pow(base, e, p) for base, e in jobs]
        batches = [(0, 1), (1, 3), (3, 6), (6, 18)]
        got = [[] for _ in range(4)]

        def caller(slot):
            for _ in range(3):
                got[slot].append([_powmods(jobs[a:b], p) for a, b in batches])

        threads = [threading.Thread(target=caller, args=(slot,)) for slot in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert got == [[[want[a:b] for a, b in batches]] * 3] * 4

    def test_modp_2048_never_reaches_builtin_pow(self, monkeypatch):
        params = setup_params("modp-2048")
        p, q = params.p, params.q
        want = pow(params.h, q - 1, p), pow(params.h, q, p)

        def refuse(*args):
            raise AssertionError("builtin pow called")

        monkeypatch.setattr(group, "pow", refuse, raising=False)
        assert (_powmod(params.h, q - 1, p), _powmod(params.h, q, p)) == want
        assert is_member(params, params.h)
        with pytest.raises(AssertionError, match="builtin pow called"):
            _powmod(2, 5, 23)  # the guard bites where builtin pow is meant to run

    def test_unloadable_library_is_a_group_error(self, monkeypatch):
        params = setup_params("modp-2048")
        monkeypatch.setattr(group, "_LIBCRYPTO", "libcrypto-absent.so.0")
        group._libcrypto.cache_clear()  # a failed load is not cached
        with pytest.raises(GroupError, match="cannot load libcrypto-absent.so.0"):
            _powmod(params.g, 3, params.p)
        with pytest.raises(GroupError, match="cannot load libcrypto-absent.so.0"):
            is_member(params, params.g)


class TestCpuPool:
    """``_on_cpus`` maps a function over jobs on the shared pool, or inline."""

    def test_preserves_order(self):
        jobs = list(range(40))
        assert _on_cpus(lambda x: (x, x * x), jobs) == [(x, x * x) for x in jobs]

    @pytest.mark.parametrize("cpus, jobs", [(1, [1, 2, 3]), (4, [7])], ids=["one-cpu", "one-job"])
    def test_runs_inline(self, monkeypatch, cpus, jobs):
        monkeypatch.setattr(group, "_cpus", lambda: cpus)
        monkeypatch.setattr(group, "_pool", None)
        caller = threading.current_thread()
        ran_on = _on_cpus(lambda job: threading.current_thread(), jobs)
        assert ran_on == [caller] * len(jobs)
        assert group._pool is None

    def test_worker_exception_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(group, "_cpus", lambda: 2)

        def fails_on_three(x):
            if x == 3:
                raise GroupError(f"job {x} failed")
            return x

        with pytest.raises(GroupError, match="^job 3 failed$"):
            _on_cpus(fails_on_three, [1, 2, 3, 4])


class TestDeriveH:
    def test_deterministic(self, p23):
        assert derive_h(23, 11, "p23") == derive_h(23, 11, "p23") == p23.h

    def test_membership_and_nontriviality(self, p23, p47):
        for params in (p23, p47):
            assert is_member(params, params.h)
            assert params.h not in (0, 1)
            assert params.h != params.g

    def test_param_id_feeds_the_derivation(self):
        a = derive_h(23, 11, "id-one")
        b = derive_h(23, 11, "id-two")
        big_a = derive_h(*(setup_params("modp-2048").p, setup_params("modp-2048").q), "other-id")
        assert pow(a, 11, 23) == 1 and pow(b, 11, 23) == 1
        # At 2048 bits distinct ids give distinct generators in practice.
        assert big_a != setup_params("modp-2048").h


class TestExponents:
    def test_range_and_coverage(self, p23, rng):
        seen = {rand_exponent(p23) for _ in range(1000)}
        assert seen == set(range(11))
        nonzero = {rand_exponent(p23, include_zero=False) for _ in range(1000)}
        assert nonzero == set(range(1, 11))

    def test_powers_of_g_uniform(self, p23, monkeypatch):
        """g^r over random r covers the subgroup uniformly (chi-square)."""
        seed_source(monkeypatch, random.Random(777))
        hist = {pow(p23.g, e, 23): 0 for e in range(11)}
        for _ in range(100_000):
            hist[pow(p23.g, rand_exponent(p23), 23)] += 1
        p = chisquare(list(hist.values())).pvalue
        assert p > 0.01

    def test_group_laws(self, p23, rng):
        p, g = p23.p, p23.g
        for _ in range(200):
            a = rand_exponent(p23)
            b = rand_exponent(p23)
            assert pow(g, a + b, p) == pow(g, a, p) * pow(g, b, p) % p
            x, y, z = (pow(g, rand_exponent(p23), p) for _ in range(3))
            assert (x * y % p) * z % p == x * (y * z % p) % p


class TestKdfPad:
    def test_deterministic(self, p23):
        assert kdf_pad(p23, 2, b"bind", 16) == kdf_pad(p23, 2, b"bind", 16)

    def test_length_contract(self, p23):
        assert len(kdf_pad(p23, 2, b"bind", 16)) == 16
        assert len(kdf_pad(p23, 2, b"bind", 100)) == 100
        assert kdf_pad(p23, 2, b"bind", 100)[:32] != kdf_pad(p23, 2, b"bind2", 100)[:32]

    def test_binding_collision_trial(self, p23):
        """10^4 binding pairs differing in one byte: zero pad collisions."""
        rng = random.Random(31337)
        for _ in range(10_000):
            base = bytearray(rng.randbytes(32))
            twin = bytearray(base)
            twin[rng.randrange(32)] ^= rng.randrange(1, 256)
            assert kdf_pad(p23, 2, bytes(base), 16) != kdf_pad(p23, 2, bytes(twin), 16)

    def test_element_encoding_width(self):
        params = setup_params("modp-2048")
        encoded = params.encode_element(params.g)
        assert len(encoded) == 256
        assert int.from_bytes(encoded, "big") == params.g


def test_group_params_frozen(p23):
    with pytest.raises(AttributeError):
        p23.p = 29
    assert isinstance(p23, GroupParams)
