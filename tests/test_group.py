import random
import sys
import threading

import pytest
from scipy.stats import chisquare

from wot import group
from wot.errors import GroupError
from wot.group import (GroupParams, derive_h, is_member, kdf_pad, make_params,
                       rand_exponent, setup_params, _is_probable_prime, _jacobi,
                       _pocklington_prime, _powmod, _powmods)


def member_oracle(params, x):
    """The textbook subgroup test that ``is_member`` must agree with."""
    return 1 <= x < params.p and pow(x, params.q, params.p) == 1


class TestSetup:
    def test_tiny_preset(self, p23):
        assert (p23.p, p23.q, p23.g) == (23, 11, 2)
        assert pow(2, 11, 23) == 1  # direct oracle for the generator order

    def test_explicit_params_g4(self):
        # 4 = 2^2 and gcd(2, 11) = 1, so 4 also has order 11 mod 23.
        params = make_params(23, 11, 4, "toy-g4")
        order = next(k for k in range(1, 12) if pow(4, k, 23) == 1)
        assert order == 11
        assert params.g == 4

    def test_trivial_generator_rejected(self):
        with pytest.raises(GroupError, match="trivial generator"):
            make_params(23, 11, 1, "toy-bad")

    def test_wrong_order_rejected(self):
        # 5 is a non-residue mod 23, so its order is not 11.
        with pytest.raises(GroupError, match="order"):
            make_params(23, 11, 5, "toy-bad")

    def test_composite_modulus_rejected(self):
        with pytest.raises(GroupError, match="not prime"):
            make_params(25, 11, 2, "toy-bad")
        with pytest.raises(GroupError, match="not prime"):
            make_params(23, 12, 2, "toy-bad")

    def test_order_must_divide(self):
        with pytest.raises(GroupError):
            make_params(23, 7, 2, "toy-bad")

    def test_preset_names_reserved(self):
        with pytest.raises(GroupError, match="reserved"):
            make_params(23, 11, 2, "p23")

    def test_unknown_preset(self):
        with pytest.raises(GroupError, match="unknown group preset"):
            setup_params("p17")

    def test_production_preset_is_safe_prime_group(self):
        params = setup_params("modp-2048")
        assert params.p.bit_length() == 2048
        assert params.p == 2 * params.q + 1
        assert pow(params.g, params.q, params.p) == 1
        assert params.element_len == 256

    def test_modp_2048_matches_published_formula(self):
        # Independent reconstruction: p = 2^2048 - 2^1984 - 1 + 2^64*(floor(2^1918*pi) + 124476)
        import mpmath
        mpmath.mp.prec = 2100
        middle = int(mpmath.floor(mpmath.mpf(2) ** 1918 * mpmath.pi)) + 124476
        expected = 2**2048 - 2**1984 - 1 + 2**64 * middle
        assert setup_params("modp-2048").p == expected


class TestPrimality:
    def test_against_sympy(self):
        import sympy
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randrange(2, 10**9)
            assert _is_probable_prime(n) == sympy.isprime(n)

    def test_edges(self):
        assert not _is_probable_prime(0)
        assert not _is_probable_prime(1)
        assert _is_probable_prime(2)
        assert _is_probable_prime((1 << 61) - 1)  # Mersenne prime


class TestCheaperProofs:
    """Pocklington for ``p`` and the Jacobi test for ``g`` decide what the textbook checks do."""

    def test_pocklington_against_sympy(self):
        import sympy
        checked = composites = 0
        for q in sympy.primerange(2, 2000):
            for c in range(1, q):
                p = c * q + 1
                prime = sympy.isprime(p)
                assert _pocklington_prime(p, q) == prime, (p, q)
                checked += 1
                composites += not prime
        assert composites > checked // 2
        assert not _pocklington_prime(15, 7)  # 2*7 + 1
        assert not _pocklington_prime(27, 13)
        assert not _pocklington_prime(45, 11)
        assert _pocklington_prime(47, 23)

    def test_pocklington_proves_modp_2048(self):
        params = setup_params("modp-2048")
        assert _pocklington_prime(params.p, params.q)
        assert not _pocklington_prime(params.p + 2 * params.q, params.q)  # 4q + 1 = 3 * 79 * ...

    def test_generator_accepted_iff_order_q(self):
        for p, q in ((23, 11), (47, 23), (31, 5)):
            for g in range(2, p):
                try:
                    make_params(p, q, g, f"toy-{p}-{g}")
                    accepted = True
                except GroupError as exc:
                    assert "does not have order" in str(exc)
                    accepted = False
                assert accepted == (pow(g, q, p) == 1), (p, q, g)

    def test_composite_modulus_reported_before_divisibility(self):
        # 11 is prime but does not divide 24; the modulus is still named first.
        with pytest.raises(GroupError, match="modulus 25 is not prime"):
            make_params(25, 11, 2, "toy-bad")
        with pytest.raises(GroupError, match="modulus 27 is not prime"):
            make_params(27, 13, 2, "toy-bad")  # Pocklington path: 13 | 26


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


class TestMembershipEquivalence:
    def test_every_input_on_toy_groups(self, p23, p47):
        cofactor_six = make_params(31, 5, 2, "toy-cofactor-6")  # not a safe prime
        assert cofactor_six.p != 2 * cofactor_six.q + 1
        for params in (p23, p47, cofactor_six):
            for x in range(-1, params.p + 1):
                assert is_member(params, x) == member_oracle(params, x), (params.param_id, x)

    def test_modp_2048(self):
        params = setup_params("modp-2048")
        rng = random.Random(2048)
        members = [pow(params.g, rand_exponent(params, rng), params.p) for _ in range(4)]
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
                odd = rng.getrandbits(bits) | 1 << (bits - 1) | 1
                for mod in (odd, odd + 1):  # Montgomery needs odd; even moduli use pow
                    for e in (0, 1, 2, mod - 1, rng.getrandbits(bits)):
                        for base in (0, 1, mod - 1, mod + 5, rng.getrandbits(bits + 8)):
                            assert _powmod(base, e, mod) == pow(base, e, mod), (bits, mod, e)
        for params in (p23, p47, make_params(31, 5, 2, "toy-cofactor-6"),
                       setup_params("modp-2048")):
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

    def test_powmods_matches_pow_from_four_threads(self):
        """Batches of 1, 2, 3 and 12 jobs on the shared pool, four callers at once."""
        params = setup_params("modp-2048")
        p, q = params.p, params.q
        rng = random.Random(12)
        exponents = [0, 1, q - 1] + [rand_exponent(params, rng) for _ in range(15)]
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
        assert is_member(make_params(23, 11, 2, "id-one"), a)
        assert is_member(make_params(23, 11, 2, "id-two"), b)
        # At 2048 bits distinct ids give distinct generators in practice.
        assert big_a != setup_params("modp-2048").h


class TestExponents:
    def test_range_and_coverage(self, p23, rng):
        seen = {rand_exponent(p23, rng) for _ in range(1000)}
        assert seen == set(range(11))
        nonzero = {rand_exponent(p23, rng, include_zero=False) for _ in range(1000)}
        assert nonzero == set(range(1, 11))

    def test_powers_of_g_uniform(self, p23):
        """g^r over random r covers the subgroup uniformly (chi-square)."""
        rng = random.Random(777)
        hist = {pow(p23.g, e, 23): 0 for e in range(11)}
        for _ in range(100_000):
            hist[pow(p23.g, rand_exponent(p23, rng), 23)] += 1
        p = chisquare(list(hist.values())).pvalue
        assert p > 0.01

    def test_group_laws(self, p23, rng):
        p, g = p23.p, p23.g
        for _ in range(200):
            a = rand_exponent(p23, rng)
            b = rand_exponent(p23, rng)
            assert pow(g, a + b, p) == pow(g, a, p) * pow(g, b, p) % p
            x, y, z = (pow(g, rand_exponent(p23, rng), p) for _ in range(3))
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
