import random

import pytest
from scipy.stats import chisquare

from wot.errors import GroupError
from wot.group import (GroupParams, derive_h, is_member, kdf_pad, make_params,
                       rand_exponent, setup_params, _fixed_base_pow, _fixed_base_table,
                       _generator_tables, _is_probable_prime)


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


class TestFixedBase:
    def test_matches_pow(self, p23, p47):
        rng = random.Random(6)
        for params in (p23, p47, make_params(31, 5, 2, "toy-cofactor-6"),
                       setup_params("modp-2048")):
            g_table, h_table = _generator_tables(params)
            assert g_table == _fixed_base_table(params, params.g)
            exponents = [0, 1, params.q - 1, params.q, -1, -7 * params.q - 3]
            exponents += [rng.randrange(params.q) for _ in range(4)]
            for e in exponents:
                assert _fixed_base_pow(params, (g_table, e)) == pow(params.g, e, params.p)
                f = rng.randrange(params.q)
                assert _fixed_base_pow(params, (g_table, e), (h_table, f)) == \
                    pow(params.g, e, params.p) * pow(params.h, f, params.p) % params.p


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

    def test_nonmember_rejected(self, p23):
        with pytest.raises(GroupError):
            kdf_pad(p23, 5, b"bind", 16)

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
        assert params.decode_element(encoded) == params.g
        with pytest.raises(GroupError):
            params.decode_element(encoded[:-1])


def test_group_params_frozen(p23):
    with pytest.raises(AttributeError):
        p23.p = 29
    assert isinstance(p23, GroupParams)
