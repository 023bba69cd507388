import mmap
import random
import tracemalloc

import pytest
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from hypothesis import given, settings, strategies as st
from scipy.stats import chisquare

from wot import symcrypto
from wot.errors import AuthenticationError, CryptoError
from wot.symcrypto import (NONCE_LEN, TAG_LEN, combine_shares, decrypt, encrypt,
                           nested_decrypt, nested_encrypt, new_key, split_key, xor_bytes)

from conftest import count_calls, seed_source


class CountingRandom(random.Random):
    """A seeded ``random.Random`` that counts its ``randbytes`` draws."""

    draws = 0

    def randbytes(self, n):
        self.draws += 1
        return super().randbytes(n)


class TestAuthenticatedEncryption:
    def test_round_trip(self, rng):
        key = new_key(128)
        ct = encrypt(key, b"hello goods", "ctx")
        assert decrypt(key, ct, "ctx") == b"hello goods"

    def test_one_bit_key_flip_fails(self, rng):
        key = new_key(128)
        ct = encrypt(key, b"payload", "ctx")
        bad = bytes([key[0] ^ 1]) + key[1:]
        with pytest.raises(AuthenticationError):
            decrypt(bad, ct, "ctx")

    def test_context_mismatch_fails(self, rng):
        key = new_key(128)
        ct = encrypt(key, b"payload", "item:a")
        with pytest.raises(AuthenticationError):
            decrypt(key, ct, "item:b")

    def test_empty_plaintext(self, rng):
        key = new_key(128)
        ct = encrypt(key, b"", "ctx")
        assert len(ct) == 12 + 16  # nonce + tag only
        assert decrypt(key, ct, "ctx") == b""

    def test_256_bit_keys(self, rng):
        key = new_key(256)
        assert len(key) == 32
        ct = encrypt(key, b"big key", "ctx")
        assert decrypt(key, ct, "ctx") == b"big key"

    def test_malformed_ciphertext(self, rng):
        key = new_key(128)
        with pytest.raises(CryptoError, match="too short"):
            decrypt(key, b"\x00" * 10, "ctx")

    def test_bad_key_length(self):
        with pytest.raises(CryptoError):
            encrypt(b"short", b"data")
        with pytest.raises(CryptoError):
            new_key(192)

    def test_wrong_key_never_authenticates(self, monkeypatch):
        """AE soundness: forged decryptions are empirically impossible."""
        rng = seed_source(monkeypatch, random.Random(9001))
        key = new_key(128)
        ct = encrypt(key, b"sixteen byte msg", "ctx")
        successes = 0
        trials = 1_000_000
        for _ in range(trials):
            wrong = rng.randbytes(16)
            if wrong == key:
                continue
            try:
                decrypt(wrong, ct, "ctx")
                successes += 1
            except AuthenticationError:
                pass
        assert successes == 0


# The buyer decrypts a view over the received frame; a frame header in
# front of the ciphertext must not matter.
BYTES_LIKE = [bytes, bytearray, memoryview,
              lambda ct: memoryview(b"\x04\x00\x01a" + ct)[4:]]
BYTES_LIKE_IDS = ["bytes", "bytearray", "memoryview", "frame-view"]


def tampered(ct) -> bytes:
    ct = bytes(ct)
    return ct[:20] + bytes([ct[20] ^ 1]) + ct[21:]


class TestBytesLikeCiphertexts:
    @pytest.mark.parametrize("as_type", BYTES_LIKE, ids=BYTES_LIKE_IDS)
    def test_decrypt(self, rng, as_type):
        key = new_key(128)
        ct = encrypt(key, b"priced goods", "ctx")
        assert decrypt(key, as_type(ct), "ctx") == b"priced goods"
        with pytest.raises(AuthenticationError, match="^authentication failure$"):
            decrypt(key, as_type(tampered(ct)), "ctx")

    @pytest.mark.parametrize("as_type", BYTES_LIKE, ids=BYTES_LIKE_IDS)
    def test_nested_decrypt(self, rng, as_type):
        keys = [new_key(128) for _ in range(3)]
        ct = nested_encrypt(keys, b"priced goods", "item:a")
        assert nested_decrypt(keys, as_type(ct), "item:a") == b"priced goods"
        with pytest.raises(AuthenticationError, match="^authentication failure at layer 1$"):
            nested_decrypt(keys, as_type(tampered(ct)), "item:a")
        broken = [keys[0], keys[1], new_key(128)]
        with pytest.raises(AuthenticationError, match="^authentication failure at layer 3$"):
            nested_decrypt(broken, as_type(ct), "item:a")


class TestSplitCombine:
    def test_single_share_is_identity(self, rng):
        key = b"\xa0" * 16
        assert split_key(key, 1) == [key]

    def test_two_share_xor_arithmetic(self, monkeypatch):
        # Force the first (random) share and check the closing share.
        class FixedRng:
            def randbytes(self, n):
                return b"\x06" * n

        seed_source(monkeypatch, FixedRng())
        shares = split_key(b"\x0a" * 16, 2)
        assert shares[0] == b"\x06" * 16
        assert shares[1] == b"\x0c" * 16  # 0x0a ^ 0x06

    def test_round_trip_many(self, rng):
        for _ in range(1000):
            key = new_key(128)
            parts = rng.randint(1, 10)
            assert combine_shares(split_key(key, parts)) == key

    def test_corrupt_share_breaks_key(self, rng):
        key = new_key(128)
        shares = split_key(key, 5)
        shares[2] = rng.randbytes(16)
        assert combine_shares(shares) != key  # up to 2^-128 fluke

    def test_draw_count_is_parts_minus_one(self, rng, monkeypatch):
        key = new_key(128)
        counting = seed_source(monkeypatch, CountingRandom(7))
        split_key(key, 7)
        assert counting.draws == 6
        counting = seed_source(monkeypatch, CountingRandom(7))
        split_key(key, 1)
        assert counting.draws == 0

    def test_zero_parts_rejected(self, rng):
        with pytest.raises(CryptoError):
            split_key(new_key(128), 0)

    def test_combine_validation(self):
        with pytest.raises(CryptoError):
            combine_shares([])
        with pytest.raises(CryptoError):
            combine_shares([b"\x00" * 16, b"\x00" * 8])

    def test_share_marginals_uniform(self, monkeypatch):
        """Chi-square on pooled share bytes: proper subsets look uniform."""
        seed_source(monkeypatch, random.Random(1234))
        key = bytes(range(16))  # fixed, decidedly non-uniform key
        histograms = {0: [0] * 256, 4: [0] * 256, "pair": [0] * 256}
        trials = 10_000
        for _ in range(trials):
            shares = split_key(key, 5)
            for b in shares[0]:
                histograms[0][b] += 1
            for b in shares[4]:  # the closing share, key-dependent
                histograms[4][b] += 1
            for b in xor_bytes(shares[1], shares[4]):  # a proper-subset XOR
                histograms["pair"][b] += 1
        for name, hist in histograms.items():
            p = chisquare(hist).pvalue
            assert p > 0.01, f"share {name} byte histogram is not uniform (p={p})"


class TestNestedLayers:
    def test_round_trip_three_layers(self, rng):
        keys = [new_key(128) for _ in range(3)]
        ct = nested_encrypt(keys, b"inner goods", "item:a")
        assert nested_decrypt(keys, ct, "item:a") == b"inner goods"

    def test_single_layer_equals_one_encryption(self, rng, monkeypatch):
        encrypts = count_calls(monkeypatch, symcrypto.encrypt)
        key = new_key(128)
        ct = nested_encrypt([key], b"goods", "item:a")
        assert len(encrypts) == 1
        assert nested_decrypt([key], ct, "item:a") == b"goods"

    def test_wrong_order_fails_and_names_layer(self, rng):
        keys = [new_key(128) for _ in range(3)]
        ct = nested_encrypt(keys, b"goods", "item:a")
        with pytest.raises(AuthenticationError, match="^authentication failure at layer 1$"):
            nested_decrypt([keys[1], keys[0], keys[2]], ct, "item:a")

    def test_inner_layer_failure_identified(self, rng):
        keys = [new_key(128) for _ in range(3)]
        ct = nested_encrypt(keys, b"goods", "item:a")
        broken = [keys[0], keys[1], new_key(128)]
        with pytest.raises(AuthenticationError, match="^authentication failure at layer 3$"):
            nested_decrypt(broken, ct, "item:a")

    def test_layer_count_matches_key_count(self, rng, monkeypatch):
        encrypts = count_calls(monkeypatch, symcrypto.encrypt)
        decrypts = count_calls(monkeypatch, symcrypto.decrypt)
        keys = [new_key(128) for _ in range(6)]
        ct = nested_encrypt(keys, b"goods", "item:a")
        assert len(encrypts) == 6
        nested_decrypt(keys, ct, "item:a")
        assert len(decrypts) == 6

    def test_empty_key_list_rejected(self, rng):
        with pytest.raises(CryptoError):
            nested_encrypt([], b"goods", "c")
        with pytest.raises(CryptoError):
            nested_decrypt([], b"blob", "c")


class TestLayerFormat:
    """Ciphertexts written into reused buffers are the bytes of a plain layer-by-layer build."""

    @staticmethod
    def reference(seed, key_count, plaintext, context):
        """Keys drawn first, then one nonce per layer, innermost first, from ``Random(seed)``."""
        rng = random.Random(seed)
        keys = [rng.randbytes(16) for _ in range(key_count)]
        blob = plaintext
        for layer in range(key_count, 0, -1):
            nonce = rng.randbytes(12)
            blob = nonce + AESGCM(keys[layer - 1]).encrypt(
                nonce, blob, f"{context}|layer{layer}".encode())
        return keys, blob

    @pytest.mark.parametrize("payload", [b"", bytes(range(256)) * 5], ids=["empty", "1280-byte"])
    def test_encrypt_known_answer(self, monkeypatch, payload):
        seed_source(monkeypatch, random.Random(31))
        key = new_key(128)
        ct = encrypt(key, payload, "ctx")
        rng = random.Random(31)
        assert rng.randbytes(16) == key
        nonce = rng.randbytes(12)
        assert bytes(ct) == nonce + AESGCM(key).encrypt(nonce, payload, b"ctx")
        assert ct.readonly

    @pytest.mark.parametrize("layers", [1, 2, 3, 8])
    @pytest.mark.parametrize("payload", [b"", bytes(range(256)) * 5], ids=["empty", "1280-byte"])
    def test_nested_encrypt_known_answer(self, monkeypatch, layers, payload):
        """Odd and even layer counts both end in the returned buffer with the same bytes."""
        seed_source(monkeypatch, random.Random(layers))
        keys = [new_key(128) for _ in range(layers)]
        ct = nested_encrypt(keys, payload, "item:a")
        want_keys, want = self.reference(layers, layers, payload, "item:a")
        assert keys == want_keys
        assert bytes(ct) == want and len(ct) == len(payload) + layers * 28
        assert ct.readonly
        assert nested_decrypt(keys, ct, "item:a") == payload


class TestCiphertextAllocations:
    """Peak traced memory, as a multiple of the ciphertext's length, for a 512 KiB payload.

    Its buffers stay under ``MAP_FLOOR``, so they are ``bytearray`` objects
    that tracemalloc sees; a mapped buffer is not traced.
    """

    PAYLOAD = bytes(symcrypto.MAP_FLOOR // 2)

    @staticmethod
    def peak_ratio(call):
        tracemalloc.start()
        try:
            ct = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / len(ct)

    def test_encrypt_writes_the_ciphertext_once(self, rng):
        key = new_key(128)
        assert self.peak_ratio(lambda: encrypt(key, self.PAYLOAD, "ctx")) <= 1.01

    @pytest.mark.parametrize("layers", [2, 3, 8])
    def test_nested_encrypt_uses_two_buffers(self, rng, layers):
        keys = [new_key(128) for _ in range(layers)]
        assert self.peak_ratio(lambda: nested_encrypt(keys, self.PAYLOAD, "item:a")) <= 2.01


class TestMappedBuffers:
    """From ``MAP_FLOOR`` bytes up a returned ciphertext's buffer is a pre-faulted mapping."""

    FLOOR = symcrypto.MAP_FLOOR
    OVERHEAD = NONCE_LEN + TAG_LEN

    @staticmethod
    def peel(key, ct, context):
        return AESGCM(key).decrypt(ct[:NONCE_LEN], ct[NONCE_LEN:], context.encode())

    @pytest.mark.parametrize("ct_len", [FLOOR - 1, FLOOR, FLOOR + 1])
    def test_encrypt(self, rng, ct_len):
        key = new_key(128)
        payload = rng.randbytes(ct_len - self.OVERHEAD)
        ct = encrypt(key, payload, "ctx")
        assert ct.readonly and len(ct) == ct_len
        assert isinstance(ct.obj, mmap.mmap) == (ct_len >= self.FLOOR)
        assert self.peel(key, ct, "ctx") == payload

    @pytest.mark.parametrize("layers", [1, 2, 3])
    @pytest.mark.parametrize("ct_len", [FLOOR - 1, FLOOR, FLOOR + 1])
    def test_nested_encrypt(self, rng, layers, ct_len):
        keys = [new_key(128) for _ in range(layers)]
        payload = rng.randbytes(ct_len - layers * self.OVERHEAD)
        ct = nested_encrypt(keys, payload, "item:a")
        assert ct.readonly and len(ct) == ct_len
        assert isinstance(ct.obj, mmap.mmap) == (ct_len >= self.FLOOR)
        blob = ct
        for layer, key in enumerate(keys, start=1):
            blob = self.peel(key, blob, f"item:a|layer{layer}")
        assert blob == payload


class TestShareRecombinationContract:
    def test_all_shares_decrypt(self, rng):
        key = new_key(128)
        ct = encrypt(key, b"goods", "ctx")
        shares = split_key(key, 6)
        assert decrypt(combine_shares(shares), ct, "ctx") == b"goods"

    def test_missing_share_fails_authentication(self, rng):
        """p-1 shares plus zero filler is just a wrong key."""
        key = new_key(128)
        ct = encrypt(key, b"goods", "ctx")
        shares = split_key(key, 6)
        partial = combine_shares(shares[:-1] + [b"\x00" * 16])
        with pytest.raises(AuthenticationError):
            decrypt(partial, ct, "ctx")


@given(st.binary(min_size=0, max_size=200), st.integers(min_value=1, max_value=12))
@settings(max_examples=50, deadline=None)
def test_split_combine_roundtrip_property(payload, parts):
    key = new_key(128)
    assert combine_shares(split_key(key, parts)) == key
    ct = encrypt(key, payload, "prop")
    assert decrypt(key, ct, "prop") == payload
