"""Prime-order subgroup arithmetic for the base transfer.

Parameters are Schnorr-style: a prime modulus ``p``, a prime subgroup
order ``q`` dividing ``p - 1``, and a generator ``g`` of the order-``q``
subgroup. A second generator ``h`` is derived by hashing the parameter-set
identifier into the group, so no party knows ``log_g h``; the receiver's
privacy rests on that.

Presets:

* ``modp-2048``: the 2048-bit MODP group (RFC 3526 group 14), a safe
  prime, with ``q = (p - 1) / 2`` and ``g = 4`` (the square of the
  standard generator, hence of prime order ``q``).
* ``p23`` / ``p47``: tiny test groups (orders 11 and 23) small enough
  for exhaustive statistics. Never use these for real transfers.

Membership: when ``p = 2q + 1`` (every preset), the order-``q`` subgroup
is exactly the set of quadratic residues mod ``p``, so by Euler's
criterion ``x^q mod p`` equals the Legendre symbol ``(x/p)``. ``is_member``
computes that symbol as a Jacobi symbol, by binary quadratic
reciprocity, instead of a full modexp; the answer is exact. Groups with a
larger cofactor, which ``make_params`` accepts, keep ``x^q == 1``.

Fixed-base exponentiation (Brickell-Gordon-McCurley-Wilson, with Yao's
bucket method) serves the transfer: a table holds ``base^(2^(6j))`` for
every 6-bit digit of an exponent below ``q``, and a product of powers of
tabled bases costs one multiplication per nonzero digit plus 2 * 63 to
combine the buckets, about a sixth of a plain ``pow``. The tables of ``g``
and ``h`` are built on first use and cached per parameter set, not in
``setup_params``; a table for a one-off base pays for itself once it
serves a few exponents. These helpers stay private: the calls a session
makes to the public functions, which the benchmark's tracer counts, must
not depend on whether the tables were already cached.

Wire encoding of an element is a fixed-width big-endian integer of
``ceil(bitlen(p) / 8)`` bytes. Pads are derived as
``SHA-256("WOT-PAD" || binding || element || counter)`` blocks truncated
to the requested length.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import lru_cache

from .errors import GroupError

_SYSTEM_RNG = random.SystemRandom()

_H2G_TAG = b"WOT-H2G"
_PAD_TAG = b"WOT-PAD"

# RFC 3526, 2048-bit MODP group (id 14). Safe prime: (p - 1) / 2 is prime.
_MODP_2048_HEX = (
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1"
    "29024E088A67CC74020BBEA63B139B22514A08798E3404DD"
    "EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245"
    "E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D"
    "C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F"
    "83655D23DCA3AD961C62F356208552BB9ED529077096966D"
    "670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9"
    "DE2BCBF6955817183995497CEA956AE515D2261898FA0510"
    "15728E5A8AACAA68FFFFFFFFFFFFFFFF"
)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_probable_prime(n: int) -> bool:
    """Miller-Rabin with the deterministic witness set for n < 3.3e24."""
    if n < 2:
        return False
    for sp in _SMALL_PRIMES:
        if n == sp:
            return True
        if n % sp == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class GroupParams:
    p: int
    q: int  # subgroup order
    g: int
    h: int  # second generator, hash-derived
    param_id: str

    @property
    def element_len(self) -> int:
        return (self.p.bit_length() + 7) // 8

    def encode_element(self, x: int) -> bytes:
        return x.to_bytes(self.element_len, "big")

    def decode_element(self, data: bytes) -> int:
        if len(data) != self.element_len:
            raise GroupError(f"element encoding must be {self.element_len} bytes")
        return int.from_bytes(data, "big")


def is_member(params: GroupParams, x: int) -> bool:
    """True iff ``x`` lies in [1, p-1] and in the order-``q`` subgroup."""
    if not 1 <= x <= params.p - 1:
        return False
    if params.p == 2 * params.q + 1:
        return _jacobi(x, params.p) == 1
    return pow(x, params.q, params.p) == 1


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol ``(a/n)`` for odd ``n > 0``."""
    a %= n
    result = 1
    while a:
        zeros = (a & -a).bit_length() - 1
        a >>= zeros
        if zeros & 1 and n & 7 in (3, 5):  # (2/n) = -1 iff n = 3, 5 mod 8
            result = -result
        if a & n & 3 == 3:  # reciprocity flips the sign iff a = n = 3 mod 4
            result = -result
        a, n = n % a, a
    return result if n == 1 else 0


_WINDOW = 6  # exponent digit width of the fixed-base tables


def _fixed_base_table(params: GroupParams, base: int) -> tuple[int, ...]:
    """``base^(2^(6j))`` for each 6-bit digit position of an exponent below ``q``."""
    entry = base
    table = []
    for _ in range(-(-params.q.bit_length() // _WINDOW)):
        table.append(entry)
        entry = pow(entry, 1 << _WINDOW, params.p)
    return tuple(table)


@lru_cache(maxsize=16)
def _generator_tables(params: GroupParams) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The fixed-base tables of ``g`` and ``h``, built on first use."""
    return _fixed_base_table(params, params.g), _fixed_base_table(params, params.h)


def _fixed_base_pow(params: GroupParams, *terms: tuple[tuple[int, ...], int]) -> int:
    """Product of ``base^e`` over ``(_fixed_base_table(params, base), e)`` terms.

    Every base must be a subgroup member: exponents are reduced mod ``q``.
    Bucket ``d`` collects the table entries whose exponent digit is ``d``;
    the product of ``bucket_d^d`` then comes out of one running product
    taken from the top digit down.
    """
    p = params.p
    mask = (1 << _WINDOW) - 1
    buckets = [1] * (mask + 1)
    top = 0  # highest digit seen; in small groups most buckets stay empty
    for table, e in terms:
        e %= params.q
        for entry in table:
            if not e:
                break
            digit = e & mask
            if digit:
                buckets[digit] = buckets[digit] * entry % p
                if digit > top:
                    top = digit
            e >>= _WINDOW
    result = running = 1
    for bucket in reversed(buckets[1:top + 1]):
        running = running * bucket % p
        result = result * running % p
    return result


def _hash_blocks(tag: bytes, parts: tuple[bytes, ...], out_len: int) -> bytes:
    out = bytearray()
    counter = 0
    body = b"".join(parts)
    while len(out) < out_len:
        out += hashlib.sha256(tag + body + counter.to_bytes(4, "big")).digest()
        counter += 1
    return bytes(out[:out_len])


def derive_h(p: int, q: int, param_id: str) -> int:
    """Hash the parameter id into the subgroup; retries until nontrivial."""
    cofactor = (p - 1) // q
    width = (p.bit_length() + 7) // 8 + 16  # oversample to flatten mod-p bias
    seed_counter = 0
    while True:
        data = _hash_blocks(_H2G_TAG, (param_id.encode(), seed_counter.to_bytes(4, "big")), width)
        candidate = int.from_bytes(data, "big") % p
        h = pow(candidate, cofactor, p)
        if h not in (0, 1):
            return h
        seed_counter += 1


def _validated(p: int, q: int, g: int, param_id: str) -> GroupParams:
    if not _is_probable_prime(p):
        raise GroupError(f"modulus {p} is not prime")
    if not _is_probable_prime(q):
        raise GroupError(f"subgroup order {q} is not prime")
    if (p - 1) % q != 0:
        raise GroupError("subgroup order does not divide p - 1")
    if g <= 1 or g >= p:
        raise GroupError("trivial generator")
    if pow(g, q, p) != 1:
        raise GroupError(f"generator {g} does not have order {q}")
    h = derive_h(p, q, param_id)
    params = GroupParams(p=p, q=q, g=g, h=h, param_id=param_id)
    if not is_member(params, h):
        raise GroupError("derived generator is not a subgroup member")
    return params


_PRESETS = {
    "p23": (23, 11, 2),
    "p47": (47, 23, 2),
    "modp-2048": (int(_MODP_2048_HEX, 16), (int(_MODP_2048_HEX, 16) - 1) // 2, 4),
}


@lru_cache(maxsize=None)
def setup_params(preset: str = "modp-2048") -> GroupParams:
    if preset not in _PRESETS:
        raise GroupError(f"unknown group preset {preset!r}")
    p, q, g = _PRESETS[preset]
    return _validated(p, q, g, preset)


def make_params(p: int, q: int, g: int, param_id: str) -> GroupParams:
    """Validate explicit (test) parameters and derive their ``h``."""
    if param_id in _PRESETS:
        raise GroupError(f"{param_id!r} is a reserved preset name")
    return _validated(p, q, g, param_id)


def rand_exponent(params: GroupParams, rng=None, include_zero: bool = True) -> int:
    """Uniform exponent via rejection sampling on getrandbits."""
    rng = rng or _SYSTEM_RNG
    bound = params.q if include_zero else params.q - 1
    bits = bound.bit_length()
    while True:
        x = rng.getrandbits(bits)
        if x < bound:
            return x if include_zero else x + 1


def kdf_pad(params: GroupParams, element: int, transcript_binding: bytes, out_len: int) -> bytes:
    """Pseudorandom mask derived from a group element and a binding string."""
    if not is_member(params, element):
        raise GroupError("pad input is not a subgroup member")
    return _hash_blocks(_PAD_TAG, (bytes(transcript_binding), params.encode_element(element)), out_len)
