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

Validation: ``setup_params`` and ``make_params`` check every parameter set
when it is first used, presets included. ``q`` must pass Miller-Rabin with
the twelve prime bases up to 37. ``p`` is then proved prime from ``q`` by
Pocklington's criterion (Brillhart-Lehmer-Selfridge, 1975): when
``q | p - 1`` and ``q * q > p``, ``p`` is prime iff some base ``a`` has
``a^(p-1) = 1 (mod p)`` and ``gcd(a^((p-1)/q) - 1, p) = 1``, since every
prime factor of ``p`` is then ``1 mod q``, hence above ``sqrt(p)``. For
``modp-2048`` that is one modexp; groups with a small ``q``, or where no
base settles it, fall back to Miller-Rabin on ``p``. The order of ``g`` is
checked with the membership predicate below, Jacobi symbol included.

Membership: when ``p = 2q + 1`` (every preset), the order-``q`` subgroup
is exactly the set of quadratic residues mod ``p``, so by Euler's
criterion ``x^q mod p`` equals the Legendre symbol ``(x/p)``, which
``is_member`` computes as a Jacobi symbol; the answer is exact. Groups
with a larger cofactor, which ``make_params`` accepts, keep ``x^q == 1``.

Arithmetic: every modexp and Jacobi symbol goes through one kernel,
``_powmod`` and ``_jacobi``, which call ``BN_mod_exp_mont_consttime`` and
``BN_kronecker`` in the system's ``libcrypto.so.3``, loaded on first use,
with a fresh ``BN_CTX`` per call since server sessions run on threads.
The ladder is constant-time, so the transfer's secret exponents do not
steer its timing, and a 2048-bit modexp costs about a tenth of builtin
``pow``. Moduli under 128 bits (where the foreign call costs more than
the work; toy groups take ``x^q`` there) and even moduli use ``pow``.

A transfer batch's exponentiations are independent, so ``_powmods`` takes
them all at once and maps ``_powmod`` over one process-wide thread pool
with a worker per CPU the process may use; ctypes releases the GIL for the
ladder, so the workers run in parallel. Every server session shares that
pool, so concurrent sessions queue their work instead of oversubscribing
the CPUs. The pool starts on the first batch that needs it, never during
setup. A batch runs inline on the calling thread when it has fewer than two
jobs, when the process may use one CPU, or when the modulus is under 128
bits. Pool threads run ``_powmod`` and nothing else: every public function
runs on the thread of the session that called it, so whatever watches a
session per thread sees all of its calls.

Wire encoding of an element is a fixed-width big-endian integer of
``ceil(bitlen(p) / 8)`` bytes. Pads are derived as
``SHA-256("WOT-PAD" || binding || element || counter)`` blocks truncated
to the requested length.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import math
import os
import random
import threading
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
    r = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2^r with d odd
    d = (n - 1) >> r
    for a in _SMALL_PRIMES:
        x = _powmod(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = _powmod(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def _pocklington_prime(p: int, q: int) -> bool:
    """Primality of ``p``, given that ``q`` is prime; see the module docstring."""
    if (p - 1) % q or q * q <= p:
        return _is_probable_prime(p)
    cofactor = (p - 1) // q
    for a in _SMALL_PRIMES:
        x = _powmod(a, cofactor, p)
        if _powmod(x, q, p) != 1:
            return False  # Fermat witness
        if math.gcd(x - 1, p) == 1:
            return True
    return _is_probable_prime(p)


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


def is_member(params: GroupParams, x: int) -> bool:
    """True iff ``x`` lies in [1, p-1] and in the order-``q`` subgroup."""
    return 1 <= x <= params.p - 1 and _has_order_q(x, params.p, params.q)


_LIBCRYPTO = "libcrypto.so.3"
_FFI_MIN_BITS = 128  # below this, builtin pow beats the foreign call's overhead


@lru_cache(maxsize=None)
def _libcrypto() -> ctypes.CDLL:
    try:
        lib = ctypes.CDLL(_LIBCRYPTO)
    except OSError as exc:
        raise GroupError(f"cannot load {_LIBCRYPTO} for modular arithmetic: {exc}") from None
    ptr, num, buf = ctypes.c_void_p, ctypes.c_int, ctypes.c_char_p
    for name, restype, *argtypes in (
            ("BN_CTX_new", ptr), ("BN_CTX_free", None, ptr), ("BN_clear_free", None, ptr),
            ("BN_bin2bn", ptr, buf, num, ptr), ("BN_bn2binpad", num, ptr, buf, num),
            ("BN_mod_exp_mont_consttime", num, ptr, ptr, ptr, ptr, ptr, ptr),
            ("BN_kronecker", num, ptr, ptr, ptr)):
        fn = getattr(lib, name)
        fn.restype, fn.argtypes = restype, argtypes
    return lib


def _checked(result, what: str):
    if not result:
        raise GroupError(f"libcrypto {what} failed")
    return result


@contextlib.contextmanager
def _bignums(*values: int):
    """Yield libcrypto, a new ``BN_CTX`` and ``BIGNUM`` copies of ``values``; wipe all on exit."""
    lib = _libcrypto()
    ctx = _checked(lib.BN_CTX_new(), "BN_CTX_new")
    bns = []
    try:
        for x in values:
            data = x.to_bytes((x.bit_length() + 7) // 8, "big")
            bns.append(_checked(lib.BN_bin2bn(data, len(data), None), "BN_bin2bn"))
        yield lib, ctx, bns
    finally:
        for bn in bns:
            lib.BN_clear_free(bn)
        lib.BN_CTX_free(ctx)


def _powmod(base: int, exp: int, mod: int) -> int:
    """``pow(base, exp, mod)`` for ``exp >= 0``; see the module docstring."""
    if mod.bit_length() < _FFI_MIN_BITS or not mod & 1:
        return pow(base, exp, mod)
    width = (mod.bit_length() + 7) // 8
    out = ctypes.create_string_buffer(width)
    with _bignums(0, base % mod, exp, mod) as (lib, ctx, (result, *args)):
        _checked(lib.BN_mod_exp_mont_consttime(result, *args, ctx, None), "modexp")
        _checked(lib.BN_bn2binpad(result, out, width) == width, "BN_bn2binpad")
    return int.from_bytes(out.raw, "big")


@lru_cache(maxsize=None)
def _cpus() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without affinity masks
        return os.cpu_count() or 1


_pool = None  # the ThreadPoolExecutor, made by the first batch that needs it
_pool_lock = threading.Lock()


def _powmods(jobs: list[tuple[int, int]], mod: int) -> list[int]:
    """``[_powmod(base, exp, mod) for base, exp in jobs]``, spread over the CPUs.

    See the module docstring for the pool and the batches that run inline.
    """
    global _pool
    if len(jobs) < 2 or _cpus() < 2 or mod.bit_length() < _FFI_MIN_BITS:
        return [_powmod(base, exp, mod) for base, exp in jobs]
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor  # kept out of cold start
            _pool = ThreadPoolExecutor(max_workers=_cpus(), thread_name_prefix="wot-powmod")
        pool = _pool
    return list(pool.map(lambda job: _powmod(job[0], job[1], mod), jobs))


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol ``(a/n)`` for odd ``n > 0``."""
    with _bignums(a % n, n) as (lib, ctx, bns):
        symbol = lib.BN_kronecker(*bns, ctx)
    _checked(symbol != -2, "BN_kronecker")
    return symbol


def _has_order_q(x: int, p: int, q: int) -> bool:
    """``x^q == 1 (mod p)``, for ``x`` in ``[1, p - 1]``; see the module docstring."""
    if p == 2 * q + 1 and p.bit_length() >= _FFI_MIN_BITS:
        return _jacobi(x, p) == 1
    return _powmod(x, q, p) == 1


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
        h = _powmod(candidate, cofactor, p)
        if h not in (0, 1):
            return h
        seed_counter += 1


def _validated(p: int, q: int, g: int, param_id: str) -> GroupParams:
    q_is_prime = _is_probable_prime(q)
    if not (_pocklington_prime(p, q) if q_is_prime else _is_probable_prime(p)):
        raise GroupError(f"modulus {p} is not prime")
    if not q_is_prime:
        raise GroupError(f"subgroup order {q} is not prime")
    if (p - 1) % q != 0:
        raise GroupError("subgroup order does not divide p - 1")
    if g <= 1 or g >= p:
        raise GroupError("trivial generator")
    # is_member's predicate without a call to it, whose calls the tracer counts.
    if not _has_order_q(g, p, q):
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
    """Pseudorandom mask derived from a group element and a binding string.

    ``element`` must be a subgroup member; it is not checked here. Every
    pad input is a product or power of checked members (see ``wot.base_ot``).
    """
    return _hash_blocks(_PAD_TAG, (bytes(transcript_binding), params.encode_element(element)), out_len)
