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

Validation: presets are constants proved by tier-1 (``tests/test_group.py``:
``p`` and ``q`` prime, ``p = 2q + 1``, ``g`` and ``h`` of order ``q``); a
manifest can only name one, so ``setup_params`` proves nothing at run time.

Membership: every preset has ``p = 2q + 1``, so the order-``q`` subgroup
is exactly the set of quadratic residues mod ``p``, and by Euler's
criterion ``x^q mod p`` equals the Legendre symbol ``(x/p)``, which
``is_member`` computes as a Jacobi symbol; the answer is exact. A peer's
bytes become elements only through ``decode_elements``, which returns a
block's elements only if each one passes ``is_member``. No other module
calls ``is_member``.

Arithmetic: every modexp and Jacobi symbol goes through one kernel,
``_powmod`` and ``_jacobi``, which call ``BN_mod_exp_mont_consttime`` and
``BN_kronecker`` in the system's ``libcrypto.so.3``, loaded on first use,
with a fresh ``BN_CTX`` per call since server sessions run on threads.
The ladder is constant-time, so the transfer's secret exponents do not
steer its timing, and a 2048-bit modexp costs about a tenth of builtin
``pow``. Modexps under 128-bit moduli, where the foreign call costs more
than the work, use ``pow``. Membership is a Jacobi symbol for every
preset, the toy ones included.

Work that runs without the GIL goes through ``_on_cpus``, which maps a
function over its jobs on one process-wide thread pool with a worker per
CPU the process may use (``_cpu_pool``). A transfer batch's
exponentiations are independent, so ``_powmods`` takes them all at once
and maps ``_powmod`` there; ctypes releases the GIL for the ladder, so the workers run in
parallel. The publisher also hashes its ciphertexts there
(``protocol.publish``), opens its payload files there
(``catalog.load_catalog``: a file of ``symcrypto.MAP_FLOOR`` bytes or more
is mapped with its pages populated in the ``mmap`` call, a smaller one is
read) and writes its ciphertext files there (``protocol.save_bundle``).
``protocol.load_bundle`` reads ciphertext files there and
``PublishedBundle.verify_digests`` hashes them there, and the buyer's
``protocol.fetch_bundle`` submits each fetched ciphertext's check to the
pool as the next one arrives. ``hashlib``, file reads and writes and the
ctypes ``mmap`` call release the GIL too. Every server session shares
that pool, so concurrent sessions queue their work instead of
oversubscribing the CPUs. The pool starts on the first call that needs
it, never during setup. An ``_on_cpus`` call runs inline on the calling
thread when it has fewer than two jobs or the process may use one CPU,
and a ``_powmods`` batch also when its modulus is under 128 bits. Pool
threads run ``_powmod``, digest checks (``catalog.ciphertext_digest``),
payload and ciphertext file loads and bundle file writes, nothing else.
So the digests of a publish, of a served bundle and of a buyer's fetch
run off the calling thread. Every other public function runs on the
thread of the session that called it, so whatever watches a session
per thread sees all of its other calls.

Wire encoding of an element is a fixed-width big-endian integer of
``ceil(bitlen(p) / 8)`` bytes (``element_len``), and elements travel as
blocks of such encodings: ``encode_elements`` makes one and
``decode_elements`` reads one. Outside this module an element on the
wire is opaque bytes. Pads are derived as
``SHA-256("WOT-PAD" || binding || element || counter)`` blocks truncated
to the requested length.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import threading
from dataclasses import dataclass
from functools import lru_cache

from . import symcrypto
from .errors import GroupError

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
    """True iff ``x`` is in [1, p-1] and the order-``q`` subgroup; see the module docstring."""
    return 1 <= x < params.p and _jacobi(x, params.p) == 1


def encode_elements(params: GroupParams, elements) -> bytes:
    """One block of ``element_len``-byte encodings, in order: the form elements travel in."""
    return b"".join(map(params.encode_element, elements))


def decode_elements(params: GroupParams, block) -> tuple[int, ...] | None:
    """The elements of a block from a peer, or ``None`` unless every one is a member.

    The only way a peer's bytes become elements. The checks stop at the
    first non-member. A block that is not a whole number of
    ``element_len``-byte elements raises ``GroupError``.
    """
    width = params.element_len
    if len(block) % width:
        raise GroupError(f"a {len(block)}-byte block is not whole {width}-byte elements")
    ys = tuple(int.from_bytes(block[i:i + width], "big") for i in range(0, len(block), width))
    return ys if all(is_member(params, y) for y in ys) else None


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
    """``pow(base, exp, mod)`` for ``exp >= 0`` and odd ``mod``; see the module docstring."""
    if mod.bit_length() < _FFI_MIN_BITS:
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


_pool = None  # the ThreadPoolExecutor, made by the first call that needs it
_pool_lock = threading.Lock()


def _on_cpus(fn, jobs) -> list:
    """``[fn(job) for job in jobs]``, spread over the CPUs; a worker's exception is raised here.

    See the module docstring for the pool and the calls that run inline.
    """
    if len(jobs) < 2 or _cpus() < 2:
        return [fn(job) for job in jobs]
    return list(_cpu_pool().map(fn, jobs))


def _cpu_pool():
    """The process-wide pool, started by the first call that needs it."""
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor  # kept out of cold start
            _pool = ThreadPoolExecutor(max_workers=_cpus(), thread_name_prefix="wot-cpu")
        return _pool


def _powmods(jobs: list[tuple[int, int]], mod: int) -> list[int]:
    """``[_powmod(base, exp, mod) for base, exp in jobs]``, on the CPU pool for large moduli."""
    if mod.bit_length() < _FFI_MIN_BITS:
        return [_powmod(base, exp, mod) for base, exp in jobs]
    return _on_cpus(lambda job: _powmod(job[0], job[1], mod), jobs)


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol ``(a/n)`` for odd ``n > 0``."""
    with _bignums(a % n, n) as (lib, ctx, bns):
        symbol = lib.BN_kronecker(*bns, ctx)
    _checked(symbol != -2, "BN_kronecker")
    return symbol


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


_PRESETS = {
    "p23": (23, 11, 2),
    "p47": (47, 23, 2),
    "modp-2048": (int(_MODP_2048_HEX, 16), (int(_MODP_2048_HEX, 16) - 1) // 2, 4),
}


@lru_cache(maxsize=None)
def setup_params(preset: str = "modp-2048") -> GroupParams:
    """The named preset with its hash-derived ``h``; tier-1 proves every preset."""
    if preset not in _PRESETS:
        raise GroupError(f"unknown group preset {preset!r}")
    p, q, g = _PRESETS[preset]
    return GroupParams(p=p, q=q, g=g, h=derive_h(p, q, preset), param_id=preset)


def rand_exponent(params: GroupParams, include_zero: bool = True) -> int:
    """Uniform exponent via rejection sampling on the package's random source."""
    bound = params.q if include_zero else params.q - 1
    bits = bound.bit_length()
    while True:
        x = symcrypto._RNG.getrandbits(bits)
        if x < bound:
            return x if include_zero else x + 1


def kdf_pad(params: GroupParams, element: int, transcript_binding: bytes, out_len: int) -> bytes:
    """Pseudorandom mask derived from a group element and a binding string.

    ``element`` must be a subgroup member; it is not checked here. Every
    pad input is a product or power of checked members (see ``wot.base_ot``).
    """
    return _hash_blocks(_PAD_TAG, (bytes(transcript_binding), params.encode_element(element)), out_len)
