"""Authenticated item encryption and XOR key splitting.

Ciphertext layout (also the wire and bundle-file format)::

    12-byte nonce || body || 16-byte GCM tag

The cipher is AES-128-GCM for 128-bit keys and AES-256-GCM for 256-bit
keys, so independently published bundles are bit-exact given the same key
and nonce. The ``context`` string is bound as associated data; it carries
the protocol mode, item id, and layer ordinal so a ciphertext cannot be
swapped for another item's and still authenticate. ``decrypt`` and
``nested_decrypt`` take any bytes-like ciphertext (a buyer's is a view
over the received frame) and read it in place, without copying it.

``encrypt`` writes each ciphertext once, with ``AESGCM.encrypt_into``,
into one buffer of exactly its size, and returns a read-only
``memoryview`` of it; a seller's ciphertexts are such views, as a buyer's
are. ``nested_encrypt`` alternates its layers between two buffers, each
layer reading the one below from the other buffer, so that the outermost
layer lands in the buffer it returns: an item costs two allocations
however many layers it has.

A buffer that is returned, and so written once and kept, comes from
``_new_buffer``. From ``MAP_FLOOR`` bytes up it is an anonymous mapping
whose pages the kernel supplies when it is made (``MAP_POPULATE``, where
the platform has it), not a ``bytearray``: one call then replaces a page
fault per 4 KiB page as the cipher first writes it. Smaller buffers
and ``nested_encrypt``'s short-lived second buffer are ``bytearray``
objects; mapping that second buffer too took more
faults per ``p1`` publish and was not faster.

A key split into ``p`` shares draws ``p - 1`` uniform share strings and
sets the last share to the XOR of the key with all of them: any proper
subset of shares is jointly uniform and reveals nothing about the key.

Every key, nonce, share and transfer exponent is drawn at call time from
``_RNG``, the operating system's source and the package's only one. No
caller can pass another: a predictable one would give away every key or choice.
"""

from __future__ import annotations

import mmap
import random
from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .errors import AuthenticationError, CryptoError

NONCE_LEN = 12
TAG_LEN = 16
KEY_BITS_CHOICES = (128, 256)

_RNG = random.SystemRandom()

# Buffers and payload files of at least this many bytes are mapped
# (``_new_buffer`` here, ``catalog._open_payload`` for payloads). Smaller
# ones have few pages to fault, and a mapping costs system calls of its own.
MAP_FLOOR = 1 << 20
MAP_POPULATE = getattr(mmap, "MAP_POPULATE", 0)  # 0: a plain mapping


def _new_buffer(size: int):
    """A writable buffer of ``size`` zero bytes, pre-faulted from ``MAP_FLOOR`` up."""
    if size < MAP_FLOOR:
        return bytearray(size)
    return mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS | MAP_POPULATE)


def _check_key(key: bytes) -> bytes:
    if not isinstance(key, (bytes, bytearray)):
        raise CryptoError("key must be bytes")
    if len(key) * 8 not in KEY_BITS_CHOICES:
        raise CryptoError(f"key must be 16 or 32 bytes, got {len(key)}")
    return bytes(key)


def new_key(key_bits: int = 128) -> bytes:
    if key_bits not in KEY_BITS_CHOICES:
        raise CryptoError(f"unsupported key length {key_bits}")
    return _RNG.randbytes(key_bits // 8)


def encrypt(key: bytes, plaintext, context: str = "", out=None) -> memoryview:
    """``nonce || body || tag`` as a read-only view, written into the front of ``out``.

    Without ``out``, into a new buffer of exactly the ciphertext's size
    (``_new_buffer``).
    """
    key = _check_key(key)
    nonce = _RNG.randbytes(NONCE_LEN)
    size = NONCE_LEN + len(plaintext) + TAG_LEN
    view = memoryview(_new_buffer(size) if out is None else out)[:size]
    view[:NONCE_LEN] = nonce
    AESGCM(key).encrypt_into(nonce, plaintext, context.encode(), view[NONCE_LEN:])
    return view.toreadonly()


def decrypt(key: bytes, ciphertext: bytes, context: str = "") -> bytes:
    key = _check_key(key)
    if len(ciphertext) < NONCE_LEN + TAG_LEN:
        raise CryptoError("malformed ciphertext: too short")
    view = memoryview(ciphertext)
    try:
        return AESGCM(key).decrypt(view[:NONCE_LEN], view[NONCE_LEN:], context.encode())
    except InvalidTag:
        raise AuthenticationError("authentication failure") from None


def xor_bytes(a: bytes, b: bytes) -> bytes:
    if len(a) != len(b):
        raise CryptoError("xor length mismatch")
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


def split_key(key: bytes, parts: int) -> list[bytes]:
    """Split ``key`` into ``parts`` XOR shares; all of them recombine to the key.

    Exactly ``parts - 1`` random strings are drawn; the final share absorbs
    the key.
    """
    if parts < 1:
        raise CryptoError(f"share count must be >= 1, got {parts}")
    shares = [_RNG.randbytes(len(key)) for _ in range(parts - 1)]
    last = bytes(key)
    for share in shares:
        last = xor_bytes(last, share)
    return shares + [last]


def combine_shares(shares) -> bytes:
    if not shares:
        raise CryptoError("cannot combine zero shares")
    out = bytes(shares[0])
    for share in shares[1:]:
        out = xor_bytes(out, share)
    return out


def _layer_context(context: str, layer: int) -> str:
    return f"{context}|layer{layer}"


def nested_encrypt(keys, plaintext, context: str = "") -> memoryview:
    """Encrypt under every key in turn; ``keys[0]`` ends up outermost.

    Odd layers go into the outermost layer's buffer (``_new_buffer``) and
    even layers into a ``bytearray`` sized for layer 2, so each layer reads
    the one below from the other.
    """
    keys = list(keys)
    if not keys:
        raise CryptoError("nested encryption needs at least one key")
    overhead = NONCE_LEN + TAG_LEN
    outer = _new_buffer(len(plaintext) + len(keys) * overhead)
    second = bytearray(len(plaintext) + (len(keys) - 1) * overhead) if len(keys) > 1 else None
    buffers = (second, outer)  # indexed by layer parity
    blob = plaintext
    for layer in range(len(keys), 0, -1):
        blob = encrypt(keys[layer - 1], blob, _layer_context(context, layer),
                       buffers[layer % 2])
    return blob


def nested_decrypt(keys, ciphertext: bytes, context: str = "") -> bytes:
    """Peel layers outermost-first; raises naming the first failing layer."""
    keys = list(keys)
    if not keys:
        raise CryptoError("nested decryption needs at least one key")
    blob = ciphertext
    for layer in range(1, len(keys) + 1):
        try:
            blob = decrypt(keys[layer - 1], blob, _layer_context(context, layer))
        except AuthenticationError:
            raise AuthenticationError(f"authentication failure at layer {layer}") from None
    return blob
