"""1-out-of-N oblivious transfer over a prime-order subgroup.

One pick moves one of the sender's N fixed-length secrets. The scheme is
the Naor-Pinkas 1-out-of-N transfer in the random-oracle model (SODA 2001)
on two generators ``g`` and ``h``:

* Receiver, choosing index ``c``: draw a uniform exponent ``r`` and send
  ``y = g^r * h^c``. Over random ``r`` this is uniform on the subgroup
  whatever ``c`` is, so the query carries no information about the choice.
* Sender: draw one fresh nonzero exponent ``k`` for the pick and reply with
  ``a = g^k`` and, for every index ``i``, the mask
  ``m_i = pad(e_i, binding || i) XOR s_i`` where ``e_i = (y * h^-i)^k``.
  The elements form one running product: ``e_0 = y^k`` and
  ``e_(i+1) = e_i * h^-k``. A pick therefore costs one variable-base
  ``pow`` (``y^k``), two fixed-base exponentiations from the cached ``g``
  and ``h`` tables (``g^k`` and ``h^-k``), and one multiplication and one
  pad per index. The reply is one element plus N masks.
* Receiver: ``a^r = g^(rk) = e_c``, so exactly ``s_c`` unmasks.

Why the receiver opens only one index. For ``i != j``,
``e_i / e_j = h^((j - i) * k)``. A receiver that learned the pads of two
indices ``i != j`` of one pick would, in the random-oracle model, have
queried both ``e_i`` and ``e_j``, and ``(e_i / e_j)^((j - i)^-1 mod q)``
is then ``h^k``: the Diffie-Hellman value ``CDH(g, h, g^k)``, which nobody
can compute without ``log_g h`` (``h`` is hash-derived; see ``wot.group``).
The inverse exists because ``0 < |j - i| < N <= q``. On ``modp-2048``,
``N < 2^32`` is far below ``q``. The toy groups break once ``N > q``: then
indices ``i`` and ``i + q`` share one element. ``k`` is fresh per pick and
never shared across picks, and every pad is bound to (batch transcript,
pick ordinal, index), so no pad is reused across picks or indices.

A k-of-N transfer is this primitive repeated once per pick with fresh
randomness, batched into a single request and a single response.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from .errors import GroupError, ProtocolError
from .group import (GroupParams, _fixed_base_pow, _generator_tables, is_member, kdf_pad,
                    rand_exponent)
from .instrument import Counters

_SYSTEM_RNG = random.SystemRandom()

_SID_TAG = b"WOT-SID"


@dataclass(frozen=True)
class OtResponse:
    """Sender's answer for one pick: ``a = g^k`` and N masked secrets."""

    a: int
    masks: tuple[bytes, ...]

    @property
    def n_secrets(self) -> int:
        return len(self.masks)


def ot_query(params: GroupParams, n_secrets: int, index: int,
             rng=None, counters: Counters | None = None) -> tuple[int, int]:
    """Build the query element ``y`` for ``index``; returns it with the secret exponent."""
    if not 0 <= index < n_secrets:
        raise ProtocolError(f"pick index {index} out of range [0, {n_secrets})")
    rng = rng or _SYSTEM_RNG
    r = rand_exponent(params, rng)
    if counters:
        counters.query_exponents += 1
    return query_element(params, index, r), r


def query_element(params: GroupParams, index: int, r: int) -> int:
    g_table, _ = _generator_tables(params)
    return _fixed_base_pow(params, (g_table, r)) * pow(params.h, index, params.p) % params.p


def ot_respond(params: GroupParams, secrets, y: int, binding: bytes,
               rng=None, counters: Counters | None = None) -> OtResponse:
    """Answer one pick: mask every secret under its per-index pad."""
    secrets = list(secrets)
    if not secrets:
        raise ProtocolError("no secrets to transfer")
    if not is_member(params, y):
        raise GroupError("invalid query: not a subgroup member")
    rng = rng or _SYSTEM_RNG
    p = params.p
    k = rand_exponent(params, rng, include_zero=False)
    if counters:
        counters.response_exponents += 1
    g_table, h_table = _generator_tables(params)
    a = _fixed_base_pow(params, (g_table, k))
    step = _fixed_base_pow(params, (h_table, -k))
    element = pow(y, k, p)  # e_0 = y^k
    masks = []
    for i, secret in enumerate(secrets):
        if i:
            element = element * step % p  # e_i = (y * h^-i)^k
        pad = kdf_pad(params, element, _index_binding(binding, i), len(secret))
        masks.append(bytes(x ^ y for x, y in zip(pad, secret)))
    return OtResponse(a=a, masks=tuple(masks))


def ot_recover(params: GroupParams, response: OtResponse, index: int, r: int,
               binding: bytes) -> bytes:
    """Unmask the secret at ``index`` using the query's secret exponent."""
    if not 0 <= index < response.n_secrets:
        raise ProtocolError(f"pick index {index} out of range")
    if not is_member(params, response.a):
        raise GroupError("invalid response element")
    masked = response.masks[index]
    pad = kdf_pad(params, pow(response.a, r, params.p), _index_binding(binding, index),
                  len(masked))
    return bytes(x ^ y for x, y in zip(pad, masked))


def _index_binding(binding: bytes, index: int) -> bytes:
    return bytes(binding) + index.to_bytes(4, "big")


def pick_binding(batch_binding: bytes, ordinal: int) -> bytes:
    return bytes(batch_binding) + ordinal.to_bytes(4, "big")


def batch_binding(params: GroupParams, queries) -> bytes:
    """Session binding derived from the query batch both sides observe."""
    digest = hashlib.sha256(_SID_TAG)
    for y in queries:
        digest.update(params.encode_element(y))
    return digest.digest()
