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
  ``e_(i+1) = e_i * h^-k``, with ``h^-k = h^(q - k)``. A pick therefore
  costs three constant-time exponentiations (``g^k``, ``h^-k`` and
  ``y^k``; see ``wot.group``), and one multiplication and one pad per
  index. The reply is one element plus N masks.
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

Why nothing here checks subgroup membership. Every element a pad is
derived from is a product or power of elements already known to lie in
the order-``q`` subgroup G_q, and G_q is closed under both. ``h`` is
checked once, when the parameters are validated (see ``wot.group``). The
peer's elements, ``y`` on the sender's side and ``a`` on the receiver's,
are checked once at the session boundary, before any exponentiation, by
``wot.protocol``. Then ``y``, ``h`` in G_q gives
``e_i = y^k * h^(-ik)`` in G_q, and ``a`` in G_q gives ``a^r`` in G_q.
``ot_respond`` and ``ot_recover`` take that check as a precondition.

A k-of-N transfer is this primitive repeated once per pick with fresh
randomness, batched into a single request and a single response.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from .errors import ProtocolError
from .group import GroupParams, _powmod, kdf_pad, rand_exponent
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
    p = params.p
    return _powmod(params.g, r, p) * _powmod(params.h, index, p) % p


def ot_respond(params: GroupParams, secrets, y: int, binding: bytes,
               rng=None, counters: Counters | None = None) -> OtResponse:
    """Answer one pick: mask every secret under its per-index pad.

    ``y`` must be a subgroup member; the caller checks the peer's query.
    """
    secrets = list(secrets)
    if not secrets:
        raise ProtocolError("no secrets to transfer")
    rng = rng or _SYSTEM_RNG
    p = params.p
    k = rand_exponent(params, rng, include_zero=False)
    if counters:
        counters.response_exponents += 1
    a = _powmod(params.g, k, p)
    step = _powmod(params.h, params.q - k, p)  # h^-k
    element = _powmod(y, k, p)  # e_0 = y^k
    masks = []
    for i, secret in enumerate(secrets):
        if i:
            element = element * step % p  # e_i = (y * h^-i)^k
        pad = kdf_pad(params, element, _index_binding(binding, i), len(secret))
        masks.append(bytes(x ^ y for x, y in zip(pad, secret)))
    return OtResponse(a=a, masks=tuple(masks))


def ot_recover(params: GroupParams, response: OtResponse, index: int, r: int,
               binding: bytes) -> bytes:
    """Unmask the secret at ``index`` using the query's secret exponent.

    ``response.a`` must be a subgroup member; the caller checks the peer's reply.
    """
    if not 0 <= index < response.n_secrets:
        raise ProtocolError(f"pick index {index} out of range")
    masked = response.masks[index]
    pad = kdf_pad(params, _powmod(response.a, r, params.p), _index_binding(binding, index),
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
