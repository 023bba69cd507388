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
  ``e_(i+1) = e_i * h^-k``, with ``h^-k = h^(q - k)``: three
  exponentiations per pick, then one multiplication and one pad per
  index. The reply is one element plus N masks.
* Receiver: ``a^r = g^(rk) = e_c``, so exactly ``s_c`` unmasks.

A batch's exponentiations run together, drawn serially. Each side draws
every exponent of its batch on its own thread, in pick order, and only
then hands all of the batch's constant-time exponentiations to
``group._powmods`` at once (see ``wot.group``): ``ot_query`` computes
every ``g^r`` and ``h^c``, ``respond_powers`` every pick's ``g^k``,
``h^-k`` and ``y^k``, and ``ot_recover`` every ``a^r``. So a batch reads
``symcrypto._RNG`` in the order one pick after another would. ``ot_respond``
then masks one pick's secrets from its three powers, with multiplications
and pads only.

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
``respond_powers`` and ``ot_recover`` take that check as a precondition.

A k-of-N transfer is this primitive repeated once per pick with fresh
randomness, batched into a single request and a single response.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from .errors import ProtocolError
from .group import GroupParams, _powmods, kdf_pad, rand_exponent
from .symcrypto import xor_bytes

_SID_TAG = b"WOT-SID"


@dataclass(frozen=True)
class OtResponse:
    """Sender's answer for one pick: ``a = g^k`` and N masked secrets."""

    a: int
    masks: tuple[bytes, ...]

    @property
    def n_secrets(self) -> int:
        return len(self.masks)


def ot_query(params: GroupParams, n_secrets: int,
             indices) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Build one query element ``y`` per pick index; returns them with their secret exponents."""
    indices = tuple(indices)
    for index in indices:
        if not 0 <= index < n_secrets:
            raise ProtocolError(f"pick index {index} out of range [0, {n_secrets})")
    exponents = tuple(rand_exponent(params) for _ in indices)
    p = params.p
    powers = _powmods([(params.g, r) for r in exponents]
                      + [(params.h, index) for index in indices], p)
    t = len(indices)
    return tuple(gr * hc % p for gr, hc in zip(powers[:t], powers[t:])), exponents


def respond_powers(params: GroupParams, queries) -> tuple[tuple[int, int, int], ...]:
    """Draw each pick's fresh nonzero ``k``; returns ``(g^k, h^-k, y^k)`` per query ``y``.

    Every ``y`` must be a subgroup member; the caller checks the peer's query.
    """
    ks = [rand_exponent(params, include_zero=False) for _ in queries]
    jobs = []
    for y, k in zip(queries, ks):
        jobs += [(params.g, k), (params.h, params.q - k), (y, k)]
    powers = _powmods(jobs, params.p)
    return tuple(tuple(powers[i:i + 3]) for i in range(0, len(powers), 3))


def ot_respond(params: GroupParams, secrets, powers: tuple[int, int, int],
               binding: bytes) -> OtResponse:
    """Answer one pick from its ``respond_powers`` entry: mask every secret under its pad."""
    secrets = list(secrets)
    if not secrets:
        raise ProtocolError("no secrets to transfer")
    p = params.p
    a, step, element = powers  # g^k, h^-k and e_0 = y^k
    masks = []
    for i, secret in enumerate(secrets):
        if i:
            element = element * step % p  # e_i = (y * h^-i)^k
        pad = kdf_pad(params, element, _index_binding(binding, i), len(secret))
        masks.append(xor_bytes(pad, secret))
    return OtResponse(a=a, masks=tuple(masks))


def ot_recover(params: GroupParams, responses, indices, exponents,
               bindings) -> tuple[bytes, ...]:
    """Unmask each pick's secret at its index, using its query's secret exponent.

    Every ``response.a`` must be a subgroup member; the caller checks the peer's reply.
    """
    picks = list(zip(responses, indices, exponents, bindings, strict=True))
    for response, index, _, _ in picks:
        if not 0 <= index < response.n_secrets:
            raise ProtocolError(f"pick index {index} out of range")
    shared = _powmods([(response.a, r) for response, _, r, _ in picks], params.p)
    secrets = []
    for (response, index, _, binding), element in zip(picks, shared):
        masked = response.masks[index]
        pad = kdf_pad(params, element, _index_binding(binding, index), len(masked))
        secrets.append(xor_bytes(pad, masked))
    return tuple(secrets)


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
