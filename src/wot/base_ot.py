"""1-out-of-N oblivious transfer over a prime-order subgroup.

One pick moves one of the sender's N fixed-length secrets. The scheme is
the Naor-Pinkas 1-out-of-N transfer in the random-oracle model (SODA 2001)
on two generators ``g`` and ``h``:

* Receiver, choosing index ``c``: draw a uniform exponent ``r`` and send
  ``y = g^r * h^c``. Over random ``r`` this is uniform on the subgroup
  whatever ``c`` is, so the query carries no information about the choice.
* Sender: draw one nonzero exponent ``k`` for the whole batch and reply
  with ``a = g^k`` once and, per pick and for every index ``i``, the mask
  ``m_i = pad(e_i, binding || i) XOR s_i`` where ``e_i = (y * h^-i)^k``.
  The elements form one running product: ``e_0 = y^k`` and
  ``e_(i+1) = e_i * h^-k``, with ``h^-k = h^(q - k)``. A batch of ``T``
  picks shares ``g^k`` and ``h^-k``, so it costs ``T + 2``
  exponentiations, then one multiplication and one pad per (pick,
  index). The reply is one element, then N masks per pick.
* Receiver: ``a^r = g^(rk) = e_c``, so exactly ``s_c`` unmasks.

A batch's exponentiations run together, drawn serially. Each side draws
every exponent of its batch on its own thread, in pick order, and only
then hands all of the batch's constant-time exponentiations to
``group._powmods`` at once (see ``wot.group``): ``ot_query`` computes
every ``g^r`` and ``h^c``, ``respond_powers`` the batch's ``g^k`` and
``h^-k`` and every pick's ``y^k``, and ``ot_recover`` every ``a^r``. So
the receiver's batch reads ``symcrypto._RNG`` in the order one pick after
another would, and a one-pick batch of the sender's draws what a lone
pick does. The sender's ``ot_reply`` then has ``ot_respond`` mask each
pick's secrets with multiplications and pads only. It and ``ot_recover``
own the batch: each derives every pad's binding from the query batch.

Why the receiver opens only what it paid for. For ``i != j``,
``e_i / e_j = h^((j - i) * k)``. A receiver that learned the pads of two
indices ``i != j`` of one pick would, in the random-oracle model, have
queried both ``e_i`` and ``e_j``, and ``(e_i / e_j)^((j - i)^-1 mod q)``
is then ``h^k``: the Diffie-Hellman value ``CDH(g, h, g^k)``, which nobody
can compute without ``log_g h`` (``h`` is hash-derived; see ``wot.group``).
The inverse exists because ``0 < |j - i| < N <= q``. On ``modp-2048``,
``N < 2^32`` is far below ``q``. The toy groups break once ``N > q``: then
indices ``i`` and ``i + q`` share one element. So a value ``a^r`` that the
receiver can compute opens at most one index per pick, and a batch of
``T`` picks opens at most ``T`` indices, which is what it is billed. The
picks of a batch share ``k``, so correlated queries give equal elements
(``y_2 = y_1 * h^d`` makes pick 2's ``e_(i+d)`` pick 1's ``e_i``); pads
still never repeat, because each is bound to (batch transcript, pick
ordinal, index). ``k`` is drawn only after the sender has received and
checked the whole query batch (see ``wot.protocol``), so no ``y`` can be
chosen with ``a`` in view; a sender that spoke first is where
Genc-Iovino-Rial (2017) found the gap in Chou-Orlandi's proof. The
receiver's privacy does not depend on ``k``: each ``y`` is uniform.

Why nothing here checks subgroup membership. Every element a pad is
derived from is a product or power of elements already known to lie in
the order-``q`` subgroup G_q, and G_q is closed under both. ``h`` is
checked once, when the parameters are validated (see ``wot.group``). The
peer's elements, ``y`` on the sender's side and ``a`` on the receiver's,
are checked once at the session boundary, before any exponentiation, by
``wot.protocol``. Then ``y``, ``h`` in G_q gives
``e_i = y^k * h^(-ik)`` in G_q, and ``a`` in G_q gives ``a^r`` in G_q.
``ot_reply`` and ``ot_recover`` take that check as a precondition.

A T-of-N transfer is this primitive once per pick, batched into a single
request and a single response: a fresh ``r`` per pick, one ``k`` per batch.
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
    """Sender's answer for one pick: N masked secrets. The batch's one ``a`` travels beside."""

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


def ot_reply(params: GroupParams, secrets, queries) -> tuple[int, tuple[OtResponse, ...]]:
    """The sender's answer to a whole batch: ``a = g^k`` once, then one response per pick.

    Every ``y`` must be a subgroup member; the caller checks the whole
    batch first, so ``k`` is drawn only after every ``y`` is fixed.
    """
    sid = batch_binding(params, queries)
    a, step, elements = respond_powers(params, queries)
    return a, tuple(ot_respond(params, secrets, step, element, pick_binding(sid, ordinal))
                    for ordinal, element in enumerate(elements))


def respond_powers(params: GroupParams, queries) -> tuple[int, int, tuple[int, ...]]:
    """Draw the batch's one nonzero ``k``; returns ``g^k``, ``h^-k`` and each query's ``y^k``."""
    k = rand_exponent(params, include_zero=False)
    a, step, *elements = _powmods([(params.g, k), (params.h, params.q - k)]
                                  + [(y, k) for y in queries], params.p)
    return a, step, tuple(elements)


def ot_respond(params: GroupParams, secrets, step: int, element: int,
               binding: bytes) -> OtResponse:
    """Answer one pick from ``h^-k`` and its ``e_0 = y^k``: mask every secret under its pad."""
    secrets = list(secrets)
    if not secrets:
        raise ProtocolError("no secrets to transfer")
    p = params.p
    masks = []
    for i, secret in enumerate(secrets):
        if i:
            element = element * step % p  # e_i = (y * h^-i)^k
        pad = kdf_pad(params, element, _index_binding(binding, i), len(secret))
        masks.append(xor_bytes(pad, secret))
    return OtResponse(masks=tuple(masks))


def ot_recover(params: GroupParams, a: int, queries, responses, indices,
               exponents) -> tuple[bytes, ...]:
    """Unmask each pick's secret at its index, using its query's secret exponent.

    ``a`` must be a subgroup member; the caller checks the peer's reply.
    """
    picks = list(zip(responses, indices, exponents, strict=True))
    for response, index, _ in picks:
        if not 0 <= index < response.n_secrets:
            raise ProtocolError(f"pick index {index} out of range")
    sid = batch_binding(params, queries)
    shared = _powmods([(a, r) for r in exponents], params.p)
    secrets = []
    for ordinal, ((response, index, _), element) in enumerate(zip(picks, shared)):
        masked = response.masks[index]
        binding = _index_binding(pick_binding(sid, ordinal), index)
        secrets.append(xor_bytes(kdf_pad(params, element, binding, len(masked)), masked))
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
