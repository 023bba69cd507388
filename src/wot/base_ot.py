"""1-out-of-N oblivious transfer over a prime-order subgroup.

One pick moves one of the sender's N fixed-length secrets:

* Receiver, choosing index ``c``: draw a uniform exponent ``r`` and send
  ``y = g^r * h^c``. Over random ``r`` this is uniform on the subgroup
  whatever ``c`` is, so the query carries no information about the choice.
* Sender: for every index ``i`` draw a fresh nonzero exponent ``k_i`` and
  reply with the pair ``(a_i, m_i) = (g^k_i, pad((y * h^-i)^k_i) XOR s_i)``.
  The pad element is computed as ``y^k_i * h^(-i * k_i)``, the same group
  element, from fixed-base tables of ``g``, ``h`` and (once per pick) ``y``.
* Receiver: only at ``i = c`` does ``(y * h^-i)^k_i`` equal ``a_i^r``, so
  exactly ``s_c`` unmasks; every other mask sits on a group element the
  receiver cannot compute without ``log_g h``.

A k-of-N transfer is this primitive repeated once per pick with fresh
randomness, batched into a single request and a single response. Pads are
bound to (batch transcript, pick ordinal, index) so no pad is ever reused
across picks.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

from .errors import GroupError, ProtocolError
from .group import (GroupParams, _fixed_base_pow, _fixed_base_table, _generator_tables,
                    is_member, kdf_pad, rand_exponent)
from .instrument import Counters

_SYSTEM_RNG = random.SystemRandom()

_SID_TAG = b"WOT-SID"


@dataclass(frozen=True)
class OtQuery:
    """Receiver's message for one pick: a single blinded group element."""

    y: int


@dataclass(frozen=True)
class OtResponse:
    """Sender's answer for one pick: N (element, masked secret) pairs."""

    pairs: tuple[tuple[int, bytes], ...]

    @property
    def n_secrets(self) -> int:
        return len(self.pairs)


def ot_query(params: GroupParams, n_secrets: int, index: int,
             rng=None, counters: Counters | None = None) -> tuple[OtQuery, int]:
    """Build the query for ``index``; returns it with the secret exponent."""
    if not 0 <= index < n_secrets:
        raise ProtocolError(f"pick index {index} out of range [0, {n_secrets})")
    rng = rng or _SYSTEM_RNG
    r = rand_exponent(params, rng)
    if counters:
        counters.query_exponents += 1
    return OtQuery(y=query_element(params, index, r)), r


def query_element(params: GroupParams, index: int, r: int) -> int:
    g_table, _ = _generator_tables(params)
    return _fixed_base_pow(params, (g_table, r)) * pow(params.h, index, params.p) % params.p


def ot_respond(params: GroupParams, secrets, query: OtQuery, binding: bytes,
               rng=None, counters: Counters | None = None) -> OtResponse:
    """Answer one pick: mask every secret under its per-index pad."""
    secrets = list(secrets)
    if not secrets:
        raise ProtocolError("no secrets to transfer")
    if not is_member(params, query.y):
        raise GroupError("invalid query: not a subgroup member")
    rng = rng or _SYSTEM_RNG
    g_table, h_table = _generator_tables(params)
    y_table = _fixed_base_table(params, query.y)
    pairs = []
    for i, secret in enumerate(secrets):
        k = rand_exponent(params, rng, include_zero=False)
        if counters:
            counters.response_exponents += 1
        a = _fixed_base_pow(params, (g_table, k))
        element = _fixed_base_pow(params, (y_table, k), (h_table, -i * k))  # (y * h^-i)^k
        mask = kdf_pad(params, element, _index_binding(binding, i), len(secret))
        pairs.append((a, bytes(x ^ y for x, y in zip(mask, secret))))
    return OtResponse(pairs=tuple(pairs))


def ot_recover(params: GroupParams, response: OtResponse, index: int, r: int,
               binding: bytes) -> bytes:
    """Unmask the secret at ``index`` using the query's secret exponent."""
    if not 0 <= index < response.n_secrets:
        raise ProtocolError(f"pick index {index} out of range")
    a, masked = response.pairs[index]
    if not is_member(params, a):
        raise GroupError("invalid response element")
    pad = kdf_pad(params, pow(a, r, params.p), _index_binding(binding, index), len(masked))
    return bytes(x ^ y for x, y in zip(pad, masked))


def _index_binding(binding: bytes, index: int) -> bytes:
    return bytes(binding) + index.to_bytes(4, "big")


def pick_binding(batch_binding: bytes, ordinal: int) -> bytes:
    return bytes(batch_binding) + ordinal.to_bytes(4, "big")


def batch_binding(params: GroupParams, queries) -> bytes:
    """Session binding derived from the query batch both sides observe."""
    digest = hashlib.sha256(_SID_TAG)
    for q in queries:
        digest.update(params.encode_element(q.y if isinstance(q, OtQuery) else q))
    return digest.digest()


@dataclass(frozen=True)
class BatchSenderView:
    """Everything the sender sees in a batch: the queries and their count."""

    queries: tuple[int, ...]

    @property
    def num_picks(self) -> int:
        return len(self.queries)


def ot_batch_run(params: GroupParams, secrets, picks, rng=None,
                 counters: Counters | None = None) -> tuple[list[bytes], BatchSenderView]:
    """Run a whole batch in-process: one query and one response per pick.

    Duplicate picks are allowed here (they just re-learn the same secret);
    the purchase layer above filters them.
    """
    secrets = list(secrets)
    rng = rng or _SYSTEM_RNG
    queries = []
    exps = []
    for pick in picks:
        query, r = ot_query(params, len(secrets), pick, rng, counters)
        queries.append(query)
        exps.append(r)
    sid = batch_binding(params, queries)
    recovered = []
    for ordinal, (pick, query, r) in enumerate(zip(picks, queries, exps)):
        response = ot_respond(params, secrets, query, pick_binding(sid, ordinal), rng, counters)
        recovered.append(ot_recover(params, response, pick, r, pick_binding(sid, ordinal)))
    return recovered, BatchSenderView(queries=tuple(q.y for q in queries))
