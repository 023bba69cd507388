"""Weighted-transfer sessions: publish, plan, buy.

Two publishing modes, one transfer core:

* ``p2`` (key splitting, the efficient mode): each item is encrypted once
  under its own key, and the key is split into weight-many XOR shares. The
  flat secret vector holds every share of every item.
* ``p1`` (nested locks): each item is encrypted under weight-many
  independent layer keys, outermost first. The flat secret vector holds
  the layer keys.

A purchase picks, per chosen item, *all* of its flat indices. The
receiver batches one blinded query per pick into a single message; the
sender answers each pick over the whole flat vector and learns only how
many picks it answered, which is exactly the total price. Ciphertexts
travel out of band (published bundle) or over the wire before the
transfer; either way the receiver checks their digests against the
manifest before querying.

The session is three logical rounds: ciphertext/manifest delivery, the
query batch, the response batch (the billing echo rides with the
response flight).
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass
from pathlib import Path

from . import symcrypto
from .base_ot import (OtQuery, batch_binding, ot_query, ot_recover, ot_respond,
                      pick_binding)
from .catalog import (Catalog, FlatIndexMap, Manifest, ManifestEntry,
                      MODE_P2, MODES, ciphertext_digest)
from .errors import (CatalogError, CryptoError, AuthenticationError,
                     ItemAuthenticationError, ProtocolError, RemoteError)
from .framing import (Done, ErrorMsg, OtBatchQuery, OtBatchResp,
                      ERR_BAD_QUERY, ERR_INCOMPATIBLE)
from .group import GroupParams, is_member
from .instrument import Counters
from .symcrypto import KeyShareSet

MANIFEST_FILE = "manifest.bin"
SECRETS_FILE = "sender_secrets.bin"
CT_SUFFIX = ".ct"


def item_context(mode: str, item_id: str) -> str:
    return f"wot:{mode}:item:{item_id}"


@dataclass(frozen=True)
class PublishedBundle:
    """Everything a buyer may see before a session."""

    manifest: Manifest
    ciphertexts: tuple[bytes, ...]

    def __post_init__(self):
        if len(self.ciphertexts) != self.manifest.n:
            raise CatalogError("ciphertext count does not match manifest")

    @property
    def flat_map(self) -> FlatIndexMap:
        return FlatIndexMap(self.manifest.weights)

    def ciphertext_for(self, item_id: str) -> bytes:
        return self.ciphertexts[self.manifest.index_of(item_id)]

    def verify_digests(self):
        for entry, ct in zip(self.manifest.entries, self.ciphertexts):
            if len(ct) != entry.ct_len or ciphertext_digest(ct) != entry.digest_hex:
                raise CatalogError(f"ciphertext digest mismatch for item {entry.id!r}")


@dataclass(frozen=True)
class SenderSecrets:
    """Private key material aligned with the flat index space.

    ``flat_secrets[offsets[i] + j]`` is item i's j-th key share (``p2``) or
    its layer-(j+1) key (``p1``). ``item_keys`` is only populated in
    ``p2`` mode.
    """

    mode: str
    flat_secrets: tuple[bytes, ...]
    item_keys: tuple[bytes, ...] | None

    def share_set(self, flat_map: FlatIndexMap, item_index: int) -> KeyShareSet:
        rng_ = flat_map.item_range(item_index)
        return KeyShareSet(item_index=item_index,
                           shares=tuple(self.flat_secrets[f] for f in rng_))


@dataclass(frozen=True)
class SelectionPlan:
    """A buyer's resolved choice: item indices, their flat picks, the price."""

    choice_indices: tuple[int, ...]
    item_ids: tuple[str, ...]
    picks: tuple[int, ...]  # ascending; the canonical order hides pick structure
    total: int


@dataclass(frozen=True)
class SessionTranscript:
    """The sender's whole view of one session."""

    num_picks: int
    queries: tuple[int, ...]


@dataclass(frozen=True)
class SenderOutcome:
    billed: int
    transcript: SessionTranscript
    rounds: int


@dataclass(frozen=True)
class PurchaseResult:
    items: tuple[tuple[str, bytes], ...]  # (item id, plaintext) in manifest order
    total: int
    rounds: int


def publish(catalog: Catalog, mode: str, params: GroupParams, key_bits: int = 128,
            rng=None, counters: Counters | None = None) -> tuple[PublishedBundle, SenderSecrets]:
    """Encrypt a catalog and derive the flat secret vector for transfers."""
    if mode not in MODES:
        raise CatalogError(f"unknown mode {mode!r}")
    flat_secrets: list[bytes] = []
    item_keys: list[bytes] = []
    ciphertexts: list[bytes] = []
    for item in catalog.items:
        context = item_context(mode, item.id)
        if mode == MODE_P2:
            key = symcrypto.new_key(key_bits, rng, counters)
            ciphertexts.append(symcrypto.encrypt(key, item.payload, context, rng, counters))
            item_keys.append(key)
            flat_secrets.extend(symcrypto.split_key(key, item.weight, rng, counters))
        else:
            layer_keys = [symcrypto.new_key(key_bits, rng, counters) for _ in range(item.weight)]
            ciphertexts.append(symcrypto.nested_encrypt(layer_keys, item.payload, context,
                                                        rng, counters))
            flat_secrets.extend(layer_keys)
    entries = tuple(
        ManifestEntry(id=item.id, weight=item.weight, ct_len=len(ct),
                      digest_hex=ciphertext_digest(ct))
        for item, ct in zip(catalog.items, ciphertexts)
    )
    manifest = Manifest(mode=mode, group_id=params.param_id, key_bits=key_bits,
                        entries=entries)
    bundle = PublishedBundle(manifest=manifest, ciphertexts=tuple(ciphertexts))
    secrets = SenderSecrets(mode=mode, flat_secrets=tuple(flat_secrets),
                            item_keys=tuple(item_keys) if mode == MODE_P2 else None)
    return bundle, secrets


def plan_selection(manifest: Manifest, item_ids) -> SelectionPlan:
    """Resolve chosen item ids into the full flat pick set."""
    ids = set(item_ids)
    if not ids:
        raise ProtocolError("empty choice set")
    indices = sorted(manifest.index_of(item_id) for item_id in ids)
    return plan_for_indices(manifest, indices)


def plan_for_indices(manifest: Manifest, indices) -> SelectionPlan:
    chosen = sorted(set(indices))
    if not chosen:
        raise ProtocolError("empty choice set")
    if chosen[0] < 0 or chosen[-1] >= manifest.n:
        raise ProtocolError("choice index out of range")
    flat_map = FlatIndexMap(manifest.weights)
    picks = []
    for i in chosen:
        picks.extend(flat_map.item_range(i))  # every share of the item
    picks.sort()
    return SelectionPlan(
        choice_indices=tuple(chosen),
        item_ids=tuple(manifest.ids[i] for i in chosen),
        picks=tuple(picks),
        total=sum(manifest.weights[i] for i in chosen),
    )


class ChannelClosed(ProtocolError):
    pass


class LoopbackChannel:
    """In-process duplex channel carrying message objects; used by the harness."""

    _CLOSE = object()

    def __init__(self, inbox: queue.Queue, outbox: queue.Queue, log: list, side: str):
        self._inbox = inbox
        self._outbox = outbox
        self.log = log
        self.side = side

    @classmethod
    def pair(cls) -> tuple["LoopbackChannel", "LoopbackChannel"]:
        a_to_b: queue.Queue = queue.Queue()
        b_to_a: queue.Queue = queue.Queue()
        log: list = []
        receiver = cls(inbox=b_to_a, outbox=a_to_b, log=log, side="receiver")
        sender = cls(inbox=a_to_b, outbox=b_to_a, log=log, side="sender")
        return receiver, sender

    def send(self, msg):
        self.log.append((self.side, type(msg).__name__))
        self._outbox.put(msg)

    def recv(self, timeout: float = 30.0):
        try:
            msg = self._inbox.get(timeout=timeout)
        except queue.Empty:
            raise ChannelClosed("channel timed out") from None
        if msg is self._CLOSE:
            raise ChannelClosed("peer closed the channel")
        return msg

    def close(self):
        self._outbox.put(self._CLOSE)


def _expect(msg, expected_type):
    if isinstance(msg, ErrorMsg):
        raise RemoteError(msg.code, msg.text)
    if not isinstance(msg, expected_type):
        raise ProtocolError(f"expected {expected_type.__name__}, got {type(msg).__name__}")
    return msg


def run_session_receiver(bundle: PublishedBundle, plan: SelectionPlan, channel,
                         params: GroupParams, rng=None,
                         counters: Counters | None = None) -> PurchaseResult:
    """Drive the buyer's side of one session over an open channel."""
    manifest = bundle.manifest
    if manifest.group_id != params.param_id:
        raise ProtocolError(f"bundle uses group {manifest.group_id!r}, not {params.param_id!r}")
    bundle.verify_digests()
    flat_map = bundle.flat_map

    # The plan must cover every share of every chosen item: partial picks
    # would buy undecryptable fragments.
    expected = sorted(f for i in plan.choice_indices for f in flat_map.item_range(i))
    if list(plan.picks) != expected:
        raise ProtocolError("plan does not cover the chosen items' full share ranges")

    total = flat_map.total
    queries = []
    exponents = []
    for pick in plan.picks:
        q, r = ot_query(params, total, pick, rng, counters)
        queries.append(q)
        exponents.append(r)
    channel.send(OtBatchQuery(elem_len=params.element_len,
                              queries=tuple(q.y for q in queries)))

    resp = _expect(channel.recv(), OtBatchResp)
    if len(resp.responses) != len(plan.picks):
        raise ProtocolError("response count does not match pick count")
    for r_ in resp.responses:
        if r_.n_secrets != total:
            raise ProtocolError("response does not cover the flat index space")

    sid = batch_binding(params, queries)
    recovered: dict[int, bytes] = {}
    for ordinal, (pick, r) in enumerate(zip(plan.picks, exponents)):
        recovered[pick] = ot_recover(params, resp.responses[ordinal], pick, r,
                                     pick_binding(sid, ordinal))

    items = []
    for i in plan.choice_indices:
        entry = manifest.entries[i]
        material = [recovered[f] for f in flat_map.item_range(i)]
        context = item_context(manifest.mode, entry.id)
        try:
            if manifest.mode == MODE_P2:
                key = symcrypto.combine_shares(material, counters)
                plaintext = symcrypto.decrypt(key, bundle.ciphertexts[i], context, counters)
            else:
                plaintext = symcrypto.nested_decrypt(material, bundle.ciphertexts[i],
                                                     context, counters)
        except (AuthenticationError, CryptoError):
            raise ItemAuthenticationError(entry.id) from None
        items.append((entry.id, plaintext))

    done = _expect(channel.recv(), Done)
    if done.billed != plan.total:
        raise ProtocolError(f"billing mismatch: sender charged {done.billed}, "
                            f"expected {plan.total}")
    return PurchaseResult(items=tuple(items), total=plan.total, rounds=3)


def run_session_sender(secrets: SenderSecrets, channel, params: GroupParams,
                       rng=None, counters: Counters | None = None) -> SenderOutcome:
    """Answer one buyer's batch; learns and bills only the pick count."""
    msg = channel.recv()
    query = _expect(msg, OtBatchQuery)
    if not query.queries:
        channel.send(ErrorMsg(code=ERR_BAD_QUERY, text="empty purchase"))
        raise ProtocolError("empty purchase rejected")
    if query.elem_len != params.element_len:
        channel.send(ErrorMsg(code=ERR_INCOMPATIBLE, text="element width mismatch"))
        raise ProtocolError("element width mismatch")

    # Validate the whole batch before answering any of it: a bad element
    # must not extract partial responses.
    for y in query.queries:
        if not is_member(params, y):
            channel.send(ErrorMsg(code=ERR_BAD_QUERY, text="invalid query"))
            raise ProtocolError("invalid query: not a subgroup member")

    sid = batch_binding(params, query.queries)
    responses = []
    for ordinal, y in enumerate(query.queries):
        responses.append(ot_respond(params, secrets.flat_secrets, OtQuery(y=y),
                                    pick_binding(sid, ordinal), rng, counters))
    billed = len(query.queries)
    channel.send(OtBatchResp(elem_len=params.element_len, responses=tuple(responses)))
    channel.send(Done(billed=billed))
    return SenderOutcome(
        billed=billed,
        transcript=SessionTranscript(num_picks=billed, queries=tuple(query.queries)),
        rounds=3,
    )


def run_local_session(bundle: PublishedBundle, secrets: SenderSecrets,
                      plan: SelectionPlan, params: GroupParams,
                      receiver_rng=None, sender_rng=None,
                      receiver_counters: Counters | None = None,
                      sender_counters: Counters | None = None,
                      ) -> tuple[PurchaseResult, SenderOutcome, list]:
    """Run both sides in-process; returns their outcomes and the message log."""
    rx_chan, tx_chan = LoopbackChannel.pair()
    box: dict = {}

    def sender_side():
        try:
            box["sender"] = run_session_sender(secrets, tx_chan, params,
                                               sender_rng, sender_counters)
        except Exception as exc:  # surfaced after join
            box["sender_error"] = exc
            tx_chan.close()

    worker = threading.Thread(target=sender_side, daemon=True)
    worker.start()
    try:
        result = run_session_receiver(bundle, plan, rx_chan, params,
                                      receiver_rng, receiver_counters)
    except Exception:
        # A receiver-side channel error is usually fallout from a sender
        # abort; surface the root cause when there is one.
        worker.join(timeout=5)
        if "sender_error" in box:
            raise box["sender_error"] from None
        raise
    finally:
        rx_chan.close()
        worker.join(timeout=30)
    if "sender_error" in box:
        raise box["sender_error"]
    return result, box["sender"], rx_chan.log


# --- bundle directory I/O ---------------------------------------------------

def save_bundle(bundle: PublishedBundle, directory,
                secrets: SenderSecrets | None = None):
    """Write manifest + ciphertext files (and, for the seller, the secrets)."""
    from .framing import encode_manifest
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    (path / MANIFEST_FILE).write_bytes(encode_manifest(bundle.manifest))
    for entry, ct in zip(bundle.manifest.entries, bundle.ciphertexts):
        (path / (entry.id + CT_SUFFIX)).write_bytes(ct)
    if secrets is not None:
        _write_secrets(path / SECRETS_FILE, secrets)


def load_bundle(directory, verify: bool = True) -> PublishedBundle:
    from .framing import decode_manifest
    path = Path(directory)
    manifest_path = path / MANIFEST_FILE
    if not manifest_path.is_file():
        raise CatalogError(f"missing {manifest_path}")
    manifest = decode_manifest(manifest_path.read_bytes())
    cts = []
    for entry in manifest.entries:
        ct_path = path / (entry.id + CT_SUFFIX)
        if not ct_path.is_file():
            raise CatalogError(f"missing ciphertext file {ct_path}")
        cts.append(ct_path.read_bytes())
    bundle = PublishedBundle(manifest=manifest, ciphertexts=tuple(cts))
    if verify:
        bundle.verify_digests()
    return bundle


def load_secrets(directory) -> SenderSecrets:
    path = Path(directory) / SECRETS_FILE
    if not path.is_file():
        raise CatalogError(f"missing {path} (is this the seller's bundle directory?)")
    return _read_secrets(path)


def _write_secrets(path: Path, secrets: SenderSecrets):
    import struct
    mode_code = MODES.index(secrets.mode) + 1
    share_len = len(secrets.flat_secrets[0]) if secrets.flat_secrets else 0
    out = bytearray(struct.pack("!BBHI", 1, mode_code, share_len, len(secrets.flat_secrets)))
    for share in secrets.flat_secrets:
        out += share
    keys = secrets.item_keys or ()
    out += struct.pack("!I", len(keys))
    for key in keys:
        out += key
    path.write_bytes(bytes(out))


def _read_secrets(path: Path) -> SenderSecrets:
    import struct
    data = path.read_bytes()
    if len(data) < 8:
        raise CatalogError("corrupt secrets file: truncated header")
    version, mode_code, share_len, count = struct.unpack("!BBHI", data[:8])
    if version != 1:
        raise CatalogError(f"unsupported secrets file version {version}")
    if not 1 <= mode_code <= len(MODES):
        raise CatalogError(f"corrupt secrets file: unknown mode code {mode_code}")
    mode = MODES[mode_code - 1]
    keys_at = 8 + count * share_len
    if len(data) < keys_at + 4:
        raise CatalogError("corrupt secrets file: truncated")
    (key_count,) = struct.unpack("!I", data[keys_at:keys_at + 4])
    # Sizes are checked before slicing, so forged counts cannot make the
    # slicing below run long.
    if len(data) != keys_at + 4 + key_count * share_len:
        raise CatalogError("corrupt secrets file")
    if (count or key_count) and not share_len:
        raise CatalogError("corrupt secrets file: zero-length shares")

    def shares(start: int, n: int) -> list[bytes]:
        return [data[start + i * share_len:start + (i + 1) * share_len] for i in range(n)]

    flat = shares(8, count)
    keys = shares(keys_at + 4, key_count)
    return SenderSecrets(mode=mode, flat_secrets=tuple(flat),
                         item_keys=tuple(keys) if keys else None)
