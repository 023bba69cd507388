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
many picks it answered, which is exactly the total price.

This module owns the session grammar on both sides; ``wot.net`` only
carries frames::

    HELLO -> MANIFEST -> (CT_REQ -> CT_DATA)* -> OT_BATCH_QUERY
          -> OT_BATCH_RESP -> DONE

The buyer's side is one function, ``run_session_receiver``. It plans
the purchase from the manifest it receives, refuses one whose reply
would pass the frame cap (a size that follows from ``(N, T)`` alone, as
the seller computes it), and then takes *every* ciphertext, from a
cached bundle directory or over the wire: requesting only the chosen
ones would reveal the choice out of band. Each ciphertext is checked
against its manifest entry once, as it is taken, so a bad one aborts
the session before the first transfer message.

The seller's side is split at the query. ``serve_session`` answers HELLO
and the CT_REQs and hands the decoded OT_BATCH_QUERY to
``run_session_sender``, the transfer proper, which bills the pick count.
Only a session that sent a query enters it: ``perfbench`` counts a sale
as a session that enters ``run_session_sender``, and its readiness probe
(connect, then close) must not count as one. Every out-of-grammar or
refused message earns the peer an ERROR frame and ends the session.

Each group element a peer sends is checked for subgroup membership once,
here, before any exponentiation or pad: ``run_session_sender`` checks
every query ``y`` and ``run_session_receiver`` every reply's ``a``, and
``wot.base_ot`` relies on those two passes. Each batch step comes after
its pass: the seller's ``respond_powers``, which runs the batch's
exponentiations together, follows the check of every ``y``, and the
buyer's ``ot_recover`` follows the check of every ``a``. The buyer's
``ot_query`` raises its batch's powers of ``g`` and ``h`` before it sends
the query.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import NoReturn

from . import symcrypto
from .base_ot import (batch_binding, ot_query, ot_recover, ot_respond, pick_binding,
                      respond_powers)
from .catalog import (Catalog, FlatIndexMap, Manifest, ManifestEntry,
                      MODE_P2, MODES, ciphertext_digest)
from .errors import (CatalogError, CryptoError, AuthenticationError, GrammarError,
                     ItemAuthenticationError, ProtocolError, RemoteError, WotError)
from .framing import (ANY_GROUP, ANY_KEY_BITS, ANY_MODE, CtData, CtReq, Done, ErrorMsg,
                      Hello, ManifestMsg, OtBatchQuery, OtBatchResp,
                      ERR_BAD_QUERY, ERR_GRAMMAR, ERR_INCOMPATIBLE, ERR_UNKNOWN_ITEM,
                      MAX_FRAME_LEN, PROTOCOL_VERSION, _ot_batch_resp_len)
from .group import GroupParams, is_member, setup_params
from .instrument import Counters

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
        for entry, ct in zip(self.manifest.entries, self.ciphertexts):
            # A CT_DATA frame is the type byte, the u16-prefixed id and the
            # ciphertext; an item that cannot travel in one is refused here.
            if len(ct) > MAX_FRAME_LEN - 3 - len(entry.id):
                raise CatalogError(f"item {entry.id!r}: ciphertext of {len(ct)} bytes "
                                   f"does not fit in one {MAX_FRAME_LEN}-byte frame")

    @property
    def flat_map(self) -> FlatIndexMap:
        return FlatIndexMap(self.manifest.weights)

    def ciphertext_for(self, item_id: str) -> bytes:
        return self.ciphertexts[self.manifest.index_of(item_id)]

    def verify_digests(self):
        for entry, ct in zip(self.manifest.entries, self.ciphertexts):
            if not _matches_entry(entry, ct):
                raise CatalogError(f"ciphertext digest mismatch for item {entry.id!r}")


def _matches_entry(entry: ManifestEntry, ct: bytes) -> bool:
    """Whether ``ct`` is the ciphertext the manifest lists: its length, then its digest."""
    return len(ct) == entry.ct_len and ciphertext_digest(ct) == entry.digest_hex


@dataclass(frozen=True)
class SenderSecrets:
    """Private key material aligned with the flat index space.

    ``flat_secrets[offsets[i] + j]`` is item i's j-th key share (``p2``) or
    its layer-(j+1) key (``p1``). A ``p2`` item key is the XOR of its
    shares, so it is not stored.
    """

    mode: str
    flat_secrets: tuple[bytes, ...]


@dataclass(frozen=True)
class SelectionPlan:
    """A buyer's resolved choice: item indices, their flat picks, the price."""

    choice_indices: tuple[int, ...]
    item_ids: tuple[str, ...]
    picks: tuple[int, ...]  # ascending; the canonical order hides pick structure
    total: int


@dataclass(frozen=True)
class PurchaseResult:
    items: tuple[tuple[str, bytes], ...]  # (item id, plaintext) in manifest order
    total: int


def publish(catalog: Catalog, mode: str, params: GroupParams, key_bits: int = 128,
            rng=None, counters: Counters | None = None) -> tuple[PublishedBundle, SenderSecrets]:
    """Encrypt a catalog and derive the flat secret vector for transfers."""
    if mode not in MODES:
        raise CatalogError(f"unknown mode {mode!r}")
    flat_secrets: list[bytes] = []
    ciphertexts: list[bytes] = []
    for item in catalog.items:
        context = item_context(mode, item.id)
        if mode == MODE_P2:
            key = symcrypto.new_key(key_bits, rng, counters)
            ciphertexts.append(symcrypto.encrypt(key, item.payload, context, rng, counters))
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
    secrets = SenderSecrets(mode=mode, flat_secrets=tuple(flat_secrets))
    return bundle, secrets


def plan_for_indices(manifest: Manifest, indices) -> SelectionPlan:
    """Resolve chosen item indices into the full flat pick set."""
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


def _expect(msg, expected_type):
    if isinstance(msg, ErrorMsg):
        raise RemoteError(msg.code, msg.text)
    if not isinstance(msg, expected_type):
        raise ProtocolError(f"expected {expected_type.__name__}, got {type(msg).__name__}")
    return msg


def _refuse(channel, code: int, text: str, detail: str | None = None) -> NoReturn:
    """Send the peer ``ERROR(code, text)`` and abort the session.

    ``text`` is what goes on the wire; the raised error may carry more
    ``detail``. A peer that is already gone does not hide the refusal.
    """
    try:
        channel.send(ErrorMsg(code=code, text=text))
    except OSError:
        pass
    raise GrammarError(detail or text)


def run_session_receiver(channel, item_ids, params: GroupParams | None = None,
                         cache_dir=None, rng=None,
                         counters: Counters | None = None) -> PurchaseResult:
    """Drive the buyer's side of one session, HELLO to DONE, over an open channel.

    ``params`` defaults to the preset the manifest names; an in-process
    session passes the seller's, which may be a ``make_params`` group.
    ``cache_dir`` is a previously downloaded bundle directory.
    """
    channel.send(Hello())
    manifest = _expect(channel.recv(), ManifestMsg).manifest
    # Validate the request before any transfer-related traffic, and its
    # size from (N, T) alone before any work that grows with T.
    chosen = {manifest.index_of(item_id) for item_id in item_ids}
    params = params or setup_params(manifest.group_id)
    if manifest.group_id != params.param_id:
        raise ProtocolError(f"bundle uses group {manifest.group_id!r}, not {params.param_id!r}")
    reply_len = _ot_batch_resp_len(sum(manifest.entries[i].weight for i in chosen),
                                   manifest.total_weight, params.element_len,
                                   manifest.key_bits // 8)
    if reply_len > MAX_FRAME_LEN:
        raise ProtocolError(f"purchase too large: its reply would be {reply_len} bytes, "
                            f"over the {MAX_FRAME_LEN}-byte frame cap")
    plan = plan_for_indices(manifest, chosen)
    bundle = fetch_bundle(channel, manifest, cache_dir)
    flat_map = bundle.flat_map

    total = flat_map.total
    queries, exponents = ot_query(params, total, plan.picks, rng, counters)
    channel.send(OtBatchQuery(elem_len=params.element_len, queries=queries))

    resp = _expect(channel.recv(), OtBatchResp)
    if len(resp.responses) != len(plan.picks):
        raise ProtocolError("response count does not match pick count")
    for r_ in resp.responses:
        if r_.n_secrets != total:
            raise ProtocolError("response does not cover the flat index space")
        if not is_member(params, r_.a):
            raise ProtocolError("invalid response element")

    sid = batch_binding(params, queries)
    bindings = [pick_binding(sid, ordinal) for ordinal in range(len(plan.picks))]
    recovered = dict(zip(plan.picks, ot_recover(params, resp.responses, plan.picks,
                                                exponents, bindings)))

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
    return PurchaseResult(items=tuple(items), total=plan.total)


def fetch_bundle(channel, manifest: Manifest, cache_dir=None) -> PublishedBundle:
    """Take every ciphertext the manifest lists, from the cache where it matches.

    Each ciphertext is checked against its manifest entry once, as it is
    taken. A cache that does not load is ignored and everything is fetched.
    """
    cached: dict[str, bytes] = {}
    if cache_dir is not None:
        try:
            local = load_bundle(cache_dir, verify=False)
        except WotError:
            pass
        else:
            cached = dict(zip(local.manifest.ids, local.ciphertexts))
    cts = []
    for entry in manifest.entries:
        ct = cached.get(entry.id)
        if ct is None or not _matches_entry(entry, ct):  # missing or stale: fetch it
            channel.send(CtReq(item_id=entry.id))
            msg = _expect(channel.recv(), CtData)
            if msg.item_id != entry.id:
                raise ProtocolError("unexpected reply to ciphertext request")
            ct = msg.ciphertext
            if not _matches_entry(entry, ct):
                raise CatalogError(f"ciphertext digest mismatch for item {entry.id!r}")
        cts.append(ct)
    return PublishedBundle(manifest=manifest, ciphertexts=tuple(cts))


def serve_session(channel, bundle: PublishedBundle, secrets: SenderSecrets,
                  params: GroupParams, rng=None,
                  counters: Counters | None = None) -> int:
    """The seller's side of one session: grammar and delivery, then the transfer.

    Returns the billed pick count.
    """
    manifest = bundle.manifest
    msg = channel.recv()
    if not isinstance(msg, Hello):
        _refuse(channel, ERR_GRAMMAR, "grammar")
    if msg.version != PROTOCOL_VERSION:
        _refuse(channel, ERR_INCOMPATIBLE, f"unsupported version {msg.version}")
    if msg.mode not in (ANY_MODE, manifest.mode) \
            or msg.group_id not in (ANY_GROUP, manifest.group_id) \
            or msg.key_bits not in (ANY_KEY_BITS, manifest.key_bits):
        _refuse(channel, ERR_INCOMPATIBLE, "bundle parameters do not match")
    channel.send(ManifestMsg(manifest=manifest))

    while True:
        msg = channel.recv()
        if isinstance(msg, CtReq):
            try:
                ct = bundle.ciphertext_for(msg.item_id)
            except CatalogError:
                _refuse(channel, ERR_UNKNOWN_ITEM, "unknown item")
            channel.send(CtData(item_id=msg.item_id, ciphertext=ct))
        elif isinstance(msg, OtBatchQuery):
            return run_session_sender(secrets, msg, channel, params, rng, counters)
        else:
            _refuse(channel, ERR_GRAMMAR, "grammar")


def run_session_sender(secrets: SenderSecrets, query: OtBatchQuery, channel,
                       params: GroupParams, rng=None,
                       counters: Counters | None = None) -> int:
    """Answer one buyer's batch; learns and returns only the billed pick count."""
    if not query.queries:
        _refuse(channel, ERR_BAD_QUERY, "empty purchase", "empty purchase rejected")
    if query.elem_len != params.element_len:
        _refuse(channel, ERR_INCOMPATIBLE, "element width mismatch")

    # The reply is one frame whose size follows from (N, T) alone.
    flat = secrets.flat_secrets
    reply_len = _ot_batch_resp_len(len(query.queries), len(flat), params.element_len,
                                   max(map(len, flat), default=0))
    if reply_len > MAX_FRAME_LEN:
        _refuse(channel, ERR_BAD_QUERY, "purchase too large",
                f"purchase too large: its reply would be {reply_len} bytes, "
                f"over the {MAX_FRAME_LEN}-byte frame cap")
    # An honest buyer picks each flat index at most once.
    if len(query.queries) > len(flat):
        _refuse(channel, ERR_BAD_QUERY, "too many picks",
                f"too many picks: {len(query.queries)} for {len(flat)} secrets")

    # Validate the whole batch before answering any of it: a bad element
    # must not extract partial responses.
    for y in query.queries:
        if not is_member(params, y):
            _refuse(channel, ERR_BAD_QUERY, "invalid query",
                    "invalid query: not a subgroup member")

    sid = batch_binding(params, query.queries)
    powers = respond_powers(params, query.queries, rng, counters)
    responses = tuple(ot_respond(params, flat, pick, pick_binding(sid, ordinal))
                      for ordinal, pick in enumerate(powers))
    billed = len(query.queries)
    channel.send(OtBatchResp(elem_len=params.element_len, responses=responses))
    channel.send(Done(billed=billed))
    return billed


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
    out += struct.pack("!I", 0)  # no stored item keys; see _read_secrets
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
    # Older publishers stored p2 item keys after the shares; the block is
    # length-checked and ignored, since each key is the XOR of its shares.
    (key_count,) = struct.unpack("!I", data[keys_at:keys_at + 4])
    # Sizes are checked before slicing, so forged counts cannot make the
    # slicing below run long.
    if len(data) != keys_at + 4 + key_count * share_len:
        raise CatalogError("corrupt secrets file")
    if (count or key_count) and not share_len:
        raise CatalogError("corrupt secrets file: zero-length shares")
    flat = tuple(data[8 + i * share_len:8 + (i + 1) * share_len] for i in range(count))
    return SenderSecrets(mode=mode, flat_secrets=flat)
