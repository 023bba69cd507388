"""Weighted-transfer sessions: publish, buy, sell.

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

    HELLO -> MANIFEST -> [CT_REQ -> N x CT_DATA] -> OT_BATCH_QUERY
          -> OT_BATCH_RESP -> DONE

The buyer's side is one function, ``run_session_receiver``. It looks
up the chosen ids in the manifest it receives, refuses a purchase
whose reply would pass the frame cap (a size that follows from
``(N, T)`` alone, as the seller computes it), and then takes *every*
ciphertext, from a cached bundle directory or over the wire: taking
only the chosen ones would reveal the choice out of band. The seller's
manifest is the only source of session parameters; the buyer's HELLO
carries just the protocol version. A cached bundle is used whole or not
at all: it is taken when it loads, its digests verify and its manifest
equals the seller's, and otherwise every ciphertext is fetched. Either
way each ciphertext is checked against its manifest entry once.

Delivery is positional (protocol version 3). ``fetch_bundle`` sends one
CT_REQ, and the seller answers it with all ``N`` ciphertexts in manifest
order, so the ``k``-th CT_DATA is entry ``k``'s; one out of place fails
that entry's length and digest check. The buyer sends nothing more until
it has read all ``N``, so the seller's blocking sends always drain and
neither side can deadlock on full socket buffers. The buyer hands each
received ciphertext, in manifest order, to one ``wot-digest`` thread that
hashes it while the next one arrives. That thread is joined before
``fetch_bundle`` returns or raises, and the first mismatch in manifest
order is raised then, so a bad ciphertext still aborts the session
before the first transfer message, whatever the choice. A fetched
ciphertext is the read-only view that ``read_frame`` decoded (see
``wot.framing``): it is length-checked, hashed and decrypted where it
was received, and the buyer's ``PublishedBundle.ciphertexts`` hold such
views.

The seller's side is split at the query. ``serve_session`` reads at most
three messages, in order: HELLO, then an optional CT_REQ, which it
answers with the whole catalog, then the OT_BATCH_QUERY, which it hands
to ``run_session_sender``, the transfer proper, which bills the pick
count. So a session sends at most one catalog's worth of ciphertexts.
Only a session that sent a query enters ``run_session_sender``:
``perfbench`` counts a sale as a session that enters it, and its
readiness probe (connect, then close) must not count as one. Every
out-of-grammar or refused message, a second CT_REQ or a frame that does
not decode included, earns the peer an ERROR frame and ends the session
unbilled.

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

import queue
import struct
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import NoReturn

from . import symcrypto
from .base_ot import (batch_binding, ot_query, ot_recover, ot_respond, pick_binding,
                      respond_powers)
from .catalog import (Catalog, FlatIndexMap, Manifest, ManifestEntry,
                      MODE_P2, MODES, ciphertext_digest)
from .errors import (CatalogError, CryptoError, AuthenticationError, FrameError,
                     ItemAuthenticationError, ProtocolError, RemoteError, WotError)
from .framing import (CtData, CtReq, Done, ErrorMsg, Hello, ManifestMsg, OtBatchQuery,
                      OtBatchResp, ERR_BAD_QUERY, ERR_GRAMMAR, ERR_INCOMPATIBLE,
                      MAX_FRAME_LEN, PROTOCOL_VERSION, _MODE_CODES, _MODE_NAMES,
                      _ct_data_len, _ot_batch_resp_len, decode_manifest, encode_manifest)
from .group import GroupParams, _on_cpus, is_member, setup_params

MANIFEST_FILE = "manifest.bin"
SECRETS_FILE = "sender_secrets.bin"
CT_SUFFIX = ".ct"


def item_context(mode: str, item_id: str) -> str:
    return f"wot:{mode}:item:{item_id}"


@dataclass(frozen=True)
class PublishedBundle:
    """Everything a buyer may see before a session."""

    manifest: Manifest
    # A seller's are read-only views over its encryption buffers, a buyer's
    # views over received frames; a bundle loaded from disk holds bytes.
    ciphertexts: tuple[bytes | memoryview, ...]

    def __post_init__(self):
        if len(self.ciphertexts) != self.manifest.n:
            raise CatalogError("ciphertext count does not match manifest")
        for entry, ct in zip(self.manifest.entries, self.ciphertexts):
            _check_deliverable(entry.id, len(ct))

    def verify_digests(self):
        for entry, ct in zip(self.manifest.entries, self.ciphertexts):
            if not _matches_entry(entry, ct):
                raise CatalogError(f"ciphertext digest mismatch for item {entry.id!r}")


def _check_deliverable(item_id: str, ct_len: int):
    """Refuse an item whose ciphertext cannot travel in one CT_DATA frame."""
    if _ct_data_len(ct_len) > MAX_FRAME_LEN:
        raise CatalogError(f"item {item_id!r}: ciphertext of {ct_len} bytes "
                           f"does not fit in one {MAX_FRAME_LEN}-byte frame")


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
class PurchaseResult:
    items: tuple[tuple[str, bytes], ...]  # (item id, plaintext) in manifest order
    total: int


def publish(catalog: Catalog, mode: str, params: GroupParams,
            key_bits: int = 128) -> tuple[PublishedBundle, SenderSecrets]:
    """Encrypt a catalog and derive the flat secret vector for transfers.

    Each ciphertext is a read-only view written once (see ``wot.symcrypto``);
    the manifest digests are computed on the CPU pool (``group._on_cpus``).
    """
    if mode not in MODES:
        raise CatalogError(f"unknown mode {mode!r}")
    # Each layer adds a nonce and a tag; p2 has one layer, p1 one per unit
    # of weight. An item too big to deliver, or too heavy for the smallest
    # purchase that holds it to be answered in one frame, is refused before
    # any work.
    total = catalog.total_weight
    for item in catalog.items:
        layers = 1 if mode == MODE_P2 else item.weight
        _check_deliverable(item.id, len(item.payload)
                           + layers * (symcrypto.NONCE_LEN + symcrypto.TAG_LEN))
        reply_len = _ot_batch_resp_len(item.weight, total, params.element_len, key_bits // 8)
        if reply_len > MAX_FRAME_LEN:
            raise CatalogError(f"item {item.id!r}: a purchase of weight {item.weight} "
                               f"would need a {reply_len}-byte reply, over the "
                               f"{MAX_FRAME_LEN}-byte frame cap")
    flat_secrets: list[bytes] = []
    ciphertexts: list[memoryview] = []
    for item in catalog.items:
        context = item_context(mode, item.id)
        if mode == MODE_P2:
            key = symcrypto.new_key(key_bits)
            ciphertexts.append(symcrypto.encrypt(key, item.payload, context))
            flat_secrets.extend(symcrypto.split_key(key, item.weight))
        else:
            layer_keys = [symcrypto.new_key(key_bits) for _ in range(item.weight)]
            ciphertexts.append(symcrypto.nested_encrypt(layer_keys, item.payload, context))
            flat_secrets.extend(layer_keys)
    digests = _on_cpus(ciphertext_digest, ciphertexts)
    entries = tuple(
        ManifestEntry(id=item.id, weight=item.weight, ct_len=len(ct), digest_hex=digest)
        for item, ct, digest in zip(catalog.items, ciphertexts, digests)
    )
    manifest = Manifest(mode=mode, group_id=params.param_id, key_bits=key_bits,
                        entries=entries)
    bundle = PublishedBundle(manifest=manifest, ciphertexts=tuple(ciphertexts))
    secrets = SenderSecrets(mode=mode, flat_secrets=tuple(flat_secrets))
    return bundle, secrets


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
    raise ProtocolError(detail or text)


def run_session_receiver(channel, item_ids, cache_dir=None) -> PurchaseResult:
    """Drive the buyer's side of one session, HELLO to DONE, over an open channel.

    The group is the preset the manifest names; a manifest naming any
    other group raises ``GroupError`` before the query is sent.
    ``cache_dir`` is a previously downloaded bundle directory.
    """
    channel.send(Hello())
    manifest = _expect(channel.recv(), ManifestMsg).manifest
    # Validate the request before any transfer-related traffic, and its
    # size from (N, T) alone before any work that grows with T.
    chosen = sorted({manifest.index_of(item_id) for item_id in item_ids})
    if not chosen:
        raise ProtocolError("empty choice set")
    params = setup_params(manifest.group_id)
    reply_len = _ot_batch_resp_len(sum(manifest.entries[i].weight for i in chosen),
                                   manifest.total_weight, params.element_len,
                                   manifest.key_bits // 8)
    if reply_len > MAX_FRAME_LEN:
        raise ProtocolError(f"purchase too large: its reply would be {reply_len} bytes, "
                            f"over the {MAX_FRAME_LEN}-byte frame cap")
    flat_map = FlatIndexMap(manifest.weights)
    picks = flat_map.picks(chosen)  # the bill is the pick count
    bundle = fetch_bundle(channel, manifest, cache_dir)

    total = flat_map.total
    queries, exponents = ot_query(params, total, picks)
    channel.send(OtBatchQuery(elem_len=params.element_len, queries=queries))

    resp = _expect(channel.recv(), OtBatchResp)
    if len(resp.responses) != len(picks):
        raise ProtocolError("response count does not match pick count")
    if resp.elem_len != params.element_len:
        raise ProtocolError("response element width mismatch")
    for r_ in resp.responses:
        if r_.n_secrets != total:
            raise ProtocolError("response does not cover the flat index space")
        if len(r_.masks[0]) != manifest.key_bits // 8:  # the codec gives a reply one mask width
            raise ProtocolError("response mask width mismatch")
        if not is_member(params, r_.a):
            raise ProtocolError("invalid response element")

    sid = batch_binding(params, queries)
    bindings = [pick_binding(sid, ordinal) for ordinal in range(len(picks))]
    recovered = dict(zip(picks, ot_recover(params, resp.responses, picks,
                                           exponents, bindings)))

    items = []
    for i in chosen:
        entry = manifest.entries[i]
        material = [recovered[f] for f in flat_map.item_range(i)]
        context = item_context(manifest.mode, entry.id)
        try:
            if manifest.mode == MODE_P2:
                key = symcrypto.combine_shares(material)
                plaintext = symcrypto.decrypt(key, bundle.ciphertexts[i], context)
            else:
                plaintext = symcrypto.nested_decrypt(material, bundle.ciphertexts[i], context)
        except (AuthenticationError, CryptoError):
            raise ItemAuthenticationError(entry.id) from None
        items.append((entry.id, plaintext))

    done = _expect(channel.recv(), Done)
    if done.billed != len(picks):
        raise ProtocolError(f"billing mismatch: sender charged {done.billed}, "
                            f"expected {len(picks)}")
    return PurchaseResult(items=tuple(items), total=len(picks))


def fetch_bundle(channel, manifest: Manifest, cache_dir=None) -> PublishedBundle:
    """Take every ciphertext the manifest lists: the whole cache, or all over the wire.

    The cache is used when it loads, its digests verify and its manifest
    equals the seller's; otherwise, a cache from another publish or with
    one bad file included, every ciphertext is fetched: one CT_REQ, then
    ``N`` CT_DATA in manifest order, each checked on a ``wot-digest``
    thread as the next arrives. The thread is joined before this returns
    or raises, and the first mismatch is raised then.
    """
    if cache_dir is not None:
        try:
            if load_manifest(cache_dir) == manifest:  # else its files are not worth reading
                return load_bundle(cache_dir)
        except WotError:
            pass

    entries = manifest.entries
    cts = []
    handed = queue.SimpleQueue()
    checked: list[ManifestEntry] = []
    helper = threading.Thread(target=_check_digests, args=(handed, checked),
                              name="wot-digest", daemon=True)
    helper.start()
    try:
        channel.send(CtReq())
        for entry in entries:
            ct = _expect(channel.recv(), CtData).ciphertext
            cts.append(ct)
            handed.put((entry, ct))
    finally:
        handed.put(None)
        helper.join()
        if len(checked) < len(cts):
            # An earlier item's mismatch stands before any later failure.
            raise CatalogError(f"ciphertext digest mismatch for item {entries[len(checked)].id!r}")
    return PublishedBundle(manifest=manifest, ciphertexts=tuple(cts))


def _check_digests(handed: queue.SimpleQueue, checked: list):
    """Check each ``(entry, ciphertext)`` handed over, in order, up to the first mismatch."""
    while (item := handed.get()) is not None and _matches_entry(*item):
        checked.append(item[0])


def serve_session(channel, bundle: PublishedBundle, secrets: SenderSecrets) -> int:
    """The seller's side of one session: HELLO, an optional CT_REQ, then the transfer.

    The group is the one the bundle's manifest names. Returns the billed
    pick count.
    """
    hello = _recv_decoded(channel, Hello)
    if hello.version != PROTOCOL_VERSION:
        _refuse(channel, ERR_INCOMPATIBLE, f"unsupported version {hello.version}")
    channel.send(ManifestMsg(manifest=bundle.manifest))
    msg = _recv_decoded(channel, CtReq | OtBatchQuery)
    if isinstance(msg, CtReq):
        for ct in bundle.ciphertexts:
            channel.send(CtData(ciphertext=ct))
        msg = _recv_decoded(channel, OtBatchQuery)
    return run_session_sender(secrets, msg, channel, setup_params(bundle.manifest.group_id))


def _recv_decoded(channel, expected):
    """The buyer's next message, if it is an ``expected`` one; anything else is out of grammar.

    A frame that does not decode is refused the same way.
    """
    try:
        msg = channel.recv()
    except FrameError as exc:
        _refuse(channel, ERR_GRAMMAR, "grammar", f"malformed frame: {exc}")
    if not isinstance(msg, expected):
        _refuse(channel, ERR_GRAMMAR, "grammar")
    return msg


def run_session_sender(secrets: SenderSecrets, query: OtBatchQuery, channel,
                       params: GroupParams) -> int:
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
    powers = respond_powers(params, query.queries)
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
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    (path / MANIFEST_FILE).write_bytes(encode_manifest(bundle.manifest))
    for entry, ct in zip(bundle.manifest.entries, bundle.ciphertexts):
        (path / (entry.id + CT_SUFFIX)).write_bytes(ct)
    if secrets is not None:
        _write_secrets(path / SECRETS_FILE, secrets)


def load_manifest(directory) -> Manifest:
    path = Path(directory) / MANIFEST_FILE
    if not path.is_file():
        raise CatalogError(f"missing {path}")
    return decode_manifest(path.read_bytes())


def load_bundle(directory, verify: bool = True) -> PublishedBundle:
    path = Path(directory)
    manifest = load_manifest(path)
    cts = []
    for entry in manifest.entries:
        ct_path = path / (entry.id + CT_SUFFIX)
        if not ct_path.is_file():
            raise CatalogError(f"missing ciphertext file {ct_path}")
        if ct_path.stat().st_size != entry.ct_len:  # before a forged size is read in
            raise CatalogError(f"ciphertext file {ct_path} is not {entry.ct_len} bytes")
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
    mode_code = _MODE_CODES[secrets.mode]
    share_len = len(secrets.flat_secrets[0]) if secrets.flat_secrets else 0
    out = bytearray(struct.pack("!BBHI", 1, mode_code, share_len, len(secrets.flat_secrets)))
    for share in secrets.flat_secrets:
        out += share
    out += struct.pack("!I", 0)  # no stored item keys; see _read_secrets
    path.write_bytes(bytes(out))


def _read_secrets(path: Path) -> SenderSecrets:
    data = path.read_bytes()
    if len(data) < 8:
        raise CatalogError("corrupt secrets file: truncated header")
    version, mode_code, share_len, count = struct.unpack("!BBHI", data[:8])
    if version != 1:
        raise CatalogError(f"unsupported secrets file version {version}")
    mode = _MODE_NAMES.get(mode_code)
    if mode is None:
        raise CatalogError(f"corrupt secrets file: unknown mode code {mode_code}")
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
