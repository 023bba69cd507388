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
          -> OT_BATCH_RESP

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

Delivery is positional (since protocol version 3). ``fetch_bundle`` sends
one CT_REQ, and the seller answers it with all ``N`` ciphertexts in manifest
order, so the ``k``-th CT_DATA is entry ``k``'s; one out of place fails
that entry's length and digest check. The buyer sends nothing more until
it has read all ``N``, so the seller's blocking sends always drain and
neither side can deadlock on full socket buffers. The seller sends each
ciphertext from where it lies, after its frame header (``wot.net``). The
buyer hands each received ciphertext's length and digest check to the
CPU pool (``group._cpu_pool``) while the next one arrives. Every check
ends before ``fetch_bundle`` returns or raises, and the first mismatch
in manifest order is raised then, so a bad ciphertext still aborts the
session before the first transfer message, whatever the choice. Every
ciphertext, chosen or not, is received, buffered and checked the same
way. A fetched ciphertext is the read-only view that ``read_frame``
decoded (see ``wot.framing``): it is length-checked, hashed and
decrypted where it was received, and the buyer's
``PublishedBundle.ciphertexts`` hold such views.

The buyer decodes nothing it refuses: a frame of any type but the one
the grammar expects next, or ERROR, is refused from its type byte
(``_expect``).

The reply ends the session, and its pick count is the bill. Once the
reply passes its checks, the buyer closes the channel, and only then
recovers its keys and decrypts. The checks read the reply's header fields
and its ``a``, before any mask: its count is the buyer's pick count, its
``n`` the manifest's ``N``, its widths the group's and the manifest's, and
its ``a`` a member. The codec has matched the mask block to the header,
and ``ot_recover`` reads one mask per pick from it. So what the seller
can see of the buyer, its bytes, their order and the moment it hangs up,
depends only on the manifest and ``T``, and a failure to open an item
surfaces only after the session.

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
unbilled. The seller decodes nothing it refuses: a frame of a type the
grammar does not expect next is refused from its type byte, and a query
from its 6-byte header (``_check_query``: no picks, another element
width, a reply over the frame cap, more picks than ``N``), before any
payload or element is decoded. ``N`` and the mask width come from the
manifest, as on the buyer's side and in ``publish``.

Each size is checked once, where it enters, against the frame cap that
``wot.framing`` owns (``framing._over_cap``). ``publish`` checks the
manifest, every ciphertext and every item's smallest reply before it
draws a key. ``load_manifest`` checks a manifest file's size before it
decodes it, and ``load_bundle`` every listed ``ct_len`` before it opens
a ``.ct`` file. The buyer checks its purchase's reply right after the
manifest, and the seller a query's from its header. So a
``PublishedBundle`` checks only its ciphertext count, and
``wot.net.SenderServer`` re-checks no size. ``load_secrets`` checks a
secrets file's size against its header before it reads a share.

Group elements cross the wire as opaque byte blocks (see
``wot.framing``), and this module converts them only through
``wot.group``: ``encode_elements`` for what a side sends, and
``decode_elements``, whose membership check every element passes, for
what it receives. Each side decodes once, before any exponentiation or
pad: ``run_session_sender`` the query block and ``run_session_receiver``
the reply's one ``a``, and ``wot.base_ot`` relies on those two decodes.
Each batch step comes after its decode: the seller's ``ot_reply``, which
draws the batch's one ``k`` and runs its exponentiations together,
follows the check of every ``y``, and the buyer's ``ot_recover`` follows
the check of ``a``. Both bind their pads to the query block itself, as
the buyer sent it and the seller received it. The buyer's ``ot_query``
raises its batch's powers of ``g`` and ``h`` before it sends the query.
"""

from __future__ import annotations

import functools
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import NoReturn

from . import symcrypto
from .base_ot import ot_query, ot_recover, ot_reply
from .catalog import (Catalog, FlatIndexMap, Manifest, ManifestEntry,
                      MODE_P2, MODES, ciphertext_digest)
from .errors import (CatalogError, CryptoError, FrameError, ItemAuthenticationError,
                     ProtocolError, RemoteError, WotError)
from .framing import (CtData, CtReq, ErrorMsg, Hello, ManifestMsg, OtBatchQuery, OtBatchResp,
                      ERR_BAD_QUERY, ERR_GRAMMAR, ERR_INCOMPATIBLE, PROTOCOL_VERSION,
                      TYPE_CT_DATA, TYPE_CT_REQ, TYPE_ERROR, TYPE_HELLO, TYPE_MANIFEST,
                      TYPE_OT_BATCH_QUERY, TYPE_OT_BATCH_RESP, _MODE_CODES, _MODE_NAMES,
                      _ct_data_len, _manifest_len, _ot_batch_resp_len, _over_cap,
                      _query_header, decode_manifest, encode_manifest)
from .group import GroupParams, _cpu_pool, _on_cpus, decode_elements, encode_elements, setup_params

MANIFEST_FILE = "manifest.bin"
SECRETS_FILE = "sender_secrets.bin"
CT_SUFFIX = ".ct"


def item_context(mode: str, item_id: str) -> str:
    return f"wot:{mode}:item:{item_id}"


@dataclass(frozen=True)
class PublishedBundle:
    """Everything a buyer may see before a session.

    It checks only that there is one ciphertext per manifest entry. Each
    ciphertext's size is checked where the bundle is made: ``publish``
    and ``load_bundle`` refuse one that cannot travel in one CT_DATA
    frame, and ``fetch_bundle`` one whose length is not its entry's.
    """

    manifest: Manifest
    # Read-only views: over a seller's encryption buffers, over the frames a
    # buyer received, or over the buffers ``load_bundle`` read the files into.
    ciphertexts: tuple[bytes | memoryview, ...]

    def __post_init__(self):
        if len(self.ciphertexts) != self.manifest.n:
            raise CatalogError("ciphertext count does not match manifest")

    def verify_digests(self):
        """Check every ciphertext, on the CPU pool; the first mismatch in manifest order raises."""
        entries = self.manifest.entries
        _refuse_mismatch(entries, _on_cpus(lambda job: _matches_entry(*job),
                                           list(zip(entries, self.ciphertexts))))


def _check_deliverable(item_id: str, ct_len: int):
    """Refuse an item whose ciphertext cannot travel in one CT_DATA frame."""
    if why := _over_cap(_ct_data_len(ct_len)):
        raise CatalogError(f"item {item_id!r}: ciphertext of {ct_len} bytes would need {why}")


def _check_manifest_fits(length: int):
    """Refuse a manifest whose MANIFEST frame's length field would read ``length``."""
    if why := _over_cap(length):
        raise CatalogError(f"manifest too large: it would be {why}")


def _matches_entry(entry: ManifestEntry, ct: bytes) -> bool:
    """Whether ``ct`` is the ciphertext the manifest lists: its length, then its digest."""
    return len(ct) == entry.ct_len and ciphertext_digest(ct) == entry.digest_hex


def _refuse_mismatch(entries, matched: list[bool]):
    """Raise for the first of ``entries`` whose ciphertext did not match (``matched``)."""
    if False in matched:
        raise CatalogError(f"ciphertext digest mismatch for item "
                           f"{entries[matched.index(False)].id!r}")


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
    # The manifest's size follows from the ids alone (``framing._manifest_len``).
    _check_manifest_fits(_manifest_len(params.param_id, (item.id for item in catalog.items)))
    # Each layer adds a nonce and a tag; p2 has one layer, p1 one per unit
    # of weight. An item too big to deliver, or too heavy for the smallest
    # purchase that holds it to be answered in one frame, is refused before
    # any work.
    total = catalog.total_weight
    for item in catalog.items:
        layers = 1 if mode == MODE_P2 else item.weight
        _check_deliverable(item.id, len(item.payload)
                           + layers * (symcrypto.NONCE_LEN + symcrypto.TAG_LEN))
        if why := _over_cap(_ot_batch_resp_len(item.weight, total, params.element_len,
                                               key_bits // 8)):
            raise CatalogError(f"item {item.id!r}: a purchase of weight {item.weight} "
                               f"would need {why}")
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


def _expect(channel, msg_type: int):
    """The seller's next message, which must be of type ``msg_type``; an ERROR is raised.

    Any other frame is refused from its type byte, before it is decoded.
    """
    def admit(got: int, payload):
        if got not in (msg_type, TYPE_ERROR):
            raise ProtocolError(f"expected message type 0x{msg_type:02x}, got 0x{got:02x}")

    msg = channel.recv(admit)
    if isinstance(msg, ErrorMsg):
        raise RemoteError(msg.code, msg.text)
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
    """Drive the buyer's side of one session, HELLO to the reply, over an open channel.

    The group is the preset the manifest names; a manifest naming any
    other group raises ``GroupError`` before the query is sent.
    ``cache_dir`` is a previously downloaded bundle directory. The
    channel is closed once the reply passes its checks, before any key is
    recovered or any item decrypted.
    """
    channel.send(Hello())
    manifest = _expect(channel, TYPE_MANIFEST).manifest
    # Validate the request before any transfer-related traffic, and its
    # size from (N, T) alone before any work that grows with T.
    chosen = sorted({manifest.index_of(item_id) for item_id in item_ids})
    if not chosen:
        raise ProtocolError("empty choice set")
    params = setup_params(manifest.group_id)
    if why := _over_cap(_ot_batch_resp_len(sum(manifest.entries[i].weight for i in chosen),
                                           manifest.total_weight, params.element_len,
                                           manifest.key_bits // 8)):
        raise ProtocolError(f"purchase too large: its reply would be {why}")
    flat_map = FlatIndexMap(manifest.weights)
    picks = flat_map.picks(chosen)  # the bill is the pick count
    bundle = fetch_bundle(channel, manifest, cache_dir)

    total = flat_map.total
    ys, exponents = ot_query(params, total, picks)
    queries = encode_elements(params, ys)
    channel.send(OtBatchQuery(count=len(picks), elem_len=params.element_len, queries=queries))

    resp = _expect(channel, TYPE_OT_BATCH_RESP)  # the codec matched its masks to its header
    if resp.count != len(picks):
        raise ProtocolError("response count does not match pick count")
    if resp.elem_len != params.element_len:
        raise ProtocolError("response element width mismatch")
    if resp.n != total:
        raise ProtocolError("response does not cover the flat index space")
    if resp.mask_len != manifest.key_bits // 8:
        raise ProtocolError("response mask width mismatch")
    if (a := decode_elements(params, resp.a)) is None:  # one element, of the checked width
        raise ProtocolError("invalid response element")
    # Hang up before any work whose time or outcome depends on the choice.
    channel.close()

    recovered = dict(zip(picks, ot_recover(params, a[0], queries, resp.masks, total, picks,
                                           exponents)))

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
        except CryptoError:
            raise ItemAuthenticationError(entry.id) from None
        items.append((entry.id, plaintext))
    return PurchaseResult(items=tuple(items), total=len(picks))


def fetch_bundle(channel, manifest: Manifest, cache_dir=None) -> PublishedBundle:
    """Take every ciphertext the manifest lists: the whole cache, or all over the wire.

    The cache is used when it loads, its digests verify and its manifest
    equals the seller's; otherwise, a cache from another publish or with
    one bad file included, every ciphertext is fetched: one CT_REQ, then
    ``N`` CT_DATA in manifest order, each checked on the CPU pool
    (``group._cpu_pool``) as the next arrives. Every check ends before
    this returns or raises, and the first mismatch in manifest order is
    raised then. The cache's manifest file is decoded once: the ``.ct``
    files are read against it once it equals the seller's.
    """
    if cache_dir is not None:
        try:
            if load_manifest(cache_dir) == manifest:  # else its files are not worth reading
                return _read_bundle(Path(cache_dir), manifest, verify=True)
        except WotError:
            pass

    from concurrent.futures import wait  # kept out of cold start, as in ``group._cpu_pool``

    entries = manifest.entries
    cts, checks = [], []
    pool = _cpu_pool()
    try:
        channel.send(CtReq())
        for entry in entries:
            ct = _expect(channel, TYPE_CT_DATA).ciphertext
            cts.append(ct)
            checks.append(pool.submit(_matches_entry, entry, ct))
    finally:
        wait(checks)
        # An earlier item's mismatch stands before any later failure.
        _refuse_mismatch(entries, [check.result() for check in checks])
    return PublishedBundle(manifest=manifest, ciphertexts=tuple(cts))


def serve_session(channel, bundle: PublishedBundle, secrets: SenderSecrets) -> int:
    """The seller's side of one session: HELLO, an optional CT_REQ, then the transfer.

    The group is the one the bundle's manifest names. Returns the billed
    pick count.
    """
    hello = _recv_decoded(channel, TYPE_HELLO)
    if hello.version != PROTOCOL_VERSION:
        _refuse(channel, ERR_INCOMPATIBLE, f"unsupported version {hello.version}")
    channel.send(ManifestMsg(manifest=bundle.manifest))
    params = setup_params(bundle.manifest.group_id)
    check = functools.partial(_check_query, channel, params, bundle.manifest)
    msg = _recv_decoded(channel, TYPE_CT_REQ, TYPE_OT_BATCH_QUERY, check_query=check)
    if isinstance(msg, CtReq):
        for ct in bundle.ciphertexts:
            channel.send(CtData(ciphertext=ct))
        msg = _recv_decoded(channel, TYPE_OT_BATCH_QUERY, check_query=check)
    return run_session_sender(secrets, msg, channel, params)


def _recv_decoded(channel, *types: int, check_query=None):
    """The buyer's next message, if its type byte is one of ``types``; else out of grammar.

    A frame is refused from its type byte, and a query from its header
    (``check_query(count, elem_len)``), before any of it is decoded. A
    frame that does not decode is refused as out of grammar too.
    """
    def admit(msg_type, payload):
        if msg_type not in types:
            _refuse(channel, ERR_GRAMMAR, "grammar")
        if msg_type == TYPE_OT_BATCH_QUERY:
            check_query(*_query_header(payload))

    try:
        return channel.recv(admit)
    except FrameError as exc:
        _refuse(channel, ERR_GRAMMAR, "grammar", f"malformed frame: {exc}")


def _check_query(channel, params: GroupParams, manifest: Manifest, count: int, elem_len: int):
    """Refuse a query of ``count`` picks of ``elem_len``-byte elements from its header alone.

    ``N`` and the mask width are the manifest's, which ``wot.net.SenderServer``
    checks the secrets against before it serves.
    """
    if not count:
        _refuse(channel, ERR_BAD_QUERY, "empty purchase", "empty purchase rejected")
    if elem_len != params.element_len:
        _refuse(channel, ERR_INCOMPATIBLE, "element width mismatch")
    n = manifest.total_weight
    # The reply is one frame whose size follows from (N, T) alone.
    if why := _over_cap(_ot_batch_resp_len(count, n, params.element_len,
                                           manifest.key_bits // 8)):
        _refuse(channel, ERR_BAD_QUERY, "purchase too large",
                f"purchase too large: its reply would be {why}")
    # An honest buyer picks each flat index at most once.
    if count > n:
        _refuse(channel, ERR_BAD_QUERY, "too many picks",
                f"too many picks: {count} for {n} secrets")


def run_session_sender(secrets: SenderSecrets, query: OtBatchQuery, channel,
                       params: GroupParams) -> int:
    """Answer one buyer's batch; learns and returns only the billed pick count.

    ``serve_session`` has already refused a query of the wrong shape from
    its header (``_check_query``). The reply ends the session: its pick
    count is the bill.
    """
    # Validate the whole batch before answering any of it: a bad element
    # must not extract partial responses.
    if (ys := decode_elements(params, query.queries)) is None:
        _refuse(channel, ERR_BAD_QUERY, "invalid query", "invalid query: not a subgroup member")

    flat = secrets.flat_secrets
    a, masks = ot_reply(params, flat, query.queries, ys)
    channel.send(OtBatchResp(count=query.count, n=len(flat), elem_len=params.element_len,
                             mask_len=len(flat[0]), a=encode_elements(params, (a,)), masks=masks))
    return query.count


# --- bundle directory I/O ---------------------------------------------------

def save_bundle(bundle: PublishedBundle, directory,
                secrets: SenderSecrets | None = None):
    """Write manifest + ciphertext files (and, for the seller, the secrets).

    Each file is replaced, not rewritten in place (see ``_replace_file``).
    The ciphertext files are written on the CPU pool
    (``group._on_cpus``), since file writes release the GIL. A ``.ct``
    file of an earlier publish whose item the manifest no longer lists is
    removed; nothing else in the directory is touched. The secrets
    file is created owner-only (0600). Durability is as before: nothing is
    ``fsync``ed, and ext4's flush on replace was never a guarantee.
    """
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)
    _replace_file(path / MANIFEST_FILE, encode_manifest(bundle.manifest))
    _on_cpus(lambda job: _replace_file(*job),
             [(path / (entry.id + CT_SUFFIX), ct)
              for entry, ct in zip(bundle.manifest.entries, bundle.ciphertexts)])
    listed = {entry.id + CT_SUFFIX for entry in bundle.manifest.entries}
    for name in os.listdir(path):
        if name.endswith(CT_SUFFIX) and name not in listed and not (path / name).is_dir():
            os.unlink(path / name)
    if secrets is not None:
        _write_secrets(path / SECRETS_FILE, secrets)


def _replace_file(path, data, mode: int = 0o666):
    """Write ``data`` to a new file at ``path``; every file ``wot`` writes goes through here.

    Whatever ``path`` named is unlinked first: a hard link to an old file
    keeps its bytes, a read-only file is replaced and a symlink is removed,
    never followed. ``O_EXCL`` then refuses anything that appears at
    ``path`` in between. Truncating a file that holds data, or renaming
    over it, makes ext4 start writeback of the new data on the writer's
    thread; a fresh file does not. ``mode`` is filtered by the umask.
    """
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, mode)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
    finally:
        os.close(fd)


def load_manifest(directory) -> Manifest:
    path = Path(directory) / MANIFEST_FILE
    if not path.is_file():
        raise CatalogError(f"missing {path}")
    _check_manifest_fits(1 + path.stat().st_size)  # the file is a MANIFEST frame's payload
    return decode_manifest(path.read_bytes())


def load_bundle(directory, verify: bool = True) -> PublishedBundle:
    """The bundle in ``directory``; see ``_read_bundle``."""
    return _read_bundle(Path(directory), load_manifest(directory), verify)


def _read_bundle(path: Path, manifest: Manifest, verify: bool) -> PublishedBundle:
    """The bundle of ``manifest``, already loaded from ``path``, with ``path``'s ``.ct`` files.

    The files are read on the CPU pool (``_load_ct``). Every listed
    ciphertext must fit one CT_DATA frame, which is checked from the
    manifest before any ``.ct`` file is opened.
    """
    for entry in manifest.entries:
        _check_deliverable(entry.id, entry.ct_len)
    cts = _on_cpus(lambda job: _load_ct(*job),
                   [(path / (entry.id + CT_SUFFIX), entry.ct_len) for entry in manifest.entries])
    bundle = PublishedBundle(manifest=manifest, ciphertexts=tuple(cts))
    if verify:
        bundle.verify_digests()
    return bundle


def _load_ct(path: Path, ct_len: int) -> memoryview:
    """The ``ct_len``-byte file at ``path``, read into a ``symcrypto._new_buffer``.

    Its size is checked first, so a forged one is refused before the file is read.
    """
    if not path.is_file():
        raise CatalogError(f"missing ciphertext file {path}")
    if path.stat().st_size != ct_len:
        raise CatalogError(f"ciphertext file {path} is not {ct_len} bytes")
    return _read_into(path, symcrypto._new_buffer(ct_len))


def _read_into(path: Path, buf) -> memoryview:
    """Fill ``buf`` from the start of the file at ``path``; a read-only view of it."""
    view = memoryview(buf)
    with open(path, "rb", buffering=0) as fh:
        filled = 0
        while filled < len(view):
            got = fh.readinto(view[filled:])
            if not got:
                raise CatalogError(f"ciphertext file {path} is shorter than {len(view)} bytes")
            filled += got
    return view.toreadonly()


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
    _replace_file(path, out, 0o600)  # it holds every key share


def _read_secrets(path: Path) -> SenderSecrets:
    """The secrets file at ``path``, whose shares are read only once its size is checked.

    The header and the u32 key count after the shares give the file's
    exact size, so a forged count or an extended file is refused from at
    most 12 bytes read.
    """
    with open(path, "rb", buffering=0) as fh:
        size = os.fstat(fh.fileno()).st_size
        header = fh.read(8)
        if len(header) < 8:
            raise CatalogError("corrupt secrets file: truncated header")
        version, mode_code, share_len, count = struct.unpack("!BBHI", header)
        if version != 1:
            raise CatalogError(f"unsupported secrets file version {version}")
        mode = _MODE_NAMES.get(mode_code)
        if mode is None:
            raise CatalogError(f"corrupt secrets file: unknown mode code {mode_code}")
        keys_at = 8 + count * share_len
        if size < keys_at + 4:
            raise CatalogError("corrupt secrets file: truncated")
        # Older publishers stored p2 item keys after the shares; the block is
        # length-checked and ignored, since each key is the XOR of its shares.
        fh.seek(keys_at)
        key_count = int.from_bytes(fh.read(4), "big")
        if size != keys_at + 4 + key_count * share_len:
            raise CatalogError("corrupt secrets file")
        if (count or key_count) and not share_len:
            raise CatalogError("corrupt secrets file: zero-length shares")
        fh.seek(8)
        shares = fh.read(keys_at - 8)
    flat = tuple(shares[i * share_len:(i + 1) * share_len] for i in range(count))
    return SenderSecrets(mode=mode, flat_secrets=flat)
