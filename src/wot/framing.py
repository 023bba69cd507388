"""Length-prefixed binary framing and message codecs.

Frame layout::

    [4 bytes - big-endian length of everything after this field]
    [1 byte  - message type]
    [N bytes - payload]

The length field therefore equals ``1 + len(payload)`` and is capped at
16 MiB; a frame claiming more is rejected before any allocation. All
integers on the wire are big-endian. Group elements are opaque bytes
here: the transfer messages carry them in blocks of ``elem_len``-byte
elements, with that width in their headers, and only ``wot.group``
decodes one (``decode_elements``, through its membership check).
``encode_frame`` is the only encoder and
``read_frame``, which pulls one frame from a ``recv_exact(n)`` callable,
the only decoder; in-process sessions run both over a socket pair too.

A seller sends each ciphertext without copying it, and a buyer copies it
once. ``_frame_parts`` gives a frame's header, then its payload's parts,
and ``encode_frame`` joins them in one pass. A ``CT_DATA`` ciphertext is
a part of its own, so ``wot.net.SocketChannel`` sends the header and then
the ciphertext from where it lies: the bytes on the wire are
``encode_frame``'s, and no frame is joined. ``read_frame`` decodes from
a read-only view over the frame body. Every field is copied out as
``bytes`` or decoded to an ``int`` or ``str``, except
``CtData.ciphertext``, ``OtBatchQuery.queries`` and ``OtBatchResp.masks``:
each is a view over the body. The buyer's one copy is
``wot.net._recv_exact``'s, from its ``recv`` chunks into the body: a
join, or none when one ``recv`` fills it, under ``symcrypto.MAP_FLOOR``
bytes, and one pre-faulted mapping from there up.

Protocol version 5 delivers by position, sends one ``a`` per transfer
reply, and ends the session with that reply: its pick count is the bill.
``HELLO`` is ``[u8 version]`` alone: every session parameter comes from
the seller's manifest. A version-5 HELLO with anything after its version
byte is a ``FrameError``; a HELLO of any other version decodes from its
first byte alone, whatever follows, so the seller can answer it with
``ERROR(ERR_INCOMPATIBLE, "unsupported version N")``. ``CT_REQ`` has an
empty payload and asks for every ciphertext, in manifest order; each
``CT_DATA`` is ``[type][ciphertext]``, and its place in that stream names
the item. Version 2 named an item in each request and reply.

``OT_BATCH_QUERY`` carries one blinded element ``y`` per pick::

    [u32 count T] [u16 elem_len] [T times: elem_len bytes - y]

and ``OtBatchQuery`` copies out the header and holds the ``T`` elements
as one block, the ``queries``. The codec's rule for that block is the
record-count rule, the same on both sides: it is ``count`` elements of
``elem_len`` bytes, and no element is of zero width.

``OT_BATCH_RESP`` carries the batch's one ``a`` and N masks per pick::

    [u32 count T] [u32 n N] [u16 elem_len] [u16 mask_len]
    [elem_len bytes - a = g^k] [T * N times: mask_len bytes - mask]

so the length field of a reply reads ``1 + 12 + elem_len + T * N * mask_len``.
``OtBatchResp`` copies out the header's four fields and ``a``, which must
be ``elem_len`` bytes, and holds the ``T * N`` masks as one block, pick
after pick, which ``_frame_parts`` gives as a part of its own. The codec
knows nothing of the transfer: its rule for the mask block is the
record-count rule too (``count * n`` masks of ``mask_len`` bytes, and no
pick of zero width). Decoding a query or a reply builds no object per
pick or per mask: each block is handed on as it came, so the buyer
checks a reply's fields (``wot.protocol``) at a cost that does not grow
with ``T * N``. A reply's ``count`` is the billed total ``T``, which the
seller logs and the buyer checks against its own pick count. Version 4
repeated that total in a ``DONE`` frame (type ``0x07``, now unassigned),
version 3 sent an ``a`` before each pick's masks, version 1 N (element,
mask) pairs per pick. The manifest record format has its own version
byte (``MANIFEST_VERSION``), so bundles written before any bump still
load.

This module owns the frame cap, ``MAX_FRAME_LEN``; no other module reads
it. The codec refuses a frame over it (``frame too large``), and every
earlier size check asks ``_over_cap`` why a length field cannot be sent,
so each refusal ends in the same words. Those checks compute the length
field without encoding the frame: ``_ct_data_len`` for a ciphertext,
``_ot_batch_resp_len`` for a reply, from ``(N, T)``, and
``_manifest_len`` for a ``MANIFEST``, from the group name and the item
ids alone (with 64-character ids, 147,168 items fit). ``wot.protocol``
makes them where each size enters.

``read_frame`` can hand a frame's type byte and undecoded payload to an
``admit`` callable before it decodes anything, so a peer's frame can be
refused for its type, or a query for its header, at no decoding cost.

Session grammar (enforced on both sides in ``wot.protocol``)::

    HELLO -> MANIFEST -> [CT_REQ -> N x CT_DATA] -> OT_BATCH_QUERY
          -> OT_BATCH_RESP

Any deviation earns an ERROR frame and a closed connection.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .catalog import Manifest, ManifestEntry, MODES
from .errors import CatalogError, FrameError

LENGTH_FIELD = 4
MAX_FRAME_LEN = 1 << 24  # cap on the length field (type byte + payload)

PROTOCOL_VERSION = 5
MANIFEST_VERSION = 1

TYPE_HELLO = 0x01
TYPE_MANIFEST = 0x02
TYPE_CT_REQ = 0x03
TYPE_CT_DATA = 0x04
TYPE_OT_BATCH_QUERY = 0x05
TYPE_OT_BATCH_RESP = 0x06  # 0x07 stays unassigned: version 4's DONE
TYPE_ERROR = 0x7F

ERR_GRAMMAR = 0x01  # 0x02 stays unassigned: version 2 refused an unknown item with it
ERR_INCOMPATIBLE = 0x03
ERR_BAD_QUERY = 0x04
ERR_INTERNAL = 0x05


@dataclass(frozen=True)
class Hello:
    version: int = PROTOCOL_VERSION


@dataclass(frozen=True)
class ManifestMsg:
    manifest: Manifest


@dataclass(frozen=True)
class CtReq:
    """Every ciphertext, in manifest order."""


@dataclass(frozen=True)
class CtData:
    ciphertext: bytes | memoryview  # decoded: a read-only view over the received frame


@dataclass(frozen=True)
class OtBatchQuery:
    count: int  # T picks
    elem_len: int
    queries: bytes | memoryview  # T elements, one per pick; decoded: a view over the frame


@dataclass(frozen=True)
class OtBatchResp:
    count: int  # T, the bill
    n: int  # N masks per pick
    elem_len: int
    mask_len: int
    a: bytes  # g^k, one per batch: elem_len bytes
    masks: bytes | memoryview  # T * N masks, pick after pick; decoded: a view over the frame


@dataclass(frozen=True)
class ErrorMsg:
    code: int
    text: str


Message = Hello | ManifestMsg | CtReq | CtData | OtBatchQuery | OtBatchResp | ErrorMsg

# The one mode-code table, shared by the manifest and the secrets file.
_MODE_CODES = {mode: i + 1 for i, mode in enumerate(MODES)}
_MODE_NAMES = {code: mode for mode, code in _MODE_CODES.items()}


class _Reader:
    """Decode fields from a read-only view; ``take`` copies a field, ``rest`` does not."""

    def __init__(self, data):
        self.data = memoryview(data).toreadonly()
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise FrameError("truncated payload")
        out = self.data[self.pos:self.pos + n].tobytes()
        self.pos += n
        return out

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return struct.unpack("!H", self.take(2))[0]

    def u32(self) -> int:
        return struct.unpack("!I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("!Q", self.take(8))[0]

    def string(self) -> str:
        n = self.u16()
        try:
            return self.take(n).decode()
        except UnicodeDecodeError:
            raise FrameError("invalid string encoding") from None

    def expect_records(self, count: int, size: int):
        _check_records(count, size, len(self.data) - self.pos)

    def rest(self) -> memoryview:
        out = self.data[self.pos:]
        self.pos = len(self.data)
        return out

    def done(self):
        if self.pos != len(self.data):
            raise FrameError("trailing bytes in payload")


def _check_records(count: int, size: int, length: int):
    """Refuse ``count`` records of ``size`` bytes that ``length`` bytes do not hold exactly.

    Checked before any record is built, so a small frame cannot make the
    decoder loop over a forged u32 count of zero-width records.
    """
    if count * size != length or (count and not size):
        raise FrameError("payload does not match its record count")


def _pack(fmt: str, *values: int) -> bytes:
    """``struct.pack`` that refuses an out-of-range field with a ``FrameError``."""
    try:
        return struct.pack(fmt, *values)
    except struct.error as exc:
        raise FrameError(f"field out of range: {exc}") from None


def _string(s: str) -> bytes:
    raw = s.encode()
    if len(raw) > 0xFFFF:
        raise FrameError("string too long")
    return struct.pack("!H", len(raw)) + raw


def _encode_mode(mode: str) -> int:
    if mode not in _MODE_CODES:
        raise FrameError(f"unknown mode {mode!r}")
    return _MODE_CODES[mode]


def _decode_mode(code: int) -> str:
    if code not in _MODE_NAMES:
        raise FrameError(f"unknown mode code {code}")
    return _MODE_NAMES[code]


def encode_manifest(manifest: Manifest) -> bytes:
    """Length-prefixed record form, the bundle's on-disk manifest format."""
    out = bytearray()
    out += _pack("!BBH", MANIFEST_VERSION, _encode_mode(manifest.mode), manifest.key_bits)
    out += _string(manifest.group_id)
    out += _pack("!I", manifest.n)
    for e in manifest.entries:
        record = _string(e.id) + _pack("!IQ", e.weight, e.ct_len) + bytes.fromhex(e.digest_hex)
        out += _pack("!I", len(record)) + record
    return bytes(out)


def decode_manifest(data: bytes) -> Manifest:
    r = _Reader(data)
    version = r.u8()
    if version != MANIFEST_VERSION:
        raise FrameError(f"unsupported manifest version {version}")
    mode = _decode_mode(r.u8())
    key_bits = r.u16()
    group_id = r.string()
    n = r.u32()
    entries = []
    for _ in range(n):
        rec = _Reader(r.take(r.u32()))
        item_id = rec.string()
        weight = rec.u32()
        ct_len = rec.u64()
        digest = rec.take(32)
        rec.done()
        try:
            entries.append(ManifestEntry(id=item_id, weight=weight, ct_len=ct_len,
                                         digest_hex=digest.hex()))
        except CatalogError as exc:
            raise FrameError(f"invalid manifest entry: {exc}") from None
    r.done()
    try:
        return Manifest(mode=mode, group_id=group_id, key_bits=key_bits,
                        entries=tuple(entries))
    except CatalogError as exc:
        raise FrameError(f"invalid manifest: {exc}") from None


def _encode_payload(msg: Message) -> tuple:
    """The type byte, then the payload's parts; ``encode_frame`` joins them once."""
    if isinstance(msg, Hello):
        return TYPE_HELLO, _pack("!B", msg.version)
    if isinstance(msg, ManifestMsg):
        return TYPE_MANIFEST, encode_manifest(msg.manifest)
    if isinstance(msg, CtReq):
        return TYPE_CT_REQ, b""
    if isinstance(msg, CtData):
        return TYPE_CT_DATA, msg.ciphertext
    if isinstance(msg, OtBatchQuery):
        _check_records(msg.count, msg.elem_len, len(msg.queries))
        return TYPE_OT_BATCH_QUERY, _pack("!IH", msg.count, msg.elem_len), msg.queries
    if isinstance(msg, OtBatchResp):
        _check_records(msg.count, msg.n * msg.mask_len, len(msg.masks))
        if len(msg.a) != msg.elem_len:
            raise FrameError("a does not match its width")
        header = _pack("!IIHH", msg.count, msg.n, msg.elem_len, msg.mask_len)
        return TYPE_OT_BATCH_RESP, header + msg.a, msg.masks
    if isinstance(msg, ErrorMsg):
        return TYPE_ERROR, _pack("!B", msg.code) + msg.text.encode()
    raise FrameError(f"cannot encode {type(msg).__name__}")


def _decode_payload(msg_type: int, payload: memoryview) -> Message:
    r = _Reader(payload)
    if msg_type == TYPE_HELLO:
        version = r.u8()
        if version == PROTOCOL_VERSION:  # another version's tail is its own business
            r.done()
        return Hello(version=version)
    if msg_type == TYPE_MANIFEST:
        return ManifestMsg(manifest=decode_manifest(payload))
    if msg_type == TYPE_CT_REQ:
        r.done()
        return CtReq()
    if msg_type == TYPE_CT_DATA:
        return CtData(ciphertext=r.rest())
    if msg_type == TYPE_OT_BATCH_QUERY:
        count, elem_len = r.u32(), r.u16()
        r.expect_records(count, elem_len)
        return OtBatchQuery(count=count, elem_len=elem_len, queries=r.rest())
    if msg_type == TYPE_OT_BATCH_RESP:
        count, n, elem_len, mask_len = r.u32(), r.u32(), r.u16(), r.u16()
        a = r.take(elem_len)
        r.expect_records(count, n * mask_len)
        return OtBatchResp(count=count, n=n, elem_len=elem_len, mask_len=mask_len, a=a,
                           masks=r.rest())
    if msg_type == TYPE_ERROR:
        code = r.u8()
        try:
            text = bytes(r.rest()).decode()
        except UnicodeDecodeError:
            raise FrameError("invalid error text") from None
        return ErrorMsg(code=code, text=text)
    raise FrameError(f"unknown message type 0x{msg_type:02x}")


def _query_header(payload: memoryview) -> tuple[int, int]:
    """An OT_BATCH_QUERY payload's ``(count, elem_len)``, read before its block is checked."""
    r = _Reader(payload)
    return r.u32(), r.u16()


def _manifest_len(group_id: str, ids) -> int:
    """Length field of a MANIFEST: type byte, header, then one record per item id.

    A record is its u32 length, the id, then fixed-width weight, ``ct_len``
    and digest, so the size follows from the group name and the ids alone.
    """
    header = 1 + 1 + 2 + 2 + len(group_id.encode()) + 4
    return 1 + header + sum(4 + 2 + len(item_id.encode()) + 4 + 8 + 32 for item_id in ids)


def _ct_data_len(ct_len: int) -> int:
    """Length field of a CT_DATA: the type byte, then the ciphertext."""
    return 1 + ct_len


def _ot_batch_resp_len(count: int, n: int, elem_len: int, mask_len: int) -> int:
    """Length field of an OT_BATCH_RESP: type byte, header, the one a, then T * N masks."""
    return 1 + 12 + elem_len + count * n * mask_len


def _over_cap(length: int) -> str | None:
    """Why a frame whose length field reads ``length`` cannot be sent; ``None`` if it can."""
    if length > MAX_FRAME_LEN:
        return f"a {length}-byte frame, over the {MAX_FRAME_LEN}-byte frame cap"
    return None


def encode_frame(msg: Message) -> bytes:
    """The whole frame as one ``bytes``, built by a single join of its parts."""
    return b"".join(_frame_parts(msg))


def _frame_parts(msg: Message) -> tuple:
    """The frame's header (length field and type byte), then its payload's parts."""
    msg_type, *parts = _encode_payload(msg)
    length = 1 + sum(map(len, parts))
    if length > MAX_FRAME_LEN:
        raise FrameError(f"frame too large: {length} bytes")
    return struct.pack("!IB", length, msg_type), *parts


def read_frame(recv_exact, admit=None) -> Message:
    """Read one frame from a ``recv_exact(n) -> bytes`` callable.

    ``admit(msg_type, payload)``, when given, sees the type byte and the
    undecoded payload first and refuses the frame by raising, so nothing
    of a refused frame is decoded.
    """
    header = recv_exact(LENGTH_FIELD)
    length = struct.unpack("!I", header)[0]
    if length > MAX_FRAME_LEN:
        raise FrameError(f"frame too large: {length} bytes")
    if length < 1:
        raise FrameError("frame has no type byte")
    body = recv_exact(length)
    payload = memoryview(body)[1:]
    if admit is not None:
        admit(body[0], payload)
    return _decode_payload(body[0], payload)
