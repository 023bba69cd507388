"""Length-prefixed binary framing and message codecs.

Frame layout::

    [4 bytes - big-endian length of everything after this field]
    [1 byte  - message type]
    [N bytes - payload]

The length field therefore equals ``1 + len(payload)`` and is capped at
16 MiB; a frame claiming more is rejected before any allocation. All
integers on the wire are big-endian. Group elements travel as fixed-width
integers whose width is carried inside the transfer messages, keeping the
codec self-contained. ``encode_frame`` is the only encoder and
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
``CtData.ciphertext``: it is a view over the body. The buyer's one copy
is ``wot.net._recv_exact``'s, from its ``recv`` chunks into the body: a
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

``OT_BATCH_RESP`` carries the batch's one ``a`` and N masks per pick::

    [u32 count T] [u32 n N] [u16 elem_len] [u16 mask_len]
    [elem_len bytes - a = g^k] [T * N times: mask_len bytes - mask]

so the length field of a reply reads ``1 + 12 + elem_len + T * N * mask_len``.
Its ``count`` is the billed total ``T``, which the seller logs and the
buyer checks against its own pick count. Version 4 repeated that total in
a ``DONE`` frame (type ``0x07``, now unassigned), version 3 sent an ``a``
before each pick's masks, version 1 N (element, mask) pairs per pick. The
manifest record format has its own version byte (``MANIFEST_VERSION``),
so bundles written before any bump still load.

A ``MANIFEST`` must fit one frame too, and its size follows from the
group name and the item ids alone (``_manifest_len``): with 64-character
ids, 147,168 items fit.

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

from .base_ot import OtResponse
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
    elem_len: int
    queries: tuple[int, ...]  # one blinded element per pick


@dataclass(frozen=True)
class OtBatchResp:
    elem_len: int
    a: int  # g^k, one per batch
    responses: tuple[OtResponse, ...]


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
        """Refuse a record count the rest of the payload cannot hold.

        Checked before any record is built, so a small frame cannot make
        the decoder loop over a forged u32 count of zero-width records.
        """
        if count * size != len(self.data) - self.pos or (count and not size):
            raise FrameError("payload does not match its record count")

    def rest(self) -> memoryview:
        out = self.data[self.pos:]
        self.pos = len(self.data)
        return out

    def done(self):
        if self.pos != len(self.data):
            raise FrameError("trailing bytes in payload")


def _pack(fmt: str, *values: int) -> bytes:
    """``struct.pack`` that refuses an out-of-range field with a ``FrameError``."""
    try:
        return struct.pack(fmt, *values)
    except struct.error as exc:
        raise FrameError(f"field out of range: {exc}") from None


def _element(value: int, width: int) -> bytes:
    """``value`` as ``width`` big-endian bytes; a negative or too wide one is a ``FrameError``."""
    try:
        return value.to_bytes(width, "big")
    except OverflowError as exc:
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
        out = bytearray(_pack("!IH", len(msg.queries), msg.elem_len))
        for y in msg.queries:
            out += _element(y, msg.elem_len)
        return TYPE_OT_BATCH_QUERY, out
    if isinstance(msg, OtBatchResp):
        counts = {resp.n_secrets for resp in msg.responses}
        if len(counts) > 1:
            raise FrameError("responses disagree on secret count")
        n = counts.pop() if counts else 0
        mask_lens = {len(m) for resp in msg.responses for m in resp.masks}
        if len(mask_lens) > 1:
            raise FrameError("responses disagree on mask length")
        mask_len = mask_lens.pop() if mask_lens else 0
        if msg.responses and not mask_len:  # read_frame refuses zero-width picks too
            raise FrameError("payload does not match its record count")
        out = bytearray(_pack("!IIHH", len(msg.responses), n, msg.elem_len, mask_len))
        out += _element(msg.a, msg.elem_len)
        for resp in msg.responses:
            for masked in resp.masks:
                out += masked
        return TYPE_OT_BATCH_RESP, out
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
        queries = tuple(int.from_bytes(r.take(elem_len), "big") for _ in range(count))
        r.done()
        return OtBatchQuery(elem_len=elem_len, queries=queries)
    if msg_type == TYPE_OT_BATCH_RESP:
        count, n, elem_len, mask_len = r.u32(), r.u32(), r.u16(), r.u16()
        a = int.from_bytes(r.take(elem_len), "big")
        r.expect_records(count, n * mask_len)
        responses = tuple(OtResponse(masks=tuple(r.take(mask_len) for _ in range(n)))
                          for _ in range(count))
        r.done()
        return OtBatchResp(elem_len=elem_len, a=a, responses=responses)
    if msg_type == TYPE_ERROR:
        code = r.u8()
        try:
            text = bytes(r.rest()).decode()
        except UnicodeDecodeError:
            raise FrameError("invalid error text") from None
        return ErrorMsg(code=code, text=text)
    raise FrameError(f"unknown message type 0x{msg_type:02x}")


def _query_header(payload: memoryview) -> tuple[int, int]:
    """An OT_BATCH_QUERY payload's ``(count, elem_len)``, read without decoding an element."""
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
