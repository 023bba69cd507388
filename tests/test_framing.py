import io
import socket

import pytest
from hypothesis import given, settings, strategies as st

from wot.base_ot import OtResponse
from wot.catalog import Manifest, ManifestEntry
from wot.errors import CatalogError, FrameError, ProtocolError, WotError
from wot import framing
from wot.framing import (CtData, CtReq, ErrorMsg, Hello, ManifestMsg,
                         OtBatchQuery, OtBatchResp, LENGTH_FIELD, MAX_FRAME_LEN,
                         TYPE_MANIFEST, _manifest_len, decode_manifest, encode_frame,
                         encode_manifest, read_frame)
from wot.net import SocketChannel

from conftest import count_calls

# Valid item ids: dotted ids such as "a.b" and "..." stay in, "." and ".." name
# a directory and are refused by ManifestEntry.
ids = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789._-", min_size=1,
              max_size=20).filter(lambda s: s not in (".", ".."))


def decode(frame: bytes, admit=None):
    """Decode one whole frame through ``read_frame``, the decoder the transport runs."""
    stream = io.BytesIO(frame)

    def recv_exact(n):
        out = stream.read(n)
        if len(out) < n:
            raise EOFError(f"short read: {len(out)} of {n} bytes")
        return out

    msg = read_frame(recv_exact, admit)
    assert stream.read() == b"", "bytes left over after the frame"
    return msg


def manifest_strategy():
    entry = st.builds(
        ManifestEntry,
        id=ids,
        weight=st.integers(min_value=1, max_value=1 << 20),
        ct_len=st.integers(min_value=0, max_value=1 << 40),
        digest_hex=st.binary(min_size=32, max_size=32).map(bytes.hex),
    )
    return st.builds(
        Manifest,
        mode=st.sampled_from(["p1", "p2"]),
        group_id=st.sampled_from(["p23", "p47", "modp-2048"]),
        key_bits=st.sampled_from([128, 256]),
        entries=st.lists(entry, min_size=1, max_size=6, unique_by=lambda e: e.id).map(tuple),
    )


def response_strategy(mask_len, n):
    mask = st.binary(min_size=mask_len, max_size=mask_len)
    return st.builds(OtResponse, masks=st.lists(mask, min_size=n, max_size=n).map(tuple))


def message_strategy():
    batch_query = st.integers(min_value=1, max_value=4).flatmap(
        lambda elem_len: st.builds(
            OtBatchQuery,
            elem_len=st.just(elem_len),
            queries=st.lists(st.integers(min_value=0, max_value=(1 << (8 * elem_len)) - 1),
                             min_size=0, max_size=8).map(tuple),
        ))
    batch_resp = st.tuples(st.integers(1, 3), st.integers(0, 24), st.integers(1, 4)).flatmap(
        lambda dims: st.builds(
            OtBatchResp,
            elem_len=st.just(dims[0]),
            a=st.integers(min_value=0, max_value=(1 << (8 * dims[0])) - 1),
            responses=st.lists(response_strategy(dims[1], dims[2]),
                               min_size=0, max_size=4).map(tuple),
        ))
    return st.one_of(
        st.builds(Hello, version=st.integers(0, 255)),
        st.builds(ManifestMsg, manifest=manifest_strategy()),
        st.just(CtReq()),
        st.builds(CtData, ciphertext=st.binary(max_size=200)),
        batch_query,
        batch_resp,
        st.builds(ErrorMsg, code=st.integers(0, 255), text=st.text(max_size=50)),
    )


def test_type_0x07_is_unassigned():
    """Version 4's DONE is gone: the reply's pick count is the bill, and 0x07 is no type."""
    with pytest.raises(FrameError, match="^unknown message type 0x07$"):
        decode(bytes.fromhex("00000005" "07" "00000004"))  # version 4's DONE(4)


def test_hello_frame_frozen_layout():
    """The version byte alone."""
    frame = encode_frame(Hello())
    assert frame == bytes.fromhex("00000002" "01" "05")
    assert decode(frame) == Hello(version=5)


def test_hello_is_read_version_first():
    """A version-5 HELLO is its version byte alone; another version is read from one byte."""
    assert decode(bytes.fromhex("00000007" "01" "02" "0000000000")) == Hello(version=2)
    assert decode(bytes.fromhex("00000003" "01" "03" "02")) == Hello(version=3)
    assert decode(bytes.fromhex("00000003" "01" "04" "02")) == Hello(version=4)
    assert decode(bytes.fromhex("00000002" "01" "06")) == Hello(version=6)
    assert decode(bytes.fromhex("00000004" "01" "06" "0102")) == Hello(version=6)
    for payload, message in (
            ("05" "00", "trailing bytes in payload"),
            ("05" "0000000000", "trailing bytes in payload"),  # version 2's empty fields
            ("", "truncated payload")):
        frame = (1 + len(payload) // 2).to_bytes(4, "big") + bytes.fromhex("01" + payload)
        with pytest.raises(FrameError, match=f"^{message}$"):
            decode(frame)


def test_ct_req_frozen_layout():
    """The type byte alone: every ciphertext, in manifest order. A payload is refused."""
    frame = encode_frame(CtReq())
    assert frame == bytes.fromhex("00000001" "03")
    assert decode(frame) == CtReq()
    with pytest.raises(FrameError, match="^trailing bytes in payload$"):
        decode(bytes.fromhex("00000003" "03" "0000"))  # version 2's empty id


def test_non_utf8_text_refused():
    """A string field or an ERROR text that is not UTF-8 is a ``FrameError``."""
    with pytest.raises(FrameError, match="^invalid string encoding$"):
        decode(bytes.fromhex("00000008" "02" "01" "02" "0080" "0001" "ff"))  # manifest group
    with pytest.raises(FrameError, match="^invalid error text$"):
        decode(bytes.fromhex("00000004" "7f" "01" "c328"))


def test_ct_data_frozen_layout():
    """The type byte, then the ciphertext; its place in the stream names the item."""
    frame = encode_frame(CtData(ciphertext=b"\x01\x02\x03"))
    assert frame == bytes.fromhex("00000004" "04" "010203")
    assert type(frame) is bytes
    assert decode(frame) == CtData(ciphertext=b"\x01\x02\x03")


def test_ct_data_ciphertext_is_a_view_over_the_body():
    """The decoder copies no ciphertext: it is a read-only view over what was received."""
    ciphertext = bytes(range(256)) * 4
    frame = encode_frame(CtData(ciphertext=ciphertext))
    stream, received = io.BytesIO(frame), []

    def recv_exact(n):
        received.append(stream.read(n))
        return received[-1]

    msg = read_frame(recv_exact)
    header, body = received
    assert isinstance(msg.ciphertext, memoryview)
    assert msg.ciphertext.readonly
    assert msg.ciphertext.obj is body
    assert msg.ciphertext == ciphertext


def test_fields_other_than_the_ciphertext_are_copied_out():
    """A decoded mask is ``bytes``, not a view that holds its frame alive."""
    msg = OtBatchResp(elem_len=1, a=8,
                      responses=(OtResponse(masks=(b"\x01\x02", b"\x03\x04")),))
    assert {type(m) for m in decode(encode_frame(msg)).responses[0].masks} == {bytes}


def test_ot_batch_resp_frozen_layout():
    # T=2 picks over N=3 secrets on p23 (1-byte elements), 2-byte masks:
    # header count, n, elem_len, mask_len, the batch's one a, then per pick N masks.
    msg = OtBatchResp(elem_len=1, a=8, responses=(
        OtResponse(masks=(b"\x01\x02", b"\x03\x04", b"\x05\x06")),
        OtResponse(masks=(b"\xa0\xa1", b"\xa2\xa3", b"\xa4\xa5")),
    ))
    frame = encode_frame(msg)
    assert frame == bytes.fromhex("0000001a" "06" "00000002" "00000003" "0001" "0002" "08"
                                  "0102" "0304" "0506"
                                  "a0a1" "a2a3" "a4a5")
    assert len(frame) == LENGTH_FIELD + 1 + 12 + 1 + 2 * 3 * 2
    assert decode(frame) == msg


def test_forged_record_counts_refused():
    """A u32 count the payload cannot hold is refused before any record is built."""
    for payload in (
        bytes.fromhex("05" "000003e8" "0000"),                    # 1000 zero-width queries
        bytes.fromhex("05" "00000002" "0001" "07"),               # 2 queries, 1 byte
        bytes.fromhex("06" "000003e8" "00000000" "0000" "0000"),  # 1000 empty replies
        bytes.fromhex("06" "00000001" "00000002" "0001" "0001" "08" "01"),  # a mask short
        bytes.fromhex("06" "00000001" "000f4240" "0001" "0000" "08"),  # 10^6 empty masks
    ):
        frame = len(payload).to_bytes(4, "big") + payload
        with pytest.raises(FrameError, match="record count"):
            decode(frame)


def check_round_trip(msg):
    """``msg`` decodes back to itself, or, with zero-width masks, both sides refuse it."""
    zero_width = isinstance(msg, OtBatchResp) and any(
        masked == b"" for resp in msg.responses for masked in resp.masks)
    if not zero_width:
        assert decode(encode_frame(msg)) == msg
        return
    with pytest.raises(FrameError, match="record count"):
        encode_frame(msg)
    payload = (bytes([0x06]) + len(msg.responses).to_bytes(4, "big")
               + msg.responses[0].n_secrets.to_bytes(4, "big")
               + msg.elem_len.to_bytes(2, "big") + bytes(2)
               + msg.a.to_bytes(msg.elem_len, "big"))
    with pytest.raises(FrameError, match="record count"):
        decode(len(payload).to_bytes(4, "big") + payload)


@given(message_strategy())
@settings(max_examples=300, deadline=None)
def test_round_trip_property(msg):
    check_round_trip(msg)


def test_oversize_length_rejected_before_allocation():
    header = (1 << 30).to_bytes(4, "big") + b"\x07"
    with pytest.raises(FrameError, match="too large"):
        decode(header)


def test_truncated_frames_rejected():
    """A peer that closes mid-frame ends the read with a ProtocolError, at any cut."""
    frame = encode_frame(OtBatchQuery(elem_len=2, queries=(4,)))
    for cut in range(len(frame)):
        near, far = socket.socketpair()
        with far:
            far.sendall(frame[:cut])
        chan = SocketChannel(near)
        try:
            with pytest.raises(ProtocolError, match="connection closed mid-frame"):
                chan.recv()
        finally:
            chan.close()


def test_trailing_bytes_rejected():
    frame = encode_frame(CtReq())
    padded = (len(frame) - LENGTH_FIELD + 1).to_bytes(4, "big") + frame[LENGTH_FIELD:] + b"\x00"
    with pytest.raises(FrameError, match="trailing"):
        decode(padded)


def test_unknown_type_rejected():
    frame = bytes.fromhex("00000001" "55")
    with pytest.raises(FrameError, match="unknown message type"):
        decode(frame)


def test_zero_length_rejected():
    with pytest.raises(FrameError, match="no type byte"):
        decode(bytes.fromhex("00000000") + b"\x00")


def test_garbled_payload_rejected():
    good = encode_frame(OtBatchQuery(elem_len=1, queries=(4,)))
    short_payload = good[:4] + good[4:5] + good[5:7]  # truncated u32 count
    fixed = (3).to_bytes(4, "big") + short_payload[4:]
    with pytest.raises(FrameError):
        decode(fixed)


def test_encode_rejects_oversize_frame():
    with pytest.raises(FrameError, match="too large"):
        encode_frame(CtData(ciphertext=b"\x00" * MAX_FRAME_LEN))


@given(manifest_strategy())
@settings(max_examples=100, deadline=None)
def test_manifest_record_round_trip(manifest):
    assert decode_manifest(encode_manifest(manifest)) == manifest


def test_manifest_rejects_traversal_item_id():
    """A hostile manifest must not smuggle path components into item ids."""
    good = Manifest(mode="p2", group_id="p23", key_bits=128,
                    entries=(ManifestEntry(id="ok", weight=1, ct_len=1,
                                           digest_hex="0" * 64),))
    raw = encode_manifest(good)
    evil = raw.replace(b"\x00\x02ok", b"\x00\x02..")
    with pytest.raises(FrameError, match="invalid manifest entry"):
        decode_manifest(evil)
    with pytest.raises(Exception, match="invalid item id"):
        ManifestEntry(id="../evil", weight=1, ct_len=1, digest_hex="0" * 64)
    with pytest.raises(Exception, match="malformed digest"):
        ManifestEntry(id="ok", weight=1, ct_len=1, digest_hex="ZZ" * 32)


def test_manifest_rejects_duplicate_item_ids():
    """Two entries named ``x`` would make ``x`` name two ciphertexts."""
    entry = ManifestEntry(id="xa", weight=1, ct_len=1, digest_hex="0" * 64)
    raw = encode_manifest(Manifest(mode="p2", group_id="p23", key_bits=128, entries=(
        entry, ManifestEntry(id="xb", weight=2, ct_len=1, digest_hex="0" * 64))))
    with pytest.raises(FrameError, match="duplicate item id 'xa'"):
        decode_manifest(raw.replace(b"\x00\x02xb", b"\x00\x02xa"))
    with pytest.raises(CatalogError, match="duplicate item id"):
        Manifest(mode="p2", group_id="p23", key_bits=128, entries=(entry, entry))


def test_out_of_range_fields_refused():
    """Every wire field is fixed-width; a value that does not fit is a WotError."""
    for msg in (ErrorMsg(code=256, text=""), ErrorMsg(code=-1, text=""), Hello(version=256),
                OtBatchQuery(elem_len=1 << 16, queries=()),
                OtBatchResp(elem_len=1, a=256, responses=()),
                OtBatchQuery(elem_len=1, queries=(256,)),
                OtBatchQuery(elem_len=1, queries=(-1,))):
        with pytest.raises(FrameError, match="out of range"):
            encode_frame(msg)
    huge = Manifest(mode="p2", group_id="p23", key_bits=128,
                    entries=(ManifestEntry(id="a", weight=1, ct_len=1 << 64,
                                           digest_hex="0" * 64),))
    with pytest.raises(FrameError, match="out of range"):
        encode_manifest(huge)
    assert decode(encode_frame(ErrorMsg(code=255, text=""))).code == 255
    assert decode(encode_frame(OtBatchQuery(elem_len=(1 << 16) - 1, queries=()))).elem_len \
        == (1 << 16) - 1


def test_manifest_total_weight_fits_u32():
    """Weights, N and the billed total are u32 on the wire: one limit covers them all."""
    def manifest(*weights):
        return Manifest(mode="p2", group_id="p23", key_bits=128, entries=tuple(
            ManifestEntry(id=f"i{k}", weight=w, ct_len=1, digest_hex="0" * 64)
            for k, w in enumerate(weights)))

    with pytest.raises(CatalogError, match="overflows"):
        manifest(1 << 32)
    with pytest.raises(CatalogError, match="overflows"):
        manifest(1 << 31, 1 << 31)
    largest = manifest((1 << 32) - 2, 1)
    assert decode_manifest(encode_manifest(largest)) == largest
    raw = encode_manifest(largest).replace(
        ((1 << 32) - 2).to_bytes(4, "big"), ((1 << 32) - 1).to_bytes(4, "big"))
    with pytest.raises(WotError, match="overflows"):  # a hostile manifest summing to 2^32
        decode_manifest(raw)


def test_manifest_rejects_bad_version():
    raw = bytearray(encode_manifest(Manifest(
        mode="p2", group_id="p23", key_bits=128,
        entries=(ManifestEntry(id="a", weight=1, ct_len=1, digest_hex="0" * 64),))))
    raw[0] = 9
    with pytest.raises(FrameError, match="version"):
        decode_manifest(bytes(raw))


def test_read_frame_from_stream():
    frames = encode_frame(CtReq()) + encode_frame(ErrorMsg(code=7, text="x"))
    stream = {"pos": 0}

    def recv_exact(n):
        out = frames[stream["pos"]:stream["pos"] + n]
        stream["pos"] += n
        return out

    assert read_frame(recv_exact) == CtReq()
    assert read_frame(recv_exact) == ErrorMsg(code=7, text="x")


def test_admit_refuses_before_anything_is_decoded(monkeypatch):
    """``admit`` sees the type byte and the undecoded payload; a refusal decodes nothing."""
    decoded = count_calls(monkeypatch, framing._decode_payload, record=lambda: "decoded")
    frame = encode_frame(OtBatchQuery(elem_len=1, queries=(4, 5)))
    seen = []

    def refusing(msg_type, payload):
        seen.append((msg_type, bytes(payload)))
        raise ProtocolError("refused")

    with pytest.raises(ProtocolError, match="^refused$"):
        decode(frame, refusing)
    assert seen == [(0x05, frame[LENGTH_FIELD + 1:])]
    assert decoded == []
    assert decode(frame, lambda msg_type, payload: None) == \
        OtBatchQuery(elem_len=1, queries=(4, 5))
    assert decoded == ["decoded"]


@given(manifest_strategy())
@settings(max_examples=100, deadline=None)
def test_manifest_len_follows_from_the_ids(manifest):
    """A MANIFEST frame's length field, computed from the group name and the ids alone."""
    ids = [entry.id for entry in manifest.entries]
    assert _manifest_len(manifest.group_id, ids) == 1 + len(encode_manifest(manifest))
    frame = encode_frame(ManifestMsg(manifest=manifest))
    assert frame[LENGTH_FIELD] == TYPE_MANIFEST
    assert int.from_bytes(frame[:LENGTH_FIELD], "big") == _manifest_len(manifest.group_id, ids)
