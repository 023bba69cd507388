import io
import socket

import pytest
from hypothesis import given, settings, strategies as st

from wot.base_ot import OtResponse
from wot.catalog import Manifest, ManifestEntry
from wot.errors import CatalogError, FrameError, ProtocolError, WotError
from wot.framing import (CtData, CtReq, Done, ErrorMsg, Hello, ManifestMsg,
                         OtBatchQuery, OtBatchResp, LENGTH_FIELD, MAX_FRAME_LEN,
                         decode_manifest, encode_frame, encode_manifest, read_frame)
from wot.net import SocketChannel

# Valid item ids: dotted ids such as "a.b" and "..." stay in, "." and ".." name
# a directory and are refused by ManifestEntry.
ids = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789._-", min_size=1,
              max_size=20).filter(lambda s: s not in (".", ".."))


def decode(frame: bytes):
    """Decode one whole frame through ``read_frame``, the decoder the transport runs."""
    stream = io.BytesIO(frame)

    def recv_exact(n):
        out = stream.read(n)
        if len(out) < n:
            raise EOFError(f"short read: {len(out)} of {n} bytes")
        return out

    msg = read_frame(recv_exact)
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


def response_strategy(elem_len, mask_len, n):
    mask = st.binary(min_size=mask_len, max_size=mask_len)
    return st.builds(OtResponse, a=st.integers(min_value=0, max_value=(1 << (8 * elem_len)) - 1),
                     masks=st.lists(mask, min_size=n, max_size=n).map(tuple))


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
            responses=st.lists(response_strategy(dims[0], dims[1], dims[2]),
                               min_size=0, max_size=4).map(tuple),
        ))
    return st.one_of(
        st.builds(Hello, version=st.integers(0, 255), mode=st.sampled_from(["", "p1", "p2"]),
                  group_id=st.sampled_from(["", "p23", "modp-2048"]),
                  key_bits=st.sampled_from([0, 128, 256])),
        st.builds(ManifestMsg, manifest=manifest_strategy()),
        st.builds(CtReq, item_id=ids),
        st.builds(CtData, item_id=ids, ciphertext=st.binary(max_size=200)),
        batch_query,
        batch_resp,
        st.builds(Done, billed=st.integers(min_value=0, max_value=(1 << 32) - 1)),
        st.builds(ErrorMsg, code=st.integers(0, 255), text=st.text(max_size=50)),
    )


def test_done_frame_frozen_layout():
    # Billing echo of T=4: 4-byte length (5), type 0x07, 4-byte total.
    frame = encode_frame(Done(billed=4))
    assert frame == bytes.fromhex("00000005" "07" "00000004")
    assert len(frame) == 9
    assert decode(frame) == Done(billed=4)


def test_ot_batch_resp_frozen_layout():
    # T=2 picks over N=3 secrets on p23 (1-byte elements), 2-byte masks:
    # header count, n, elem_len, mask_len, then per pick a and its N masks.
    msg = OtBatchResp(elem_len=1, responses=(
        OtResponse(a=8, masks=(b"\x01\x02", b"\x03\x04", b"\x05\x06")),
        OtResponse(a=13, masks=(b"\xa0\xa1", b"\xa2\xa3", b"\xa4\xa5")),
    ))
    frame = encode_frame(msg)
    assert frame == bytes.fromhex("0000001b" "06" "00000002" "00000003" "0001" "0002"
                                  "08" "0102" "0304" "0506"
                                  "0d" "a0a1" "a2a3" "a4a5")
    assert len(frame) == LENGTH_FIELD + 1 + 12 + 2 * (1 + 3 * 2)
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
               + b"".join(resp.a.to_bytes(msg.elem_len, "big") for resp in msg.responses))
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
    frame = encode_frame(Done(billed=4))
    for cut in range(len(frame)):
        near, far = socket.socketpair()
        with far:
            far.sendall(frame[:cut])
        chan = SocketChannel(near, timeout=5)
        try:
            with pytest.raises(ProtocolError, match="connection closed mid-frame"):
                chan.recv()
        finally:
            chan.close()


def test_trailing_bytes_rejected():
    frame = encode_frame(Done(billed=4))
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
    good = encode_frame(Done(billed=4))
    short_payload = good[:4] + good[4:5] + good[5:7]  # truncated u32
    fixed = (3).to_bytes(4, "big") + short_payload[4:]
    with pytest.raises(FrameError):
        decode(fixed)


def test_encode_rejects_oversize_frame():
    with pytest.raises(FrameError, match="too large"):
        encode_frame(CtData(item_id="a", ciphertext=b"\x00" * MAX_FRAME_LEN))


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
    for msg in (Done(billed=1 << 32), Done(billed=-1), Hello(key_bits=1 << 16),
                OtBatchQuery(elem_len=1 << 16, queries=())):
        with pytest.raises(FrameError, match="out of range"):
            encode_frame(msg)
    huge = Manifest(mode="p2", group_id="p23", key_bits=128,
                    entries=(ManifestEntry(id="a", weight=1, ct_len=1 << 64,
                                           digest_hex="0" * 64),))
    with pytest.raises(FrameError, match="out of range"):
        encode_manifest(huge)
    assert decode(encode_frame(Done(billed=(1 << 32) - 1))).billed == (1 << 32) - 1


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
    frames = encode_frame(CtReq(item_id="paper-a")) + encode_frame(Done(billed=7))
    stream = {"pos": 0}

    def recv_exact(n):
        out = frames[stream["pos"]:stream["pos"] + n]
        stream["pos"] += n
        return out

    assert read_frame(recv_exact) == CtReq(item_id="paper-a")
    assert read_frame(recv_exact) == Done(billed=7)
