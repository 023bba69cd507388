import errno
import os
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from wot import catalog, group, protocol, symcrypto
from wot.catalog import Catalog, FlatIndexMap, Item, ciphertext_digest, load_catalog
from wot.errors import CatalogError
from wot.group import setup_params
from wot.protocol import publish

from conftest import count_calls, local_session, make_catalog, write_catalog_dir


def spy_payload_opens(monkeypatch) -> list:
    """The paths ``load_catalog`` opens as payloads, mapped or read, from now on."""
    opened = []
    open_payload = catalog._open_payload
    monkeypatch.setattr(catalog, "_open_payload",
                        lambda path: opened.append(path) or open_payload(path))
    return opened


class TestLoadCatalog:
    def test_two_items(self, tmp_path):
        d = write_catalog_dir(tmp_path / "cat", [("a", 100, b"A" * 10), ("b", 200, b"B" * 20)])
        cat = load_catalog(d)
        assert cat.n == 2
        assert [item.weight for item in cat.items] == [100, 200]
        assert cat.items[0].payload == b"A" * 10
        assert [item.id for item in cat.items] == ["a", "b"]

    def test_order_preserved(self, tmp_path):
        entries = [(f"x{i}", i + 1, bytes([i])) for i in range(9, -1, -1)]
        cat = load_catalog(write_catalog_dir(tmp_path / "cat", entries))
        assert [item.id for item in cat.items] == [e[0] for e in entries]

    def test_zero_weight_rejected(self, tmp_path):
        d = write_catalog_dir(tmp_path / "cat", [("a", 0, b"A")])
        with pytest.raises(CatalogError, match="nonpositive weight"):
            load_catalog(d)

    def test_noninteger_weight_rejected(self, tmp_path):
        d = write_catalog_dir(tmp_path / "cat", [("a", 1, b"A")])
        (d / "items.tsv").write_text("a\t1.5\ta.bin\n")
        with pytest.raises(CatalogError, match="not an integer"):
            load_catalog(d)

    def test_missing_payload_rejected(self, tmp_path):
        d = write_catalog_dir(tmp_path / "cat", [("a", 1, b"A")])
        (d / "a.bin").unlink()
        with pytest.raises(CatalogError, match="missing payload"):
            load_catalog(d)

    @pytest.mark.parametrize("bad_line, match", [
        ("c\tzero\tc.bin", "items.tsv:3: weight 'zero' is not an integer"),
        ("c\t1\tnone.bin", "items.tsv:3: missing payload file"),
        ("c/d\t1\ta.bin", "invalid item id 'c/d'"),
    ], ids=["weight", "missing-file", "bad-id"])
    def test_bad_line_is_refused_before_any_payload_is_read(self, tmp_path, monkeypatch,
                                                            bad_line, match):
        d = write_catalog_dir(tmp_path / "cat", [("a", 1, b"A"), ("b", 2, b"B")])
        opened = spy_payload_opens(monkeypatch)
        load_catalog(d)
        assert sorted(opened) == [d / "a.bin", d / "b.bin"]  # the spy sees every open
        opened.clear()
        (d / "items.tsv").write_text(f"a\t1\ta.bin\nb\t2\tb.bin\n{bad_line}\n")
        with pytest.raises(CatalogError, match=match):
            load_catalog(d)
        assert opened == []

    def test_payloads_are_read_in_listed_order(self, tmp_path, monkeypatch):
        """Reads run on the CPU pool; each payload still lands on its own line's item."""
        monkeypatch.setattr(group, "_cpus", lambda: 2)
        entries = [(f"x{i}", 1, bytes([i]) * (1000 * i + 1)) for i in range(12)]
        cat = load_catalog(write_catalog_dir(tmp_path / "cat", entries))
        assert [(item.id, item.payload) for item in cat.items] == [(i, p) for i, _, p in entries]

    def test_duplicate_id_rejected(self, tmp_path):
        d = write_catalog_dir(tmp_path / "cat", [("a", 1, b"A")])
        (d / "items.tsv").write_text("a\t1\ta.bin\na\t2\ta.bin\n")
        with pytest.raises(CatalogError, match="duplicate"):
            load_catalog(d)

    def test_weight_cap(self, tmp_path, monkeypatch):
        """The cap on a weight is the frame cap, and ``publish`` checks it before any key.

        On modp-2048 with 128-bit keys, the reply to a buy of a lone item of
        weight 1,024 would be 269 + 16 * 1,024^2 = 16,777,485 bytes; weight 1,023 fits.
        """
        params = setup_params("modp-2048")
        key_gens = count_calls(monkeypatch, symcrypto.new_key)
        for mode in ("p1", "p2"):
            d = write_catalog_dir(tmp_path / mode, [("a", 1024, b"A")])
            with pytest.raises(CatalogError) as err:
                publish(load_catalog(d), mode, params)
            assert str(err.value) == ("item 'a': a purchase of weight 1024 would need a "
                                      "16777485-byte frame, over the 16777216-byte frame cap")
            assert key_gens == []
            (d / "items.tsv").write_text("a\t1023\ta.bin\n")
            _, secrets = publish(load_catalog(d), mode, params)
            assert len(secrets.flat_secrets) == 1023
            key_gens.clear()

    def test_comments_and_blank_lines(self, tmp_path):
        d = write_catalog_dir(tmp_path / "cat", [("a", 3, b"A")])
        (d / "items.tsv").write_text("# header\n\na\t3\ta.bin\n\n")
        assert [item.weight for item in load_catalog(d).items] == [3]

    def test_example_weight_sum(self, tmp_path):
        # The four-item demo vector: total share space is 1291.
        entries = [(f"i{k}", w, bytes([k])) for k, w in enumerate([105, 190, 307, 689])]
        cat = load_catalog(write_catalog_dir(tmp_path / "cat", entries))
        assert cat.total_weight == 1291


FLOOR = symcrypto.MAP_FLOOR
EDGE_SIZES = (0, 1, FLOOR - 1, FLOOR, FLOOR + 1)


def edge_catalog_dir(path):
    """One payload of each size around the mapping floor, with weights 1 and 2."""
    return write_catalog_dir(path, [(f"s{n}", 1 + k % 2, random.Random(n).randbytes(n))
                                    for k, n in enumerate(EDGE_SIZES)])


class TestMappedPayloads:
    """Payloads from ``MAP_FLOOR`` bytes up are read-only views of a mapped file."""

    def test_sizes_around_the_floor_load_as_read_bytes_does(self, tmp_path, monkeypatch):
        monkeypatch.setattr(group, "_cpus", lambda: 2)  # opened on the CPU pool
        d = edge_catalog_dir(tmp_path / "cat")
        for item, size in zip(load_catalog(d).items, EDGE_SIZES):
            assert isinstance(item.payload, memoryview) == (size >= FLOOR)
            assert len(item.payload) == size
            assert item.payload == (d / f"{item.id}.bin").read_bytes()

    @pytest.mark.parametrize("mode", ["p1", "p2"])
    def test_publish_and_buy_round_trip(self, tmp_path, p23, mode):
        d = edge_catalog_dir(tmp_path / "cat")
        bundle, secrets = publish(load_catalog(d), mode, p23)
        protocol.save_bundle(bundle, tmp_path / "bundle", secrets=secrets)
        bundle = protocol.load_bundle(tmp_path / "bundle")
        ids = [f"s{n}" for n in EDGE_SIZES]
        result, billed = local_session(bundle, protocol.load_secrets(tmp_path / "bundle"), ids)
        assert billed == result.total == sum(1 + k % 2 for k in range(len(ids)))
        assert result.items == tuple((i, (d / f"{i}.bin").read_bytes()) for i in ids)

    def test_mapped_payload_is_read_only(self, tmp_path):
        d = write_catalog_dir(tmp_path / "cat", [("a", 1, bytes(FLOOR))])
        payload = load_catalog(d).items[0].payload
        assert payload.readonly
        with pytest.raises(TypeError):
            payload[0] = 1

    def test_replacing_the_file_leaves_the_loaded_payload(self, tmp_path):
        d = write_catalog_dir(tmp_path / "cat", [("a", 1, b"old" * FLOOR)])
        payload = load_catalog(d).items[0].payload
        (d / "a.bin").unlink()
        (d / "a.bin").write_bytes(b"new" * FLOOR)
        assert payload == b"old" * FLOOR

    @pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd")
    def test_no_descriptor_stays_open(self, tmp_path, monkeypatch):
        monkeypatch.setattr(group, "_cpus", lambda: 2)
        d = edge_catalog_dir(tmp_path / "cat")
        load_catalog(d)  # the pool starts here, not in the count below
        before = len(os.listdir("/proc/self/fd"))
        loaded = load_catalog(d)  # its two mapped payloads stay alive across the count
        assert len(os.listdir("/proc/self/fd")) == before
        assert isinstance(loaded.items[-1].payload, memoryview)

    def test_refused_mapping_is_an_oserror(self, tmp_path):
        """The OS's refusal comes back as ``OSError``; a directory cannot be mapped."""
        fd = os.open(tmp_path, os.O_RDONLY)
        try:
            with pytest.raises(OSError) as err:
                catalog._map_file(fd, FLOOR)
        finally:
            os.close(fd)
        assert err.value.errno == errno.ENODEV

    def test_refused_mapping_falls_back_to_a_read(self, tmp_path, monkeypatch):
        def refuse(fd, size):
            raise OSError(errno.ENODEV, "no mapping")

        monkeypatch.setattr(catalog, "_map_file", refuse)
        d = write_catalog_dir(tmp_path / "cat", [("a", 1, b"x" * FLOOR)])
        assert load_catalog(d).items[0].payload == b"x" * FLOOR


class TestFlatIndexMap:
    def test_small_map_by_hand(self):
        # weights [2,1,3]: items own [0,2), [2,3) and [3,6).
        m = FlatIndexMap([2, 1, 3])
        assert m.offsets == (0, 2, 3)
        assert m.total == 6
        assert [m.item_range(i) for i in range(3)] == [range(0, 2), range(2, 3), range(3, 6)]

    def test_single_item(self):
        m = FlatIndexMap([1])
        assert m.offsets == (0,)
        assert m.total == 1

    def test_reduced_demo_vector(self):
        assert FlatIndexMap([1, 2, 3, 7]).total == 13

    @given(st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=50))
    @settings(max_examples=100)
    def test_round_trip_property(self, weights):
        """The item ranges tile [0, N) in order, one range of its weight per item."""
        m = FlatIndexMap(weights)
        ranges = [m.item_range(i) for i in range(len(weights))]
        assert [len(r) for r in ranges] == weights
        assert [f for r in ranges for f in r] == list(range(m.total))

    def test_build_from_catalog(self):
        cat = make_catalog([2, 1, 3])
        assert FlatIndexMap(item.weight for item in cat.items).offsets == (0, 2, 3)


def test_item_validation():
    with pytest.raises(CatalogError):
        Item(id="bad id", weight=1, payload=b"")
    with pytest.raises(CatalogError):
        Item(id="ok", weight=-1, payload=b"")
    for bad in (".", "..", "ok\n", "a" * 65):  # directories, newline, too long
        with pytest.raises(CatalogError, match="invalid item id"):
            Item(id=bad, weight=1, payload=b"")
    Item(id="ok", weight=1, payload=b"")  # empty payload is legal
    Item(id="paper.v2", weight=1, payload=b"")  # dots inside an id are legal
    Item(id="...", weight=1, payload=b"")  # names a file, not a directory


def test_catalog_validation():
    with pytest.raises(CatalogError, match="empty"):
        Catalog(items=())
    with pytest.raises(CatalogError, match="duplicate"):
        Catalog(items=(Item("a", 1, b""), Item("a", 2, b"")))


def test_total_weight_fits_u32():
    """The billed total and the share count N travel as u32 fields."""
    with pytest.raises(CatalogError, match="overflows"):
        Catalog(items=(Item("a", 1 << 31, b""), Item("b", 1 << 31, b"")))
    assert Catalog(items=(Item("a", (1 << 32) - 1, b""),)).total_weight == (1 << 32) - 1
    with pytest.raises(CatalogError, match="overflows"):
        FlatIndexMap([1 << 32])
    assert FlatIndexMap([(1 << 32) - 2, 1]).total == (1 << 32) - 1


def test_digest_is_sha256_hex():
    assert ciphertext_digest(b"") == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")
    data = random.Random(5).randbytes(100)
    assert len(ciphertext_digest(data)) == 64
    assert ciphertext_digest(data) == ciphertext_digest(bytes(data))
