import random

import pytest
from hypothesis import given, settings, strategies as st

from wot.catalog import (Catalog, FlatIndexMap, Item, ciphertext_digest, load_catalog,
                         total_price)
from wot.errors import CatalogError, ProtocolError
from wot.protocol import plan_for_indices, publish

from conftest import make_catalog, write_catalog_dir


class TestLoadCatalog:
    def test_two_items(self, tmp_path):
        d = write_catalog_dir(tmp_path / "cat", [("a", 100, b"A" * 10), ("b", 200, b"B" * 20)])
        cat = load_catalog(d)
        assert cat.n == 2
        assert cat.weights == (100, 200)
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

    def test_duplicate_id_rejected(self, tmp_path):
        d = write_catalog_dir(tmp_path / "cat", [("a", 1, b"A")])
        (d / "items.tsv").write_text("a\t1\ta.bin\na\t2\ta.bin\n")
        with pytest.raises(CatalogError, match="duplicate"):
            load_catalog(d)

    def test_weight_cap(self, tmp_path):
        d = write_catalog_dir(tmp_path / "cat", [("a", (1 << 20) + 1, b"A")])
        with pytest.raises(CatalogError, match="exceeds cap"):
            load_catalog(d)
        (d / "items.tsv").write_text(f"a\t{1 << 20}\ta.bin\n")
        assert load_catalog(d).weights == (1 << 20,)

    def test_comments_and_blank_lines(self, tmp_path):
        d = write_catalog_dir(tmp_path / "cat", [("a", 3, b"A")])
        (d / "items.tsv").write_text("# header\n\na\t3\ta.bin\n\n")
        assert load_catalog(d).weights == (3,)

    def test_example_weight_sum(self, tmp_path):
        # The four-item demo vector: total share space is 1291.
        entries = [(f"i{k}", w, bytes([k])) for k, w in enumerate([105, 190, 307, 689])]
        cat = load_catalog(write_catalog_dir(tmp_path / "cat", entries))
        assert cat.total_weight == 1291


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

    def test_out_of_range(self, p23):
        """An item index outside the manifest is refused before any range is taken."""
        manifest = publish(make_catalog([2, 1]), "p2", p23)[0].manifest
        for bad in ({2}, {-1}, {0, 2}):
            with pytest.raises(ProtocolError, match="out of range"):
                plan_for_indices(manifest, bad)

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
        assert FlatIndexMap(cat.weights).offsets == (0, 2, 3)


class TestTotalPrice:
    def test_examples(self):
        assert total_price(make_catalog([100, 200, 300, 700]), {0, 2}) == 400
        assert total_price(make_catalog([1, 2, 4, 8]), {0, 1, 3}) == 11
        assert total_price(make_catalog([5]), set()) == 0

    def test_out_of_range(self):
        with pytest.raises(CatalogError):
            total_price(make_catalog([1, 2]), {2})

    @given(st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=12),
           st.data())
    @settings(max_examples=100)
    def test_monotone_and_additive(self, weights, data):
        cat = make_catalog(weights)
        n = len(weights)
        a = data.draw(st.sets(st.integers(0, n - 1)))
        b = data.draw(st.sets(st.integers(0, n - 1)))
        assert total_price(cat, a | b) <= total_price(cat, a) + total_price(cat, b)
        if a <= b:
            assert total_price(cat, a) <= total_price(cat, b)
        if not (a & b):
            assert total_price(cat, a | b) == total_price(cat, a) + total_price(cat, b)


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
