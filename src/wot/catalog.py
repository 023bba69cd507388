"""Priced inventory: items, manifests, and the flat share-index space.

A catalog directory contains an ``items.tsv`` manifest source plus one
payload file per item::

    items.tsv          # lines: id<TAB>weight<TAB>filename, '#' comments
    paper-a.bin
    paper-b.bin

Item ids double as wire identifiers and file names (``<id>.ct`` in a bundle,
``<id>`` in a buyer's output directory), so they are restricted to 1 to 64
characters of ``[A-Za-z0-9._-]`` and may not be ``.`` or ``..``, which name a
directory rather than a file in it.

Indices are 0-based throughout. The flat index space enumerates all key
shares across items: item ``i`` owns the contiguous range
``[offsets[i], offsets[i] + weight_i)`` and the total ``N`` is the sum of
all weights. Both parties derive the identical map from the manifest, so a
flat index is an unambiguous reference to one share of one item's key.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .errors import CatalogError

MANIFEST_SOURCE = "items.tsv"
DEFAULT_MAX_WEIGHT = 1 << 20  # guards N explosion: transfer cost is O(N * T)
# Weights, the share count N and the billed total travel as u32 fields,
# so the total weight of a catalog or manifest stays below 2^32.
MAX_TOTAL_WEIGHT = 1 << 32

# \Z, not $: $ also matches before a trailing newline.
_ID_RE = re.compile(r"^(?!\.{1,2}\Z)[A-Za-z0-9._-]{1,64}\Z")

MODE_P1 = "p1"  # one independent key per price unit, nested encryption layers
MODE_P2 = "p2"  # one key per item, split into price-many XOR shares
MODES = (MODE_P1, MODE_P2)


@dataclass(frozen=True)
class Item:
    id: str
    weight: int
    payload: bytes

    def __post_init__(self):
        if not _ID_RE.match(self.id):
            raise CatalogError(f"invalid item id {self.id!r}")
        if not isinstance(self.weight, int) or isinstance(self.weight, bool):
            raise CatalogError(f"item {self.id!r}: weight must be an integer")
        if self.weight < 1:
            raise CatalogError(f"item {self.id!r}: nonpositive weight {self.weight}")


@dataclass(frozen=True)
class Catalog:
    items: tuple[Item, ...]

    def __post_init__(self):
        if not self.items:
            raise CatalogError("catalog is empty")
        seen = set()
        for item in self.items:
            if item.id in seen:
                raise CatalogError(f"duplicate item id {item.id!r}")
            seen.add(item.id)
        if self.total_weight >= MAX_TOTAL_WEIGHT:
            raise CatalogError("total weight overflows the flat index space")

    @property
    def n(self) -> int:
        return len(self.items)

    @property
    def weights(self) -> tuple[int, ...]:
        return tuple(item.weight for item in self.items)

    @property
    def total_weight(self) -> int:
        return sum(item.weight for item in self.items)


_DIGEST_RE = re.compile(r"^[0-9a-f]{64}$")


@dataclass(frozen=True)
class ManifestEntry:
    id: str
    weight: int
    ct_len: int
    digest_hex: str  # SHA-256 of the published ciphertext, lowercase hex

    def __post_init__(self):
        # Ids double as filenames; manifests can arrive from the network,
        # so reject anything that could escape a directory.
        if not _ID_RE.match(self.id):
            raise CatalogError(f"invalid item id {self.id!r}")
        if not isinstance(self.weight, int) or self.weight < 1:
            raise CatalogError(f"entry {self.id!r}: nonpositive weight")
        if self.ct_len < 0:
            raise CatalogError(f"entry {self.id!r}: negative ciphertext length")
        if not _DIGEST_RE.match(self.digest_hex):
            raise CatalogError(f"entry {self.id!r}: malformed digest")


@dataclass(frozen=True)
class Manifest:
    """Public description of a published bundle.

    Entry order matches catalog order; digests allow the receiver to verify
    downloaded ciphertexts bit-exactly before running any transfer.
    """

    mode: str
    group_id: str
    key_bits: int
    entries: tuple[ManifestEntry, ...]

    def __post_init__(self):
        if self.mode not in MODES:
            raise CatalogError(f"unknown mode {self.mode!r}")
        if self.key_bits not in (128, 256):
            raise CatalogError(f"unsupported key length {self.key_bits}")
        if not self.entries:
            raise CatalogError("manifest has no entries")
        index = {}
        for i, e in enumerate(self.entries):
            if index.setdefault(e.id, i) != i:
                raise CatalogError(f"duplicate item id {e.id!r}")
        object.__setattr__(self, "_index", index)
        if self.total_weight >= MAX_TOTAL_WEIGHT:
            raise CatalogError("total weight overflows the flat index space")

    @property
    def n(self) -> int:
        return len(self.entries)

    @cached_property
    def weights(self) -> tuple[int, ...]:
        return tuple(e.weight for e in self.entries)

    @cached_property
    def ids(self) -> tuple[str, ...]:
        return tuple(e.id for e in self.entries)

    @property
    def total_weight(self) -> int:
        return sum(self.weights)

    def index_of(self, item_id: str) -> int:
        try:
            return self._index[item_id]
        except KeyError:
            raise CatalogError(f"unknown item id {item_id!r}") from None

    def to_text(self) -> str:
        lines = [
            f"# mode={self.mode} group={self.group_id} key_bits={self.key_bits}"
            f" n={self.n} total_weight={self.total_weight}",
            "# id\tweight\tct_len\tsha256",
        ]
        for e in self.entries:
            lines.append(f"{e.id}\t{e.weight}\t{e.ct_len}\t{e.digest_hex}")
        return "\n".join(lines) + "\n"


class FlatIndexMap:
    """The flat indices [0, N), cut into one contiguous range per item."""

    def __init__(self, weights):
        weights = tuple(weights)
        if not weights:
            raise CatalogError("no weights")
        offsets = []
        acc = 0
        for w in weights:
            if w < 1:
                raise CatalogError(f"nonpositive weight {w}")
            offsets.append(acc)
            acc += w
        if acc >= MAX_TOTAL_WEIGHT:
            raise CatalogError("total weight overflows the flat index space")
        self.weights = weights
        self.offsets = tuple(offsets)
        self.total = acc

    def item_range(self, item: int) -> range:
        """All flat indices belonging to one item."""
        start = self.offsets[item]
        return range(start, start + self.weights[item])


def total_price(catalog: Catalog, choices) -> int:
    """Sum of weights over a set of item indices; the sender's billable total."""
    chosen = set(choices)
    for i in chosen:
        if not 0 <= i < catalog.n:
            raise CatalogError(f"choice index {i} out of range")
    return sum(catalog.items[i].weight for i in chosen)


def load_catalog(path) -> Catalog:
    """Read a catalog directory (``items.tsv`` plus payload files)."""
    directory = Path(path)
    source = directory / MANIFEST_SOURCE
    if not source.is_file():
        raise CatalogError(f"missing manifest source {source}")
    items = []
    for lineno, raw in enumerate(source.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise CatalogError(f"{source}:{lineno}: expected id<TAB>weight<TAB>filename")
        item_id, weight_text, filename = parts
        try:
            weight = int(weight_text)
        except ValueError:
            raise CatalogError(f"{source}:{lineno}: weight {weight_text!r} is not an integer") from None
        if weight < 1:
            raise CatalogError(f"{source}:{lineno}: nonpositive weight {weight}")
        if weight > DEFAULT_MAX_WEIGHT:
            raise CatalogError(f"{source}:{lineno}: weight {weight} exceeds cap {DEFAULT_MAX_WEIGHT}")
        payload_path = directory / filename
        if not payload_path.is_file():
            raise CatalogError(f"{source}:{lineno}: missing payload file {payload_path}")
        items.append(Item(id=item_id, weight=weight, payload=payload_path.read_bytes()))
    if not items:
        raise CatalogError(f"{source}: no items listed")
    return Catalog(items=tuple(items))


def ciphertext_digest(ciphertext: bytes) -> str:
    return hashlib.sha256(ciphertext).hexdigest()
