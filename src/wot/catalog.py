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

A payload of ``symcrypto.MAP_FLOOR`` bytes (1 MiB) or more is loaded as a
read-only view of the mapped file, not copied into memory: publishing
reads each payload once, so a copy would only add a page fault per 4 KiB
page and a pass over the bytes (see ``load_catalog``).

Indices are 0-based throughout. The flat index space enumerates all key
shares across items: item ``i`` owns the contiguous range
``[offsets[i], offsets[i] + weight_i)`` and the total ``N`` is the sum of
all weights. Both parties derive the identical map from the manifest, so a
flat index is an unambiguous reference to one share of one item's key.
"""

from __future__ import annotations

import ctypes
import hashlib
import mmap
import os
import re
import weakref
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from pickle import PickleBuffer

from .errors import CatalogError
from .group import _on_cpus
from .symcrypto import KEY_BITS_CHOICES, MAP_FLOOR, MAP_POPULATE

MANIFEST_SOURCE = "items.tsv"
# Weights, the share count N and the billed total travel as u32 fields,
# so the total weight of a catalog or manifest stays below 2^32.
MAX_TOTAL_WEIGHT = 1 << 32

# \Z, not $: $ also matches before a trailing newline.
_ID_RE = re.compile(r"^(?!\.{1,2}\Z)[A-Za-z0-9._-]{1,64}\Z")

MODE_P1 = "p1"  # one independent key per price unit, nested encryption layers
MODE_P2 = "p2"  # one key per item, split into price-many XOR shares
MODES = (MODE_P1, MODE_P2)


def _check_id(item_id: str):
    if not _ID_RE.match(item_id):
        raise CatalogError(f"invalid item id {item_id!r}")


@dataclass(frozen=True)
class Item:
    id: str
    weight: int
    payload: bytes | memoryview  # memoryview: a mapped payload file (see ``load_catalog``)

    def __post_init__(self):
        _check_id(self.id)
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
        _check_id(self.id)
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
        if self.key_bits not in KEY_BITS_CHOICES:
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

    def picks(self, items) -> list[int]:
        """Every flat index of the given items, ascending.

        A purchase sends its picks in this order, which hides which pick
        belongs to which item.
        """
        return [f for i in sorted(set(items)) for f in self.item_range(i)]


def load_catalog(path) -> Catalog:
    """Read a catalog directory (``items.tsv`` plus payload files).

    Every line is checked before any payload is opened; the payloads are
    then opened on the CPU pool (``group._on_cpus``) by ``_open_payload``.
    A payload of ``symcrypto.MAP_FLOOR`` bytes or more is mapped read-only,
    not copied: its ``Item.payload`` is a read-only ``memoryview`` of the
    file's pages in the page cache, mapped ready to read (``MAP_POPULATE``),
    so loading it costs no copy and no page fault per 4 KiB page. A smaller
    or empty payload, and one the OS refuses to map, is read into ``bytes``.

    No file stays open. Replacing a payload file afterwards (unlink and
    create, as ``wot publish`` writes its own files) leaves the loaded
    payload as it was. A file edited in place afterwards reads as it is at
    the moment it is read, and one truncated while mapped ends the process
    with ``SIGBUS`` when the lost pages are read.
    """
    directory = Path(path)
    source = directory / MANIFEST_SOURCE
    if not source.is_file():
        raise CatalogError(f"missing manifest source {source}")
    try:
        text = source.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise CatalogError(f"{source}: not UTF-8 text (byte {exc.start})") from None
    listed = []  # (id, weight, payload path)
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
        payload_path = directory / filename
        if not payload_path.is_file():
            raise CatalogError(f"{source}:{lineno}: missing payload file {payload_path}")
        _check_id(item_id)
        listed.append((item_id, weight, payload_path))
    if not listed:
        raise CatalogError(f"{source}: no items listed")
    payloads = _on_cpus(_open_payload, [payload_path for _, _, payload_path in listed])
    return Catalog(items=tuple(Item(id=item_id, weight=weight, payload=payload)
                               for (item_id, weight, _), payload in zip(listed, payloads)))


def _open_payload(path) -> bytes | memoryview:
    """The bytes of one payload file: mapped from ``MAP_FLOOR`` bytes up, else read."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size >= MAP_FLOOR:
            try:
                return _map_file(fh.fileno(), size)
            except OSError:
                pass
        return fh.read()


_libc = ctypes.CDLL(None, use_errno=True)
_libc.mmap.restype = ctypes.c_void_p
_libc.mmap.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int, ctypes.c_int,
                       ctypes.c_int, ctypes.c_long)
_libc.munmap.argtypes = (ctypes.c_void_p, ctypes.c_size_t)
_MAP_FAILED = ctypes.c_void_p(-1).value


def _map_file(fd: int, size: int) -> memoryview:
    """A read-only view of the first ``size`` bytes of ``fd``, mapped shared and pre-faulted.

    It calls libc's ``mmap`` because ``mmap.mmap`` keeps a duplicate of
    ``fd`` open for as long as the mapping lives (until Python 3.13's
    ``trackfd``); this mapping holds no descriptor. It is unmapped when the
    last view of it is released.
    """
    addr = _libc.mmap(None, size, mmap.PROT_READ, mmap.MAP_SHARED | MAP_POPULATE, fd, 0)
    if addr == _MAP_FAILED:
        err = ctypes.get_errno()
        raise OSError(err, os.strerror(err))
    pages = (ctypes.c_ubyte * size).from_address(addr)
    weakref.finalize(pages, _libc.munmap, addr, size).atexit = False
    # PickleBuffer.raw() is a plain unsigned-byte view; the array's own is "<B".
    return PickleBuffer(pages).raw().toreadonly()


def ciphertext_digest(ciphertext: bytes) -> str:
    return hashlib.sha256(ciphertext).hexdigest()
