"""Versioned binary index format: save/load of the full search engine.

Layout (all little-endian):

* magic ``LSA1``; header: version u16, K u16, n u64, alpha_leaf f64;
  then the ``zlib.crc32`` of the magic and header (u32).
* three sections, each followed by the ``zlib.crc32`` of its bytes (u32):
  suffix array (u32[n]); the text's n - 1 bases, 4 per byte, first base in
  the high bits, padding 0 (:func:`dnasearch.ipbwt.pack_bases`); leaf
  models: a leaf count u64, then slopes and intercepts (f64), maximum
  errors and partition starts (u64), each of that length. The file ends there.

Nothing load can derive is stored. Load is the build minus the suffix sort
and the fit: :func:`dnasearch.ipbwt.build_ipbwt` derives the IP-BWT from
the stored text and suffix array, each leaf's boundary key is the key at
its start, and the FM tables are rebuilt from the text.

Files of any version but :data:`VERSION` are refused, before the header's
checksum is read (an older header has another size). ``load_index`` reads
each array into a buffer of its own, so every array starts aligned, and
checks every checksum, then the structure the checksums cannot vouch for:
K and n pass the build's :func:`dnasearch.ipbwt.check_k`, alpha_leaf is
finite and > 0, the text's padding is 0 (its length follows from n), the
suffix array is a permutation of [0, n), the keys never decrease (so the
suffix array is the text's, by induction on the loc fields from the
text's end, and its row 0 holds the sentinel's key (0, 0), the unique
least), leaf starts rise strictly from 0 below n, slopes are finite and
>= 0, intercepts finite, maximum errors in [0, n], and no bytes follow the
last section. The k-mers need no check of their own: they are the text's
by construction. Any failure raises :class:`CorruptIndexError` naming the
section.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from dnasearch.fmindex import build_fm_index
from dnasearch.ipbwt import IpBwtError, build_ipbwt, check_k, unpack_bases
from dnasearch.rmi import Rmi, RmiLayer
from dnasearch.search import SearchEngine
from dnasearch.seqcore import Reference

MAGIC = b"LSA1"
VERSION = 10
_HEADER = struct.Struct("<HHQd")


class CorruptIndexError(ValueError):
    def __init__(self, section: str, detail: str = ""):
        self.section = section
        msg = f"corrupt index file: bad {section} section"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


@dataclass
class IndexMeta:
    k: int
    n: int
    alpha_leaf: float


def _require(ok, section: str, detail: str) -> None:
    if not ok:
        raise CorruptIndexError(section, detail)


def save_index(path: str, engine: SearchEngine) -> dict[str, int]:
    """Write the engine to ``path``; returns per-section byte sizes."""
    fm, ix, leaf = engine.fm, engine.ipbwt, engine.rmi.leaf
    flat = np.ascontiguousarray  # fh.write and crc32 read arrays through the buffer protocol
    sections = (
        ("header", [MAGIC + _HEADER.pack(VERSION, engine.k, fm.n, engine.rmi.alpha_leaf)]),
        ("sa", [flat(fm.sa, "<u4")]),
        ("text", [ix.text]),
        ("rmi", [struct.pack("<Q", len(leaf)), flat(leaf.slopes, "<f8"),
                 flat(leaf.intercepts, "<f8"), flat(leaf.max_errors, "<u8"),
                 flat(leaf.starts, "<u8")]),
    )
    sizes = {"bwt_occ": 0, "ipbwt": 0}  # no such sections; perfbench/run.py still reads the keys
    with open(path, "wb") as fh:
        for name, parts in sections:
            start, crc = fh.tell(), 0
            for part in parts:
                fh.write(part)
                crc = zlib.crc32(part, crc)
            fh.write(struct.pack("<I", crc))
            sizes[name] = fh.tell() - start  # the checksum included
        sizes["total"] = fh.tell()
    return sizes


def load_index(path: str) -> tuple[SearchEngine, Reference, IndexMeta]:
    with open(path, "rb") as fh:
        file_size = os.fstat(fh.fileno()).st_size

        def take(name: str, size: int) -> bytes:
            raw = fh.read(size)
            _require(len(raw) == size, name, "truncated")
            return raw

        def section(name: str, count: int, *dtypes, head: bytes = b"") -> list[np.ndarray]:
            """One ``count``-item array per dtype, checked by the CRC-32 that follows."""
            sizes = [count * np.dtype(dtype).itemsize for dtype in dtypes]
            # a damaged count must not allocate more than the file holds
            _require(sum(sizes) + 4 <= file_size - fh.tell(), name, "truncated")
            arrays, crc = [], zlib.crc32(head)
            for size, dtype in zip(sizes, dtypes):
                buf = bytearray(size)  # a buffer per array keeps every array aligned
                _require(fh.readinto(buf) == size, name, "truncated")
                crc = zlib.crc32(buf, crc)
                arrays.append(np.frombuffer(buf, dtype))
            _require(int.from_bytes(take(name, 4), "little") == crc, name, "checksum mismatch")
            return arrays

        magic = take("header", 4)
        _require(magic == MAGIC, "header", f"bad magic {magic!r}")
        fields = take("header", _HEADER.size)
        version, k, n, alpha_leaf = _HEADER.unpack(fields)
        # before the checksum: an older header has another size, so its checksum lies elsewhere
        _require(version == VERSION, "header", f"unsupported version {version}")
        section("header", 0, head=magic + fields)
        try:
            check_k(n, k)  # the build's rule: 1 <= K <= min(MAX_K, n - 1) and n + K < 2^32
        except IpBwtError as exc:
            raise CorruptIndexError("header", str(exc)) from None
        _require(np.isfinite(alpha_leaf) and alpha_leaf > 0, "header",
                 f"alpha_leaf={alpha_leaf} is not finite and > 0")

        (sa,) = section("sa", n, "<u4")
        (text,) = section("text", (n + 2) // 4, "u1")  # ceil((n - 1) / 4) bytes
        # the last byte holds (n - 2) % 4 + 1 bases; its padding reads as the sentinel's code 0
        _require(text[-1] & (0xFF >> 2 * ((n - 2) % 4 + 1)) == 0, "text", "padding bits set")
        try:
            ix = build_ipbwt(text, sa, k)
        except IpBwtError as exc:  # sa is not a permutation
            raise CorruptIndexError("sa", str(exc)) from None
        # sorted keys make sa the text's suffix array (see the module docstring)
        hi_a, hi_b, key_lo = ix.key_hi[:-1], ix.key_hi[1:], ix.key_lo
        _require(np.all((hi_a < hi_b) | ((hi_a == hi_b) & (key_lo[:-1] <= key_lo[1:]))),
                 "sa", "keys out of order")

        head = take("rmi", 8)
        count = int.from_bytes(head, "little")
        slopes, intercepts, max_errors, starts = section("rmi", count, "<f8", "<f8", "<u8", "<u8",
                                                         head=head)
        max_errors, starts = max_errors.astype(np.int64), starts.astype(np.int64)
        _require(fh.tell() == file_size, "rmi", f"{file_size - fh.tell()} trailing bytes")

    _require(count and starts[0] == 0 and np.all(starts[:-1] < starts[1:]) and starts[-1] < n,
             "rmi", "leaf starts do not rise from 0 below n")
    _require(np.all(np.isfinite(slopes) & (slopes >= 0)) and np.all(np.isfinite(intercepts)),
             "rmi", "slopes must be finite and >= 0, intercepts finite")
    _require(np.all((max_errors >= 0) & (max_errors <= n)), "rmi", "maximum errors outside [0, n]")
    leaf = RmiLayer(starts=starts, slopes=slopes, intercepts=intercepts, max_errors=max_errors,
                    boundary_hi=ix.key_hi[starts], boundary_lo=key_lo[starts], target_size=n)
    rmi = Rmi(leaf=leaf, alpha_leaf=alpha_leaf, k=k)
    ref = Reference(name="reference", ranks=unpack_bases(text, n))
    engine = SearchEngine(fm=build_fm_index(ref, sa), ipbwt=ix, rmi=rmi, k=k)
    return engine, ref, IndexMeta(k=k, n=n, alpha_leaf=alpha_leaf)
