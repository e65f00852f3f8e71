"""Versioned binary index format: save/load of the full search engine.

Layout (all little-endian):

* magic ``LSA1``; header: version u16, K u16, n u64, alpha_leaf f64;
  then the ``zlib.crc32`` of the magic and header (u32).
* three sections, each followed by the ``zlib.crc32`` of its bytes (u32):
  suffix array (u32[n]); IP-BWT keys (u64[n] k-mer codes, then u32[n] loc
  fields); leaf models. The file ends there.

No BWT or occurrence table is stored. The first BW-matrix column is each
row's first k-mer base (row 0, the sentinel row, excepted); scattered
through the suffix array it gives back the text, from which load rebuilds
the FM tables with :func:`dnasearch.fmindex.build_fm_index`, as the build
does.

The model section is a leaf count u64, then per leaf its slope and
intercept (f64 each), maximum error (u64) and partition start (u64).
Storing starts makes load(save(x)) bit-identical without refitting; each
leaf's boundary key is the IP-BWT key at its start, read back from the
keys. Search reads the maximum errors as its window bounds.

Every index holds the leaf models, so it serves every search mode. Files
of any version but :data:`VERSION` are refused. ``load_index`` checks
every checksum, then the structure the checksums cannot vouch for: K and
n pass the build's :func:`dnasearch.ipbwt.check_k`, alpha_leaf is finite
and > 0, the suffix array is a permutation of [0, n) whose row 0 is the
sentinel's position n - 1, the keys never decrease from (0, 0) and their
k-mers fit in 2K bits, the loc fields are the ones the suffix array gives
(:func:`dnasearch.ipbwt.loc_column`), leaf starts rise strictly from 0
below n, slopes are finite and >= 0, intercepts finite, maximum errors in
[0, n], and no bytes follow the last section. Any failure raises
:class:`CorruptIndexError` naming the section.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

from dnasearch.fmindex import build_fm_index
from dnasearch.ipbwt import IpBwt, IpBwtError, check_k, loc_column
from dnasearch.rmi import Rmi, RmiLayer
from dnasearch.search import SearchEngine
from dnasearch.seqcore import Reference

MAGIC = b"LSA1"
VERSION = 8
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


class _SectionWriter:
    """Writes one section's arrays and then the CRC-32 of their bytes."""

    def __init__(self, fh: BinaryIO):
        self.fh = fh
        self.start = fh.tell()
        self.crc = 0

    def write(self, data: bytes) -> None:
        self.fh.write(data)
        self.crc = zlib.crc32(data, self.crc)

    def array(self, arr: np.ndarray, dtype) -> None:
        self.write(np.ascontiguousarray(arr, dtype=dtype).tobytes())

    def close(self) -> int:
        """Write the checksum; returns the section's size in bytes."""
        self.fh.write(struct.pack("<I", self.crc))
        return self.fh.tell() - self.start


class _SectionReader:
    """Reads one section's arrays, then checks the CRC-32 that follows them."""

    def __init__(self, fh: BinaryIO, section: str, file_size: int):
        self.fh = fh
        self.section = section
        self.file_size = file_size
        self.crc = 0

    def read(self, size: int) -> bytearray:
        # a damaged count must not allocate more than the file holds
        if size > self.file_size - self.fh.tell():
            raise CorruptIndexError(self.section, "truncated")
        buf = bytearray(size)
        if self.fh.readinto(buf) != size:
            raise CorruptIndexError(self.section, "truncated")
        self.crc = zlib.crc32(buf, self.crc)
        return buf

    def array(self, dtype, count: int) -> np.ndarray:
        dtype = np.dtype(dtype)
        return np.frombuffer(self.read(dtype.itemsize * count), dtype=dtype)

    def close(self) -> None:
        raw = self.fh.read(4)
        if len(raw) != 4:
            raise CorruptIndexError(self.section, "truncated")
        if struct.unpack("<I", raw)[0] != self.crc:
            raise CorruptIndexError(self.section, "checksum mismatch")


def save_index(path: str, engine: SearchEngine) -> dict[str, int]:
    """Write the engine to ``path``; returns per-section byte sizes."""
    fm, ix, rmi = engine.fm, engine.ipbwt, engine.rmi
    n = fm.n
    sizes: dict[str, int] = {}
    with open(path, "wb") as fh:
        out = _SectionWriter(fh)
        out.write(MAGIC + _HEADER.pack(VERSION, engine.k, n, rmi.alpha_leaf))
        sizes["header"] = out.close()

        out = _SectionWriter(fh)
        out.array(fm.sa, "<u4")
        sizes["sa"] = out.close()

        sizes["bwt_occ"] = 0  # no such section; perfbench/run.py still reads the key

        out = _SectionWriter(fh)
        out.array(ix.key_hi, "<u8")
        out.array(ix.key_lo, "<u4")
        sizes["ipbwt"] = out.close()

        out = _SectionWriter(fh)
        leaf = rmi.leaf
        out.write(struct.pack("<Q", len(leaf)))
        out.array(leaf.slopes, "<f8")
        out.array(leaf.intercepts, "<f8")
        out.array(leaf.max_errors, "<u8")
        out.array(leaf.starts, "<u8")
        sizes["rmi"] = out.close()
        sizes["total"] = fh.tell()
    return sizes


def load_index(path: str) -> tuple[SearchEngine, Reference, IndexMeta]:
    with open(path, "rb") as fh:
        file_size = os.fstat(fh.fileno()).st_size
        sec = _SectionReader(fh, "header", file_size)
        magic = bytes(sec.read(4))
        _require(magic == MAGIC, "header", f"bad magic {magic!r}")
        version, k, n, alpha_leaf = _HEADER.unpack(sec.read(_HEADER.size))
        _require(version == VERSION, "header", f"unsupported version {version}")
        sec.close()
        try:
            check_k(n, k)  # the build's rule: 1 <= K <= min(MAX_K, n - 1) and n + K < 2^32
        except IpBwtError as exc:
            raise CorruptIndexError("header", str(exc)) from None
        _require(np.isfinite(alpha_leaf) and alpha_leaf > 0, "header",
                 f"alpha_leaf={alpha_leaf} is not finite and > 0")

        sec = _SectionReader(fh, "sa", file_size)
        sa = sec.array("<u4", n)
        sec.close()
        try:
            loc = loc_column(sa, k)
        except IpBwtError as exc:
            raise CorruptIndexError("sa", str(exc)) from None
        _require(sa[0] == n - 1, "sa", f"row 0 is position {sa[0]}, not the sentinel's {n - 1}")

        sec = _SectionReader(fh, "ipbwt", file_size)
        key_hi = sec.array("<u8", n)
        key_lo = sec.array("<u4", n)
        sec.close()
        hi_a, hi_b = key_hi[:-1], key_hi[1:]
        _require(np.all((hi_a < hi_b) | ((hi_a == hi_b) & (key_lo[:-1] <= key_lo[1:]))),
                 "ipbwt", "keys out of order")
        # the sentinel row's key (0, 0) is the least key, so no key lies below the first leaf
        _require(key_hi[0] == 0 and key_lo[0] == 0, "ipbwt", "first key is not (0, 0)")
        _require(int(key_hi[-1]) >> 2 * k == 0, "ipbwt", f"k-mer codes wider than {2 * k} bits")
        # two swapped rows of sa keep it a permutation but change the loc fields it gives
        _require(np.array_equal(key_lo, loc), "sa", "rows disagree with the IP-BWT loc fields")

        sec = _SectionReader(fh, "rmi", file_size)
        (count,) = struct.unpack("<Q", sec.read(8))
        slopes = sec.array("<f8", count)
        intercepts = sec.array("<f8", count)
        max_errors = sec.array("<u8", count).astype(np.int64)
        starts = sec.array("<u8", count).astype(np.int64)
        sec.close()
        _require(fh.tell() == file_size, "rmi", f"{file_size - fh.tell()} trailing bytes")

    _require(count and starts[0] == 0 and np.all(starts[:-1] < starts[1:]) and starts[-1] < n,
             "rmi", "leaf starts do not rise from 0 below n")
    _require(np.all(np.isfinite(slopes) & (slopes >= 0)) and np.all(np.isfinite(intercepts)),
             "rmi", "slopes must be finite and >= 0, intercepts finite")
    _require(np.all((max_errors >= 0) & (max_errors <= n)), "rmi", "maximum errors outside [0, n]")
    leaf = RmiLayer(starts=starts, slopes=slopes, intercepts=intercepts, max_errors=max_errors,
                    boundary_hi=key_hi[starts], boundary_lo=key_lo[starts], target_size=n)
    rmi = Rmi(leaf=leaf, alpha_leaf=alpha_leaf, k=k)

    # the first BW-matrix column, scattered back through sa, is the text;
    # row 0 is the sentinel, every other row starts with its k-mer's first base
    first_col = (key_hi >> np.uint64(2 * (k - 1))).astype(np.uint8) + np.uint8(1)
    first_col[0] = 0
    ranks = np.empty(n, dtype=np.uint8)
    ranks[sa] = first_col
    ref = Reference(name="reference", ranks=ranks)

    ix = IpBwt(k=k, n=n, key_hi=key_hi, key_lo=key_lo)
    engine = SearchEngine(fm=build_fm_index(ref, sa), ipbwt=ix, rmi=rmi, k=k)
    return engine, ref, IndexMeta(k=k, n=n, alpha_leaf=alpha_leaf)
