"""Versioned binary index format: save/load of the full search engine.

Layout (all little-endian):

* magic ``LSA1``; header: version u16, K u16, n u64, flags u32 (bit 0 =
  RMI present), checkpoint stride u32, alpha_mid f64, alpha_leaf f64.
* four sections, each followed by the ``zlib.crc32`` of its bytes (u32):
  suffix array (u32[n]); BWT (u8[n]) + occurrence checkpoints
  (u32[nblocks, 5]); IP-BWT packed keys (u64[n] high words, u64[n] low
  words); RMI layers (empty without an RMI).

The RMI section is a layer count u32, then per layer: model count u64,
target size u64, slopes and intercepts (f64 each), maximum errors (u64),
partition starts (u64) and boundary keys (u64 high words, u64 low words).
Storing starts makes load(save(x)) bit-identical without refitting; search
reads the leaf layer's maximum errors as its window bounds.

Version 4 added the maximum errors; version 3 models predict from keys
relative to their partition's first key (see ``dnasearch.rmi``) and added
the checksums; version 2 changed the meaning of the packed keys (see
``dnasearch.ipbwt``). Files of other versions are refused. ``load_index``
checks every section's checksum and that the suffix array is a
permutation of [0, n); any failure raises :class:`CorruptIndexError`
naming the section.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

from dnasearch.fmindex import NUM_RANKS, OCC_STRIDE, FmIndex, _pack_occ
from dnasearch.ipbwt import IpBwt
from dnasearch.rmi import Rmi, RmiLayer
from dnasearch.search import SearchEngine
from dnasearch.seqcore import Reference

MAGIC = b"LSA1"
VERSION = 4
_HEADER = struct.Struct("<HHQIIdd")


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
    has_rmi: bool
    stride: int
    alpha_mid: float
    alpha_leaf: float


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


def save_index(path: str, engine: SearchEngine, ref_name: str = "reference") -> dict[str, int]:
    """Write the engine to ``path``; returns per-section byte sizes."""
    fm, ix, rmi = engine.fm, engine.ipbwt, engine.rmi
    n = fm.n
    sizes: dict[str, int] = {}
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        flags = 1 if rmi is not None else 0
        alpha_mid = rmi.alpha_mid if rmi is not None else 0.0
        alpha_leaf = rmi.alpha_leaf if rmi is not None else 0.0
        fh.write(_HEADER.pack(VERSION, engine.k, n, flags, OCC_STRIDE, alpha_mid, alpha_leaf))
        sizes["header"] = 4 + _HEADER.size

        out = _SectionWriter(fh)
        out.array(fm.sa, "<u4")
        sizes["sa"] = out.close()

        out = _SectionWriter(fh)
        out.array(fm.bwt, "u1")
        out.array(fm.checkpoints, "<u4")
        sizes["bwt_occ"] = out.close()

        out = _SectionWriter(fh)
        out.array(ix.key_hi, "<u8")
        out.array(ix.key_lo, "<u8")
        sizes["ipbwt"] = out.close()

        out = _SectionWriter(fh)
        if rmi is not None:
            out.write(struct.pack("<I", len(rmi.layers)))
            for layer in rmi.layers:
                out.write(struct.pack("<QQ", len(layer), layer.target_size))
                out.array(layer.slopes, "<f8")
                out.array(layer.intercepts, "<f8")
                out.array(layer.max_errors, "<u8")
                out.array(layer.starts, "<u8")
                out.array(layer.boundary_hi, "<u8")
                out.array(layer.boundary_lo, "<u8")
        sizes["rmi"] = out.close()
        sizes["total"] = fh.tell()
    return sizes


def _rebuild_reference(sa: np.ndarray, bwt: np.ndarray, name: str) -> Reference:
    # first BW-matrix column is the sorted text; scatter it back through sa
    counts = np.bincount(bwt, minlength=NUM_RANKS)
    first_col = np.repeat(np.arange(NUM_RANKS, dtype=np.uint8), counts)
    ranks = np.empty(sa.size, dtype=np.uint8)
    ranks[sa.astype(np.int64)] = first_col
    return Reference(name=name, ranks=ranks)


def load_index(path: str, name: str = "reference") -> tuple[SearchEngine, Reference, IndexMeta]:
    with open(path, "rb") as fh:
        file_size = os.fstat(fh.fileno()).st_size
        magic = fh.read(4)
        if magic != MAGIC:
            raise CorruptIndexError("header", f"bad magic {magic!r}")
        raw = fh.read(_HEADER.size)
        if len(raw) != _HEADER.size:
            raise CorruptIndexError("header", "truncated")
        version, k, n, flags, stride, alpha_mid, alpha_leaf = _HEADER.unpack(raw)
        if version != VERSION:
            raise CorruptIndexError("header", f"unsupported version {version}")
        if stride != OCC_STRIDE:
            raise CorruptIndexError("header", f"unsupported checkpoint stride {stride}")

        sec = _SectionReader(fh, "sa", file_size)
        sa = sec.array("<u4", n)
        sec.close()
        if n and (int(sa.max()) >= n or not np.all(np.bincount(sa, minlength=n) == 1)):
            raise CorruptIndexError("sa", "not a permutation of the rows")

        sec = _SectionReader(fh, "bwt_occ", file_size)
        bwt = sec.array("u1", n)
        nblocks = (n + OCC_STRIDE - 1) // OCC_STRIDE
        checkpoints = sec.array("<u4", nblocks * NUM_RANKS).reshape(nblocks, NUM_RANKS)
        sec.close()

        sec = _SectionReader(fh, "ipbwt", file_size)
        key_hi = sec.array("<u8", n)
        key_lo = sec.array("<u8", n)
        sec.close()

        sec = _SectionReader(fh, "rmi", file_size)
        rmi = None
        if flags & 1:
            (nlayers,) = struct.unpack("<I", sec.read(4))
            layers = []
            for _ in range(nlayers):
                count, target_size = struct.unpack("<QQ", sec.read(16))
                slopes = sec.array("<f8", count)
                intercepts = sec.array("<f8", count)
                max_errors = sec.array("<u8", count).astype(np.int64)
                starts = sec.array("<u8", count).astype(np.int64)
                b_hi = sec.array("<u8", count)
                b_lo = sec.array("<u8", count)
                layers.append(
                    RmiLayer(starts=starts, slopes=slopes, intercepts=intercepts,
                             max_errors=max_errors, boundary_hi=b_hi, boundary_lo=b_lo,
                             target_size=int(target_size))
                )
            rmi = Rmi(layers=layers, alpha_mid=alpha_mid, alpha_leaf=alpha_leaf, k=k)
        sec.close()

    ref = _rebuild_reference(sa, bwt, name)
    counts = np.bincount(ref.ranks, minlength=NUM_RANKS).astype(np.int64)
    d = np.concatenate(([0], np.cumsum(counts)[:-1]))
    _, bits = _pack_occ(bwt)
    fm = FmIndex(n=n, sa=sa, bwt=bwt, d=d, checkpoints=checkpoints, occ_bits=bits)

    ix = IpBwt(k=k, n=n, key_hi=key_hi, key_lo=key_lo)
    engine = SearchEngine(fm=fm, ipbwt=ix, rmi=rmi, k=k)
    meta = IndexMeta(k=k, n=n, has_rmi=rmi is not None, stride=stride,
                     alpha_mid=alpha_mid, alpha_leaf=alpha_leaf)
    return engine, ref, meta
