"""Versioned binary index format: save/load of the full search engine.

Layout (all little-endian):

* magic ``LSA1``; header: version u16, K u16, n u64, flags u32 (bit 0 =
  RMI present), checkpoint stride u32, alpha_mid f64, alpha_leaf f64.
* sections, lengths derivable from the header: suffix array (u32[n]),
  BWT (u8[n]) + occurrence checkpoints (u32[nblocks, 5]), IP-BWT packed
  keys (u64[n] high words, u64[n] low words), RMI layers.

Version 2 changed the meaning of the packed keys (see ``dnasearch.ipbwt``)
and dropped version 1's sentinel side table; version 1 files are refused.
The suffix array must be a permutation of [0, n).

Per RMI layer: model count u64, target size u64, then per model slope/
intercept/avg_error (f64 each), partition starts (u64), and boundary keys
(u64 high words, u64 low words). Storing avg_error and starts makes
load(save(x)) bit-identical without refitting.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

from dnasearch.fmindex import NUM_RANKS, OCC_STRIDE, FmIndex, _pack_occ
from dnasearch.ipbwt import IpBwt
from dnasearch.rmi import LinearModel, Rmi, RmiLayer
from dnasearch.search import SearchEngine
from dnasearch.seqcore import Reference

MAGIC = b"LSA1"
VERSION = 2
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


def _write_array(fh: BinaryIO, arr: np.ndarray, dtype) -> None:
    fh.write(np.ascontiguousarray(arr, dtype=dtype).tobytes())


def _read_array(fh: BinaryIO, dtype, count: int, section: str) -> np.ndarray:
    dtype = np.dtype(dtype)
    raw = fh.read(dtype.itemsize * count)
    if len(raw) != dtype.itemsize * count:
        raise CorruptIndexError(section, "truncated")
    return np.frombuffer(raw, dtype=dtype).copy()


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

        pos = fh.tell()
        _write_array(fh, fm.sa, "<u4")
        sizes["sa"] = fh.tell() - pos

        pos = fh.tell()
        _write_array(fh, fm.bwt, "u1")
        _write_array(fh, fm.checkpoints, "<u4")
        sizes["bwt_occ"] = fh.tell() - pos

        pos = fh.tell()
        _write_array(fh, ix.key_hi, "<u8")
        _write_array(fh, ix.key_lo, "<u8")
        sizes["ipbwt"] = fh.tell() - pos

        pos = fh.tell()
        if rmi is not None:
            fh.write(struct.pack("<I", len(rmi.layers)))
            for layer in rmi.layers:
                fh.write(struct.pack("<QQ", len(layer), layer.target_size))
                params = np.array(
                    [[m.slope, m.intercept, m.avg_error] for m in layer.models],
                    dtype="<f8",
                )
                fh.write(params.tobytes())
                _write_array(fh, layer.starts, "<u8")
                _write_array(fh, layer.boundary_hi, "<u8")
                _write_array(fh, layer.boundary_lo, "<u8")
        sizes["rmi"] = fh.tell() - pos
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

        sa = _read_array(fh, "<u4", n, "sa")
        if n and (int(sa.max()) >= n or not np.all(np.bincount(sa, minlength=n) == 1)):
            raise CorruptIndexError("sa", "not a permutation of the rows")
        bwt = _read_array(fh, "u1", n, "bwt_occ")
        nblocks = (n + OCC_STRIDE - 1) // OCC_STRIDE
        checkpoints = _read_array(fh, "<u4", nblocks * NUM_RANKS, "bwt_occ").reshape(
            nblocks, NUM_RANKS
        )
        key_hi = _read_array(fh, "<u8", n, "ipbwt")
        key_lo = _read_array(fh, "<u8", n, "ipbwt")

        rmi = None
        if flags & 1:
            raw = fh.read(4)
            if len(raw) != 4:
                raise CorruptIndexError("rmi", "truncated")
            (nlayers,) = struct.unpack("<I", raw)
            layers = []
            for _ in range(nlayers):
                rec = fh.read(16)
                if len(rec) != 16:
                    raise CorruptIndexError("rmi", "truncated")
                count, target_size = struct.unpack("<QQ", rec)
                params = _read_array(fh, "<f8", count * 3, "rmi").reshape(count, 3)
                starts = _read_array(fh, "<u8", count, "rmi").astype(np.int64)
                b_hi = _read_array(fh, "<u8", count, "rmi")
                b_lo = _read_array(fh, "<u8", count, "rmi")
                models = [
                    LinearModel(slope=float(s), intercept=float(i), avg_error=float(e))
                    for s, i, e in params
                ]
                layers.append(
                    RmiLayer(models=models, boundary_hi=b_hi, boundary_lo=b_lo,
                             starts=starts, target_size=int(target_size))
                )
            rmi = Rmi(layers=layers, alpha_mid=alpha_mid, alpha_leaf=alpha_leaf)

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
