"""Suffix array and FM-index baseline with checkpointed occurrence counts.

The suffix array is built by prefix doubling over numpy ranks. Because the
text ends with a unique sentinel that sorts below every base, suffix order
equals sorted-rotation (BW-matrix) order. The BWT is not kept: it is read
once to pack the occurrence tables (64-row checkpoints plus per-rank
bitmaps), whose layout only this module knows. The index file stores
neither, and load rebuilds them with :func:`build_fm_index`.

:func:`backward_search_batch` is the ``fm`` engine. :func:`locate` turns
row intervals into reference positions, one interval or a whole batch of
them with one gather and one sort.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dnasearch.seqcore import Reference

OCC_STRIDE = 64  # checkpoint spacing; one 64-bit occurrence bitmap word per block
NUM_RANKS = 5  # sentinel + ACGT
# _IN_BLOCK[i]: the bitmap bits of a block's rows 0..i
_IN_BLOCK = np.cumsum(np.uint64(1) << np.arange(OCC_STRIDE, dtype=np.uint64), dtype=np.uint64)


def build_suffix_array(ref: Reference) -> np.ndarray:
    """Prefix-doubling suffix sort; returns sa as uint32, sa[0] == n-1.

    Each round sorts one uint64 key per suffix, rank[i] * (n+1) plus
    rank[i+k] + 1 (0 past the end); n < 2^32 keeps it below 2^64.
    """
    t = ref.ranks
    n = t.size
    order = np.argsort(t, kind="stable")
    rank = _dense_ranks(t[order], order)
    k = 1
    while rank.max() != n - 1:
        key = rank.astype(np.uint64)
        key *= np.uint64(n + 1)
        key[: n - k] += rank[k:].astype(np.uint64)
        key[: n - k] += np.uint64(1)
        order = np.argsort(key)
        rank = _dense_ranks(key[order], order)
        del key, order
        k *= 2
    sa = np.empty(n, dtype=np.uint32)
    sa[rank] = np.arange(n, dtype=np.uint32)
    return sa


def _dense_ranks(sorted_keys: np.ndarray, order: np.ndarray) -> np.ndarray:
    """rank[order[i]] = number of distinct keys below sorted_keys[i]."""
    changed = np.empty(sorted_keys.size, dtype=np.int64)
    changed[0] = 0
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=changed[1:])
    np.cumsum(changed, out=changed)
    rank = np.empty_like(changed)
    rank[order] = changed
    return rank


def build_bwt(ref: Reference, sa: np.ndarray) -> np.ndarray:
    """Last column of the BW-matrix, as ranks (sentinel representable)."""
    return np.roll(ref.ranks, 1)[sa]  # the character before each row's suffix


def _pack_occ(bwt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Checkpoint counts at block starts plus per-rank occurrence bitmaps."""
    n = bwt.size
    nblocks = (n + OCC_STRIDE - 1) // OCC_STRIDE
    padded = np.full(nblocks * OCC_STRIDE, 255, dtype=np.uint8)  # 255: no rank
    padded[:n] = bwt
    grid = padded.reshape(nblocks, OCC_STRIDE)
    bits = np.stack([np.packbits(grid == r, axis=1, bitorder="little").view("<u8")[:, 0]
                     for r in range(NUM_RANKS)])
    checkpoints = np.zeros((nblocks, NUM_RANKS), dtype=np.uint32)
    np.cumsum(np.bitwise_count(bits[:, :-1]).T, axis=0, dtype=np.uint32, out=checkpoints[1:])
    return checkpoints, bits


@dataclass(frozen=True)
class FmIndex:
    n: int
    sa: np.ndarray  # uint32, length n
    d: np.ndarray  # int64[NUM_RANKS]: count of ranks smaller than r
    checkpoints: np.ndarray  # uint32[nblocks, NUM_RANKS]
    occ_bits: np.ndarray  # uint64[NUM_RANKS, nblocks]

    def occ_many(self, ranks: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Occurrences of ranks[j] in bwt[0..rows[j]], for every j; row -1 counts 0."""
        rows = rows.astype(np.int64)
        safe = np.maximum(rows, 0)
        block = safe >> 6
        inblock = np.bitwise_count(self.occ_bits[ranks, block] & _IN_BLOCK[safe & 63])
        inblock = inblock.astype(np.int64)
        out = self.checkpoints[block, ranks].astype(np.int64) + inblock
        return np.where(rows < 0, 0, out)


def build_fm_index(ref: Reference, sa: np.ndarray | None = None) -> FmIndex:
    if sa is None:
        sa = build_suffix_array(ref)
    counts = np.bincount(ref.ranks, minlength=NUM_RANKS).astype(np.int64)
    d = np.concatenate(([0], np.cumsum(counts)[:-1]))
    checkpoints, bits = _pack_occ(build_bwt(ref, sa))
    return FmIndex(n=ref.n, sa=sa, d=d, checkpoints=checkpoints, occ_bits=bits)


def backward_search_batch(fm: FmIndex, qmatrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """FM search of rows of base ranks, one character per step, right to left.

    An empty interval keeps stepping, so an absent query ends at its insertion point.
    """
    m, qlen = qmatrix.shape
    low = np.zeros(m, dtype=np.int64)
    high = np.full(m, fm.n, dtype=np.int64)
    for t in range(qlen - 1, -1, -1):
        c = qmatrix[:, t].astype(np.int64)
        low = fm.d[c] + fm.occ_many(c, low - 1)
        high = fm.d[c] + fm.occ_many(c, high - 1)
    return low, high


def locate(fm: FmIndex, low, high) -> np.ndarray:
    """Reference positions of the rows [low, high), ascending.

    ``low`` and ``high`` may be arrays of intervals: the positions of each,
    ascending, come back concatenated in interval order. Every row is
    gathered with one ``sa`` lookup and sorted once, as the uint64 key
    (interval << 32) | position.
    """
    low = np.atleast_1d(np.asarray(low, dtype=np.int64))
    counts = np.atleast_1d(np.asarray(high, dtype=np.int64)) - low
    ends = np.cumsum(counts)
    # hit i of an interval is row low + i; ends - counts is where its hits start
    rows = np.arange(ends[-1] if ends.size else 0) + np.repeat(low - (ends - counts), counts)
    keys = np.repeat(np.arange(counts.size, dtype=np.uint64) << np.uint64(32), counts)
    keys |= fm.sa[rows]
    keys.sort()
    return keys.astype(np.uint32)  # the low 32 bits: the positions
