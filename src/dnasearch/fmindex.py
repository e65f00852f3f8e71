"""Suffix array and FM-index baseline with checkpointed occurrence counts.

The suffix array is built by prefix doubling over numpy ranks. Because the
text ends with a unique sentinel that sorts below every base, suffix order
equals sorted-rotation (BW-matrix) order. The BWT is not kept: it is read
once to pack the occurrence tables (64-row checkpoints plus per-rank
bitmaps), whose layout only this module knows. The index file stores
neither, and load rebuilds them with :func:`build_fm_index`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dnasearch.seqcore import Reference

OCC_STRIDE = 64  # checkpoint spacing; one 64-bit occurrence bitmap word per block
NUM_RANKS = 5  # sentinel + ACGT


@dataclass(frozen=True)
class SaInterval:
    """Half-open BW-matrix row range [low, high); empty when low == high."""

    low: int
    high: int

    def __post_init__(self):
        if not 0 <= self.low <= self.high:
            raise ValueError(f"malformed interval [{self.low}, {self.high})")

    @property
    def empty(self) -> bool:
        return self.low == self.high

    def __len__(self) -> int:
        return self.high - self.low


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

    def occ(self, rank: int, i: int) -> int:
        """Occurrences of ``rank`` in bwt[0..i]; i == -1 returns 0."""
        if i == -1:
            return 0
        if not -1 <= i < self.n:
            raise IndexError(f"occ position {i} out of range for n={self.n}")
        block, off = divmod(i, OCC_STRIDE)
        mask = np.uint64((1 << (off + 1)) - 1) if off < 63 else np.uint64(0xFFFFFFFFFFFFFFFF)
        inblock = int(np.bitwise_count(self.occ_bits[rank, block] & mask))
        return int(self.checkpoints[block, rank]) + inblock

    def fm_step(self, rank: int, i: int) -> int:
        """Lower-bound row of prepending character ``rank`` at row i."""
        if not 0 <= i <= self.n:
            raise IndexError(f"row {i} out of range for n={self.n}")
        return int(self.d[rank]) + self.occ(rank, i - 1)

    def occ_many(self, ranks: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """Vectorized occ(ranks[j], rows[j]); rows may be -1."""
        rows = rows.astype(np.int64)
        safe = np.maximum(rows, 0)
        block = safe >> 6
        off = (safe & 63).astype(np.uint64)
        mask = np.where(
            off < 63,
            (np.uint64(1) << (off + np.uint64(1))) - np.uint64(1),
            np.uint64(0xFFFFFFFFFFFFFFFF),
        )
        inblock = np.bitwise_count(self.occ_bits[ranks, block] & mask).astype(np.int64)
        out = self.checkpoints[block, ranks].astype(np.int64) + inblock
        return np.where(rows < 0, 0, out)


def build_fm_index(ref: Reference, sa: np.ndarray | None = None) -> FmIndex:
    if sa is None:
        sa = build_suffix_array(ref)
    counts = np.bincount(ref.ranks, minlength=NUM_RANKS).astype(np.int64)
    d = np.concatenate(([0], np.cumsum(counts)[:-1]))
    checkpoints, bits = _pack_occ(build_bwt(ref, sa))
    return FmIndex(n=ref.n, sa=sa, d=d, checkpoints=checkpoints, occ_bits=bits)


def backward_search(fm: FmIndex, ranks: np.ndarray) -> SaInterval:
    """Classic one-character-at-a-time FM-index search of one query's ranks.

    An empty interval keeps stepping, so an absent query ends at its insertion
    point. The scalar reference that :func:`backward_search_batch` must equal.
    """
    low, high = 0, fm.n
    for c in ranks[::-1]:
        low = fm.fm_step(int(c), low)
        high = fm.fm_step(int(c), high)
    return SaInterval(low, high)


def backward_search_batch(fm: FmIndex, qmatrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized backward search over fixed-length queries (rows of ranks)."""
    m, qlen = qmatrix.shape
    low = np.zeros(m, dtype=np.int64)
    high = np.full(m, fm.n, dtype=np.int64)
    for t in range(qlen - 1, -1, -1):
        c = qmatrix[:, t].astype(np.int64)
        low = fm.d[c] + fm.occ_many(c, low - 1)
        high = fm.d[c] + fm.occ_many(c, high - 1)
    return low, high


def locate(fm: FmIndex, low: int, high: int) -> np.ndarray:
    """Reference positions of the rows [low, high), ascending."""
    return np.sort(fm.sa[low:high])
