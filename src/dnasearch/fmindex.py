"""Suffix array and FM-index baseline with one occurrence line per 64 rows.

The suffix array is built by prefix doubling over numpy ranks. Because the
text ends with a unique sentinel that sorts below every base, suffix order
equals sorted-rotation (BW-matrix) order. The BWT is not kept: it is read
once to pack the occurrence table, whose layout only this module knows. As
in BWA's interleaved occurrence array, one 64-byte line serves a 64-row
block: five ``uint64`` bitmap words (bit i of word r: row 64·block + i holds
rank r), then five ``uint32`` counts, d[r] plus the occurrences of r before
the block, where d[r] counts the text's ranks below r. The n // 64 + 1 lines
take about 1.0n bytes. The index file stores no table, and load rebuilds it
with :func:`build_fm_index`.

:func:`backward_search_batch` is the ``fm`` engine; each step is one
:func:`lf_rank` over both bounds of every query. :func:`locate` turns row
intervals into reference positions, one interval or a whole batch of them
with one gather and one sort.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dnasearch.seqcore import Reference

OCC_STRIDE = 64  # rows per occurrence line; one 64-bit bitmap word per rank
NUM_RANKS = 5  # sentinel + ACGT
# A line is 8 uint64 words (64 bytes): the block's 5 rank bitmaps, then as
# uint32 its 5 counts (index _COUNTS + r) and 4 bytes of padding.
_LINE_WORDS = 8
_COUNTS = 2 * NUM_RANKS
# _BELOW[i]: the bitmap bits of a block's rows 0..i - 1
_BELOW = (np.uint64(1) << np.arange(OCC_STRIDE, dtype=np.uint64)) - np.uint64(1)


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


def _pack_occ(bwt: np.ndarray, d: np.ndarray) -> np.ndarray:
    """One 64-byte line per 64-row block, row n's block included.

    A line holds the block's rank bitmaps (bit i: row 64·block + i), then
    d[r] plus the occurrences of r in the rows before the block. Those
    counts stay <= n < 2^32.
    """
    n = bwt.size
    nblocks = n // OCC_STRIDE + 1
    padded = np.full(nblocks * OCC_STRIDE, 255, dtype=np.uint8)  # 255: no rank
    padded[:n] = bwt
    grid = padded.reshape(nblocks, OCC_STRIDE)
    occ = np.zeros((nblocks, _LINE_WORDS), dtype=np.uint64)
    for r in range(NUM_RANKS):
        occ[:, r] = np.packbits(grid == r, axis=1, bitorder="little").view("<u8")[:, 0]
    counts = occ.view(np.uint32)[:, _COUNTS : _COUNTS + NUM_RANKS]
    counts[0] = d
    np.cumsum(np.bitwise_count(occ[:-1, :NUM_RANKS]), axis=0, dtype=np.uint32, out=counts[1:])
    counts[1:] += counts[0]
    return occ.ravel()


@dataclass(frozen=True)
class FmIndex:
    n: int
    sa: np.ndarray  # uint32, length n
    occ: np.ndarray  # uint64[(n // 64 + 1) * 8]: the occurrence lines (:func:`_pack_occ`)


def build_fm_index(ref: Reference, sa: np.ndarray | None = None) -> FmIndex:
    if sa is None:
        sa = build_suffix_array(ref)
    counts = np.bincount(ref.ranks, minlength=NUM_RANKS)
    d = np.concatenate(([0], np.cumsum(counts)[:-1]))  # count of ranks smaller than r
    return FmIndex(n=ref.n, sa=sa, occ=_pack_occ(build_bwt(ref, sa), d))


def lf_rank(fm: FmIndex, ranks, rows) -> np.ndarray:
    """d[c] plus the occurrences of c in bwt[0, b), for each c, b of ``ranks``, ``rows`` (0..n).

    The arguments broadcast, and the result is int64. Per element this is
    two flat gathers from row b's line, a popcount and an add: the LF step.
    The gathers clip instead of checking bounds, so a row outside 0..n
    gives a wrong count, not an error; the step's results stay in 0..n.
    """
    ranks = np.asarray(ranks, dtype=np.int64)
    rows = np.asarray(rows, dtype=np.int64)
    below = np.take(_BELOW, rows & (OCC_STRIDE - 1), mode="clip")
    word = rows >> 6
    word *= _LINE_WORDS
    word += ranks  # the rank's bitmap word in the row's line
    below &= np.take(fm.occ, word, mode="clip")
    word <<= 1
    word += _COUNTS - ranks  # its count, as uint32 index 16·block + _COUNTS + rank
    counts = np.take(fm.occ.view(np.uint32), word, mode="clip")
    return np.add(counts, np.bitwise_count(below), out=word)


def backward_search_batch(fm: FmIndex, qmatrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """FM search of rows of base ranks, one character per step, right to left.

    Every row's low and high bounds step together, as one (2, m) array. An
    empty interval keeps stepping, so an absent query ends at its insertion point.
    """
    m, qlen = qmatrix.shape
    bounds = np.zeros((2, m), dtype=np.int64)
    bounds[1] = fm.n
    for t in range(qlen - 1, -1, -1):
        bounds = lf_rank(fm, qmatrix[:, t], bounds)
    return bounds[0], bounds[1]


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
