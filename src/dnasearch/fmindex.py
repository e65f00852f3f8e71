"""Suffix array and FM-index baseline with one occurrence line per 64 rows.

The suffix array is built by prefix doubling over numpy ranks (Manber and
Myers, 1993), seeded at h = ``SEED_K`` with each position's k-mer code from
:func:`dnasearch.ipbwt.text_kmers`, so random text is sorted in one round and
a repeat of length L takes about log2(L / SEED_K) more. As in Larsson and
Sadakane's qsufsort (TCS 2007), each later round re-sorts only the suffixes
whose group (suffixes equal on the characters compared so far) still has
two or more members, and a suffix's rank is the sorted position where its
group starts, final once it is alone; the sort ends when no group is left.
Because the text ends with a unique sentinel that sorts below every base,
suffix order equals sorted-rotation (BW-matrix) order.
The BWT is not kept: it is read once to pack the occurrence table, whose
layout only this module knows. Only the ``fm`` engine reads the table, so
:attr:`FmIndex.occ` builds it at its first read, from the packed text the
index shares with the IP-BWT. As in BWA's interleaved occurrence array,
one 64-byte line serves a 64-row block: five ``uint64`` bitmap words (bit i
of word r: row 64·block + i holds rank r), then five ``uint32`` counts, d[r]
plus the occurrences of r before the block, where d[r] counts the text's
ranks below r. The n // 64 + 1 lines take about 1.0n bytes. The index
file stores no table, and neither build nor load makes one: the first
``fm`` search does.

:func:`backward_search_batch` is the ``fm`` engine; each step is one
:func:`lf_rank` over both bounds of every query. :func:`locate` turns row
intervals into reference positions, one interval or a whole batch of them
with one gather and one sort.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from dnasearch.ipbwt import pack_bases, text_kmers, unpack_bases
from dnasearch.seqcore import Reference

OCC_STRIDE = 64  # rows per occurrence line; one 64-bit bitmap word per rank
NUM_RANKS = 5  # sentinel + ACGT
# prefix length of the suffix sort's first round; S-mer code * (S + 1) + S < 2^64 for S <= 29
SEED_K = 29
# A line is 8 uint64 words (64 bytes): the block's 5 rank bitmaps, then as
# uint32 its 5 counts (index _COUNTS + r) and 4 bytes of padding.
_LINE_WORDS = 8
_COUNTS = 2 * NUM_RANKS
# _BELOW[i]: the bitmap bits of a block's rows 0..i - 1
_BELOW = (np.uint64(1) << np.arange(OCC_STRIDE, dtype=np.uint64)) - np.uint64(1)
_BLOCK = 1 << 16  # rows per block of the occurrence table's passes: their temporaries stay small


def build_suffix_array(text: np.ndarray, n: int) -> np.ndarray:
    """Prefix-doubling suffix sort from S = ``SEED_K``; returns sa as uint32, sa[0] == n-1.

    ``text`` holds the n - 1 bases, packed (:func:`dnasearch.ipbwt.pack_bases`).
    The first round sorts each position p by its S-mer code (:func:`text_kmers`,
    code 0 from the sentinel on) times S + 1, plus min(j, S) for j = n-1-p, the
    distance to the sentinel: as the IP-BWT's loc field does, this puts X$
    below XA, so equal keys are equal first S characters. If they are all
    distinct, that order is the suffix array. Otherwise each suffix's rank
    is the sorted row where its group of equal keys starts, and each later
    round doubles k from S and re-sorts only the rows of groups with two or
    more members (qsufsort; Larsson and Sadakane, 2007): one stable sort of
    the uint64 key rank[p] * n + rank[p+k], which n < 2^32 keeps below
    2^64. Each group keeps its rows, split into new groups that each take
    their first row as rank; a suffix left alone keeps its rank, which is
    its row in the suffix array, and leaves the rows to re-sort.
    """
    m = min(n, SEED_K)
    key = text_kmers(text, n, SEED_K)
    key *= np.uint64(SEED_K + 1)
    key[: n - m] += np.uint64(SEED_K)
    key[n - m :] += np.arange(m - 1, -1, -1, dtype=np.uint64)  # j < S
    order = np.argsort(key)
    head = _group_heads(key[order])
    # key is freed only after the result is made, which then lies above it in
    # glibc's heap, so the IP-BWT's arrays reuse key's pages: freed before,
    # the IP-BWT of a 500,000-base random text faulted in 3,128 pages, not 1,888
    if head.all():  # every key distinct: this sort's order is the suffix array
        return order.astype(np.uint32)
    del key
    order = order.astype(np.uint32)
    at = np.arange(n, dtype=np.uint32)
    rank = np.empty(n, dtype=np.uint32)
    rank[order] = _group_starts(head, at)
    at = at[_tied(head)]
    k = SEED_K
    while at.size:
        # every suffix at these rows ties with another on its first k characters,
        # none of which is the sentinel, so p + k < n
        p = order[at]
        key = rank[p].astype(np.uint64)
        key *= np.uint64(n)
        key += rank[p + k]
        perm = np.argsort(key, kind="stable")  # the keys arrive as one ascending run per group
        key = key[perm]
        p = p[perm]
        order[at] = p
        head = _group_heads(key)
        rank[p] = _group_starts(head, at)
        at = at[_tied(head)]
        k *= 2
    return order


def _group_heads(sorted_keys: np.ndarray) -> np.ndarray:
    """head[i]: sorted_keys[i] starts a run of equal keys."""
    head = np.empty(sorted_keys.size, dtype=bool)
    head[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=head[1:])
    return head


def _group_starts(head: np.ndarray, at: np.ndarray) -> np.ndarray:
    """For each row of ascending ``at``, the row of ``at`` where its group starts."""
    start = np.where(head, at, np.uint32(0))
    return np.maximum.accumulate(start, out=start)


def _tied(head: np.ndarray) -> np.ndarray:
    """The rows whose group has two or more members."""
    return ~(head & np.append(head[1:], True))


def build_bwt(text: np.ndarray, sa: np.ndarray) -> np.ndarray:
    """Last column of the BW-matrix, as ranks (sentinel representable), from packed ``text``."""
    ranks = unpack_bases(text, sa.size)
    bwt = np.empty_like(ranks)
    for i in range(0, sa.size, _BLOCK):
        p = sa[i : i + _BLOCK].astype(np.intp)
        p -= 1  # the character before each row's suffix; -1 reads the sentinel at n - 1
        np.take(ranks, p, out=bwt[i : i + p.size])
    return bwt


def _pack_occ(bwt: np.ndarray) -> np.ndarray:
    """One 64-byte line per 64-row block, row n's block included.

    A line holds the block's rank bitmaps (bit i: row 64·block + i), then
    d[r] plus the occurrences of r in the rows before the block. d[r], the
    count of ranks below r, comes from the bitmaps too. Those counts stay
    <= n < 2^32. The bitmaps are packed ``_BLOCK`` rows at a time, so the
    only n-sized array made is the table.
    """
    nblocks = bwt.size // OCC_STRIDE + 1
    # every line starts a 64-byte cache line, so that an LF step reads one line
    # of memory; the heap alone aligns an array to 16 bytes
    buf = np.zeros((nblocks + 1) * _LINE_WORDS, dtype=np.uint64)
    skip = -buf.ctypes.data % 64 // 8
    occ = buf[skip : skip + nblocks * _LINE_WORDS].reshape(nblocks, _LINE_WORDS)
    step = _BLOCK // OCC_STRIDE
    for b in range(0, nblocks, step):
        lines = occ[b : b + step]
        grid = np.full((lines.shape[0], OCC_STRIDE), 255, dtype=np.uint8)  # 255: no rank
        rows = bwt[b * OCC_STRIDE : (b + step) * OCC_STRIDE]
        grid.reshape(-1)[: rows.size] = rows
        for r in range(NUM_RANKS):
            lines[:, r] = np.packbits(grid == r, axis=1, bitorder="little").view("<u8")[:, 0]
    counts = occ.view(np.uint32)[:, _COUNTS : _COUNTS + NUM_RANKS]
    ones = np.bitwise_count(occ[:, :NUM_RANKS])  # each block's occurrences of each rank
    np.cumsum(ones[:-1], axis=0, dtype=np.uint32, out=counts[1:])
    total = counts[-1] + ones[-1]  # each rank's occurrences in the text
    counts += np.cumsum(total, dtype=np.uint32) - total  # d
    return occ.ravel()


@dataclass(frozen=True)
class FmIndex:
    n: int
    sa: np.ndarray  # uint32, length n
    text: np.ndarray  # uint8: the packed bases (pack_bases), the same array as the IP-BWT's

    @cached_property
    def occ(self) -> np.ndarray:
        """uint64[(n // 64 + 1) * 8]: the occurrence lines (:func:`_pack_occ`), built at first read."""
        return _pack_occ(build_bwt(self.text, self.sa))


def build_fm_index(ref: Reference) -> FmIndex:
    """The suffix array of ``ref``, and its packed text, which the IP-BWT shares."""
    text = pack_bases(ref.ranks)
    return FmIndex(n=ref.n, sa=build_suffix_array(text, ref.n), text=text)


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
