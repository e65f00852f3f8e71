"""Index-paired BWT: per BW-matrix row, (first K characters, continuation row).

Entries are kept in BW-matrix row order as two columns: ``key_hi``, the
K-mer as 2-bit base codes (A=0 .. T=3) in one uint64, and ``key_lo``, a
uint32 loc field. Keys compare as (k-mer, loc field) pairs
(:func:`key_less`), the one key order of the package, and that order is
true row order, so :func:`count_below`, the one branchless kernel of
every sorted lookup (leaf locate in :mod:`dnasearch.rmi` too), gives
exact lower bounds over the pairs. For a row whose rotation starts at
text position p, with the sentinel j = n-1-p characters later:

* j >= K: the K-mer, with loc field ISA[p+K] + K;
* j < K: the j bases before the sentinel, then code 0 (as A) for the
  sentinel and every position after it, with loc field j. Such a row ties
  on the K-mer only with rows that continue the same j bases with A's;
  its loc field puts it first (theirs is at least K, or a larger j), as
  X$ sorts below XA.

A query key for a sentinel-free chunk c and bound b is (c, b + K). The low
bound key of a chunk X shorter than K (first round, b = 0) is X padded
with code 0 and loc field |X|: it sits above every row that is less than
X in its first |X| characters and below every row that starts with X.
:func:`lower_bound_batch` searches each key in the window its caller
passes: the whole table for ``binary``, the window of the key's leaf
(:meth:`dnasearch.rmi.Rmi.window`) for ``rmi``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LOC_BITS = 32
_NO_ROW = (1 << LOC_BITS) - 1  # above every row, as n < 2^LOC_BITS
MAX_K = 32  # 2K bits of k-mer code fill one uint64
_U64 = np.uint64
_BLOCK = 1 << 16  # rows per block of the row-order passes: their temporaries stay small
_SHIFTS = np.array([6, 4, 2, 0], dtype=np.uint8)  # packed bases: a byte's first in its high bits
# _UNPACK[b]: the 4 ranks packed in byte b, first in the lowest byte of a little-endian word
_UNPACK = (((np.arange(256, dtype=np.uint8)[:, None] >> _SHIFTS) & 3) + 1).view("<u4").ravel()


class IpBwtError(ValueError):
    pass


@dataclass
class IpBwt:
    """The key table: (k-mer, loc field) keys in row order, ascending as (key_hi, key_lo) pairs."""

    k: int
    n: int
    key_hi: np.ndarray  # uint64[n]: the k-mer codes
    key_lo: np.ndarray  # uint32[n]: the loc fields


def check_k(n: int, k: int) -> None:
    """Raise :class:`IpBwtError` unless 1 <= k <= min(MAX_K, n - 1) and n + k < 2^32."""
    if not 1 <= k <= n - 1:
        raise IpBwtError(f"k={k} out of range [1, {n - 1}]")
    if k > MAX_K:
        raise IpBwtError(f"k={k} exceeds the supported maximum {MAX_K}")
    if n + k >= (1 << LOC_BITS):
        raise IpBwtError(f"reference too long: n + k = {n + k} must be < 2^{LOC_BITS}")


def pack_bases(ranks: np.ndarray) -> np.ndarray:
    """The n - 1 bases of sentinel-terminated ``ranks`` as base codes, 4 per byte, padded with 0."""
    codes = np.zeros(-(-(ranks.size - 1) // 4) * 4, dtype=np.uint8)
    np.subtract(ranks[:-1], 1, out=codes[: ranks.size - 1])
    codes = codes.reshape(-1, 4)
    packed = np.zeros(codes.shape[0], dtype=np.uint8)
    for col, shift in enumerate(_SHIFTS):
        packed |= codes[:, col] << shift
    return packed


def unpack_bases(packed: np.ndarray, n: int) -> np.ndarray:
    """The n ranks ($=0, A=1 .. T=4), sentinel included, whose bases :func:`pack_bases` packed."""
    ranks = np.empty(4 * packed.size + 4, dtype=np.uint8)  # >= n; 4 ranks a word, as _UNPACK
    np.take(_UNPACK, packed, out=ranks.view("<u4")[: packed.size])
    ranks[n - 1] = 0
    return ranks[:n]


def build_ipbwt(text: np.ndarray, sa: np.ndarray, k: int) -> IpBwt:
    """Construct the index-paired BWT of packed text ``text`` for chunk length k.

    Row i pairs the first k characters of BW-matrix row i (:func:`kmer_rows`)
    with the row index of the rotation starting k characters later
    (:func:`loc_column`); the BW-matrix itself is never materialized.
    """
    n = sa.size
    check_k(n, k)
    key_lo = loc_column(sa, k)  # first, so that its temporaries are freed before the k-mers
    return IpBwt(k=k, n=n, key_hi=kmer_rows(text, sa, k), key_lo=key_lo)


def _words(text: np.ndarray, n: int) -> np.ndarray:
    """Packed text ``text`` of n - 1 bases read as big-endian 64-bit words, in native order.

    Word w holds the bases at text positions 32w .. 32w + 31, the first in
    its high bits. The word past the sentinel (position n - 1) is 0, as is
    the text's padding, so code 0 fills every k-mer from the sentinel on.
    """
    words = np.zeros(((n - 1) >> 5) + 2, dtype=">u8")
    words.view(np.uint8)[: text.size] = text
    return words.astype(_U64)


def kmer_rows(text: np.ndarray, sa: np.ndarray, k: int) -> np.ndarray:
    """The k-mer codes of every row of suffix array ``sa``, in row order.

    The k-mer at text position p is the top 2k bits of words p >> 5 and
    (p >> 5) + 1 (:func:`_words`), shifted left together by 2 (p & 31) bits.
    """
    n = sa.size
    words = _words(text, n)
    after = words[1:]
    out = np.empty(n, dtype=_U64)
    for i in range(0, n, _BLOCK):
        p = sa[i : i + _BLOCK]
        w = p.astype(np.intp)
        w >>= 5
        shift = (p & 31).astype(_U64)
        shift <<= _U64(1)
        kmer = np.take(words, w, out=out[i : i + p.size])
        kmer <<= shift
        low = np.take(after, w)
        low >>= np.subtract(_U64(64), shift, out=shift)  # numpy shifts by 64 to 0
        kmer |= low
        kmer >>= _U64(64 - 2 * k)
    return out


def text_kmers(text: np.ndarray, n: int, k: int) -> np.ndarray:
    """The k-mer code at every text position 0 .. n - 1, in text order.

    The 32 positions of word w take its 32 shifts as one row of a
    (words, 32) array, so no position is gathered (:func:`kmer_rows`
    gathers them in row order).
    """
    words = _words(text, n)
    words, after = words[:-1], words[1:]  # 32 words.size >= n positions
    shifts = np.arange(0, 64, 2, dtype=_U64)
    back = _U64(64) - shifts  # numpy shifts by 64 to 0
    out = np.empty((words.size, 32), dtype=_U64)
    step = _BLOCK >> 5
    for w in range(0, words.size, step):
        kmer = np.left_shift(words[w : w + step, None], shifts, out=out[w : w + step])
        kmer |= after[w : w + step, None] >> back
        kmer >>= _U64(64 - 2 * k)
    return out.reshape(-1)[:n]


def loc_column(sa: np.ndarray, k: int) -> np.ndarray:
    """The loc field of every row of suffix array ``sa``, in row order.

    The row whose rotation starts at text position p has loc field
    ISA[p + k] + k, or j = n-1-p when the sentinel lies j < k characters on.
    Raises :class:`IpBwtError` unless ``sa`` is a permutation of [0, n):
    the inverse suffix array starts filled with a value no row has, which
    stays wherever no row of ``sa`` names the position. The check comes
    before any gather that ``sa`` indexes. Both passes run in blocks of
    rows, so ``sa``'s uint32 indices are converted a block at a time.
    """
    n = sa.size
    # entry n + t, for t < k, is -1 - t (mod 2^32): plus k it wraps to
    # k - 1 - t, the j of the row whose p + k is n + t
    isa = np.full(n + k, _NO_ROW, dtype=np.uint32)
    isa[n:] -= np.arange(k, dtype=np.uint32)
    if int(sa.max()) < n:
        for i in range(0, n, _BLOCK):
            p = sa[i : i + _BLOCK]
            np.put(isa, p, np.arange(i, i + p.size, dtype=np.uint32))
    if isa[:n].max() == _NO_ROW:
        raise IpBwtError("the suffix array is not a permutation of the rows")
    out = np.empty(n, dtype=np.uint32)
    for i in range(0, n, _BLOCK):
        p = sa[i : i + _BLOCK].astype(np.intp)
        p += k
        loc = np.take(isa, p, out=out[i : i + p.size])
        loc += np.uint32(k)
    return out


def count_below(below, base: np.ndarray, width: int) -> np.ndarray:
    """``base`` plus the number of rows in [base, base + width) where ``below`` holds, per key.

    ``below(rows)`` tests one row per key and must hold on a prefix of each
    window. Branchless, after Khuong and Morin (2017): every key takes the
    same bit_length(width) tests, the first splitting off a power of two
    that the rest halve, and no row outside the window is read.
    """
    half = 1 << (width.bit_length() - 1)
    lo = np.array(base, dtype=np.int64)
    lo += below(lo + (width - half)) * (width - half + 1)
    while half > 1:
        half >>= 1
        lo += below(lo + (half - 1)) * half
    return lo


def key_less(a_hi, a_lo, b_hi, b_lo) -> np.ndarray:
    """Whether key (a_hi, a_lo) is less than key (b_hi, b_lo), elementwise."""
    return (a_hi < b_hi) | ((a_hi == b_hi) & (a_lo < b_lo))


def lower_bound_batch(ix: IpBwt, key_hi: np.ndarray, key_lo: np.ndarray,
                      base, width: int) -> np.ndarray:
    """Exact lower bounds of query keys (key_hi, key_lo) in the table, by :func:`count_below`.

    Key j is searched among rows [base[j], base[j] + width), where its lower
    bound must lie in [base[j], base[j] + width]; ``base`` may be one row for all.
    """
    return count_below(lambda rows: key_less(ix.key_hi[rows], ix.key_lo[rows], key_hi, key_lo),
                       np.broadcast_to(base, key_hi.shape), width)
