"""Index-paired BWT: per BW-matrix row, (first K characters, continuation row).

Entries are kept in BW-matrix row order as two columns: ``key_hi``, the
K-mer as 2-bit base codes (A=0 .. T=3) in one uint64, and ``key_lo``, a
uint32 loc field. Keys compare as (k-mer, loc field) pairs, and that order
is true row order, so a plain bisection over the pairs gives exact lower
bounds. For a row whose rotation starts at text position p, with the
sentinel j = n-1-p characters later:

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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LOC_BITS = 32
_NO_ROW = (1 << LOC_BITS) - 1  # above every row, as n < 2^LOC_BITS
MAX_K = 32  # 2K bits of k-mer code fill one uint64
_U64 = np.uint64
_BLOCK = 1 << 16  # rows per block of kmer_rows: its temporaries stay small
_SHIFTS = np.array([6, 4, 2, 0], dtype=np.uint8)  # packed bases: a byte's first in its high bits


class IpBwtError(ValueError):
    pass


@dataclass
class IpBwt:
    """(k-mer, loc field) keys in row order, ascending as (key_hi, key_lo) pairs."""

    k: int
    n: int
    text: np.ndarray  # uint8: the packed bases (pack_bases) the keys are derived from
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
    codes = np.append(ranks[:-1] - 1, np.zeros(-(ranks.size - 1) % 4, dtype=np.uint8))
    return np.bitwise_or.reduce(codes.reshape(-1, 4) << _SHIFTS, axis=1)


def unpack_bases(packed: np.ndarray, n: int) -> np.ndarray:
    """The n ranks ($=0, A=1 .. T=4), sentinel included, whose bases :func:`pack_bases` packed."""
    ranks = np.zeros(n, dtype=np.uint8)
    ranks[:-1] = ((packed[:, None] >> _SHIFTS) & 3).ravel()[: n - 1] + 1
    return ranks


def build_ipbwt(text: np.ndarray, sa: np.ndarray, k: int) -> IpBwt:
    """Construct the index-paired BWT of packed text ``text`` for chunk length k.

    Row i pairs the first k characters of BW-matrix row i (:func:`kmer_rows`)
    with the row index of the rotation starting k characters later
    (:func:`loc_column`); the BW-matrix itself is never materialized.
    """
    n = sa.size
    check_k(n, k)
    key_lo = loc_column(sa, k)  # first, so that its temporaries are freed before the k-mers
    return IpBwt(k=k, n=n, text=text, key_hi=kmer_rows(text, sa, k), key_lo=key_lo)


def kmer_rows(text: np.ndarray, sa: np.ndarray, k: int) -> np.ndarray:
    """The k-mer codes of every row of suffix array ``sa``, in row order.

    Read as big-endian 64-bit words, packed text ``text`` holds 32 bases a
    word, so the k-mer at text position p is the top 2k bits of words p >> 5
    and (p >> 5) + 1, shifted left together by 2 (p & 31) bits. The word
    past the sentinel (position n - 1) is 0, as is the text's padding, so
    code 0 fills every k-mer from the sentinel on.
    """
    n = sa.size
    words = np.zeros(((n - 1) >> 5) + 2, dtype=">u8")
    words.view(np.uint8)[: text.size] = text
    words = words.astype(_U64)
    out = np.empty(n, dtype=_U64)
    for i in range(0, n, _BLOCK):
        p = sa[i : i + _BLOCK]
        w, shift = p >> 5, (p & 31).astype(_U64) << _U64(1)
        kmer = np.left_shift(words[w], shift, out=out[i : i + p.size])
        kmer |= words[w + 1] >> (_U64(64) - shift)  # numpy shifts by 64 to 0
        kmer >>= _U64(64 - 2 * k)
    return out


def loc_column(sa: np.ndarray, k: int) -> np.ndarray:
    """The loc field of every row of suffix array ``sa``, in row order.

    The row whose rotation starts at text position p has loc field
    ISA[p + k] + k, or j = n-1-p when the sentinel lies j < k characters on.
    Raises :class:`IpBwtError` unless ``sa`` is a permutation of [0, n):
    the inverse suffix array starts filled with a value no row has, which
    stays wherever no row of ``sa`` names the position.
    """
    n = sa.size
    isa = np.full(n, _NO_ROW, dtype=np.uint32)
    if int(sa.max()) < n:
        isa[sa] = np.arange(n, dtype=np.uint32)
    if isa.max() == _NO_ROW:
        raise IpBwtError("the suffix array is not a permutation of the rows")
    loc = np.empty(n, dtype=np.uint32)
    loc[: n - k] = isa[k:] + np.uint32(k)
    loc[n - k :] = np.arange(k - 1, -1, -1, dtype=np.uint32)  # j, the distance to the sentinel
    return loc[sa]


def top_words(hi: np.ndarray, lo: np.ndarray, k: int, n: int) -> np.ndarray:
    """Order-preserving 64-bit words of keys (hi, lo) of an n-row table.

    The k-mer code sits above the loc field cut to the bit_length(n + k)
    bits its values need, and the result keeps the highest 64 bits. That is
    one-to-one while 2k + bit_length(n + k) <= 64; beyond that, keys with
    equal words are ordered by the low loc bits cut off.
    """
    loc_bits = (n + k).bit_length()
    cut = max(2 * k + loc_bits - 64, 0)
    return (hi << _U64(loc_bits - cut)) | (lo >> np.uint32(cut))


def lower_bound_batch(ix: IpBwt, key_hi: np.ndarray, key_lo: np.ndarray,
                      base=0, width: int | None = None) -> np.ndarray:
    """Exact lower bounds of query keys (key_hi, key_lo) in the table.

    Key j is searched among rows [base[j], base[j] + width), by default the
    whole table; its lower bound must lie in [base[j], base[j] + width].
    The bisection is branchless: every key takes the same ceil(log2(width))
    halving steps and one final comparison, with no per-key bookkeeping.
    """
    width = ix.n if width is None else width
    lo = np.broadcast_to(base, key_hi.shape).astype(np.int64)

    def less(rows: np.ndarray) -> np.ndarray:
        h = ix.key_hi[rows]
        return (h < key_hi) | ((h == key_hi) & (ix.key_lo[rows] < key_lo))

    while width > 1:
        half = width // 2
        lo += less(lo + half) * half
        width -= half
    lo += less(lo)
    return lo
