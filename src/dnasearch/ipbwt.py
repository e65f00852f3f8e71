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

from dnasearch.seqcore import Reference

LOC_BITS = 32
_NO_ROW = (1 << LOC_BITS) - 1  # above every row, as n < 2^LOC_BITS
MAX_K = 32  # 2K bits of k-mer code fill one uint64
_U64 = np.uint64
# 2-bit code per rank; the sentinel shares code 0 with A
CODE_OF_RANK = np.array([0, 0, 1, 2, 3], dtype=np.uint64)


class IpBwtError(ValueError):
    pass


@dataclass
class IpBwt:
    """(k-mer, loc field) keys in row order, ascending as (key_hi, key_lo) pairs."""

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


def build_ipbwt(ref: Reference, sa: np.ndarray, k: int) -> IpBwt:
    """Construct the index-paired BWT for chunk length k.

    Row i pairs the first k characters of BW-matrix row i with the row
    index of the rotation starting k characters later (computed through
    the inverse suffix array; the BW-matrix itself is never materialized).
    Both columns are first computed per text position, then gathered once
    in suffix-array order.
    """
    n = ref.n
    check_k(n, k)

    # the k-mer at each text position; reading stops at the sentinel
    # (position n-1), whose code 0 fills the rest
    code = CODE_OF_RANK[ref.ranks]
    bits = np.zeros(n, dtype=np.uint64)
    for i in range(k):
        bits <<= _U64(2)
        bits[: n - i] |= code[i:]
    key_lo = loc_column(sa, k)  # first, so that its temporaries are freed before the gather
    return IpBwt(k=k, n=n, key_hi=bits[sa], key_lo=key_lo)


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
