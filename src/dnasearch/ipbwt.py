"""Index-paired BWT: per BW-matrix row, (first K characters, continuation row).

Entries are kept in BW-matrix row order. Each is packed as a (2K+32)-bit
key split across two uint64 words: 2-bit base codes (A=0 .. T=3) above a
32-bit loc field. The encoding makes packed order equal true row order,
so a plain two-word bisection gives exact lower bounds. For a row whose
rotation starts at text position p, with the sentinel j = n-1-p
characters later:

* j >= K: the K-mer, with loc field ISA[p+K] + K;
* j < K: the j bases before the sentinel, then code 0 (as A) for the
  sentinel and every position after it, with loc field j. Such a row ties
  on the packed K-mer only with rows that continue the same j bases with
  A's; its loc field puts it first (theirs is at least K, or a larger j),
  as X$ sorts below XA.

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
MAX_K = 28  # 2K+32 must fit the 96-bit key budget
_U64 = np.uint64
_MASK32 = np.uint64(0xFFFFFFFF)
# 2-bit code per rank; the sentinel shares code 0 with A
CODE_OF_RANK = np.array([0, 0, 1, 2, 3], dtype=np.uint64)


class IpBwtError(ValueError):
    pass


@dataclass
class IpBwt:
    """Packed (k-mer, loc field) keys in row order, ascending as (hi, lo) pairs."""

    k: int
    n: int
    key_hi: np.ndarray  # uint64[n]
    key_lo: np.ndarray  # uint64[n]


def key_words(bits: np.ndarray, loc_field: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) uint64 words of keys with 2K-bit k-mer codes ``bits``."""
    hi = bits >> _U64(LOC_BITS)
    lo = ((bits & _MASK32) << _U64(LOC_BITS)) | loc_field.astype(np.uint64)
    return hi, lo


def build_ipbwt(ref: Reference, sa: np.ndarray, k: int) -> IpBwt:
    """Construct the index-paired BWT for chunk length k.

    Row i pairs the first k characters of BW-matrix row i with the row
    index of the rotation starting k characters later (computed through
    the inverse suffix array; the BW-matrix itself is never materialized).
    """
    n = ref.n
    if not 1 <= k <= n - 1:
        raise IpBwtError(f"k={k} out of range [1, {n - 1}]")
    if k > MAX_K:
        raise IpBwtError(f"k={k} exceeds the supported maximum {MAX_K}")
    if n + k >= (1 << LOC_BITS):
        raise IpBwtError(f"reference too long: n + k = {n + k} must be < 2^{LOC_BITS}")

    sa64 = sa.astype(np.int64)
    isa = np.empty(n, dtype=np.int64)
    isa[sa64] = np.arange(n, dtype=np.int64)

    # reading stops at the sentinel (position n-1), whose code 0 fills the rest
    pos = sa64.copy()
    bits = np.zeros(n, dtype=np.uint64)
    for _ in range(k):
        bits = (bits << _U64(2)) | CODE_OF_RANK[ref.ranks[pos]]
        pos += 1
        np.minimum(pos, n - 1, out=pos)
    to_sentinel = n - 1 - sa64
    loc = np.where(to_sentinel >= k, isa[pos] + k, to_sentinel)
    key_hi, key_lo = key_words(bits, loc)
    return IpBwt(k=k, n=n, key_hi=key_hi, key_lo=key_lo)


def top_words(hi: np.ndarray, lo: np.ndarray, k: int, n: int) -> np.ndarray:
    """Order-preserving 64-bit words of packed keys (hi, lo) of an n-row table.

    The k-mer code sits above the loc field cut to the bit_length(n + k)
    bits its values need, and the result keeps the highest 64 bits. That is
    one-to-one while 2k + bit_length(n + k) <= 64; beyond that, keys with
    equal words are ordered by the low loc bits cut off.
    """
    loc_bits = (n + k).bit_length()
    cut = max(2 * k + loc_bits - 64, 0)
    codes = (hi << _U64(LOC_BITS)) | (lo >> _U64(LOC_BITS))
    return (codes << _U64(loc_bits - cut)) | ((lo & _MASK32) >> _U64(cut))


def lower_bound_batch(ix: IpBwt, key_hi: np.ndarray, key_lo: np.ndarray,
                      base=0, width: int | None = None) -> np.ndarray:
    """Exact lower bounds of packed query keys in the table.

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
