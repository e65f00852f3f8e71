"""Chunked exact search over the IP-BWT, a batch of queries at a time.

A batch is a matrix of base ranks, one query per row
(:func:`batch_search_matrix`), or queries of any lengths laid back to back
in one rank array (:func:`batch_search`, which searches one matrix per
length). One query is a one-row batch. Every mode runs a batch in blocks
of :data:`_BLOCK` queries, so its temporaries stay bounded; ``fm`` mode
searches each block with :func:`dnasearch.fmindex.backward_search_batch`.

A query is processed right-to-left in chunks of K characters; each chunk
costs one lower-bound evaluation per query, for its low bound, and one or
two row tests for its high bound (:func:`_search_block`), exact with no
correction for the sentinel (keys as in :mod:`dnasearch.ipbwt`). A batch
is sorted once by its first chunk and run in blocks of that order, one
round per chunk. The sort buys the probes locality, which pays most on
large tables (criterion 5's 10^7 bases). ``fm`` runs its blocks in input
order: through the sort it took 729 against 508 ns/query on 5·10^5 random
bases (21-mers) and tied at 10^7 (README, step 4). A chunk's codes are
packed into one ``uint64`` word by an integer ``einsum``
(:func:`_pack_codes`), so no step calls BLAS. Every lower bound
(:func:`dnasearch.ipbwt.lower_bound_batch`) runs the package's one
branchless search kernel, :func:`dnasearch.ipbwt.count_below`, with
bit_length(width) tests per key, over the window its mode passes: the
whole table, (0, n), in ``binary`` mode; in ``rmi`` mode the window that
:meth:`dnasearch.rmi.Rmi.window` derives from the key's leaf model. No
step depends on the order of the keys.

The three modes are interchangeable: every engine serves each of them, on
queries of any lengths, and all three give identical rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dnasearch.fmindex import FmIndex, backward_search_batch
from dnasearch.ipbwt import IpBwt, check_k, key_less, lower_bound_batch
from dnasearch.rmi import Rmi, check_alpha

MODES = ("rmi", "binary", "fm")


class SearchError(ValueError):
    pass


@dataclass
class SearchEngine:
    """All index structures built from one reference with one chunk length."""

    fm: FmIndex
    ipbwt: IpBwt
    rmi: Rmi
    k: int


def _require_mode(mode: str) -> None:
    if mode not in MODES:
        raise SearchError(f"unknown mode {mode!r} (expected one of {MODES})")


def build_engine(ref, k: int = 21, alpha_leaf: float = 6.0) -> SearchEngine:
    """Build every engine's structures; K and ``alpha_leaf`` are checked before the suffix sort."""
    # looked up at each call: perfbench's traced mode wraps these module attributes
    from dnasearch.fmindex import build_fm_index
    from dnasearch.ipbwt import build_ipbwt
    from dnasearch.rmi import build_rmi

    check_k(ref.n, k)
    check_alpha(alpha_leaf)
    fm = build_fm_index(ref)
    ix = build_ipbwt(fm.text, fm.sa, k)
    return SearchEngine(fm=fm, ipbwt=ix, rmi=build_rmi(ix, alpha_leaf), k=k)


# queries per block: a round's temporaries stay small, so a large batch
# costs no more per query than a small one
_BLOCK = 1 << 15


def _pack_codes(kmers: np.ndarray) -> np.ndarray:
    """2-bit codes (rank - 1) of ``uint8`` rows of base ranks 1..4, packed into uint64.

    One integer sum of products with powers of 4, exact for up to 32 columns
    (4^32 - 1 < 2^64). A signed matrix would make ``einsum`` compute in float64.
    """
    powers = np.uint64(4) ** np.arange(kmers.shape[1] - 1, -1, -1, dtype=np.uint64)
    return np.einsum("ij,j->i", kmers - np.uint8(1), powers)


def _search_block(engine: SearchEngine, qmatrix: np.ndarray, rows: np.ndarray,
                  first_bits: np.ndarray, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """One round per chunk, rightmost first, over the queries ``rows`` of the batch.

    ``first_bits`` pack the first round's chunks. Every query runs every round:
    an empty interval maps to the empty one at the next suffix's insertion point.
    A round looks up each query's low bound. Intervals never grow (count(cS)
    <= count(S)), so only a query whose interval held 2+ rows looks up its
    high key too; the rest test rows low (and low + 1 in the first round).
    """
    ix, k, n = engine.ipbwt, engine.k, engine.ipbwt.n
    nq, qlen = rows.size, qmatrix.shape[1]
    nchunks = -(-qlen // k)
    later = qmatrix[rows, : (nchunks - 1) * k]  # the full chunks of the later rounds
    low = np.zeros(nq, dtype=np.int64)
    high = np.full(nq, n, dtype=np.int64)
    chunk_bits, chunk_len = first_bits, qlen - (nchunks - 1) * k
    for round_no in range(nchunks):
        if round_no:
            start = (nchunks - 1 - round_no) * k
            chunk_bits, chunk_len = _pack_codes(later[:, start : start + k]), k
        wide = np.flatnonzero(high - low >= 2) if round_no else []  # high keys looked up
        # A short chunk X runs only in the first round, where low == 0. Its
        # low key pads with code 0 and takes loc field |X|, its high key pads
        # with T; a full chunk takes loc fields low + k and high + k.
        pad = 2 * (k - chunk_len)
        low_bits = chunk_bits << np.uint64(pad)
        high_bits = low_bits | np.uint64((1 << pad) - 1)
        high_lo = high + k
        key_hi = np.concatenate([low_bits, high_bits[wide]])
        key_lo = np.concatenate([low + chunk_len, high_lo[wide]], dtype=np.uint32, casting="unsafe")
        window = engine.rmi.window(key_hi, key_lo) if mode == "rmi" else (0, n)
        bounds = lower_bound_batch(ix, key_hi, key_lo, *window)
        low = bounds[:nq]
        if round_no:  # 0 or 1 rows outside wide: is row low, if in the table, below the high key?
            row = np.minimum(low, n - 1)
            high = low + (key_less(ix.key_hi[row], ix.key_lo[row], high_bits, high_lo) & (low < n))
            high[wide] = bounds[nq:]
        else:  # loc field n + K tops every row's: a row is below the high key iff its k-mer is <=.
            # Where low + 1 is past the table both tests read row n - 1 (clipped); if that row is
            # below the key, searchsorted counts the rows
            tested = low + np.arange(2)[:, None]
            below = ix.key_hi.take(tested, mode="clip") <= high_bits
            high = low + below.sum(axis=0)
            rest = np.flatnonzero(below[1])
            high[rest] = np.searchsorted(ix.key_hi, high_bits[rest], side="right")
    return low, high


def batch_search_matrix(engine: SearchEngine, qmatrix: np.ndarray,
                        mode: str = "rmi") -> tuple[np.ndarray, np.ndarray]:
    """Batched search over rows of an integer matrix of base ranks (1..4); returns (low, high).

    An absent query gets the empty interval at its insertion point, as in FM search.
    Raises :class:`SearchError` for any other shape, dtype or value: codes 0..3, floats, bools.
    """
    _require_mode(mode)
    if qmatrix.ndim != 2 or not np.issubdtype(qmatrix.dtype, np.integer) or qmatrix.size and (
            qmatrix.min() < 1 or qmatrix.max() > 4):
        raise SearchError("a batch must be a 2-D integer array of base ranks 1..4")
    qmatrix = qmatrix.astype(np.uint8, copy=False)
    n = engine.ipbwt.n
    nq, qlen = qmatrix.shape
    if qlen == 0 or nq == 0:
        return np.zeros(nq, dtype=np.int64), np.full(nq, n, dtype=np.int64)

    low = np.empty(nq, dtype=np.int64)
    high = np.empty(nq, dtype=np.int64)
    if mode == "fm":
        for b in range(0, nq, _BLOCK):
            low[b : b + _BLOCK], high[b : b + _BLOCK] = backward_search_batch(
                engine.fm, qmatrix[b : b + _BLOCK])
        return low, high

    # sort once by the first round's chunk (packed a block at a time), then run blocks of that
    # order: np.sort of words holding the chunk over the row index (its last bits cut where both
    # do not fit) outruns np.argsort
    tail = qmatrix[:, (-(-qlen // engine.k) - 1) * engine.k :]
    first_bits = np.concatenate([_pack_codes(tail[b : b + _BLOCK]) for b in range(0, nq, _BLOCK)])
    idx = max(nq - 1, 1).bit_length()
    keyed = first_bits >> np.uint64(max(2 * tail.shape[1] + idx - 64, 0)) << np.uint64(idx)
    keyed |= np.arange(nq, dtype=np.uint64)
    keyed.sort()
    order = (keyed & np.uint64((1 << idx) - 1)).astype(np.intp)
    for b in range(0, nq, _BLOCK):
        rows = order[b : b + _BLOCK]
        low[rows], high[rows] = _search_block(engine, qmatrix, rows, first_bits[rows], mode)
    return low, high


def batch_search(engine: SearchEngine, ranks: np.ndarray, lengths: np.ndarray,
                 mode: str = "rmi") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Search queries laid back to back in ``ranks``, of ``lengths``; returns (low, high, valid).

    A query is valid when it holds no rank 255 (a byte outside ACGT, see
    :func:`dnasearch.seqcore.parse_queries`); an invalid one gets [0, 0).
    Valid queries are searched one matrix per length, in every mode. Raises
    :class:`SearchError` unless the lengths are >= 0 and sum to ``ranks.size``.
    """
    _require_mode(mode)
    if np.any(lengths < 0) or lengths.sum() != ranks.size:
        raise SearchError("query lengths must be >= 0 and sum to the number of ranks")
    ends = np.cumsum(lengths)
    valid = np.ones(lengths.size, dtype=bool)
    valid[np.searchsorted(ends, np.flatnonzero(ranks == 255), side="right")] = False
    low = np.zeros(lengths.size, dtype=np.int64)
    high = np.zeros(lengths.size, dtype=np.int64)
    for qlen in np.unique(lengths[valid]).tolist():
        rows = np.flatnonzero(valid & (lengths == qlen))
        # each row is a window of the rank array: gathered as (m, qlen) bytes
        qmatrix = np.lib.stride_tricks.sliding_window_view(ranks, qlen)[ends[rows] - qlen]
        low[rows], high[rows] = batch_search_matrix(engine, qmatrix, mode)
    return low, high, valid
