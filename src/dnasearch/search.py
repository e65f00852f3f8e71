"""Chunked exact search over the IP-BWT, a batch of queries at a time.

A batch is a matrix of base ranks, one query per row
(:func:`batch_search_matrix`), or queries of any lengths laid back to back
in one rank array (:func:`batch_search`, which searches one matrix per
length). One query is a one-row batch. Every mode runs a batch in blocks
of :data:`_BLOCK` queries, so its temporaries stay bounded; ``fm`` mode
searches each block with :func:`dnasearch.fmindex.backward_search_batch`.

A query is processed right-to-left in chunks of K characters; each chunk
costs one lower-bound evaluation per interval bound, exact with no
correction for the sentinel (keys as in :mod:`dnasearch.ipbwt`). A batch
is sorted once by its first chunk and run in blocks of that order, one
round per chunk. Every lower bound is one branchless bisection
(:func:`dnasearch.ipbwt.lower_bound_batch`): over the whole table in
``binary`` mode; in ``rmi`` mode over a window around the prediction of the
key's leaf model (found by :meth:`dnasearch.rmi.Rmi.locate`), as wide as
the leaf's maximum error allows. No step depends on the order of the keys.

The three modes are interchangeable: every engine serves each of them, on
queries of any lengths, and all three give identical rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dnasearch.fmindex import FmIndex, backward_search_batch
from dnasearch.ipbwt import IpBwt, check_k, lower_bound_batch, pack_bases
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
    ix = build_ipbwt(pack_bases(ref.ranks), fm.sa, k)
    return SearchEngine(fm=fm, ipbwt=ix, rmi=build_rmi(ix, alpha_leaf), k=k)


# queries per block: a round's temporaries stay small, so a large batch
# costs no more per query than a small one
_BLOCK = 1 << 15


def _pack_codes(kmers: np.ndarray) -> np.ndarray:
    """2-bit codes (rank - 1) of rows of base ranks 1..4, packed into uint64.

    Up to 26 columns at a time are one float64 dot product with powers of 4,
    exact because every partial sum stays below 2^53.
    """
    bits = np.zeros(kmers.shape[0], dtype=np.uint64)
    for start in range(0, kmers.shape[1], 26):
        part = kmers[:, start : start + 26]
        width = part.shape[1]
        # ranks are codes + 1, so the dot product exceeds the codes' by (4^width - 1) / 3
        dot = part.astype(np.float64) @ 4.0 ** np.arange(width - 1, -1, -1)
        bits <<= np.uint64(2 * width)
        bits |= (dot - (4**width - 1) // 3).astype(np.uint64)
    return bits


def _rmi_window(engine: SearchEngine, key_hi: np.ndarray,
                key_lo: np.ndarray) -> tuple[np.ndarray, int]:
    """(first row, width) of the keys' search windows through their leaf models.

    A window starts at its leaf's prediction minus the leaf's maximum error;
    all share the width the worst of these leaves needs, inside the table.
    """
    rmi, n = engine.rmi, engine.ipbwt.n
    leaf = rmi.leaf
    part = rmi.locate(key_hi, key_lo)
    eps = leaf.max_errors[part]
    base = leaf.predict(part, key_hi, key_lo)
    base -= eps
    width = min(2 * int(eps.max()) + 1, n)
    np.clip(base, 0, n - width, out=base)
    return base, width


def _search_block(engine: SearchEngine, qmatrix: np.ndarray, rows: np.ndarray,
                  first_bits: np.ndarray, mode: str) -> tuple[np.ndarray, np.ndarray]:
    """One round per chunk, rightmost first, over the queries ``rows`` of the batch.

    ``first_bits`` pack the first round's chunks. Every query runs every round:
    an empty interval maps to the empty one at the next suffix's insertion point.
    """
    ix, k = engine.ipbwt, engine.k
    nq, qlen = rows.size, qmatrix.shape[1]
    nchunks = -(-qlen // k)
    later = qmatrix[rows, : (nchunks - 1) * k]  # the full chunks of the later rounds
    low = np.zeros(nq, dtype=np.int64)
    high = np.full(nq, ix.n, dtype=np.int64)
    chunk_bits, chunk_len = first_bits, qlen - (nchunks - 1) * k
    for round_no in range(nchunks):
        if round_no:
            start = (nchunks - 1 - round_no) * k
            chunk_bits, chunk_len = _pack_codes(later[:, start : start + k]), k
        # A short chunk X runs only in the first round, where low == 0. Its
        # low key pads with code 0 and takes loc field |X|, its high key pads
        # with T; a full chunk takes loc fields low + k and high + k.
        pad = 2 * (k - chunk_len)
        low_bits = chunk_bits << np.uint64(pad)
        high_bits = low_bits | np.uint64((1 << pad) - 1)
        key_hi = np.concatenate([low_bits, high_bits])
        key_lo = np.concatenate([low + chunk_len, high + k], dtype=np.uint32, casting="unsafe")
        window = _rmi_window(engine, key_hi, key_lo) if mode == "rmi" else ()
        bounds = lower_bound_batch(ix, key_hi, key_lo, *window)
        low, high = bounds[:nq], bounds[nq:]
    return low, high


def batch_search_matrix(engine: SearchEngine, qmatrix: np.ndarray,
                        mode: str = "rmi") -> tuple[np.ndarray, np.ndarray]:
    """Batched search over rows of base ranks (1..4); returns (low, high) arrays.

    An absent query gets the empty interval at its insertion point, as in FM search.
    Raises :class:`SearchError` for any other shape or value, such as base codes 0..3.
    """
    _require_mode(mode)
    if qmatrix.ndim != 2 or qmatrix.size and (qmatrix.min() < 1 or qmatrix.max() > 4):
        raise SearchError("a batch must be a 2-D array of base ranks 1..4")
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

    # sort once by the first round's chunk (packed a block at a time), then run blocks of that order
    tail = qmatrix[:, (-(-qlen // engine.k) - 1) * engine.k :]
    first_bits = np.concatenate([_pack_codes(tail[b : b + _BLOCK]) for b in range(0, nq, _BLOCK)])
    order = np.argsort(first_bits)
    for b in range(0, nq, _BLOCK):
        rows = order[b : b + _BLOCK]
        low[rows], high[rows] = _search_block(engine, qmatrix, rows, first_bits[rows], mode)
    return low, high


def batch_search(engine: SearchEngine, ranks: np.ndarray, lengths: np.ndarray,
                 mode: str = "rmi") -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Search queries laid back to back in ``ranks``, of ``lengths``; returns (low, high, valid).

    A query is valid when it holds no rank 255 (a byte outside ACGT, see
    :func:`dnasearch.seqcore.parse_queries`); an invalid one gets [0, 0).
    Valid queries are searched one matrix per length, in every mode.
    """
    _require_mode(mode)
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
