"""Chunked exact search over the IP-BWT, single-query and batched.

A query is processed right-to-left in chunks of K characters; each chunk
costs one lower-bound evaluation per interval bound. Bound keys are packed
as described in :mod:`dnasearch.ipbwt`, so each lower bound is exact with
no correction for the sentinel. Batched search runs one round per chunk.
In ``binary`` mode all active bound keys are bisected in the table; in
``rmi`` mode they are sorted, swept against the leaf partition boundaries
in a single merge-like pass, and corrected locally around the model
predictions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from dnasearch.fmindex import FmIndex, SaInterval, backward_search, backward_search_batch
from dnasearch.ipbwt import CODE_OF_RANK, IpBwt, bisect_words, key_words, lower_bound_batch
from dnasearch.rmi import Rmi
from dnasearch.seqcore import Query

MODES = ("rmi", "binary", "fm")


class SearchError(ValueError):
    pass


class MixedLengthBatchError(SearchError):
    """Batched modes require one query length per call; group by length."""


class ModeUnavailableError(SearchError):
    pass


@dataclass
class SearchEngine:
    """All index structures built from one reference with one chunk length."""

    fm: FmIndex
    ipbwt: IpBwt
    rmi: Rmi | None
    k: int

    def require_mode(self, mode: str) -> None:
        if mode not in MODES:
            raise SearchError(f"unknown mode {mode!r} (expected one of {MODES})")
        if mode == "rmi" and self.rmi is None:
            raise ModeUnavailableError("index was built/loaded without an RMI")


def build_engine(ref, k: int = 21, alpha_mid: float = 14.0, alpha_leaf: float = 6.0,
                 with_rmi: bool = True) -> SearchEngine:
    from dnasearch.fmindex import build_fm_index
    from dnasearch.ipbwt import build_ipbwt
    from dnasearch.rmi import build_rmi

    fm = build_fm_index(ref)
    ix = build_ipbwt(ref, fm.sa, k)
    rmi = build_rmi(ix, alpha_mid, alpha_leaf) if with_rmi else None
    return SearchEngine(fm=fm, ipbwt=ix, rmi=rmi, k=k)


def exact_search(engine: SearchEngine, query: Query | np.ndarray, mode: str = "rmi") -> SaInterval:
    """Single-query search; identical results to FM backward search.

    ``rmi`` and ``binary`` run a one-row batch.
    """
    engine.require_mode(mode)
    if mode == "fm":
        return backward_search(engine.fm, query)
    ranks = query.ranks if isinstance(query, Query) else query
    low, high = batch_search_matrix(engine, np.asarray(ranks, dtype=np.uint8)[None, :], mode)
    return SaInterval(int(low[0]), int(high[0]))


def _pack_codes(kmers: np.ndarray) -> np.ndarray:
    """2-bit packed codes of rows of base ranks."""
    bits = np.zeros(kmers.shape[0], dtype=np.uint64)
    for j in range(kmers.shape[1]):
        bits = (bits << np.uint64(2)) | CODE_OF_RANK[kmers[:, j]]
    return bits


def _leaf_merge_sorted(rmi: Rmi, s_hi: np.ndarray, s_lo: np.ndarray) -> np.ndarray:
    """Leaf index per key of an ascending key stream.

    The merge of the sorted stream against the sorted leaf boundaries is
    computed by bisecting each boundary into the stream once and expanding
    the resulting cut positions back over the keys.
    """
    leaf = rmi.leaf
    # cuts[j] = number of stream keys strictly below boundary j
    cuts = bisect_words(s_hi, s_lo, leaf.boundary_hi, leaf.boundary_lo)
    # key positions >= cuts[j] have boundary j <= key
    return np.maximum(np.searchsorted(cuts, np.arange(s_hi.size), side="right") - 1, 0)


def _gallop_correct(ix: IpBwt, pred: np.ndarray, q_hi: np.ndarray, q_lo: np.ndarray) -> np.ndarray:
    """Lower bound over the table's key words, bracketing outward from ``pred``.

    Expansion and bisection operate on the shrinking set of unresolved
    lanes, so cost tracks the models' prediction error rather than log n.
    """
    arr_hi, arr_lo = ix.key_hi, ix.key_lo
    n = ix.n

    def less_than_q(idx: np.ndarray, sel: np.ndarray) -> np.ndarray:
        ah = arr_hi[idx]
        al = arr_lo[idx]
        qh = q_hi[sel]
        ql = q_lo[sel]
        return (ah < qh) | ((ah == qh) & (al < ql))

    lo = np.clip(pred, 0, n).astype(np.int64)
    hi = lo.copy()
    # widen left until arr[lo-1] < q or lo == 0
    act = np.flatnonzero((lo > 0) & ~less_than_q(np.maximum(lo - 1, 0), np.arange(lo.size)))
    step = np.ones(act.size, dtype=np.int64)
    while act.size:
        lo[act] = np.maximum(lo[act] - step, 0)
        la = lo[act]
        need = (la > 0) & ~less_than_q(np.maximum(la - 1, 0), act)
        act = act[need]
        step = step[need] * 2
    # widen right until arr[hi] >= q or hi == n
    act = np.flatnonzero((hi < n) & less_than_q(np.minimum(hi, n - 1), np.arange(hi.size)))
    step = np.ones(act.size, dtype=np.int64)
    while act.size:
        hi[act] = np.minimum(hi[act] + step, n)
        ha = hi[act]
        need = (ha < n) & less_than_q(np.minimum(ha, n - 1), act)
        act = act[need]
        step = step[need] * 2
    # bisect the per-lane brackets, shrinking the active set as lanes converge
    act = np.flatnonzero(lo < hi)
    while act.size:
        l = lo[act]
        h = hi[act]
        mid = (l + h) >> 1
        less = less_than_q(mid, act)
        l = np.where(less, mid + 1, l)
        h = np.where(less, h, mid)
        lo[act] = l
        hi[act] = h
        act = act[l < h]
    return lo


def _resolve_stream_rmi(engine: SearchEngine, bits: np.ndarray, locs: np.ndarray,
                        order: np.ndarray | None = None) -> np.ndarray:
    """One sorted bound-key stream through the leaf layer (one batch round)."""
    e_hi, e_lo = key_words(bits, locs)
    if order is None:
        order = np.lexsort((e_lo, e_hi))
    s_hi, s_lo = e_hi[order], e_lo[order]
    leaf_idx = _leaf_merge_sorted(engine.rmi, s_hi, s_lo)
    pred = engine.rmi.leaf.predict(leaf_idx, s_hi, s_lo)
    counts = _gallop_correct(engine.ipbwt, pred, s_hi, s_lo)
    out = np.empty_like(counts)
    out[order] = counts
    return out


def batch_search_matrix(engine: SearchEngine, qmatrix: np.ndarray,
                        mode: str = "rmi") -> tuple[np.ndarray, np.ndarray]:
    """Core batched search over rows of query ranks; returns (low, high) arrays."""
    engine.require_mode(mode)
    n = engine.ipbwt.n
    nq, qlen = qmatrix.shape
    if qlen == 0 or nq == 0:
        return np.zeros(nq, dtype=np.int64), np.full(nq, n, dtype=np.int64)

    if mode == "fm":
        return backward_search_batch(engine.fm, qmatrix)

    k = engine.k
    nchunks = -(-qlen // k)
    low = np.zeros(nq, dtype=np.int64)
    high = np.full(nq, n, dtype=np.int64)
    active = np.arange(nq, dtype=np.int64)

    for round_no in range(nchunks):
        start = (nchunks - 1 - round_no) * k  # rightmost chunk first
        chunk = qmatrix[active, start : start + k]
        m = active.size
        # A short final chunk X runs only in the first round, where low == 0.
        # Its low key pads with code 0 and takes loc field |X|, its high key
        # pads with T; a full chunk takes loc fields low + k and high + k.
        pad = 2 * (k - chunk.shape[1])
        low_bits = _pack_codes(chunk) << np.uint64(pad)
        high_bits = low_bits | np.uint64((1 << pad) - 1) if pad else low_bits
        low_locs = low[active] + chunk.shape[1]
        high_locs = high[active] + k

        if mode == "rmi":
            # both loc fields are constant in the first round, so the order of
            # the packed chunk bits sorts both bound streams
            order = np.argsort(low_bits) if round_no == 0 else None
            low[active] = _resolve_stream_rmi(engine, low_bits, low_locs, order)
            high[active] = _resolve_stream_rmi(engine, high_bits, high_locs, order)
        else:
            key_hi, key_lo = key_words(np.concatenate([low_bits, high_bits]),
                                       np.concatenate([low_locs, high_locs]))
            bounds = lower_bound_batch(engine.ipbwt, key_hi, key_lo)
            low[active] = bounds[:m]
            high[active] = bounds[m:]

        still = low[active] < high[active]
        active = active[still]
        if active.size == 0:
            break
    return low, np.maximum(high, low)


def batch_search(engine: SearchEngine, queries: list[Query], mode: str = "rmi") -> list[SaInterval | None]:
    """Search a fixed-length batch; invalid queries yield None.

    Semantically identical to mapping exact_search over the batch; runs in
    ceil(|Q|/K) rounds over all still-active queries.
    """
    engine.require_mode(mode)
    valid = [q for q in queries if q.valid]
    lengths = {len(q) for q in valid}
    if len(lengths) > 1:
        raise MixedLengthBatchError(f"batch mixes query lengths {sorted(lengths)}")
    results: list[SaInterval | None] = [None] * len(queries)
    if not valid:
        return results
    qlen = lengths.pop()
    qmatrix = np.array([q.ranks for q in valid], dtype=np.uint8).reshape(len(valid), qlen)
    low, high = batch_search_matrix(engine, qmatrix, mode)
    for q, l, h in zip(valid, low, high):
        results[q.qid] = SaInterval(int(l), int(h))
    return results
