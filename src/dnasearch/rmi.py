"""One layer of linear models over the IP-BWT keys.

The layer holds one linear model per contiguous key partition (a leaf),
found by halving the keys until each partition fits the mean absolute
error bound ``alpha_leaf``. All partitions of one halving level are fit at
once. A key's leaf is found by search over the leaves' first keys
(:meth:`Rmi.locate`), and its model predicts the key's IP-BWT row.

A model sees a key as its float64 distance ``d`` from its partition's
first key (:func:`relative_keys`): the k-mer difference times 2^32 plus
the loc difference, rounded once, so ``d`` is exact while the partition
spans less than 2^53. It is fit by least squares to the key's position
inside the partition and predicts the position

    start + floor(slope * d + intercept + 0.5), clamped into the partition.

This one function (:func:`predict`) computes the fit errors, the audit and
the query-time predictions, so the audited bound is the bound in use.
Slopes are clamped at 0, so predictions never decrease as the key grows.

Each model also keeps its partition's maximum error: the largest
|prediction - position| over the partition's keys. For any key whose
partition is the last one starting at or below it, that monotonicity puts
the key's true lower bound within [prediction - error, prediction + error
+ 1], the window search bisects (the guarantee of the PGM-index).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from dnasearch.ipbwt import IpBwt, top_words


def relative_keys(hi: np.ndarray, lo: np.ndarray,
                  first_hi: np.ndarray, first_lo: np.ndarray) -> np.ndarray:
    """(hi, lo) - (first_hi, first_lo) as float64, for keys at or above their first key.

    ``(hi - first_hi) * 2^32 + (lo - first_lo)``, rounded once, so exact
    while key - first < 2^53. Above 2^53, float64 rounds the k-mer
    difference, and unequal ones can round alike; there the loc difference
    is dropped, as it could put a key below a smaller one. So ``d`` never
    decreases as the key grows.
    """
    a = hi - first_hi
    d = a.astype(np.float64)
    d *= 2.0**32
    loc = lo.astype(np.int64)
    loc -= first_lo
    loc[a > 2**53] = 0
    d += loc
    return d


def predict(start, last, slope, intercept, d: np.ndarray) -> np.ndarray:
    """``start + floor(slope * d + intercept + 0.5)``, clamped to [start, start + last].

    ``last`` (float64) is the position of the partition's last key
    relative to its first.
    """
    r = slope * d
    r += intercept
    r += 0.5
    np.floor(r, out=r)
    np.maximum(r, 0.0, out=r)
    np.minimum(r, last, out=r)
    p = r.astype(np.int64)
    p += start
    return p


@dataclass
class RmiLayer:
    """Per-partition models plus each partition's first key.

    ``boundary_hi/lo`` are the key columns of the partition minima, the
    keys at ``starts``; ``target_size`` is the number of keys fit.
    """

    starts: np.ndarray  # int64: first fit-input index of each partition
    slopes: np.ndarray  # float64, >= 0
    intercepts: np.ndarray  # float64
    max_errors: np.ndarray  # int64: max |predict - position| over the partition
    boundary_hi: np.ndarray  # uint64 k-mer codes, ascending
    boundary_lo: np.ndarray  # uint32 loc fields
    target_size: int

    sizes: np.ndarray = field(init=False)  # int64: fit inputs per partition
    last: np.ndarray = field(init=False)  # float64: sizes - 1, the clamp of predict

    def __post_init__(self):
        self.sizes = np.diff(self.starts, append=self.target_size)
        self.last = self.sizes - 1.0

    def __len__(self) -> int:
        return self.starts.size

    def predict(self, part: np.ndarray, hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
        """Predicted positions of keys (hi, lo), each through its partition's model."""
        d = relative_keys(hi, lo, self.boundary_hi[part], self.boundary_lo[part])
        return predict(self.starts[part], self.last[part], self.slopes[part],
                       self.intercepts[part], d)


@dataclass
class Rmi:
    """The leaf layer, its error bound ``alpha_leaf`` and the keys' chunk length ``k``.

    ``leaf_top`` holds the leaf boundaries' top words.
    """

    leaf: RmiLayer
    alpha_leaf: float
    k: int

    leaf_top: np.ndarray = field(init=False)  # uint64

    def __post_init__(self):
        leaf = self.leaf
        self.leaf_top = top_words(leaf.boundary_hi, leaf.boundary_lo, self.k, leaf.target_size)

    @property
    def layers(self) -> list[RmiLayer]:
        # read only by the benchmark's traced counts (perfbench/worker.py);
        # goes when the benchmark is next revised (ROADMAP item 3)
        return [self.leaf]

    def locate(self, hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
        """Leaf of each key (hi, lo): the last leaf whose boundary key is <= it.

        One ``searchsorted`` of the keys' top words; where a key's top word
        ties with its leaf boundary's, the full keys decide, stepping
        back over tied boundaries that are above the key.
        """
        leaf = self.leaf
        top = top_words(hi, lo, self.k, leaf.target_size)
        part = np.searchsorted(self.leaf_top, top, side="right") - 1
        np.maximum(part, 0, out=part)
        tied = np.flatnonzero(self.leaf_top[part] == top)
        while tied.size:
            p = part[tied]
            b_hi, q_hi = leaf.boundary_hi[p], hi[tied]
            above = (b_hi > q_hi) | ((b_hi == q_hi) & (leaf.boundary_lo[p] > lo[tied]))
            tied = tied[above & (p > 0)]
            part[tied] -= 1
        return part


def _fit_level(hi: np.ndarray, lo: np.ndarray, starts: np.ndarray, sizes: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Least-squares fit of every partition of one halving level at once.

    Returns per-partition slopes (clamped at 0), intercepts, and the mean
    and maximum absolute errors of :func:`predict` over the partition's keys.
    """
    offsets = np.cumsum(sizes) - sizes  # of each partition in the level's key list
    rows = np.arange(sizes.sum()) + np.repeat(starts - offsets, sizes)
    d = relative_keys(hi[rows], lo[rows],
                      np.repeat(hi[starts], sizes), np.repeat(lo[starts], sizes))
    y = rows - np.repeat(starts, sizes)  # position inside the partition
    del rows

    count = sizes.astype(np.float64)
    d_mean = np.add.reduceat(d, offsets) / count
    y_mean = (count - 1) / 2
    dx = d - np.repeat(d_mean, sizes)
    sxx = np.add.reduceat(dx * dx, offsets)
    dx *= y - np.repeat(y_mean, sizes)
    sxy = np.add.reduceat(dx, offsets)
    del dx
    slopes = np.divide(sxy, sxx, out=np.zeros_like(sxx), where=sxx > 0)
    np.maximum(slopes, 0.0, out=slopes)  # keeps predict monotone
    intercepts = y_mean - slopes * d_mean

    pred = predict(0, np.repeat(count - 1, sizes), np.repeat(slopes, sizes),
                   np.repeat(intercepts, sizes), d)
    del d
    pred -= y
    np.abs(pred, out=pred)
    means = np.add.reduceat(pred, offsets) / count
    return slopes, intercepts, means, np.maximum.reduceat(pred, offsets)


def check_alpha(alpha: float) -> None:
    """Raise ``ValueError`` unless the error bound ``alpha`` is finite and > 0."""
    if not (np.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be finite and > 0, got {alpha}")


def fit_layer(hi: np.ndarray, lo: np.ndarray, alpha: float) -> RmiLayer:
    """Halve the sorted keys (hi, lo) until each partition fits ``alpha``.

    A partition stops at size <= 2 or mean absolute error <= alpha; on an
    odd size the left half takes the extra element.
    """
    check_alpha(alpha)
    starts = np.zeros(1, dtype=np.int64)
    sizes = np.array([hi.size], dtype=np.int64)
    done_starts, done_slopes, done_intercepts, done_max = [], [], [], []
    while starts.size:
        slopes, intercepts, errors, max_errors = _fit_level(hi, lo, starts, sizes)
        done = (sizes <= 2) | (errors <= alpha)
        done_starts.append(starts[done])
        done_slopes.append(slopes[done])
        done_intercepts.append(intercepts[done])
        done_max.append(max_errors[done])
        split, split_sizes = starts[~done], sizes[~done]
        left = (split_sizes + 1) // 2
        starts = np.column_stack([split, split + left]).ravel()
        sizes = np.column_stack([left, split_sizes - left]).ravel()
    starts = np.concatenate(done_starts)
    order = np.argsort(starts)
    starts = starts[order]
    return RmiLayer(
        starts=starts,
        slopes=np.concatenate(done_slopes)[order],
        intercepts=np.concatenate(done_intercepts)[order],
        max_errors=np.concatenate(done_max)[order],
        boundary_hi=hi[starts],
        boundary_lo=lo[starts],
        target_size=hi.size,
    )


def build_rmi(ix: IpBwt, alpha_leaf: float = 6.0) -> Rmi:
    """Fit the leaf layer over all IP-BWT keys under ``alpha_leaf``."""
    return Rmi(leaf=fit_layer(ix.key_hi, ix.key_lo, alpha_leaf), alpha_leaf=float(alpha_leaf),
               k=ix.k)


def key_errors(layer: RmiLayer, hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """|predicted - true position| of every fit-input key (hi, lo) of ``layer``."""
    part = np.repeat(np.arange(len(layer)), layer.sizes)
    err = layer.predict(part, hi, lo)
    err -= np.arange(hi.size)
    return np.abs(err, out=err)


def audit_errors(rmi: Rmi, ix: IpBwt) -> list[tuple[int, int, float]]:
    """Recompute every leaf model's mean absolute error over its keys.

    Returns (layer, model index, error) rows, with layer 0 for the one
    layer. Used by tests and the benchmark report to check ``alpha_leaf``.
    """
    leaf = rmi.leaf
    mean = np.add.reduceat(key_errors(leaf, ix.key_hi, ix.key_lo), leaf.starts) / leaf.sizes
    return [(0, j, float(err)) for j, err in enumerate(mean)]
