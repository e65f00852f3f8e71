"""One layer of linear models over the IP-BWT keys.

The layer holds one linear model per contiguous key partition (a leaf),
found by halving the keys until each partition fits the mean absolute
error bound ``alpha_leaf``. The partitions of one halving level are fit
together, in blocks of whole partitions of about 2^14 keys, which keeps the
fit's temporaries small. A partition of more than 2 * ``SAMPLE`` keys is
first fit on ``SAMPLE`` evenly spaced keys, against their positions in the
partition; if those err by more than ``SAMPLE_SPLIT`` * alpha on average,
it splits with no full fit. Every partition that stops is fit, and its
error measured, on all its keys, so a sample can add leaves but never
loosen the bound. A key's leaf is found over the leaves' first keys
(:meth:`Rmi.locate`), and its model predicts the key's IP-BWT row.

Locate compares (k-mer, loc) pairs, the keys' one order. A radix table
over the top ``RADIX_BITS`` bits of the leaf boundaries' k-mer codes, as in
RadixSpline (Kipf et al., 2020), gives each key a window as wide as the
largest bucket, in which the search kernel
(:func:`dnasearch.ipbwt.count_below`) finds its leaf. The table, 2^16 + 1
int32 entries (256 KB), and its width are derived at build and at load and
never stored, so the index file does not change with them.

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
:meth:`Rmi.window` gives a batch of keys these windows, all as wide as
the worst of their leaves needs, inside the table.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from dnasearch.ipbwt import IpBwt, count_below, key_less


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


# the sampled split decision of fit_layer, for partitions above 2 * SAMPLE keys
SAMPLE = 512
SAMPLE_SPLIT = 1.5
# keys per block of full fits. A block's temporaries (1.1 MB at most) stay
# below glibc's default heap trim threshold, twice the largest mmapped array
# freed so far (2.6 MB after the suffix sort of a 160,000-base text), so the
# heap top one block frees is kept for the next, not handed back and faulted
# in again (2^16 keys, 4.3 MB: 11,000 page faults per fit on such a text).
_BLOCK = 1 << 14

RADIX_BITS = 16  # bits of a k-mer code that index the radix table (RadixSpline)


@dataclass
class Rmi:
    """The leaf layer, its error bound ``alpha_leaf`` and the keys' chunk length ``k``.

    The radix table maps a k-mer code's bucket, its top RADIX_BITS bits
    (the code shifted right by ``shift``; the whole code up to K = 8), to
    the first leaf whose boundary's bucket is at or above it; ``width`` is
    the largest bucket's size.
    """

    leaf: RmiLayer
    alpha_leaf: float
    k: int

    shift: int = field(init=False)
    radix: np.ndarray = field(init=False)  # int32[2^RADIX_BITS + 1]
    width: int = field(init=False)

    def __post_init__(self):
        self.shift = max(2 * self.k - RADIX_BITS, 0)
        # entry b counts the boundaries in buckets below b; built in place,
        # with no temporary the size of the table
        self.radix = np.zeros(2**RADIX_BITS + 1, dtype=np.int32)
        np.add.at(self.radix, (self.leaf.boundary_hi >> np.uint64(self.shift)) + np.uint64(1), 1)
        np.cumsum(self.radix, dtype=np.int32, out=self.radix)
        self.width = int(np.diff(self.radix).max())

    @property
    def layers(self) -> list[RmiLayer]:
        # read only by perfbench/worker.py's traced counts; goes with ROADMAP item 2
        return [self.leaf]

    def locate(self, hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
        """Leaf of each key (hi, lo): the last leaf whose boundary key is <= it.

        :func:`dnasearch.ipbwt.count_below` counts the boundary keys <= the
        key among ``width`` from its radix table entry, moved back to end at
        the last leaf; all before them are smaller. Boundary 0 is (0, 0), so
        each count is at least 1.
        """
        b_hi, b_lo = self.leaf.boundary_hi, self.leaf.boundary_lo
        base = np.minimum(self.radix[hi >> np.uint64(self.shift)], b_hi.size - self.width)
        return count_below(lambda rows: ~key_less(hi, lo, b_hi[rows], b_lo[rows]),
                           base, self.width) - 1

    def window(self, hi: np.ndarray, lo: np.ndarray) -> tuple[np.ndarray, int]:
        """(first row, width) of the search windows of keys (hi, lo) in the fit table.

        Each starts at its leaf's prediction minus the leaf's maximum error;
        all share the width the worst of these leaves needs, inside the table.
        """
        leaf, n = self.leaf, self.leaf.target_size
        part = self.locate(hi, lo)
        eps = leaf.max_errors[part]
        base = leaf.predict(part, hi, lo)
        base -= eps
        width = min(2 * int(eps.max()) + 1, n)
        np.clip(base, 0, n - width, out=base)
        return base, width


def _fit_level(hi: np.ndarray, lo: np.ndarray, starts: np.ndarray, sizes: np.ndarray,
               sample: int = 0) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Least-squares fit of the partitions (starts, sizes) at once.

    Each partition is fit on all its keys, or with ``sample`` > 0 on that
    many evenly spaced ones, its first and last among them, against their
    positions inside the partition. Returns per-partition slopes (clamped
    at 0), intercepts, and the mean and maximum absolute errors of
    :func:`predict` over the keys fit.
    """
    counts = np.full(starts.size, sample) if sample else sizes
    offsets = np.cumsum(counts) - counts  # of each partition in the fit's key list
    if sample:
        i = np.tile(np.arange(sample), starts.size)
        y = i * np.repeat(sizes - 1, sample) // (sample - 1)  # position inside the partition
        rows = y + np.repeat(starts, sample)
    else:
        rows = np.arange(sizes.sum()) + np.repeat(starts - offsets, sizes)
        y = rows - np.repeat(starts, sizes)
    d = relative_keys(hi[rows], lo[rows],
                      np.repeat(hi[starts], counts), np.repeat(lo[starts], counts))
    del rows

    count = counts.astype(np.float64)
    d_mean = np.add.reduceat(d, offsets) / count
    y_mean = np.add.reduceat(y, offsets) / count  # (count - 1) / 2, exactly, on all keys
    dx = d - np.repeat(d_mean, counts)
    sxx = np.add.reduceat(dx * dx, offsets)
    dx *= y - np.repeat(y_mean, counts)
    sxy = np.add.reduceat(dx, offsets)
    del dx
    slopes = np.divide(sxy, sxx, out=np.zeros_like(sxx), where=sxx > 0)
    np.maximum(slopes, 0.0, out=slopes)  # keeps predict monotone
    intercepts = y_mean - slopes * d_mean

    pred = predict(0, np.repeat(sizes - 1.0, counts), np.repeat(slopes, counts),
                   np.repeat(intercepts, counts), d)
    del d
    pred -= y
    np.abs(pred, out=pred)
    means = np.add.reduceat(pred, offsets) / count
    return slopes, intercepts, means, np.maximum.reduceat(pred, offsets)


def _fit_blocks(hi: np.ndarray, lo: np.ndarray, starts: np.ndarray, sizes: np.ndarray,
                sample: int = 0) -> tuple[np.ndarray, ...]:
    """:func:`_fit_level` in blocks of whole partitions of about ``_BLOCK`` keys fit.

    Each partition's fit reads only its own keys, so the blocks give the
    results of one call, with temporaries of one block.
    """
    counts = np.full(starts.size, sample) if sample else sizes
    block = (np.cumsum(counts) - counts) // _BLOCK
    cuts = np.flatnonzero(np.diff(block)) + 1
    fits = [_fit_level(hi, lo, s, z, sample)
            for s, z in zip(np.split(starts, cuts), np.split(sizes, cuts))]
    return tuple(np.concatenate(column) for column in zip(*fits))


def check_alpha(alpha: float) -> None:
    """Raise ``ValueError`` unless the error bound ``alpha`` is finite and > 0."""
    if not (np.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha_leaf={alpha} is not finite and > 0")


def fit_layer(hi: np.ndarray, lo: np.ndarray, alpha: float) -> RmiLayer:
    """Halve the sorted keys (hi, lo) until each partition fits ``alpha``.

    A partition stops at mean absolute error <= alpha over all its keys,
    which a fit of one or two keys always meets; on an odd size the left
    half takes the extra element. One of more than 2 * ``SAMPLE`` keys whose
    ``SAMPLE`` evenly spaced keys err by more than ``SAMPLE_SPLIT`` * alpha
    splits without that full fit.
    """
    check_alpha(alpha)
    starts = np.zeros(1, dtype=np.int64)
    sizes = np.array([hi.size], dtype=np.int64)
    done_starts, done_slopes, done_intercepts, done_max = [], [], [], []
    while starts.size:
        fit = sizes <= 2 * SAMPLE
        large = ~fit
        sampled = _fit_blocks(hi, lo, starts[large], sizes[large], SAMPLE)[2]
        fit[large] = sampled <= SAMPLE_SPLIT * alpha
        slopes, intercepts, errors, max_errors = _fit_blocks(hi, lo, starts[fit], sizes[fit])
        within = errors <= alpha
        stop = fit.copy()
        stop[fit] = within
        done_starts.append(starts[stop])
        done_slopes.append(slopes[within])
        done_intercepts.append(intercepts[within])
        done_max.append(max_errors[within])
        split, split_sizes = starts[~stop], sizes[~stop]
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
