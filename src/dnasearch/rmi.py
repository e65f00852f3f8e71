"""Bottom-up recursive model index over the packed IP-BWT keys.

Every layer is a list of linear models over contiguous key partitions,
found by halving the data until each partition fits its layer's average
absolute error bound. Leaf models predict IP-BWT positions; upper layers
predict positions in the boundary array of the layer below. Predictions
are approximate; the final answer is always corrected against the exact
ordering, so lookups return precisely the true lower bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from dnasearch.ipbwt import IpBwt

_SCALE64 = np.longdouble(2.0) ** 64


@dataclass(frozen=True)
class LinearModel:
    slope: float
    intercept: float
    avg_error: float

    def predict_many(self, keys: np.ndarray, range_max: int) -> np.ndarray:
        """Positions for extended-precision keys, rounded half up, clamped to [0, range_max]."""
        raw = np.longdouble(self.slope) * keys + np.longdouble(self.intercept)
        p = np.floor(raw + np.longdouble(0.5)).astype(np.int64)
        return np.clip(p, 0, range_max)


@dataclass
class RmiLayer:
    """Models plus the smallest key of each model's partition.

    ``boundary_hi/lo`` are the packed-key words of the partition minima;
    ``target_size`` is the length of the array predictions index into.
    """

    models: list[LinearModel]
    boundary_hi: np.ndarray  # uint64, ascending
    boundary_lo: np.ndarray  # uint64
    starts: np.ndarray  # int64: first fit-input index of each partition
    target_size: int

    # per-model slope/intercept as arrays, for vectorized evaluation
    slopes: np.ndarray = field(init=False)
    intercepts: np.ndarray = field(init=False)

    def __post_init__(self):
        self.slopes = np.array([m.slope for m in self.models], dtype=np.float64)
        self.intercepts = np.array([m.intercept for m in self.models], dtype=np.float64)

    def __len__(self) -> int:
        return len(self.models)


@dataclass
class Rmi:
    """layers[0] is the root (single model); layers[-1] is the leaf layer."""

    layers: list[RmiLayer]
    alpha_mid: float
    alpha_leaf: float

    @property
    def leaf(self) -> RmiLayer:
        return self.layers[-1]


def _fit_linear(keys: np.ndarray, positions: np.ndarray, range_max: int) -> LinearModel:
    """OLS in extended precision; avg_error uses the rounded, clamped prediction."""
    x = keys
    y = positions.astype(np.longdouble)
    xm = x.mean()
    ym = y.mean()
    dx = x - xm
    var = (dx * dx).sum()
    if var == 0:
        slope = 0.0
        intercept = float(ym)
    else:
        slope_ld = (dx * (y - ym)).sum() / var
        slope = float(slope_ld)
        intercept = float(ym - slope_ld * xm)
    raw = np.longdouble(slope) * x + np.longdouble(intercept)
    pred = np.clip(np.floor(raw + np.longdouble(0.5)).astype(np.int64), 0, range_max)
    avg_error = float(np.mean(np.abs(pred - positions)))
    return LinearModel(slope=slope, intercept=intercept, avg_error=avg_error)


def partition_by_error(keys: np.ndarray, positions: np.ndarray, alpha: float,
                       range_max: int) -> list[tuple[int, int, LinearModel]]:
    """Halve [start, end) ranges until each partition fits its error bound.

    Returns (start, end, model) triples in key order. The left half takes
    the extra element on odd sizes; size <= 2 always terminates.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    out: list[tuple[int, int, LinearModel]] = []
    stack = [(0, keys.size)]
    while stack:
        start, end = stack.pop()
        size = end - start
        model = _fit_linear(keys[start:end], positions[start:end], range_max)
        if size <= 2 or model.avg_error <= alpha:
            out.append((start, end, model))
        else:
            mid = start + (size + 1) // 2
            stack.append((mid, end))
            stack.append((start, mid))
    out.sort(key=lambda t: t[0])
    return out


def build_rmi(ix: IpBwt, alpha_mid: float = 14.0, alpha_leaf: float = 6.0) -> Rmi:
    """Construct the model hierarchy bottom-up from the IP-BWT keys.

    The leaf layer partitions all entries under alpha_leaf; each layer
    above is built from the partition-minimum keys of the layer below,
    under alpha_mid, until a single partition remains (the root, which
    carries no error bound).
    """
    keys = ix.key_floats()
    positions = np.arange(ix.n, dtype=np.int64)
    parts = partition_by_error(keys, positions, alpha_leaf, range_max=max(ix.n - 1, 0))
    starts = np.array([p[0] for p in parts], dtype=np.int64)
    leaf = RmiLayer(
        models=[p[2] for p in parts],
        boundary_hi=ix.key_hi[starts].copy(),
        boundary_lo=ix.key_lo[starts].copy(),
        starts=starts,
        target_size=ix.n,
    )
    layers = [leaf]
    cur_keys = keys[starts]
    cur_hi = leaf.boundary_hi
    cur_lo = leaf.boundary_lo
    while len(layers[0]) > 1:
        positions = np.arange(cur_keys.size, dtype=np.int64)
        parts = partition_by_error(cur_keys, positions, alpha_mid,
                                   range_max=cur_keys.size - 1)
        starts = np.array([p[0] for p in parts], dtype=np.int64)
        layer = RmiLayer(
            models=[p[2] for p in parts],
            boundary_hi=cur_hi[starts].copy(),
            boundary_lo=cur_lo[starts].copy(),
            starts=starts,
            target_size=cur_keys.size,
        )
        layers.insert(0, layer)
        if len(parts) == 1:
            break
        cur_keys = cur_keys[starts]
        cur_hi = layer.boundary_hi
        cur_lo = layer.boundary_lo
    return Rmi(layers=layers, alpha_mid=float(alpha_mid), alpha_leaf=float(alpha_leaf))


def audit_errors(rmi: Rmi, ix: IpBwt) -> list[tuple[int, int, float]]:
    """Recompute every model's mean absolute error over its fit data.

    Returns (layer index, model index, error) rows; layer 0 is the root.
    Used by tests and the benchmark report to check the alpha bounds.
    """
    rows = []
    # reconstruct each layer's fit inputs: leaf over all keys, upper layers
    # over the boundary keys of the layer below
    layer_inputs: list[np.ndarray] = [None] * len(rmi.layers)
    layer_inputs[-1] = ix.key_floats()
    for d in range(len(rmi.layers) - 2, -1, -1):
        below = rmi.layers[d + 1]
        layer_inputs[d] = (
            below.boundary_hi.astype(np.longdouble) * _SCALE64
            + below.boundary_lo.astype(np.longdouble)
        )
    for d, layer in enumerate(rmi.layers):
        keys = layer_inputs[d]
        n_keys = keys.size
        starts = layer.starts
        ends = np.append(starts[1:], n_keys)
        for j, model in enumerate(layer.models):
            s, e = int(starts[j]), int(ends[j])
            pos = np.arange(s, e, dtype=np.int64)
            pred = model.predict_many(keys[s:e], layer.target_size - 1)
            err = float(np.mean(np.abs(pred - pos))) if e > s else 0.0
            rows.append((d, j, err))
    return rows
