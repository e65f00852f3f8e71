import bisect
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnasearch.fmindex import build_suffix_array
from dnasearch.ipbwt import build_ipbwt, lower_bound_batch
from dnasearch.rmi import (
    audit_errors,
    build_rmi,
    fit_layer,
    key_errors,
    predict,
    relative_keys,
)
from dnasearch import search
from dnasearch.search import build_engine

from conftest import (
    brute_entries,
    make_reference,
    random_reference,
    repetitive_reference,
    sample_queries,
    words,
)

# top words are exact up to K = 16 whatever n; at K = 28 they cut loc bits
# once n + K >= 256 (2K + bit_length(n + K) > 64)
BOUND_KS = (1, 2, 3, 4, 5, 6, 7, 8, 16, 17, 21, 28)


def build_pair(rng, n_bases, k):
    ref = random_reference(rng, n_bases)
    sa = build_suffix_array(ref)
    ix = build_ipbwt(ref, sa, k=k)
    return ix, build_rmi(ix)


def layer_mean_errors(layer, hi, lo):
    return np.add.reduceat(key_errors(layer, hi, lo), layer.starts) / layer.sizes


class TestRelativeKeys:
    def test_borrow_from_the_low_word(self):
        # (2, 0) - (1, 2^64 - 1) = 1; (5, 3) - (4, 7) = 2^64 - 4
        hi, lo = words([(2 << 64) | 0, (5 << 64) | 3])
        first_hi, first_lo = words([(1 << 64) | (2**64 - 1), (4 << 64) | 7])
        assert relative_keys(hi, lo, first_hi, first_lo).tolist() == [1.0, float(2**64 - 4)]

    @given(st.integers(0, 2**88 - 1), st.integers(0, 2**53 - 1))
    @settings(max_examples=200, deadline=None)
    def test_exact_below_2_53(self, first, diff):
        key = first + diff
        (d,) = relative_keys(*words([key]), *words([first]))
        assert d == diff  # exact: compares the float with the integer

    @given(st.integers(0, 2**88 - 1), st.integers(0, 2**88 - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_integer_subtraction(self, a, b):
        first, key = min(a, b), max(a, b)
        (d,) = relative_keys(*words([key]), *words([first]))
        assert math.isclose(d, key - first, rel_tol=2.0**-52)


class TestLinearModel:
    def test_predict_rounds_half_up_and_clamps(self):
        d = np.array([2.0, 1.9, -1.0, -1.5, 500.0, -500.0])
        # raw 2.5 -> 3 and -0.5 -> 0 round half up, 2.4 -> 2; raw -1.0, 500.5 and
        # -499.5 clamp into the partition's positions [0, 100], then shift by start
        got = predict(10, 100.0, 1.0, 0.5, d)
        assert got.tolist() == [13, 12, 10, 10, 110, 10]

    def test_predict_many_matches_scalar(self):
        rng = np.random.default_rng(8)
        size = 120
        starts = rng.integers(0, 1000, 37)
        slopes = rng.uniform(-0.5, 2.0, 37)
        intercepts = rng.uniform(-20, 20, 37)
        d = np.linspace(-50, 400, 37)
        many = predict(starts, np.full(37, size - 1.0), slopes, intercepts, d)

        def scalar(start, slope, intercept, key):
            # the same float64 operations, one key at a time
            raw = math.floor(slope * key + intercept + 0.5)
            return start + min(max(raw, 0), size - 1)

        def exact(start, slope, intercept, key):
            raw = math.floor(Fraction(slope) * Fraction(key) + Fraction(intercept) + Fraction(1, 2))
            return start + min(max(raw, 0), size - 1)

        args = list(zip(starts.tolist(), slopes.tolist(), intercepts.tolist(), d.tolist()))
        assert many.tolist() == [scalar(*a) for a in args]
        # float64 rounding can move a prediction by at most one row
        assert all(abs(p - exact(*a)) <= 1 for p, a in zip(many.tolist(), args))


def sorted_keys(rng, size, bits=80):
    """Distinct ascending integer keys of up to ``bits`` bits as word arrays."""
    keys = sorted({int(x) << (bits - 62) | int(y) for x, y in zip(
        rng.integers(0, 2**62, size=size), rng.integers(0, 2 ** (bits - 62), size=size))})
    return words(keys)


class TestPartition:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 300), st.sampled_from([0.5, 2.0, 6.0]))
    @settings(max_examples=40, deadline=None)
    def test_partitions_respect_alpha(self, seed, size, alpha):
        hi, lo = sorted_keys(np.random.default_rng(seed), size)
        layer = fit_layer(hi, lo, alpha)
        # contiguous cover of [0, size)
        assert layer.starts[0] == 0 and np.all(layer.sizes >= 1)
        assert layer.sizes.sum() == hi.size
        # no exemption: a one- or two-key fit on relative keys is exact
        assert np.all(layer_mean_errors(layer, hi, lo) <= alpha)
        assert np.all(layer_mean_errors(layer, hi, lo)[layer.sizes <= 2] == 0)

    def test_linear_keys_need_one_partition(self):
        hi, lo = words([(1 << 70) + 7 * i for i in range(1000)])
        layer = fit_layer(hi, lo, alpha=1.0)
        assert len(layer) == 1
        assert key_errors(layer, hi, lo).max() == 0

    def test_alpha_must_be_positive(self):
        hi, lo = words([1, 2, 3])
        with pytest.raises(ValueError):
            fit_layer(hi, lo, 0.0)


class TestBuild:
    def test_layers_root_to_leaf(self):
        rng = np.random.default_rng(1)
        ix, rmi = build_pair(rng, 3000, k=6)
        assert len(rmi.layers[0]) == 1  # single root model
        assert rmi.leaf is rmi.layers[-1]
        assert rmi.leaf.target_size == ix.n
        sizes = [len(layer) for layer in rmi.layers]
        assert sizes == sorted(sizes)  # layers narrow toward the root

    def test_audit_within_bounds(self):
        rng = np.random.default_rng(2)
        ix, rmi = build_pair(rng, 5000, k=8)
        leaf_depth = len(rmi.layers) - 1
        for depth, j, err in audit_errors(rmi, ix):
            if depth == 0:
                continue  # the root carries no bound
            bound = rmi.alpha_leaf if depth == leaf_depth else rmi.alpha_mid
            assert err <= bound

    def test_leaf_boundaries_are_entry_keys(self):
        rng = np.random.default_rng(3)
        ix, rmi = build_pair(rng, 800, k=4)
        leaf = rmi.leaf
        for j, s in enumerate(leaf.starts):
            assert leaf.boundary_hi[j] == ix.key_hi[s]
            assert leaf.boundary_lo[j] == ix.key_lo[s]

    @given(st.integers(0, 2**32 - 1), st.sampled_from([0.5, 2.0, 6.0]))
    @settings(max_examples=40, deadline=None)
    def test_every_partition_within_alpha_at_query_time(self, seed, alpha):
        rng = np.random.default_rng(seed)
        ref = repetitive_reference(rng, 300) if seed % 2 else random_reference(rng, int(rng.integers(2, 400)))
        k = int(rng.integers(1, min(8, ref.n - 1) + 1))
        engine = build_engine(ref, k=k, alpha_mid=alpha, alpha_leaf=alpha)
        ix, rmi = engine.ipbwt, engine.rmi
        hi, lo = ix.key_hi, ix.key_lo
        for layer in reversed(rmi.layers):
            # partitions cover [0, target_size) contiguously, in key order
            assert layer.starts[0] == 0 and np.all(layer.sizes >= 1)
            assert layer.sizes.sum() == layer.target_size == hi.size
            # each boundary is the key at its partition's start
            assert np.array_equal(layer.boundary_hi, hi[layer.starts])
            assert np.array_equal(layer.boundary_lo, lo[layer.starts])
            hi, lo = layer.boundary_hi, layer.boundary_lo

        # every table key searched as a query, through the windows search passes
        # to the kernel
        windows = []

        def recording(ix_, q_hi, q_lo, base=0, width=None):
            windows.append((np.asarray(base).copy(), width))
            return kernel(ix_, q_hi, q_lo, base, width)

        kernel = search.lower_bound_batch
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search, "lower_bound_batch", recording)
            rows = stream_bounds(engine, table_keys(ix))
        assert rows.tolist() == list(range(ix.n))
        (base, width), = windows
        assert np.all(base <= rows) and np.all(rows <= base + width)
        leaf = rmi.leaf
        err = np.abs(leaf.predict(rmi.locate(ix.key_hi, ix.key_lo), ix.key_hi, ix.key_lo)
                     - np.arange(ix.n))
        mean = np.add.reduceat(err, leaf.starts) / leaf.sizes
        assert np.all(mean <= alpha)  # every partition, of any size
        assert np.array_equal(np.maximum.reduceat(err, leaf.starts), leaf.max_errors)
        audit = [e for depth, _, e in audit_errors(rmi, ix) if depth == len(rmi.layers) - 1]
        assert np.array_equal(mean, audit)
        assert all(e <= alpha for _, _, e in audit_errors(rmi, ix))


def table_keys(ix):
    return [(int(h) << 64) | int(lo) for h, lo in zip(ix.key_hi, ix.key_lo)]


def stream_bounds(engine, keys):
    """Lower bounds of packed integer keys, each searched in its rmi window."""
    hi, lo = words(keys)
    return search.lower_bound_batch(engine.ipbwt, hi, lo, *search._rmi_window(engine, hi, lo))


class TestLowerBound:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_matches_plain_binary_search(self, seed):
        rng = np.random.default_rng(seed)
        ref = repetitive_reference(rng) if seed % 2 else random_reference(rng, int(rng.integers(4, 120)))
        k = int(rng.integers(1, min(8, ref.n - 1) + 1))
        engine = build_engine(ref, k=k)
        keys, expected = sample_queries(rng, brute_entries(ref.ranks, k), k, ref.n, 24)
        assert stream_bounds(engine, keys).tolist() == expected
        assert lower_bound_batch(engine.ipbwt, *words(keys)).tolist() == expected

    def test_boundary_keys_map_to_their_rows(self):
        rng = np.random.default_rng(4)
        engine = build_engine(random_reference(rng, 600), k=5)
        ix = engine.ipbwt
        assert stream_bounds(engine, table_keys(ix)).tolist() == list(range(ix.n))


def probe_keys(rng, ix, k):
    """Query keys of every kind, as integers whose loc fields a search can form.

    Table keys and their neighbours (one below and one above, which covers
    the rows next to the sentinel), keys between the keys of one k-mer
    group, random k-mers with any loc field, and the padded bounds of
    chunks shorter than k.
    """
    top_loc = ix.n + k  # the largest loc field of a query key
    keys = table_keys(ix)
    probes = set(keys)
    probes.update(key + 1 for key in keys)
    probes.update(key - 1 for key in keys if key & 0xFFFFFFFF)
    for i in rng.integers(0, len(keys), size=40).tolist():
        probes.add((keys[i] >> 32 << 32) | int(rng.integers(0, top_loc + 1)))
    for _ in range(40):
        probes.add(int(rng.integers(0, 4**k)) << 32 | int(rng.integers(0, top_loc + 1)))
        short = int(rng.integers(0, k))
        chunk = int(rng.integers(0, 4**short))
        pad = 2 * (k - short)
        probes.add((chunk << pad) << 32 | short)
        probes.add((chunk << pad | (1 << pad) - 1) << 32 | top_loc)
    return sorted(probes)


def check_locate_and_window(engine, keys):
    """The leaf of each key is the last boundary <= it, and its window holds its row."""
    ix, rmi = engine.ipbwt, engine.rmi
    leaf = rmi.leaf
    hi, lo = words(keys)
    bounds = [(int(h) << 64) | int(l) for h, l in zip(leaf.boundary_hi, leaf.boundary_lo)]
    part = rmi.locate(hi, lo)
    assert part.tolist() == [max(bisect.bisect_right(bounds, key) - 1, 0) for key in keys]

    table = table_keys(ix)
    rows = np.array([bisect.bisect_left(table, key) for key in keys])
    pred = leaf.predict(part, hi, lo)
    eps = leaf.max_errors[part]
    assert np.all(pred - eps <= rows) and np.all(rows <= pred + eps + 1)
    base, width = search._rmi_window(engine, hi, lo)
    assert 0 <= base.min() and base.max() + width <= ix.n
    assert np.all(base <= rows) and np.all(rows <= base + width)
    assert search.lower_bound_batch(ix, hi, lo, base, width).tolist() == rows.tolist()


class TestQueryTimeBound:
    @given(st.integers(0, 2**32 - 1), st.sampled_from(BOUND_KS))
    @settings(max_examples=60, deadline=None)
    def test_locate_and_window_hold_for_any_query_key(self, seed, k):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(max(k + 1, 4), 400))
        ref = repetitive_reference(rng, size) if seed % 2 else random_reference(rng, size)
        k = min(k, ref.n - 1)
        engine = build_engine(ref, k=k, alpha_leaf=float(rng.choice([0.5, 2.0, 6.0])))
        check_locate_and_window(engine, probe_keys(rng, engine.ipbwt, k))

    def test_tied_top_words_step_back(self):
        # at K = 28 and n + K >= 256 the top words drop loc bits; in runs of
        # A broken by single bases, many leaf boundaries share theirs
        ref = make_reference(("A" * 60 + "C" + "A" * 33 + "G") * 30)
        engine = build_engine(ref, k=28, alpha_leaf=0.5)
        top = engine.rmi.leaf_top
        assert np.count_nonzero(top[1:] == top[:-1]) >= 100
        check_locate_and_window(engine, probe_keys(np.random.default_rng(5), engine.ipbwt, 28))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_stored_max_errors_and_slopes(self, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(2, 400))
        ref = repetitive_reference(rng, 300) if seed % 2 else random_reference(rng, size)
        engine = build_engine(ref, k=int(rng.integers(1, min(8, ref.n - 1) + 1)))
        hi, lo = engine.ipbwt.key_hi, engine.ipbwt.key_lo
        for layer in reversed(engine.rmi.layers):
            assert np.all(layer.slopes >= 0)
            recomputed = np.maximum.reduceat(key_errors(layer, hi, lo), layer.starts)
            assert np.array_equal(layer.max_errors, recomputed)
            hi, lo = layer.boundary_hi, layer.boundary_lo
