import bisect
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnasearch.fmindex import build_suffix_array
from dnasearch.index_io import load_index, save_index
from dnasearch.ipbwt import IpBwt, build_ipbwt, lower_bound_batch, pack_bases, top_words
from dnasearch.rmi import (
    RADIX_BITS,
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
    audit_leaves,
    brute_entries,
    crowded_bucket_reference,
    damage_index,
    make_reference,
    random_reference,
    repetitive_reference,
    sample_queries,
    words,
)

# top words are exact up to K = 16 whatever n; at K = 28 they cut loc bits
# once n + K >= 256 (2K + bit_length(n + K) > 64), and at K = 32 they are
# the k-mer alone
BOUND_KS = (1, 2, 3, 4, 5, 6, 7, 8, 16, 17, 21, 28, 32)


def build_pair(rng, n_bases, k):
    ref = random_reference(rng, n_bases)
    sa = build_suffix_array(ref)
    ix = build_ipbwt(pack_bases(ref.ranks), sa, k=k)
    return ix, build_rmi(ix)


def layer_mean_errors(layer, hi, lo):
    return np.add.reduceat(key_errors(layer, hi, lo), layer.starts) / layer.sizes


# keys of K = 32: a 64-bit k-mer above a 32-bit loc field
KEY_BITS = 96


class TestRelativeKeys:
    @given(st.integers(0, 2**KEY_BITS - 2**53), st.integers(0, 2**53 - 1))
    @settings(max_examples=200, deadline=None)
    def test_exact_below_2_53(self, first, diff):
        key = first + diff
        (d,) = relative_keys(*words([key]), *words([first]))
        assert d == diff  # exact: compares the float with the integer

    @given(st.integers(0, 2**KEY_BITS - 1), st.integers(0, 2**KEY_BITS - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_integer_subtraction(self, a, b):
        first, key = min(a, b), max(a, b)
        (d,) = relative_keys(*words([key]), *words([first]))
        assert math.isclose(d, key - first, rel_tol=2.0**-52)

    def test_never_decreases_where_kmer_difference_rounds(self):
        # k-mer differences 2^53 and 2^53 + 1 both round to 2^53; the loc
        # difference must not then put the larger key below the smaller
        first = 2**32 - 1  # k-mer 0, loc field 2^32 - 1
        keys = [(kmer << 32) | loc for kmer in (2**53 - 1, 2**53, 2**53 + 1, 2**53 + 2)
                for loc in (0, 2**31, 2**32 - 1)]
        hi, lo = words(keys)
        first_hi, first_lo = words([first] * len(keys))
        d = relative_keys(hi, lo, first_hi, first_lo)
        assert np.all(np.diff(d) >= 0), d


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
        # NaN would let no partition stop, inf fit one leaf
        hi, lo = words([1, 2, 3])
        for alpha in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                fit_layer(hi, lo, alpha)


class TestBuild:
    def test_layers_root_to_leaf(self):
        # one layer: the leaves are the whole model, fit over every key
        rng = np.random.default_rng(1)
        ix, rmi = build_pair(rng, 3000, k=6)
        assert len(rmi.layers) == 1 and rmi.layers[0] is rmi.leaf
        assert rmi.leaf.target_size == ix.n and len(rmi.leaf) > 1

    def test_audit_within_bounds(self):
        rng = np.random.default_rng(2)
        ix, rmi = build_pair(rng, 5000, k=8)
        rows = audit_errors(rmi, ix)
        # every leaf, the first one included, in leaf order
        assert [(depth, j) for depth, j, _ in rows] == [(0, j) for j in range(len(rmi.leaf))]
        assert all(err <= rmi.alpha_leaf for _, _, err in rows)

    def test_single_leaf_is_audited(self):
        hi, lo = words([(1 << 70) + 7 * i for i in range(1000)])
        ix = IpBwt(k=21, n=hi.size, text=np.zeros(0, np.uint8), key_hi=hi, key_lo=lo)  # no text
        rmi = build_rmi(ix)
        assert len(rmi.leaf) == 1
        assert audit_errors(rmi, ix) == [(0, 0, 0.0)]

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
        engine = build_engine(ref, k=k, alpha_leaf=alpha)
        ix, rmi = engine.ipbwt, engine.rmi
        leaf = rmi.leaf
        # partitions cover [0, n) contiguously, in key order
        assert leaf.starts[0] == 0 and np.all(leaf.sizes >= 1)
        assert leaf.sizes.sum() == leaf.target_size == ix.n
        # each boundary is the key at its partition's start
        assert np.array_equal(leaf.boundary_hi, ix.key_hi[leaf.starts])
        assert np.array_equal(leaf.boundary_lo, ix.key_lo[leaf.starts])

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
        err = np.abs(leaf.predict(rmi.locate(ix.key_hi, ix.key_lo), ix.key_hi, ix.key_lo)
                     - np.arange(ix.n))
        mean = np.add.reduceat(err, leaf.starts) / leaf.sizes
        assert np.all(mean <= alpha)  # every partition, of any size
        assert np.array_equal(np.maximum.reduceat(err, leaf.starts), leaf.max_errors)
        assert np.array_equal(mean, [e for _, _, e in audit_errors(rmi, ix)])


def table_keys(ix):
    return [(int(h) << 32) | int(lo) for h, lo in zip(ix.key_hi, ix.key_lo)]


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
        probes.add(int(rng.integers(0, 4**k, dtype=np.uint64)) << 32
                   | int(rng.integers(0, top_loc + 1)))
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
    bounds = [(int(h) << 32) | int(l) for h, l in zip(leaf.boundary_hi, leaf.boundary_lo)]
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

    def test_crowded_bucket(self):
        # the rows that start with eight A's share one bucket of the radix
        # table, which holds enough leaf boundaries for four halvings
        engine = build_engine(crowded_bucket_reference(), k=21, alpha_leaf=0.5)
        rmi, n = engine.rmi, engine.ipbwt.n
        sizes = np.diff(rmi.radix)
        assert rmi.shift > 0 and sizes.max() >= 9 and rmi.steps >= 4
        assert rmi.radix[0] == 0 and rmi.radix[-1] == len(rmi.leaf)

        rng = np.random.default_rng(7)
        all_t = (4**21 - 1) << 32 | n + 21  # the largest key a search forms
        (last_bucket,) = top_words(*words([all_t]), 21, n) >> np.uint64(rmi.shift)
        assert last_bucket == 2**RADIX_BITS - 1
        # keys in buckets that hold no boundary: their k-mers' first 8 bases name the bucket
        empty = np.flatnonzero(sizes == 0)
        assert empty.size
        buckets = rng.choice(empty, size=60).tolist() + [int(empty[0]), int(empty[-1])]
        low_bits = 2 * 21 - RADIX_BITS
        in_empty = [(b << low_bits | int(rng.integers(0, 2**low_bits))) << 32
                    | int(rng.integers(0, n + 22)) for b in buckets]
        keys = probe_keys(rng, engine.ipbwt, 21) + [0, all_t] + in_empty
        check_locate_and_window(engine, sorted(set(keys)))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_stored_max_errors_and_slopes(self, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(2, 400))
        ref = repetitive_reference(rng, 300) if seed % 2 else random_reference(rng, size)
        engine = build_engine(ref, k=int(rng.integers(1, min(8, ref.n - 1) + 1)))
        leaf, ix = engine.rmi.leaf, engine.ipbwt
        assert np.all(leaf.slopes >= 0)
        recomputed = np.maximum.reduceat(key_errors(leaf, ix.key_hi, ix.key_lo), leaf.starts)
        assert np.array_equal(leaf.max_errors, recomputed)


class TestSavedIndexAudit:
    """Criterion 4's audit (``conftest.audit_leaves``) of an index read back from its file."""

    @pytest.fixture()
    def index_path(self, tmp_path):
        # alpha_leaf 1 takes 98 leaves over these 2,000 bases
        engine = build_engine(random_reference(np.random.default_rng(6), 2000), k=6, alpha_leaf=1.0)
        path = tmp_path / "a.idx"
        save_index(str(path), engine)
        return path, len(engine.rmi.leaf)

    def test_clean_index_passes(self, index_path):
        path, leaves = index_path
        audit = audit_leaves(load_index(str(path))[0])
        assert audit["mean"].size == leaves > 1 and np.all(audit["mean"] <= 1.0)
        assert audit["wrong_max"].size == audit["negative"].size == 0

    def test_raised_max_error_named(self, index_path):
        path, leaves = index_path
        damage_index(path, "error_raised")  # loads: the checksum is rewritten
        audit = audit_leaves(load_index(str(path))[0])
        assert audit["wrong_max"].tolist() == [leaves // 2]
        assert audit["negative"].size == 0
