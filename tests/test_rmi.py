import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnasearch.fmindex import build_suffix_array
from dnasearch.ipbwt import build_ipbwt, lower_bound_batch
from dnasearch.rmi import (
    LinearModel,
    audit_errors,
    build_rmi,
    partition_by_error,
)
from dnasearch.search import _resolve_stream_rmi, build_engine

from conftest import brute_entries, random_reference, repetitive_reference, sample_queries, words


def build_pair(rng, n_bases, k):
    ref = random_reference(rng, n_bases)
    sa = build_suffix_array(ref)
    ix = build_ipbwt(ref, sa, k=k)
    return ix, build_rmi(ix)


class TestLinearModel:
    def test_predict_rounds_half_up_and_clamps(self):
        m = LinearModel(slope=1.0, intercept=0.5, avg_error=0.0)
        keys = np.array([2.0, 1.9, -1.0, -1.5, 500.0, -500.0], dtype=np.longdouble)
        # raw 2.5 -> 3 and -0.5 -> 0 round half up, 2.4 -> 2; raw -1.0, 500.5 and -499.5 clamp
        assert m.predict_many(keys, range_max=100).tolist() == [3, 2, 0, 0, 100, 0]

    def test_predict_many_matches_scalar(self):
        m = LinearModel(slope=0.37, intercept=12.1, avg_error=0.0)
        keys = np.linspace(-50, 400, 37).astype(np.longdouble)
        many = m.predict_many(keys, range_max=120)

        def scalar(key):
            exact = Fraction(m.slope) * Fraction(float(key)) + Fraction(m.intercept)
            return min(max(math.floor(exact + Fraction(1, 2)), 0), 120)

        assert many.tolist() == [scalar(k) for k in keys]


class TestPartition:
    @given(st.integers(0, 2**32 - 1), st.integers(3, 200))
    @settings(max_examples=40, deadline=None)
    def test_partitions_respect_alpha(self, seed, size):
        rng = np.random.default_rng(seed)
        keys = np.sort(rng.uniform(0, 1e9, size=size)).astype(np.longdouble)
        positions = np.arange(size, dtype=np.int64)
        alpha = 2.0
        parts = partition_by_error(keys, positions, alpha, range_max=size - 1)
        # contiguous cover of [0, size)
        assert parts[0][0] == 0 and parts[-1][1] == size
        for (s1, e1, _), (s2, _, _) in zip(parts, parts[1:]):
            assert e1 == s2
        for s, e, model in parts:
            if e - s > 2:
                assert model.avg_error <= alpha

    def test_linear_keys_need_one_partition(self):
        keys = np.arange(1000, dtype=np.longdouble) * 7.0
        positions = np.arange(1000, dtype=np.int64)
        parts = partition_by_error(keys, positions, alpha=1.0, range_max=999)
        assert len(parts) == 1
        assert parts[0][2].avg_error == 0.0

    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            partition_by_error(
                np.zeros(3, dtype=np.longdouble), np.arange(3), 0.0, range_max=2
            )


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
            layer = rmi.layers[depth]
            starts = layer.starts
            ends = np.append(starts[1:], layer.target_size if depth == leaf_depth else len(rmi.layers[depth + 1]))
            size = int(ends[j] - starts[j])
            if depth == 0 or size <= 2:
                continue  # the root carries no bound; tiny partitions are exempt
            bound = rmi.alpha_leaf if depth == leaf_depth else rmi.alpha_mid
            assert err <= bound

    def test_leaf_boundaries_are_entry_keys(self):
        rng = np.random.default_rng(3)
        ix, rmi = build_pair(rng, 800, k=4)
        leaf = rmi.leaf
        for j, s in enumerate(leaf.starts):
            assert leaf.boundary_hi[j] == ix.key_hi[s]
            assert leaf.boundary_lo[j] == ix.key_lo[s]


def stream_bounds(engine, keys):
    """Lower bounds of packed integer keys through the rmi stream path."""
    bits = np.array([key >> 32 for key in keys], dtype=np.uint64)
    locs = np.array([key & 0xFFFFFFFF for key in keys], dtype=np.int64)
    return _resolve_stream_rmi(engine, bits, locs)


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
        keys = [(int(h) << 64) | int(lo) for h, lo in zip(ix.key_hi, ix.key_lo)]
        assert stream_bounds(engine, keys).tolist() == list(range(ix.n))
