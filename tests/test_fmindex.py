import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnasearch.fmindex import (
    FmIndex,
    SaInterval,
    backward_search,
    backward_search_batch,
    build_bwt,
    build_fm_index,
    build_suffix_array,
    locate,
)
from dnasearch.seqcore import encode_ranks

from conftest import make_reference, naive_interval, naive_positions, random_reference, rotation_rows


class TestSaInterval:
    def test_empty_and_len(self):
        assert SaInterval(3, 3).empty
        assert len(SaInterval(2, 5)) == 3

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            SaInterval(4, 2)


class TestSuffixArray:
    def test_golden_small(self):
        # rotations of ATACGAC$ sorted: $.., AC$.., ACGAC$.., ATACGAC$, C$.., CGAC$.., GAC$.., TACGAC$
        ref = make_reference("ATACGAC")
        sa = build_suffix_array(ref)
        assert sa.tolist() == [7, 5, 2, 0, 6, 3, 4, 1]

    def test_golden_bwt(self):
        ref = make_reference("ATACGAC")
        sa = build_suffix_array(ref)
        bwt = build_bwt(ref, sa)
        # last column of the sorted rotations: C G T $ A A C A
        assert bwt.tolist() == [2, 3, 4, 0, 1, 1, 2, 1]

    @given(st.integers(0, 2**32 - 1), st.integers(1, 120))
    @settings(max_examples=60, deadline=None)
    def test_matches_rotation_sort(self, seed, n_bases):
        rng = np.random.default_rng(seed)
        ref = random_reference(rng, n_bases)
        sa = build_suffix_array(ref)
        assert sa.tolist() == rotation_rows(ref.ranks)


class TestOcc:
    def test_occ_matches_prefix_counts(self):
        rng = np.random.default_rng(7)
        ref = random_reference(rng, 300)  # spans several checkpoint blocks
        fm = build_fm_index(ref)
        bwt = build_bwt(ref, fm.sa)
        for rank in range(5):
            running = 0
            for i in range(ref.n):
                assert fm.occ(rank, i) == running + (bwt[i] == rank)
                running += bwt[i] == rank

    def test_occ_many_matches_scalar(self):
        rng = np.random.default_rng(8)
        ref = random_reference(rng, 257)
        fm = build_fm_index(ref)
        rows = rng.integers(0, ref.n, size=100)
        ranks = rng.integers(0, 5, size=100)
        got = fm.occ_many(ranks, rows)
        expected = [fm.occ(int(r), int(i)) for r, i in zip(ranks, rows)]
        assert got.tolist() == expected

    def test_fm_step_chains_to_lf_mapping(self):
        # advancing from row i by bwt[i] must land on the predecessor rotation
        rng = np.random.default_rng(9)
        ref = random_reference(rng, 90)
        fm = build_fm_index(ref)
        sa = fm.sa
        bwt = build_bwt(ref, sa)
        for i in range(ref.n):
            j = fm.fm_step(int(bwt[i]), i + 1) - 1
            assert (sa[j] + 1) % ref.n == sa[i]


class TestBackwardSearch:
    def test_golden_ac(self):
        ref = make_reference("ATACGAC")
        fm = build_fm_index(ref)
        iv = backward_search(fm, encode_ranks("AC"))
        assert (iv.low, iv.high) == (1, 3)
        assert locate(fm, iv.low, iv.high).tolist() == [2, 5]

    def test_golden_absent(self):
        ref = make_reference("ATACGAC")
        fm = build_fm_index(ref)
        assert backward_search(fm, encode_ranks("TT")).empty

    def test_empty_query_full_range(self):
        ref = make_reference("ACGT")
        fm = build_fm_index(ref)
        iv = backward_search(fm, np.array([], dtype=np.uint8))
        assert (iv.low, iv.high) == (0, ref.n)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_interval_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        ref = random_reference(rng, int(rng.integers(2, 80)))
        fm = build_fm_index(ref)
        for _ in range(8):
            q = rng.integers(1, 5, size=int(rng.integers(1, 7))).astype(np.uint8)
            iv = backward_search(fm, q)
            expected = naive_interval(ref.ranks, q)
            if expected[0] == expected[1]:
                # empty results short-circuit, so only emptiness is defined
                assert iv.empty
            else:
                assert (iv.low, iv.high) == expected
            assert locate(fm, iv.low, iv.high).tolist() == sorted(naive_positions(ref.ranks, q))

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(10)
        ref = random_reference(rng, 200)
        fm = build_fm_index(ref)
        qm = rng.integers(1, 5, size=(64, 9)).astype(np.uint8)
        low, high = backward_search_batch(fm, qm)
        for i in range(64):
            iv = backward_search(fm, qm[i])
            got = (int(low[i]), int(high[i]))
            if iv.empty:
                assert got[0] >= got[1]
            else:
                assert got == (iv.low, iv.high)


class TestLocateBatch:
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_sorted_rows_per_interval(self, seed):
        # repeated intervals, empty ones (at 0, inside and at n) and the whole table
        rng = np.random.default_rng(seed)
        ref = random_reference(rng, int(rng.integers(1, 300)))
        fm = build_fm_index(ref)
        m = int(rng.integers(0, 60))
        low = rng.integers(0, ref.n + 1, size=m)
        high = np.minimum(low + rng.integers(0, 12, size=m) * (rng.random(m) < 0.7), ref.n)
        if m:
            low[::7], high[::7] = low[0], high[0]
            low[1::9], high[1::9] = ref.n, ref.n
        low, high = np.append(low, 0), np.append(high, ref.n)
        got = locate(fm, low, high)
        expected = [np.sort(fm.sa[lo:hi]) for lo, hi in zip(low.tolist(), high.tolist())]
        assert got.dtype == np.uint32
        assert np.array_equal(got, np.concatenate(expected))

    def test_no_intervals(self):
        fm = build_fm_index(make_reference("ACGTA"))
        got = locate(fm, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
        assert got.dtype == np.uint32 and got.size == 0

    def test_scalar_interval_is_the_sorted_slice(self):
        fm = build_fm_index(random_reference(np.random.default_rng(4), 90))
        for lo, hi in ((0, 0), (5, 5), (3, 40), (0, 91), (90, 91)):
            got, expected = locate(fm, lo, hi), np.sort(fm.sa[lo:hi])
            assert got.dtype == expected.dtype and np.array_equal(got, expected)
