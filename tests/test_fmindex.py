import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnasearch import search
from dnasearch.fmindex import (
    backward_search_batch,
    build_bwt,
    build_fm_index,
    build_suffix_array,
    lf_rank,
    locate,
)
from dnasearch.seqcore import encode_ranks

from conftest import make_reference, naive_interval, naive_positions, random_reference, rotation_rows


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


def prefix_counts(ref, fm):
    """counts[b, r] = occurrences of rank r in bwt[0, b), from np.cumsum; b runs 0..n."""
    bwt = build_bwt(ref, fm.sa)
    counts = np.zeros((ref.n + 1, 5), dtype=np.int64)
    np.cumsum(bwt[:, None] == np.arange(5), axis=0, out=counts[1:])
    return counts


def smaller_ranks(ref):
    """d[r] = the text's ranks below r."""
    return np.concatenate([[0], np.cumsum(np.bincount(ref.ranks, minlength=5))[:-1]])


def search_one(fm, ranks):
    """One query as a one-row batch; returns its (low, high)."""
    low, high = backward_search_batch(fm, np.asarray(ranks, dtype=np.uint8)[None, :])
    return int(low[0]), int(high[0])


class TestOcc:
    def test_occ_matches_prefix_counts(self):
        # every rank at every row from 0 to n, at sizes around the 64-row lines
        rng = np.random.default_rng(7)
        for n_bases in (1, 62, 63, 64, 65, 127, 128, 300):
            ref = random_reference(rng, n_bases)
            fm = build_fm_index(ref)
            expected = prefix_counts(ref, fm) + smaller_ranks(ref)
            rows = np.arange(ref.n + 1)  # 63, 64 and 65 (once n > 64) and n among them
            for rank in range(5):
                got = lf_rank(fm, np.full(rows.size, rank), rows)
                assert got.dtype == np.int64
                assert np.array_equal(got, expected[:, rank]), (n_bases, rank)

    def test_rank_mixed_and_broadcast(self):
        # mixed ranks and rows in one call, and one rank row over a (2, m) array of rows
        rng = np.random.default_rng(8)
        ref = random_reference(rng, 257)
        fm = build_fm_index(ref)
        expected = prefix_counts(ref, fm) + smaller_ranks(ref)
        rows = np.concatenate([rng.integers(0, ref.n + 1, size=100), [0, 63, 64, ref.n]])
        ranks = rng.integers(0, 5, size=rows.size)
        assert lf_rank(fm, ranks, rows).tolist() == expected[rows, ranks].tolist()
        pair = np.stack([rows, rows[::-1]])
        assert np.array_equal(lf_rank(fm, ranks, pair), expected[pair, ranks])
        assert np.array_equal(pair[0], rows)  # the rows are not overwritten

    def test_rank_gives_lf_mapping(self):
        # d[c] + occ(c, [0, i)), c = bwt[i], must land on the predecessor rotation of row i
        rng = np.random.default_rng(9)
        ref = random_reference(rng, 90)
        fm = build_fm_index(ref)
        sa = fm.sa.astype(np.int64)
        c = build_bwt(ref, fm.sa)
        j = lf_rank(fm, c, np.arange(ref.n))
        assert np.array_equal((sa[j] + 1) % ref.n, sa)

    def test_fm_batch_across_blocks(self):
        # more rows than two blocks, every 4-mer among them, against the brute-force interval
        rng = np.random.default_rng(11)
        ref = random_reference(rng, 150)
        engine = search.build_engine(ref, k=3)
        qm = rng.integers(1, 5, size=(2 * search._BLOCK + 5, 4)).astype(np.uint8)
        qm[:256] = (np.arange(256)[:, None] >> np.arange(6, -1, -2)) % 4 + 1
        low, high = search.batch_search_matrix(engine, qm, mode="fm")
        kmers, inverse = np.unique(qm, axis=0, return_inverse=True)
        expected = np.array([naive_interval(ref.ranks, q) for q in kmers])
        assert kmers.shape[0] == 256
        assert np.array_equal(low, expected[inverse.ravel(), 0])
        assert np.array_equal(high, expected[inverse.ravel(), 1])
        assert np.count_nonzero(low == high) > 0 and np.count_nonzero(low < high) > 0


class TestBackwardSearch:
    def test_golden_ac(self):
        ref = make_reference("ATACGAC")
        fm = build_fm_index(ref)
        low, high = search_one(fm, encode_ranks("AC"))
        assert (low, high) == (1, 3)
        assert locate(fm, low, high).tolist() == [2, 5]

    def test_golden_absent(self):
        ref = make_reference("ATACGAC")
        fm = build_fm_index(ref)
        low, high = search_one(fm, encode_ranks("TT"))
        assert low == high
        assert (low, high) == naive_interval(ref.ranks, encode_ranks("TT"))

    def test_empty_query_full_range(self):
        ref = make_reference("ACGT")
        fm = build_fm_index(ref)
        assert search_one(fm, []) == (0, ref.n)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_interval_matches_brute_force(self, seed):
        # exact intervals, absent queries included: they end at their insertion point
        rng = np.random.default_rng(seed)
        ref = random_reference(rng, int(rng.integers(2, 80)))
        fm = build_fm_index(ref)
        for _ in range(8):
            q = rng.integers(1, 5, size=int(rng.integers(1, 7))).astype(np.uint8)
            low, high = search_one(fm, q)
            assert (low, high) == naive_interval(ref.ranks, q)
            assert locate(fm, low, high).tolist() == sorted(naive_positions(ref.ranks, q))

    def test_batch_matches_scalar(self):
        # a 64-row batch, most rows absent, against each row's brute-force interval
        rng = np.random.default_rng(10)
        ref = random_reference(rng, 200)
        fm = build_fm_index(ref)
        qm = rng.integers(1, 5, size=(64, 9)).astype(np.uint8)
        qm[:8] = ref.ranks[rng.integers(0, ref.n - 9, size=8)[:, None] + np.arange(9)]
        low, high = backward_search_batch(fm, qm)
        expected = [naive_interval(ref.ranks, q) for q in qm]
        assert list(zip(low.tolist(), high.tolist())) == expected
        assert np.count_nonzero(low < high) >= 8 and np.count_nonzero(low == high) >= 8
        positions = [sorted(naive_positions(ref.ranks, q)) for q in qm]
        assert locate(fm, low, high).tolist() == [p for hits in positions for p in hits]


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
