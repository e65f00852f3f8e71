import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnasearch.fmindex import locate
from dnasearch.search import (
    MODES,
    SearchError,
    batch_search,
    batch_search_matrix,
    build_engine,
)
from dnasearch.seqcore import encode_ranks, parse_queries

from conftest import (
    make_reference,
    naive_interval,
    naive_positions,
    random_reference,
    repetitive_reference,
)


def search_one(engine, ranks, mode="rmi"):
    """One query as a one-row batch; returns its (low, high)."""
    low, high = batch_search_matrix(engine, np.asarray(ranks, dtype=np.uint8)[None, :], mode)
    return int(low[0]), int(high[0])


@pytest.fixture(scope="module")
def small_engine():
    return build_engine(make_reference("CATTATTAGGA"), k=3)


class TestChunking:
    """Query lengths at, across and below the chunk length K=3 of ``small_engine``."""

    @staticmethod
    def assert_interval(engine, bases, expected):
        for mode in MODES:
            assert search_one(engine, encode_ranks(bases), mode) == expected, (bases, mode)

    def test_split_exact_multiple(self, small_engine):
        self.assert_interval(small_engine, "ATTATT", (4, 5))
        self.assert_interval(small_engine, "TTAGGA", (10, 11))  # ends at the sentinel

    def test_split_with_remainder(self, small_engine):
        self.assert_interval(small_engine, "CATTATT", (5, 6))
        self.assert_interval(small_engine, "ATTA", (3, 5))

    def test_pad_short_chunk_bounds(self, small_engine):
        # the padded bounds bracket every extension of a chunk shorter than K,
        # including the row A$ next to the sentinel
        self.assert_interval(small_engine, "A", (1, 5))
        self.assert_interval(small_engine, "GA", (6, 7))
        self.assert_interval(small_engine, "AG", (2, 3))
        self.assert_interval(small_engine, "TT", (10, 12))
        for mode in MODES:
            low, high = search_one(small_engine, encode_ranks("CC"), mode)
            assert low == high


class TestExactSearch:
    def test_known_interval(self, small_engine):
        assert search_one(small_engine, encode_ranks("ATTA")) == (3, 5)

    def test_known_interval_all_modes(self, small_engine):
        for mode in MODES:
            assert search_one(small_engine, encode_ranks("ATTA"), mode) == (3, 5)

    def test_located_positions(self):
        engine = build_engine(make_reference("ATACGAC"), k=2)
        low, high = search_one(engine, encode_ranks("AC"))
        assert locate(engine.fm, low, high).tolist() == [2, 5]

    def test_empty_query_full_range(self, small_engine):
        for mode in MODES:
            assert search_one(small_engine, [], mode) == (0, 12)

    def test_absent_query_empty(self, small_engine):
        ref = make_reference("CATTATTAGGA")
        for mode in MODES:
            low, high = search_one(small_engine, encode_ranks("GGG"), mode)
            assert low == high
            assert (low, high) == naive_interval(ref.ranks, encode_ranks("GGG"))


class TestBatchSearch:
    def test_matrix_matches_scalar_all_modes(self):
        rng = np.random.default_rng(12)
        ref = random_reference(rng, 400)
        engine = build_engine(ref, k=5)
        for qlen in (1, 4, 5, 7, 12):
            qm = rng.integers(1, 5, size=(50, qlen)).astype(np.uint8)
            reference = [naive_interval(ref.ranks, q) for q in qm]
            for mode in MODES:
                low, high = batch_search_matrix(engine, qm, mode=mode)
                assert list(zip(low.tolist(), high.tolist())) == reference, (qlen, mode)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_intervals_match_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        ref = random_reference(rng, int(rng.integers(3, 70)))
        k = int(rng.integers(1, min(5, ref.n - 1) + 1))
        engine = build_engine(ref, k=k)
        qlen = int(rng.integers(1, 9))
        qm = rng.integers(1, 5, size=(12, qlen)).astype(np.uint8)
        for mode in MODES:
            low, high = batch_search_matrix(engine, qm, mode=mode)
            for i in range(12):
                assert (int(low[i]), int(high[i])) == naive_interval(ref.ranks, qm[i])

    def test_match_sets_against_substring_scan(self):
        rng = np.random.default_rng(13)
        ref = random_reference(rng, 150)
        engine = build_engine(ref, k=4)
        qm = rng.integers(1, 5, size=(40, 6)).astype(np.uint8)
        low, high = batch_search_matrix(engine, qm, mode="rmi")
        for i in range(40):
            got = set()
            if low[i] < high[i]:
                got = set(int(p) for p in engine.fm.sa[low[i] : high[i]])
            assert got == naive_positions(ref.ranks, qm[i])

    def test_fm_groups_lengths(self, small_engine):
        # every mode searches one matrix per length: lengths below, at and
        # across K = 3, absent lines and an invalid one in one batch
        lines = [b"ATTA", b"ATT", b"GGA", b"AXA", b"CATTATT", b"TT", b"CC", b"ATT"]
        ranks, lengths = parse_queries(b"\n".join(lines))
        ref = make_reference("CATTATTAGGA")
        for mode in MODES:
            low, high, valid = batch_search(small_engine, ranks, lengths, mode=mode)
            assert valid.tolist() == [line != b"AXA" for line in lines]
            for i, line in enumerate(lines):
                expected = naive_interval(ref.ranks, encode_ranks(line)) if valid[i] else (0, 0)
                assert (int(low[i]), int(high[i])) == expected, (mode, line)

    def test_invalid_queries_marked(self, small_engine):
        ranks, lengths = parse_queries(b"ATTA\nAT\xffA\nTAGG\nNNNN\n")
        for mode in MODES:
            low, high, valid = batch_search(small_engine, ranks, lengths, mode=mode)
            assert valid.tolist() == [True, False, True, False]
            for i, line in ((0, "ATTA"), (2, "TAGG")):
                assert (int(low[i]), int(high[i])) == search_one(small_engine, encode_ranks(line), mode)
            assert low[[1, 3]].tolist() == high[[1, 3]].tolist() == [0, 0]

    def test_empty_batch(self, small_engine):
        for mode in MODES:
            low, high, valid = batch_search(small_engine, np.zeros(0, dtype=np.uint8),
                                            np.zeros(0, dtype=np.int64), mode=mode)
            assert low.size == high.size == valid.size == 0

    def test_out_of_range_ranks_rejected(self, small_engine):
        # base codes 0..3 in place of ranks 1..4, a rank above T, one query
        # not shaped as a batch, and the sentinel's rank 0: every mode refuses all four
        codes = np.random.default_rng(8).integers(0, 4, size=(8, 7)).astype(np.uint8)
        codes[0, :2] = 0, 3
        for mode in MODES:
            for batch in (codes, codes + 2, codes[0] + 1):
                with pytest.raises(SearchError):
                    batch_search_matrix(small_engine, batch, mode=mode)
            with pytest.raises(SearchError):
                search_one(small_engine, [1, 0, 2], mode)

    def test_unknown_mode_rejected(self, small_engine):
        with pytest.raises(SearchError):
            search_one(small_engine, encode_ranks("AC"), "turbo")


class TestAbsentQueries:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_full_rows_agree_across_modes(self, seed):
        # every mode, one-row and many-row batches, gives an absent query the
        # empty interval at its insertion point among the sorted rotations
        rng = np.random.default_rng(seed)
        size = int(rng.integers(3, 80))
        ref = repetitive_reference(rng) if seed % 2 else random_reference(rng, size)
        k = int(rng.integers(1, min(6, ref.n - 1) + 1))
        engine = build_engine(ref, k=k)
        for qlen in (1, k, k + 1, 2 * k + 1, 3 * k):
            qm = rng.integers(1, 5, size=(16, qlen)).astype(np.uint8)
            expected = [naive_interval(ref.ranks, q) for q in qm]
            for mode in MODES:
                low, high = batch_search_matrix(engine, qm, mode=mode)
                assert list(zip(low.tolist(), high.tolist())) == expected, mode
                assert [search_one(engine, q, mode) for q in qm] == expected, mode


class TestQueryLengthSweep:
    def test_lengths_spanning_chunk_boundaries(self):
        # lengths below, at, and across multiples of k, incl. a long query
        rng = np.random.default_rng(14)
        ref = random_reference(rng, 2000)
        engine = build_engine(ref, k=7)
        for qlen in (1, 6, 7, 8, 13, 14, 15, 21, 50):
            starts = rng.integers(0, ref.n - 1 - qlen, size=30)
            qm = ref.ranks[starts[:, None] + np.arange(qlen)]
            for mode in ("rmi", "binary"):
                low, high = batch_search_matrix(engine, qm, mode=mode)
                flow, fhigh = batch_search_matrix(engine, qm, mode="fm")
                assert np.array_equal(low, flow)
                assert np.array_equal(high, fhigh)
                assert bool(np.all(low < high))  # sampled substrings must match


class TestRepetitiveText:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_all_modes_match_oracle(self, seed):
        # A-runs before the sentinel, homopolymers and tandem repeats: rows
        # next to the sentinel tie with A-run rows on the packed k-mer
        rng = np.random.default_rng(seed)
        ref = repetitive_reference(rng)
        body = ref.ranks[:-1]
        k = int(rng.integers(1, min(8, ref.n - 1) + 1))
        engine = build_engine(ref, k=k)
        alphabet = np.unique(body)
        for qlen in range(1, 3 * k + 2):
            starts = rng.integers(0, max(body.size - qlen, 0) + 1, size=4)
            present = [body[s : s + qlen] for s in starts if s + qlen <= body.size]
            suffix = [body[-qlen:]] if qlen <= body.size else []  # ends at the sentinel
            other = [rng.choice(alphabet, size=qlen), rng.integers(1, 5, size=qlen)]
            qm = np.array(present + suffix + other, dtype=np.uint8)
            for mode in MODES:
                low, high = batch_search_matrix(engine, qm, mode=mode)
                for i in range(qm.shape[0]):
                    expected = naive_interval(ref.ranks, qm[i])
                    assert (int(low[i]), int(high[i])) == expected, (mode, qm[i])
                    rows = engine.fm.sa[low[i] : high[i]]
                    assert set(rows.tolist()) == naive_positions(ref.ranks, qm[i])


class TestLongestChunk:
    @pytest.mark.parametrize("seed", range(6))
    def test_k32_all_modes_match_oracle(self, seed):
        # K = 32, where the k-mer fills its whole 64-bit column: query lengths
        # below, at and across one and two chunks, on texts of at least 33 bases
        rng = np.random.default_rng(seed)
        if seed % 2:
            ref = repetitive_reference(rng, 90)
            while ref.n - 1 < 33:
                ref = repetitive_reference(rng, 90)
        else:
            ref = random_reference(rng, int(rng.integers(33, 90)))
        body = ref.ranks[:-1]
        engine = build_engine(ref, k=32)
        for qlen in (12, 32, 33, 65):
            starts = rng.integers(0, max(body.size - qlen, 0) + 1, size=4)
            present = [body[s : s + qlen] for s in starts if s + qlen <= body.size]
            suffix = [body[-qlen:]] if qlen <= body.size else []  # ends at the sentinel
            other = [rng.choice(np.unique(body), size=qlen), rng.integers(1, 5, size=qlen)]
            qm = np.array(present + suffix + other, dtype=np.uint8)
            expected = [naive_interval(ref.ranks, q) for q in qm]
            for mode in MODES:
                low, high = batch_search_matrix(engine, qm, mode=mode)
                assert list(zip(low.tolist(), high.tolist())) == expected, (mode, qlen)
                for i in range(qm.shape[0]):
                    rows = engine.fm.sa[low[i] : high[i]]
                    assert set(rows.tolist()) == naive_positions(ref.ranks, qm[i]), (mode, qlen)
