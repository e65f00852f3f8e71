import bisect
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnasearch import search
from dnasearch.fmindex import locate
from dnasearch.index_io import load_index, save_index
from dnasearch.search import (
    MODES,
    SearchError,
    _pack_codes,
    batch_search,
    batch_search_matrix,
    build_engine,
)
from dnasearch.seqcore import encode_ranks, parse_queries

from conftest import (
    crowded_bucket_reference,
    make_reference,
    naive_interval,
    naive_positions,
    random_reference,
    repeat_families_reference,
    repetitive_reference,
)


def search_one(engine, ranks, mode="rmi"):
    """One query as a one-row batch; returns its (low, high)."""
    low, high = batch_search_matrix(engine, np.asarray(ranks, dtype=np.uint8)[None, :], mode)
    return int(low[0]), int(high[0])


@pytest.fixture(scope="module")
def small_engine():
    return build_engine(make_reference("CATTATTAGGA"), k=3)


def test_build_engine_calls_the_module_builders(monkeypatch):
    # perfbench's traced mode times the build by wrapping these module attributes
    from dnasearch import fmindex, ipbwt, rmi

    called = []
    for module, name in ((fmindex, "build_fm_index"), (ipbwt, "build_ipbwt"), (rmi, "build_rmi")):
        def wrapped(*args, _orig=getattr(module, name), _name=name, **kw):
            called.append(_name)
            return _orig(*args, **kw)
        monkeypatch.setattr(module, name, wrapped)
    build_engine(make_reference("ACGTACGTTGCA"), k=4)
    assert called == ["build_fm_index", "build_ipbwt", "build_rmi"]


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


class TestHighBound:
    """Each way a round settles its high bound, in every mode, against the brute force.

    On ``TEXT`` at K = 4, AAAA starts 8 rows (the poly-A run), GGTC 2,
    ACGC 1 and CGTA none; TGGT's one row is the table's last.
    """

    TEXT = "CAAAAAAAAAAAGGTCTGGTCTACGC"

    @staticmethod
    def intervals(engine, ref, queries):
        """The brute-force intervals of ``queries``, after checking every mode against them."""
        ranks = [encode_ranks(q) for q in queries]
        expected = [naive_interval(ref.ranks, r) for r in ranks]
        lengths = np.array([r.size for r in ranks])
        for mode in MODES:
            low, high, _ = batch_search(engine, np.concatenate(ranks), lengths, mode)
            assert list(zip(low.tolist(), high.tolist())) == expected, mode
            assert [search_one(engine, r, mode) for r in ranks] == expected, mode
        return expected

    @pytest.fixture(scope="class")
    def text_engine(self):
        ref = make_reference(self.TEXT)
        return build_engine(ref, k=4), ref

    def test_first_round_widths(self, text_engine):
        # rows low and low + 1 decide 0, 1 and 2 rows; 8 rows take the k-mer count
        engine, ref = text_engine
        found = self.intervals(engine, ref, ["CGTA", "ACGC", "GGTC", "AAAA", "TGGT"])
        assert [hi - lo for lo, hi in found] == [0, 1, 2, 8, 1]
        assert found[-1][1] == ref.n  # row low + 1 lies past the table

    def test_second_round_after_a_wide_first(self, text_engine):
        # AAAA's 8 rows narrow to 4, 1 and 0 rows; GGTC's 2 rows to 1 and 0
        engine, ref = text_engine
        found = self.intervals(engine, ref, ["AAAAAAAA", "CAAAAAAA", "GAAAAAAA",
                                             "GTCTGGTC", "TTTTGGTC"])
        assert [hi - lo for lo, hi in found] == [4, 1, 0, 1, 0]

    def test_low_bound_at_the_table_end(self):
        # no T in the text: an all-T query's low bound is n in every round, and
        # no row past the table is read
        ref = make_reference("ACGGCAGCCA")
        engine = build_engine(ref, k=4)
        found = self.intervals(engine, ref, ["T", "TT", "TTTT", "TTTTTT", "TTTTTTTT"])
        assert found == [(ref.n, ref.n)] * 5

    def test_short_and_sentinel_queries(self, text_engine):
        # shorter than K: 0, 1, 2 and many rows; then the text's last 1 to 9
        # bases, which end at the sentinel
        engine, ref = text_engine
        found = self.intervals(engine, ref, ["GAA", "CGC", "GG", "A", "T"])
        assert [hi - lo for lo, hi in found] == [0, 1, 2, 12, 4]
        suffixes = [self.TEXT[-length:] for length in range(1, 10)]
        assert all(hi - lo >= 1 for lo, hi in self.intervals(engine, ref, suffixes))


def recorded_lookups(engine, qm, mode):
    """The rows of a batch search and the (key_hi, key_lo, base, width) of each lookup it made."""
    calls = []
    kernel = search.lower_bound_batch

    def recording(ix, key_hi, key_lo, base, width):
        calls.append((key_hi.copy(), key_lo.copy(), np.broadcast_to(base, key_hi.shape).copy(),
                      width))
        return kernel(ix, key_hi, key_lo, base, width)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "lower_bound_batch", recording)
        rows = batch_search_matrix(engine, qm, mode)
    return rows, calls


def lookup_sizes(calls):
    return [key_hi.size for key_hi, *_ in calls]


class TestOneLookupPerQuery:
    def test_one_round_looks_up_only_the_low_keys(self):
        rng = np.random.default_rng(26)
        ref = random_reference(rng, 5000)
        engine = build_engine(ref, k=21)
        starts = rng.integers(0, ref.n - 21, size=300)
        qm = ref.ranks[starts[:, None] + np.arange(21)]
        expected = batch_search_matrix(engine, qm, "fm")
        for mode in ("rmi", "binary"):
            rows, calls = recorded_lookups(engine, qm, mode)
            assert [a.tolist() for a in rows] == [a.tolist() for a in expected], mode
            assert lookup_sizes(calls) == [300], mode

    def test_later_rounds_add_only_the_wide_intervals(self):
        # a repeat text at K = 10, 25-mers: a 5-base first chunk, then two full
        # rounds; a high key joins a round's lookup iff its interval held 2+ rows
        rng = np.random.default_rng(27)
        ref = repeat_families_reference(rng, 400)
        engine = build_engine(ref, k=10)
        starts = rng.integers(0, ref.n - 25, size=200)
        qm = ref.ranks[starts[:, None] + np.arange(25)]
        qm[::7, 12] = qm[::7, 12] % 4 + 1  # another base: some intervals close in round 2

        def wide(suffix):  # how many queries' last ``suffix`` bases start 2+ rows
            low, high = batch_search_matrix(engine, qm[:, -suffix:], "fm")
            return int(np.sum(high - low >= 2))

        assert 0 < wide(5) < 200 and 0 < wide(15) < 200
        expected = batch_search_matrix(engine, qm, "fm")
        for mode in ("rmi", "binary"):
            rows, calls = recorded_lookups(engine, qm, mode)
            assert [a.tolist() for a in rows] == [a.tolist() for a in expected], mode
            assert lookup_sizes(calls) == [200, 200 + wide(5), 200 + wide(15)], mode

    def test_each_lookup_passes_its_mode_window(self):
        # binary searches the whole table; rmi a window of its leaves' width that
        # holds each key's bound, in every round, high keys included
        rng = np.random.default_rng(28)
        ref = repeat_families_reference(rng, 400)
        engine = build_engine(ref, k=10)
        ix, model = engine.ipbwt, engine.rmi
        table = [(int(h) << 32) | int(lo) for h, lo in zip(ix.key_hi, ix.key_lo)]
        starts = rng.integers(0, ref.n - 25, size=200)
        qm = ref.ranks[starts[:, None] + np.arange(25)]
        expected = batch_search_matrix(engine, qm, "fm")
        for mode in ("binary", "rmi"):
            rows, calls = recorded_lookups(engine, qm, mode)
            assert [a.tolist() for a in rows] == [a.tolist() for a in expected], mode
            assert len(calls) == 3 and lookup_sizes(calls) != [200] * 3, mode
            for key_hi, key_lo, base, width in calls:
                if mode == "binary":
                    assert np.all(base == 0) and width == ix.n
                    continue
                eps = model.leaf.max_errors[model.locate(key_hi, key_lo)]
                assert width <= 2 * int(eps.max()) + 1
                bounds = np.array([bisect.bisect_left(table, (int(h) << 32) | int(lo))
                                   for h, lo in zip(key_hi, key_lo)])
                assert base.min() >= 0 and base.max() + width <= ix.n
                assert np.all(base <= bounds) and np.all(bounds <= base + width)


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
        ranks, lengths = parse_queries(io.BytesIO(b"\n".join(lines)))
        ref = make_reference("CATTATTAGGA")
        for mode in MODES:
            low, high, valid = batch_search(small_engine, ranks, lengths, mode=mode)
            assert valid.tolist() == [line != b"AXA" for line in lines]
            for i, line in enumerate(lines):
                expected = naive_interval(ref.ranks, encode_ranks(line)) if valid[i] else (0, 0)
                assert (int(low[i]), int(high[i])) == expected, (mode, line)

    def test_invalid_queries_marked(self, small_engine):
        ranks, lengths = parse_queries(io.BytesIO(b"ATTA\nAT\xffA\nTAGG\nNNNN\n"))
        for mode in MODES:
            low, high, valid = batch_search(small_engine, ranks, lengths, mode=mode)
            assert valid.tolist() == [True, False, True, False]
            for i, line in ((0, "ATTA"), (2, "TAGG")):
                assert (int(low[i]), int(high[i])) == search_one(small_engine, encode_ranks(line), mode)
            assert low[[1, 3]].tolist() == high[[1, 3]].tolist() == [0, 0]

    @pytest.mark.parametrize("lengths", [[7], [4], [2, -1, 5]])
    def test_lengths_that_do_not_tile_the_ranks_rejected(self, small_engine, lengths):
        # [7] reads past the ranks, [4] would drop the last two, and a
        # negative length cannot tile them even where the sum matches
        ranks = encode_ranks("ACGTAC")
        for mode in MODES:
            with pytest.raises(SearchError):
                batch_search(small_engine, ranks, np.array(lengths), mode=mode)

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

    def test_non_integer_batches_rejected(self, small_engine):
        # a fractional rank names no base and a bool matrix holds no ranks:
        # every mode refuses both, and integral floats too
        ranks = np.random.default_rng(9).integers(1, 5, size=(8, 7))
        halves = ranks.astype(np.float64)
        halves[3, 2] = 2.5
        for mode in MODES:
            for batch in (ranks.astype(np.float64), halves, ranks == 1):
                with pytest.raises(SearchError):
                    batch_search_matrix(small_engine, batch, mode=mode)

    def test_integer_dtypes_give_the_uint8_rows(self):
        # a signed matrix would make the packing compute in float64
        rng = np.random.default_rng(14)
        ref = random_reference(rng, 300)
        engine = build_engine(ref, k=4)
        qm = np.concatenate([rng.integers(1, 5, size=(20, 9)),
                             [ref.ranks[s : s + 9] for s in rng.integers(0, 290, size=20)]])
        for mode in MODES:
            expected = batch_search_matrix(engine, qm.astype(np.uint8), mode=mode)
            for dtype in (np.int8, np.int32, np.int64, np.uint16):
                got = batch_search_matrix(engine, qm.astype(dtype), mode=mode)
                assert [a.tolist() for a in got] == [a.tolist() for a in expected], (mode, dtype)

    def test_unknown_mode_rejected(self, small_engine):
        with pytest.raises(SearchError):
            search_one(small_engine, encode_ranks("AC"), "turbo")


@pytest.mark.parametrize("width", range(1, 33))
def test_pack_codes_matches_brute_force(width):
    # all-A rows pack to 0 and all-T rows to 4^width - 1, 2^64 - 1 at width 32
    rows = np.random.default_rng(width).integers(1, 5, size=(20, width)).astype(np.uint8)
    rows[0], rows[1] = 1, 4
    expected = [sum((int(r) - 1) << 2 * (width - 1 - j) for j, r in enumerate(row)) for row in rows]
    got = _pack_codes(rows)
    assert got.dtype == np.uint64
    assert got.tolist() == expected
    assert expected[:2] == [0, 4**width - 1]


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


class TestCrowdedBucket:
    def test_all_modes_match_oracle_after_load(self, tmp_path):
        # leaves crowd one radix bucket (conftest.crowded_bucket_reference);
        # queries of one, two and part of a chunk, present and absent
        ref = crowded_bucket_reference()
        path = tmp_path / "crowded.idx"
        save_index(str(path), build_engine(ref, k=21, alpha_leaf=0.5))
        engine = load_index(str(path))[0]
        assert np.diff(engine.rmi.radix).max() >= 9
        body = ref.ranks[:-1]
        rng = np.random.default_rng(17)
        for qlen in (12, 21, 42):
            starts = rng.integers(0, body.size - qlen + 1, size=8)
            present = [body[s : s + qlen] for s in starts]
            present += [np.ones(qlen, dtype=np.uint8), body[-qlen:]]  # poly-A; at the sentinel
            changed = [q.copy() for q in present]
            for q, i in zip(changed, rng.integers(0, qlen, size=len(changed))):
                q[i] = q[i] % 4 + 1  # another base
            random = [rng.integers(1, 5, size=qlen) for _ in range(4)]
            qm = np.array(present + changed + random, dtype=np.uint8)
            expected = [naive_interval(ref.ranks, q) for q in qm]
            assert sum(lo == hi for lo, hi in expected) >= 4  # absent queries
            for mode in MODES:
                low, high = batch_search_matrix(engine, qm, mode=mode)
                assert list(zip(low.tolist(), high.tolist())) == expected, (mode, qlen)


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
