import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnasearch.fmindex import build_suffix_array
from dnasearch.ipbwt import (
    IpBwtError,
    build_ipbwt,
    kmer_rows,
    lower_bound_batch,
    pack_bases,
    top_words,
    unpack_bases,
)
from dnasearch.seqcore import encode_ranks

from conftest import (
    brute_entries,
    brute_lower_bound,
    expected_key,
    make_reference,
    packed,
    random_reference,
    repetitive_reference,
    sample_queries,
    words,
)


def table_keys(ix):
    return [(int(h) << 32) | int(lo) for h, lo in zip(ix.key_hi, ix.key_lo)]


class TestKeyEncoding:
    def test_golden_encode(self):
        # ACGT$ at K=2, rows $A, AC, CG, GT, T$: 2-bit k-mer codes (the
        # sentinel as A) in a uint64 column, loc fields in a uint32 column:
        # the continuation row + 2, or the distance to the sentinel
        ref = make_reference("ACGT")
        ix = build_ipbwt(pack_bases(ref.ranks), build_suffix_array(ref), k=2)
        assert (ix.key_hi.dtype, ix.key_lo.dtype) == (np.uint64, np.uint32)
        assert ix.key_hi.tolist() == [0, 0b0001, 0b0110, 0b1011, 0b1100]
        assert ix.key_lo.tolist() == [0, 3 + 2, 4 + 2, 0 + 2, 1]

    def test_sentinel_shares_code_with_a(self):
        # CAA$ at K=2, rows $C, A$, AA, CA: the first three have k-mer AA;
        # loc fields 0 and 1 (sentinel offsets) order the sentinel rows first
        ref = make_reference("CAA")
        ix = build_ipbwt(pack_bases(ref.ranks), build_suffix_array(ref), k=2)
        assert ix.key_hi.tolist() == [0, 0, 0, 0b0100]
        assert ix.key_lo.tolist() == [0, 1, 2, 3]

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_packed_order_matches_true_order(self, seed):
        rng = np.random.default_rng(seed)
        if seed % 2:
            ref = repetitive_reference(rng)
        else:
            ref = random_reference(rng, int(rng.integers(2, 40)))
        k = int(rng.integers(1, min(8, ref.n - 1) + 1))
        ix = build_ipbwt(pack_bases(ref.ranks), build_suffix_array(ref), k=k)
        keys = table_keys(ix)
        assert keys == [expected_key(kmer, loc, k) for kmer, loc in brute_entries(ref.ranks, k)]
        assert all(a < b for a, b in zip(keys, keys[1:]))

    @pytest.mark.parametrize("seed", range(4))
    def test_k32_keys_match_brute_force(self, seed):
        # 2K = 64: the k-mer fills its whole uint64 column
        rng = np.random.default_rng(seed)
        ref = repetitive_reference(rng, 80) if seed % 2 else random_reference(rng, 60)
        while ref.n - 1 < 33:
            ref = repetitive_reference(rng, 80)
        ix = build_ipbwt(pack_bases(ref.ranks), build_suffix_array(ref), k=32)
        keys = table_keys(ix)
        assert keys == [expected_key(kmer, loc, 32) for kmer, loc in brute_entries(ref.ranks, 32)]
        assert all(a < b for a, b in zip(keys, keys[1:]))

    def test_packed_bases_round_trip(self):
        # 4 bases a byte, the first in the high bits, the last byte padded with 0
        assert pack_bases(make_reference("ACGTTGCA" + "C").ranks).tolist() == [
            0b00011011, 0b11100100, 0b01000000]
        rng = np.random.default_rng(4)
        for n_bases in range(1, 71):
            ranks = make_reference("".join(rng.choice(list("ACGT"), n_bases))).ranks
            packed = pack_bases(ranks)
            assert packed.dtype == np.uint8 and packed.size == -(-n_bases // 4)
            assert np.array_equal(unpack_bases(packed, ranks.size), ranks), n_bases

    @given(st.integers(1, 32), st.integers(2, 2**31), st.data())
    @settings(max_examples=200, deadline=None)
    def test_top_words_keep_key_order(self, k, n, data):
        key = st.tuples(st.integers(0, 4**k - 1), st.integers(0, n + k))
        pairs = data.draw(st.lists(key, min_size=2, max_size=8))
        keys = [(code << 32) | loc for code, loc in pairs]
        top = top_words(*words(keys), k, n).tolist()
        exact = 2 * k + (n + k).bit_length() <= 64
        for a, ta in zip(keys, top):
            for b, tb in zip(keys, top):
                assert (ta < tb) <= (a < b)  # a smaller word means a smaller key
                assert (a < b) <= (ta <= tb)
                if exact:
                    assert (ta == tb) == (a == b)


class TestBuild:
    def test_entries_match_brute_force_golden(self):
        ref = make_reference("CATTATTAGGA")
        sa = build_suffix_array(ref)
        ix = build_ipbwt(pack_bases(ref.ranks), sa, k=3)
        expected = [expected_key(kmer, loc, 3) for kmer, loc in brute_entries(ref.ranks, 3)]
        assert table_keys(ix) == expected

    @pytest.mark.parametrize("k", [1, 2, 31, 32])
    def test_kmer_rows_at_word_edges(self, k):
        # every n - 1 mod 4, so every amount of padding; positions 31, 32, 63
        # and 64 start or end a 32-base word, and the last word holds the sentinel
        rng = np.random.default_rng(k)
        for n_bases in (64, 65, 66, 67):
            ref = random_reference(rng, n_bases)
            sa = build_suffix_array(ref)
            got = kmer_rows(pack_bases(ref.ranks), sa, k)
            expected = [expected_key(kmer, loc, k) >> 32
                        for kmer, loc in brute_entries(ref.ranks, k)]
            assert got.dtype == np.uint64 and got.tolist() == expected, n_bases

    def test_sentinel_rows_counted(self):
        ref = make_reference("CATTATTAGGA")
        sa = build_suffix_array(ref)
        ix = build_ipbwt(pack_bases(ref.ranks), sa, k=3)
        assert int(np.count_nonzero(ix.key_lo < 3)) == 3  # k rows see the sentinel

    def test_k_validation(self):
        ref = make_reference("ACGT")
        sa = build_suffix_array(ref)
        with pytest.raises(IpBwtError):
            build_ipbwt(pack_bases(ref.ranks), sa, k=0)
        with pytest.raises(IpBwtError):
            build_ipbwt(pack_bases(ref.ranks), sa, k=ref.n)
        long_ref = make_reference("ACGT" * 10)
        build_ipbwt(pack_bases(long_ref.ranks), build_suffix_array(long_ref), k=32)
        with pytest.raises(IpBwtError):
            build_ipbwt(pack_bases(long_ref.ranks), build_suffix_array(long_ref), k=33)


class TestLowerBound:
    def test_known_lower_bounds(self):
        ref = make_reference("CATTATTAGGA")
        sa = build_suffix_array(ref)
        ix = build_ipbwt(pack_bases(ref.ranks), sa, k=3)
        att = encode_ranks("ATT").tolist()
        keys = [
            packed([1, 1, 1], 1),  # short-chunk low bound A$A
            packed(att, 12 + 3),
            packed(att, 1 + 3),
            packed(att, 5 + 3),
        ]
        assert lower_bound_batch(ix, *words(keys)).tolist() == [1, 5, 3, 5]

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_both_key_shapes_match_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        ref = repetitive_reference(rng)
        k = int(rng.integers(1, min(8, ref.n - 1) + 1))
        ix = build_ipbwt(pack_bases(ref.ranks), build_suffix_array(ref), k=k)
        keys, expected = sample_queries(rng, brute_entries(ref.ranks, k), k, ref.n, 20)
        assert lower_bound_batch(ix, *words(keys)).tolist() == expected

    def test_batch_matches_scalar_on_clean_keys(self):
        rng = np.random.default_rng(77)
        ref = random_reference(rng, 120)
        sa = build_suffix_array(ref)
        ix = build_ipbwt(pack_bases(ref.ranks), sa, k=4)
        entries = brute_entries(ref.ranks, 4)
        kmers = rng.integers(1, 5, size=(60, 4)).tolist()
        locs = rng.integers(0, ref.n + 1, size=60).tolist()
        got = lower_bound_batch(ix, *words([packed(c, b + 4) for c, b in zip(kmers, locs)]))
        assert got.tolist() == [brute_lower_bound(entries, c, b) for c, b in zip(kmers, locs)]
