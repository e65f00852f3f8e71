import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnasearch.seqcore import (
    EmptyInputError,
    InvalidCharacterError,
    Query,
    Reference,
    SequenceError,
    decode_base,
    encode_base,
    encode_ranks,
    generate_queries,
    generate_query_matrix,
    load_fasta,
    parse_queries,
    ranks_to_text,
    write_fasta,
)

bases_st = st.text(alphabet="ACGT", min_size=1, max_size=200)


class TestEncoding:
    def test_base_codes(self):
        assert [encode_base(c) for c in "ACGT"] == [0, 1, 2, 3]

    def test_decode_round_trip(self):
        for c in "ACGT":
            assert decode_base(encode_base(c)) == c

    def test_ranks_are_codes_plus_one(self):
        ranks = encode_ranks("ACGT")
        assert ranks.tolist() == [1, 2, 3, 4]

    def test_invalid_character_reports_position(self):
        with pytest.raises(InvalidCharacterError) as exc:
            encode_ranks("ACGNA", line=7)
        assert "N" in str(exc.value)
        assert exc.value.offset == 3
        assert exc.value.line == 7

    def test_lowercase_accepted(self):
        assert encode_ranks("acgt").tolist() == [1, 2, 3, 4]

    @given(bases_st)
    @settings(max_examples=50, deadline=None)
    def test_text_round_trip(self, text):
        assert ranks_to_text(encode_ranks(text)) == text


class TestReference:
    def test_sentinel_required_last(self):
        with pytest.raises(SequenceError):
            Reference("x", np.array([1, 2, 3], dtype=np.uint8))

    def test_sentinel_unique(self):
        with pytest.raises(SequenceError):
            Reference("x", np.array([0, 1, 0], dtype=np.uint8))

    def test_n_counts_sentinel(self):
        ref = Reference("x", np.array([1, 2, 0], dtype=np.uint8))
        assert ref.n == 3
        assert ref.bases() == "AC"


class TestFasta:
    def test_single_record(self):
        ref = load_fasta(b">chr1 description\nACGT\nACGT\n")
        assert ref.name == "chr1"
        assert ref.bases() == "ACGTACGT"
        assert ref.ranks[-1] == 0

    def test_multi_record_concatenated(self):
        ref = load_fasta(b">a\nAC\n>b\nGT\n")
        assert ref.name == "a"
        assert ref.bases() == "ACGT"

    def test_invalid_base_is_hard_error(self):
        with pytest.raises(InvalidCharacterError):
            load_fasta(b">a\nACNGT\n")

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            load_fasta(b"")

    def test_header_only(self):
        with pytest.raises(EmptyInputError):
            load_fasta(b">a\n")

    def test_stream_input(self):
        ref = load_fasta(io.BytesIO(b">s\nGATTACA\n"))
        assert ref.bases() == "GATTACA"

    @given(bases_st)
    @settings(max_examples=50, deadline=None)
    def test_write_read_round_trip(self, text):
        ranks = np.append(encode_ranks(text), 0).astype(np.uint8)
        ref = Reference("roundtrip", ranks)
        again = load_fasta(write_fasta(ref))
        assert again.bases() == text
        assert again.name == "roundtrip"


class TestQueries:
    def test_parse_valid_and_invalid_lines(self):
        qs = parse_queries(b"ACGT\nACNT\n\nTTTT\n")
        assert [q.qid for q in qs] == [0, 1, 2]
        assert qs[0].valid and qs[0].text() == "ACGT"
        assert not qs[1].valid and qs[1].error is not None
        assert qs[2].text() == "TTTT"

    def test_parse_empty_file(self):
        assert parse_queries(b"") == []

    def test_generate_deterministic(self):
        ref = load_fasta(b">r\n" + b"ACGT" * 50 + b"\n")
        a = generate_queries(ref, length=5, count=20, seed=3)
        b = generate_queries(ref, length=5, count=20, seed=3)
        assert all(np.array_equal(x.ranks, y.ranks) for x, y in zip(a, b))

    def test_generate_queries_are_substrings(self):
        ref = load_fasta(b">r\n" + b"ACGTTGCA" * 20 + b"\n")
        for q in generate_queries(ref, length=6, count=30, seed=1):
            assert q.text() in ref.bases()

    def test_matrix_matches_query_list(self):
        ref = load_fasta(b">r\n" + b"GATTACA" * 30 + b"\n")
        qs = generate_queries(ref, length=7, count=25, seed=11)
        qm = generate_query_matrix(ref, length=7, count=25, seed=11)
        assert qm.shape == (25, 7)
        for i, q in enumerate(qs):
            assert np.array_equal(qm[i], q.ranks)

    def test_seeded_workload_is_deterministic(self):
        ref = load_fasta(b">r\n" + b"TTGACCAGT" * 40 + b"\n")
        a = generate_query_matrix(ref, length=9, count=50, seed=5)
        b = generate_query_matrix(ref, length=9, count=50, seed=5)
        assert np.array_equal(a, b)

    def test_generate_length_out_of_range(self):
        ref = load_fasta(b">r\nACGT\n")
        with pytest.raises(SequenceError):
            generate_queries(ref, length=5, count=1, seed=0)

    def test_query_len_and_valid(self):
        q = Query(qid=0, ranks=encode_ranks("ACG"))
        assert len(q) == 3 and q.valid
        bad = Query(qid=1, ranks=None, error="bad char")
        assert len(bad) == 0 and not bad.valid
