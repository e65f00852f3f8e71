import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnasearch.seqcore import (
    RANK_TO_CHAR,
    EmptyInputError,
    InvalidCharacterError,
    Reference,
    SequenceError,
    encode_ranks,
    generate_query_matrix,
    load_fasta,
    parse_queries,
    write_fasta,
)

bases_st = st.text(alphabet="ACGT", min_size=1, max_size=200)


class TestEncoding:
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
        assert "".join(RANK_TO_CHAR[r] for r in encode_ranks(text)) == text


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
        ranks, lengths = parse_queries(b"ACGT\nACNT\n\nTTTT\n")
        assert ranks.dtype == np.uint8 and lengths.dtype == np.int64
        assert lengths.tolist() == [4, 4, 4]
        # the blank line is skipped; N is marked 255 and the line kept
        assert ranks.tolist() == [1, 2, 3, 4, 1, 2, 255, 4, 4, 4, 4, 4]

    def test_parse_strips_lines_and_marks_other_bytes(self):
        data = b" acGt\r\n\t\r\n  \nAC\xe9\tx\nTT"
        ranks, lengths = parse_queries(data)
        # surrounding whitespace and CR go, inner bytes stay; no final newline needed
        assert lengths.tolist() == [4, 5, 2]
        assert ranks.tolist() == [1, 2, 3, 4, 1, 2, 255, 255, 255, 4, 4]
        again, again_lengths = parse_queries(io.BytesIO(data))
        assert again_lengths.tolist() == lengths.tolist()
        assert again.tolist() == ranks.tolist()

    def test_parse_empty_file(self):
        for data in (b"", b"\n\r\n \t\n"):
            ranks, lengths = parse_queries(data)
            assert ranks.size == 0 and lengths.size == 0

    def test_generate_deterministic(self):
        # the same seed gives the same rows, another seed other rows
        ref = load_fasta(b">r\n" + b"ACGTTGCAAC" * 50 + b"\n")
        a = generate_query_matrix(ref, length=5, count=20, seed=3)
        assert np.array_equal(a, generate_query_matrix(ref, length=5, count=20, seed=3))
        assert not np.array_equal(a, generate_query_matrix(ref, length=5, count=20, seed=4))

    def test_generate_queries_are_substrings(self):
        ref = load_fasta(b">r\n" + b"ACGTTGCA" * 20 + b"\n")
        qm = generate_query_matrix(ref, length=6, count=30, seed=1)
        assert qm.shape == (30, 6) and qm.dtype == np.uint8
        text = ref.bases()
        for row in qm:
            assert "".join(RANK_TO_CHAR[r] for r in row) in text

    def test_seeded_workload_is_deterministic(self):
        ref = load_fasta(b">r\n" + b"TTGACCAGT" * 40 + b"\n")
        a = generate_query_matrix(ref, length=9, count=50, seed=5)
        b = generate_query_matrix(ref, length=9, count=50, seed=5)
        assert np.array_equal(a, b)

    def test_generate_length_out_of_range(self):
        ref = load_fasta(b">r\nACGT\n")
        with pytest.raises(SequenceError):
            generate_query_matrix(ref, length=5, count=1, seed=0)
        with pytest.raises(SequenceError):
            generate_query_matrix(ref, length=0, count=1, seed=0)
