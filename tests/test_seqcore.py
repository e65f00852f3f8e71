import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dnasearch.seqcore import (
    EmptyInputError,
    InvalidCharacterError,
    Reference,
    SequenceError,
    encode_ranks,
    load_fasta,
    parse_queries,
)

from conftest import RANK_TO_CHAR, generate_query_matrix, make_reference

bases_st = st.text(alphabet="ACGT", min_size=1, max_size=200)


class TestEncoding:
    def test_ranks_are_codes_plus_one(self):
        ranks = encode_ranks("ACGT")
        assert ranks.tolist() == [1, 2, 3, 4]

    def test_invalid_character_reports_position(self):
        with pytest.raises(InvalidCharacterError) as exc:
            encode_ranks("ACGNA")
        assert str(exc.value) == "invalid character 'N' at offset 3 (expected one of ACGT)"
        assert exc.value.offset == 3
        assert exc.value.line is None

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
        assert ref.ranks.tolist() == [1, 2, 0]


class TestFasta:
    def test_single_record(self):
        ref = load_fasta(io.BytesIO(b">chr1 description\nACGT\nACGT\n"))
        assert ref.name == "chr1"
        assert np.array_equal(ref.ranks, make_reference("ACGTACGT").ranks)

    def test_multi_record_concatenated(self):
        ref = load_fasta(io.BytesIO(b">a\nAC\n>b\nGT\n"))
        assert ref.name == "a"
        assert np.array_equal(ref.ranks, make_reference("ACGT").ranks)

    def test_invalid_base_is_hard_error(self):
        with pytest.raises(InvalidCharacterError):
            load_fasta(io.BytesIO(b">a\nACNGT\n"))

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            load_fasta(io.BytesIO(b""))

    def test_header_only(self):
        # headers, blank lines or both, and no base
        for data in (b">a\n", b">a\n>b\n\n", b"\n \r\n\t\n"):
            with pytest.raises(EmptyInputError):
                load_fasta(io.BytesIO(data))

    @pytest.mark.parametrize("data, char, line, offset", [
        # CRLF, each line padded with spaces: the column counts in the stripped line
        (b">chr1 x\r\n  ACGT \r\n\tGGCC\r\n  ACGXT  \r\nTT\r\n", "X", 4, 3),
        (b">a\nAC GT\n", " ", 2, 2),
        (b">a\nACGT\nAC\tGT\n", "\t", 3, 2),
        # the first byte of a line, after a blank line and a header
        (b">a\nACGT\n\n>b\nNACG\n", "N", 5, 0),
        # the first bad byte in file order, past an empty record
        (b">a\nACGT\n>b\n\n>c\nAC\xe9T\nACNT\n", "\xe9", 6, 2),
    ])
    def test_invalid_base_line_and_column(self, data, char, line, offset):
        with pytest.raises(InvalidCharacterError) as exc:
            load_fasta(io.BytesIO(data))
        assert (exc.value.char, exc.value.line, exc.value.offset) == (char, line, offset)
        assert str(exc.value) == (f"invalid character {char!r} at line {line}, "
                                  f"column {offset + 1} (expected one of ACGT)")

    @pytest.mark.parametrize("data, line", [(b"ACGT\n>a\nAC\n", 1), (b"\n \r\nACNT\n>a\nAC\n", 3)])
    def test_sequence_before_header(self, data, line):
        with pytest.raises(SequenceError) as exc:
            load_fasta(io.BytesIO(data))
        assert type(exc.value) is SequenceError  # reported before any base is checked
        assert str(exc.value) == f"line {line}: sequence data before FASTA header"

    def test_empty_record_and_lowercase(self):
        ref = load_fasta(io.BytesIO(b">a x\nacgt\n>b\n\n>c\r\nGgTt\r\n"))
        assert ref.name == "a"
        assert np.array_equal(ref.ranks, make_reference("ACGTGGTT").ranks)
        assert load_fasta(io.BytesIO(b">\nAC\n")).name == "reference"

    def test_stream_input(self):
        ref = load_fasta(io.BytesIO(b">s\nGATTACA\n"))
        assert np.array_equal(ref.ranks, make_reference("GATTACA").ranks)

    @given(bases_st, st.integers(1, 80))
    @settings(max_examples=50, deadline=None)
    def test_write_read_round_trip(self, text, width):
        # the text wrapped at any line width reads back as the same ranks
        lines = [">roundtrip"] + [text[i : i + width] for i in range(0, len(text), width)]
        again = load_fasta(io.BytesIO(("\n".join(lines) + "\n").encode("ascii")))
        assert np.array_equal(again.ranks, make_reference(text).ranks)
        assert again.name == "roundtrip"


class TestQueries:
    def test_parse_valid_and_invalid_lines(self):
        ranks, lengths = parse_queries(io.BytesIO(b"ACGT\nACNT\n\nTTTT\n"))
        assert ranks.dtype == np.uint8 and lengths.dtype == np.int64
        assert lengths.tolist() == [4, 4, 4]
        # the blank line is skipped; N is marked 255 and the line kept
        assert ranks.tolist() == [1, 2, 3, 4, 1, 2, 255, 4, 4, 4, 4, 4]

    def test_parse_strips_lines_and_marks_other_bytes(self):
        data = b" acGt\r\n\t\r\n  \nAC\xe9\tx\nTT"
        ranks, lengths = parse_queries(io.BytesIO(data))
        # surrounding whitespace and CR go, inner bytes stay; no final newline needed
        assert lengths.tolist() == [4, 5, 2]
        assert ranks.tolist() == [1, 2, 3, 4, 1, 2, 255, 255, 255, 4, 4]

    def test_parse_empty_file(self):
        for data in (b"", b"\n\r\n \t\n"):
            ranks, lengths = parse_queries(io.BytesIO(data))
            assert ranks.size == 0 and lengths.size == 0

    def test_generate_deterministic(self):
        # the same seed gives the same rows, another seed other rows
        ref = load_fasta(io.BytesIO(b">r\n" + b"ACGTTGCAAC" * 50 + b"\n"))
        a = generate_query_matrix(ref, length=5, count=20, seed=3)
        assert np.array_equal(a, generate_query_matrix(ref, length=5, count=20, seed=3))
        assert not np.array_equal(a, generate_query_matrix(ref, length=5, count=20, seed=4))

    def test_generate_queries_are_substrings(self):
        ref = load_fasta(io.BytesIO(b">r\n" + b"ACGTTGCA" * 20 + b"\n"))
        qm = generate_query_matrix(ref, length=6, count=30, seed=1)
        assert qm.shape == (30, 6) and qm.dtype == np.uint8
        text = "ACGTTGCA" * 20
        for row in qm:
            assert "".join(RANK_TO_CHAR[r] for r in row) in text

    def test_seeded_workload_is_deterministic(self):
        ref = load_fasta(io.BytesIO(b">r\n" + b"TTGACCAGT" * 40 + b"\n"))
        a = generate_query_matrix(ref, length=9, count=50, seed=5)
        b = generate_query_matrix(ref, length=9, count=50, seed=5)
        assert np.array_equal(a, b)

    def test_generate_length_out_of_range(self):
        ref = load_fasta(io.BytesIO(b">r\nACGT\n"))
        with pytest.raises(SequenceError):
            generate_query_matrix(ref, length=5, count=1, seed=0)
        with pytest.raises(SequenceError):
            generate_query_matrix(ref, length=0, count=1, seed=0)
