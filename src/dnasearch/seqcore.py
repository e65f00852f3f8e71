"""DNA alphabet handling, FASTA and query-file reading, query generation.

Two code conventions coexist:

* *base codes*: A=0, C=1, G=2, T=3 -- the public 2-bit encoding.
* *ranks*: $=0, A=1, C=2, G=3, T=4 -- internal arrays where the sentinel
  must sort below every base. rank == base code + 1.

The reference (``Reference.ranks``) and parsed query files use ranks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

SENTINEL_RANK = 0
ALPHABET = "ACGT"

# byte-value -> rank lookup, either case; 255 marks invalid bytes
_BYTE_TO_RANK = np.full(256, 255, dtype=np.uint8)
for _i, _c in enumerate(ALPHABET):
    _BYTE_TO_RANK[ord(_c)] = _BYTE_TO_RANK[ord(_c.lower())] = _i + 1


class SequenceError(ValueError):
    """Base class for sequence ingestion errors."""


class InvalidCharacterError(SequenceError):
    def __init__(self, char: str, offset: int, line: int | None = None):
        self.char = char
        self.offset = offset
        self.line = line
        where = f"line {line}, column {offset + 1}" if line is not None else f"offset {offset}"
        super().__init__(f"invalid character {char!r} at {where} (expected one of ACGT)")


class EmptyInputError(SequenceError):
    pass


@dataclass(frozen=True)
class Reference:
    """Sentinel-terminated reference text.

    ``ranks`` has length ``n`` (sentinel included); ``ranks[n-1] == 0`` and
    every other position is a base rank in 1..4.
    """

    name: str
    ranks: np.ndarray

    def __post_init__(self):
        ranks = np.ascontiguousarray(self.ranks, dtype=np.uint8)
        object.__setattr__(self, "ranks", ranks)
        if ranks.size < 2:
            raise SequenceError("reference must contain at least one base")
        if ranks[-1] != SENTINEL_RANK:
            raise SequenceError("reference must end with the sentinel")
        body = ranks[:-1]
        if body.min() < 1 or body.max() > 4:
            raise SequenceError("reference body contains non-base ranks")

    @property
    def n(self) -> int:
        return int(self.ranks.size)


def encode_ranks(seq: str | bytes) -> np.ndarray:
    """Encode a base string to a rank array, rejecting anything outside ACGT."""
    if isinstance(seq, str):
        seq = seq.encode("ascii", errors="replace")
    raw = np.frombuffer(seq, dtype=np.uint8)
    ranks = np.take(_BYTE_TO_RANK, raw)  # half the time of _BYTE_TO_RANK[raw] on uint8 indices
    bad = np.flatnonzero(ranks == 255)
    if bad.size:
        off = int(bad[0])
        raise InvalidCharacterError(chr(raw[off]), off)
    return ranks


def _stripped_lines(stream: BinaryIO) -> list[bytes]:
    """The stream's lines (LF or CRLF), each stripped of surrounding whitespace."""
    return list(map(bytes.strip, stream.read().split(b"\n")))


def load_fasta(stream: BinaryIO) -> Reference:
    """Parse FASTA into a Reference.

    Multi-record inputs are concatenated in file order into one text; the
    name is taken from the first header. Lines (LF or CRLF) are stripped of
    surrounding whitespace and blank lines skipped. Characters outside ACGT
    (including N) are a hard error, reported at the line and column of the
    first one in the file.

    The stream is read once and its sequence lines joined, so the whole
    body is encoded by one :func:`encode_ranks` call.
    """
    lines = _stripped_lines(stream)
    first = next((i for i, line in enumerate(lines) if line), len(lines))  # first non-blank
    if first < len(lines) and lines[first][:1] != b">":
        raise SequenceError(f"line {first + 1}: sequence data before FASTA header")
    # header lines add no bases, so line i's bases end at offset ends[i] of the body
    seqs = [b"" if line[:1] == b">" else line for line in lines]
    body = b"".join(seqs)
    if not body:
        raise EmptyInputError("no FASTA sequence data found")
    try:
        ranks = encode_ranks(body)
    except InvalidCharacterError as exc:  # map the body offset back to its line and column
        ends = np.cumsum([len(seq) for seq in seqs])
        i = int(np.searchsorted(ends, exc.offset, side="right"))
        raise InvalidCharacterError(exc.char, exc.offset - int(ends[i]) + len(seqs[i]),
                                    i + 1) from None
    tokens = lines[first][1:].split()
    name = tokens[0].decode("ascii", errors="replace") if tokens else "reference"
    return Reference(name=name, ranks=np.append(ranks, np.uint8(SENTINEL_RANK)))


def parse_queries(stream: BinaryIO) -> tuple[np.ndarray, np.ndarray]:
    """One query per line (LF or CRLF), as (ranks, lengths).

    Each line is stripped of surrounding whitespace; blank lines are
    skipped. ``ranks`` (uint8) holds the lines back to back, with 255 for
    each byte outside ACGT/acgt, so one bad read never aborts the batch;
    ``lengths`` (int64) holds each line's length.
    """
    lines = [line for line in _stripped_lines(stream) if line]
    lengths = np.fromiter(map(len, lines), dtype=np.int64, count=len(lines))
    return _BYTE_TO_RANK[np.frombuffer(b"".join(lines), dtype=np.uint8)], lengths

