"""DNA alphabet handling, FASTA and query-file reading, query generation.

Two code conventions coexist:

* *base codes*: A=0, C=1, G=2, T=3 -- the public 2-bit encoding.
* *ranks*: $=0, A=1, C=2, G=3, T=4 -- internal arrays where the sentinel
  must sort below every base. rank == base code + 1.

The reference (``Reference.ranks``) and parsed query files use ranks.
"""

from __future__ import annotations

import io
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


def encode_ranks(seq: str | bytes, line: int | None = None) -> np.ndarray:
    """Encode a base string to a rank array, rejecting anything outside ACGT."""
    if isinstance(seq, str):
        seq = seq.encode("ascii", errors="replace")
    raw = np.frombuffer(seq, dtype=np.uint8)
    ranks = _BYTE_TO_RANK[raw]
    bad = np.flatnonzero(ranks == 255)
    if bad.size:
        off = int(bad[0])
        raise InvalidCharacterError(chr(raw[off]), off, line)
    return ranks


def _as_stream(source: bytes | BinaryIO) -> BinaryIO:
    return io.BytesIO(source) if isinstance(source, bytes) else source


def load_fasta(source: bytes | BinaryIO) -> Reference:
    """Parse FASTA into a Reference.

    Multi-record inputs are concatenated in file order into one text; the
    name is taken from the first header. Characters outside ACGT (including
    N) are a hard error.
    """
    stream = _as_stream(source)
    name = None
    chunks: list[np.ndarray] = []
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(b">"):
            if name is None:
                tokens = line[1:].split()
                name = tokens[0].decode("ascii", errors="replace") if tokens else "reference"
            continue
        if name is None:
            raise SequenceError(f"line {lineno}: sequence data before FASTA header")
        chunks.append(encode_ranks(bytes(line), line=lineno))
    if name is None or not chunks:
        raise EmptyInputError("no FASTA sequence data found")
    body = np.concatenate(chunks)
    ranks = np.empty(body.size + 1, dtype=np.uint8)
    ranks[:-1] = body
    ranks[-1] = SENTINEL_RANK
    return Reference(name=name, ranks=ranks)


def parse_queries(source: bytes | BinaryIO) -> tuple[np.ndarray, np.ndarray]:
    """One query per line (LF or CRLF), as (ranks, lengths).

    Each line is stripped of surrounding whitespace; blank lines are
    skipped. ``ranks`` (uint8) holds the lines back to back, with 255 for
    each byte outside ACGT/acgt, so one bad read never aborts the batch;
    ``lengths`` (int64) holds each line's length.
    """
    raw_lines = _as_stream(source).read().split(b"\n")
    lines = [line for line in map(bytes.strip, raw_lines) if line]
    lengths = np.fromiter(map(len, lines), dtype=np.int64, count=len(lines))
    return _BYTE_TO_RANK[np.frombuffer(b"".join(lines), dtype=np.uint8)], lengths


def generate_query_matrix(ref: Reference, length: int, count: int, seed: int) -> np.ndarray:
    """Sample ``count`` substrings of the reference (sentinel excluded) as a rank matrix.

    Start positions are uniform over [0, n-1-length]; the result has shape
    ``(count, length)`` and dtype uint8, and is deterministic for a fixed seed.
    """
    if not 1 <= length <= ref.n - 1:
        raise SequenceError(
            f"query length {length} out of range for reference of {ref.n - 1} bases"
        )
    rng = np.random.default_rng(seed)
    starts = rng.integers(0, ref.n - length, size=count)
    return ref.ranks[starts[:, None] + np.arange(length)]
