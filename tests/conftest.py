"""Shared fixtures and brute-force oracles for the test suite."""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from dnasearch.fmindex import NUM_RANKS, OCC_STRIDE
from dnasearch.index_io import _HEADER
from dnasearch.seqcore import Reference, encode_ranks
from dnasearch.search import build_engine

RANK_TO_CHAR = "$ACGT"


def make_reference(bases: str, name: str = "test") -> Reference:
    """Reference from an ACGT string (sentinel appended)."""
    ranks = np.append(encode_ranks(bases), 0).astype(np.uint8)
    return Reference(name, ranks)


def random_reference(rng: np.random.Generator, n_bases: int, name: str = "rand") -> Reference:
    ranks = np.append(rng.integers(1, 5, size=n_bases).astype(np.uint8), 0)
    return Reference(name, ranks.astype(np.uint8))


def repetitive_reference(rng: np.random.Generator, max_bases: int = 40) -> Reference:
    """A short text where rows next to the sentinel tie on their packed k-mer.

    One of: random bases ending in an A-run, a homopolymer, or a short
    tandem repeat (possibly cut inside its last copy).
    """
    kind = int(rng.integers(3))
    if kind == 0:
        head = rng.integers(1, 5, size=int(rng.integers(1, max_bases // 2)))
        body = np.concatenate([head, np.ones(int(rng.integers(1, max_bases // 2)), dtype=np.int64)])
    elif kind == 1:
        body = np.full(int(rng.integers(2, max_bases)), int(rng.integers(1, 5)))
    else:
        unit = rng.integers(1, 5, size=int(rng.integers(1, 4)))
        body = np.resize(unit, int(rng.integers(2, max_bases)))
    return Reference("repetitive", np.append(body, 0).astype(np.uint8))


def rotation_rows(ranks) -> list[int]:
    """Row order of the sorted-rotation matrix: rows[r] = start of rank-r rotation."""
    seq = list(ranks)
    n = len(seq)
    return sorted(range(n), key=lambda i: seq[i:] + seq[:i])


def naive_interval(ranks, query) -> tuple[int, int]:
    """Lower/upper bound of a query prefix over sorted rotations (brute force)."""
    seq = list(ranks)
    n = len(seq)
    q = list(query)
    rows = rotation_rows(seq)
    lo = hi = 0
    for start in rows:
        prefix = [seq[(start + j) % n] for j in range(len(q))]
        if prefix < q:
            lo += 1
        if prefix <= q:
            hi += 1
    return lo, hi


def naive_positions(ranks, query) -> set[int]:
    """All start positions of the query in the reference (sentinel excluded)."""
    seq = list(ranks)
    q = list(query)
    if not q:
        return set(range(len(seq)))
    return {
        i
        for i in range(len(seq) - len(q) + 1)
        if seq[i : i + len(q)] == q
    }


def brute_entries(ranks, k):
    """(k-mer ranks, loc) pairs in row order, from the sorted-rotation matrix."""
    seq = list(ranks)
    n = len(seq)
    rows = rotation_rows(seq)
    rank_of = {start: r for r, start in enumerate(rows)}
    out = []
    for start in rows:
        kmer = [seq[(start + j) % n] for j in range(k)]
        out.append((kmer, rank_of[(start + k) % n]))
    return out


def brute_lower_bound(entries, kmer, loc):
    key = (list(kmer), loc)
    return sum(
        1
        for e in entries
        if (e[0], e[1]) < key
    )


def packed(kmer_ranks, loc_field):
    """A key as one integer: 2-bit codes (sentinel as 0) above a 32-bit loc field."""
    bits = 0
    for r in kmer_ranks:
        bits = (bits << 2) | max(int(r) - 1, 0)
    return (bits << 32) | loc_field


def expected_key(kmer, loc, k):
    """Packed key of a brute-force entry: cut at the sentinel, loc field j < k."""
    if 0 in kmer:
        j = kmer.index(0)
        return packed(kmer[:j] + [1] * (k - j), j)
    return packed(kmer, loc + k)


def words(keys):
    """Integer keys as (hi, lo) uint64 word arrays."""
    hi = np.array([key >> 64 for key in keys], dtype=np.uint64)
    lo = np.array([key & (2**64 - 1) for key in keys], dtype=np.uint64)
    return hi, lo


def sample_queries(rng, entries, k, n, count):
    """Query keys of both shapes with their brute-force lower bounds.

    Sentinel-free chunks with any bound in [0, n], and short-chunk low
    bounds (chunk, sentinel, A-padding) with bound 0.
    """
    keys, expected = [], []
    for _ in range(count):
        if rng.random() < 0.5:
            kmer = rng.integers(1, 5, size=k).tolist()
            b = int(rng.integers(0, n + 1))
            keys.append(packed(kmer, b + k))
            expected.append(brute_lower_bound(entries, kmer, b))
        else:
            short = int(rng.integers(0, k))
            chunk = rng.integers(1, 5, size=short).tolist()
            keys.append(packed(chunk + [1] * (k - short), short))
            expected.append(brute_lower_bound(entries, chunk + [0] + [1] * (k - short - 1), 0))
    return keys, expected


SECTIONS = ("sa", "bwt_occ", "ipbwt", "rmi")


def index_sections(data) -> dict[str, tuple[int, int]]:
    """Byte range [start, end) of each section of a saved index; its CRC-32 follows at end."""
    n = _HEADER.unpack_from(data, 4)[2]
    nblocks = -(-n // OCC_STRIDE)
    pos = 4 + _HEADER.size
    out = {}
    for name, size in (("sa", 4 * n), ("bwt_occ", n + 4 * NUM_RANKS * nblocks),
                       ("ipbwt", 16 * n), ("rmi", None)):
        if size is None:
            size = len(data) - pos - 4
        out[name] = (pos, pos + size)
        pos += size + 4
    return out


def damage_index(path, how: str) -> None:
    """Rewrite a saved index file with one defect.

    ``version_1``, ``version_2``, ``version_3``: the header says that version.
    ``flip_<section>``: one bit flipped inside the section, its checksum
    left as it was (in ``ipbwt``, bit 0 of the middle row's high key word).
    ``sa_out_of_range`` and ``sa_duplicate``: one flipped suffix-array byte
    makes a value out of [0, n) or equal to another row's, and the
    section's checksum is rewritten to match, so that only the
    permutation check can see it.
    """
    data = bytearray(path.read_bytes())
    sections = index_sections(data)
    sa_start, sa_end = sections["sa"]
    if how in ("version_1", "version_2", "version_3"):
        data[4:6] = int(how[-1]).to_bytes(2, "little")
    elif how.startswith("flip_"):
        start, end = sections[how[len("flip_"):]]
        if how == "flip_ipbwt":
            n = (end - start) // 16
            data[start + 8 * (n // 2)] ^= 0x01
        else:
            data[(start + end) // 2] ^= 0x10
    elif how in ("sa_out_of_range", "sa_duplicate"):
        if how == "sa_out_of_range":
            data[sa_start + 3] ^= 0xFF  # top byte of sa[0]
        else:
            sa = np.frombuffer(bytes(data[sa_start : sa_start + 32]), dtype="<u4")
            i = int(np.flatnonzero(sa >= 2)[0])  # sa[i] ^ 1 < n is held by another row
            data[sa_start + 4 * i] ^= 0x01
        data[sa_end : sa_end + 4] = zlib.crc32(data[sa_start:sa_end]).to_bytes(4, "little")
    else:
        raise ValueError(how)
    path.write_bytes(bytes(data))


@pytest.fixture(scope="session")
def medium_engine():
    """Engine over a seeded random 10^6-base reference, K=21 (shared, slow to build)."""
    rng = np.random.default_rng(20240601)
    ref = random_reference(rng, 1_000_000, name="medium")
    engine = build_engine(ref, k=21)
    return engine, ref
