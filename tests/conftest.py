"""Shared fixtures and brute-force oracles for the test suite."""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from dnasearch.index_io import _HEADER
from dnasearch.ipbwt import MAX_K
from dnasearch.rmi import audit_errors, key_errors
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


def crowded_bucket_reference() -> Reference:
    """520 bases where, at K = 21 and alpha_leaf 0.5, one radix bucket holds many leaves.

    Twice six copies of a random 30-base unit and a 60-base poly-A run, then
    40 random bases. The rows that start with eight A's share the top 16
    bits of their top words, and their k-mers, A's and then the unit, fit
    no line, so their bucket holds 15 leaf boundaries.
    """
    rng = np.random.default_rng(16)
    unit = "".join(RANK_TO_CHAR[r] for r in rng.integers(1, 5, size=30))
    tail = "".join(RANK_TO_CHAR[r] for r in rng.integers(1, 5, size=40))
    return make_reference((unit * 6 + "A" * 60) * 2 + tail, name="crowded")


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
    """Integer keys as (k-mer, loc) column arrays: uint64 codes and uint32 loc fields."""
    hi = np.array([key >> 32 for key in keys], dtype=np.uint64)
    lo = np.array([key & 0xFFFFFFFF for key in keys], dtype=np.uint32)
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


def audit_leaves(engine) -> dict[str, np.ndarray]:
    """Criterion 4's audit of an engine's leaf models, recomputed from its keys.

    ``mean``: each leaf's mean error, which ``alpha_leaf`` bounds; ``max``:
    each leaf's maximum error; ``wrong_max``: the leaves whose stored maximum
    error, which sizes their search windows, is not ``max``; ``negative``:
    the leaves whose slope is below 0.
    """
    rmi, ix = engine.rmi, engine.ipbwt
    leaf = rmi.leaf
    max_errors = np.maximum.reduceat(key_errors(leaf, ix.key_hi, ix.key_lo), leaf.starts)
    return {
        "mean": np.array([err for _, _, err in audit_errors(rmi, ix)]),
        "max": max_errors,
        "wrong_max": np.flatnonzero(leaf.max_errors != max_errors),
        "negative": np.flatnonzero(leaf.slopes < 0),
    }


SECTIONS = ("sa", "text", "rmi")


def index_sections(data) -> dict[str, tuple[int, int]]:
    """Byte range [start, end) of each section of a saved index; its CRC-32 follows at end.

    The header's range starts at the magic. The model section's size comes
    from its leaf count, so bytes appended after the last checksum belong
    to no section.
    """
    _, _, n, _ = _HEADER.unpack_from(data, 4)
    pos = 0
    out = {}
    for name, size in (("header", 4 + _HEADER.size), ("sa", 4 * n), ("text", (n + 2) // 4),
                       ("rmi", None)):
        if size is None:
            size = 8 + 32 * int.from_bytes(data[pos : pos + 8], "little")
        out[name] = (pos, pos + size)
        pos += size + 4
    return out


def rewrite_crc(data: bytearray, section: str) -> None:
    """Make the checksum after ``section`` of a saved index match its bytes again."""
    start, end = index_sections(data)[section]
    data[end : end + 4] = zlib.crc32(data[start:end]).to_bytes(4, "little")


def leaf_arrays(data) -> dict[str, np.ndarray]:
    """Writable views of the leaf model arrays inside a saved index's bytearray."""
    start, _ = index_sections(data)["rmi"]
    count = int.from_bytes(data[start : start + 8], "little")
    fields = (("slopes", "<f8"), ("intercepts", "<f8"), ("max_errors", "<u8"), ("starts", "<u8"))
    return {name: np.frombuffer(data, dtype, count, start + 8 + 8 * count * i)
            for i, (name, dtype) in enumerate(fields)}


# defects that keep every checksum valid, each with the words of the
# load_index structure check that must refuse it
STRUCTURE_DAMAGE = {
    "starts_swapped": "leaf starts",
    "slopes_negated": "slopes",
    "slope_inf": "slopes",
    "intercept_nan": "intercepts",
    "error_over_n": "maximum errors",
    "rows_reordered": "keys out of order",
    "text_padding_set": "padding",
    "trailing_bytes": "trailing bytes",
    "alpha_nan": "alpha_leaf",
}


def damage_index(path, how: str) -> None:
    """Rewrite a saved index file with one defect.

    ``flip_<section>``: one bit flipped inside the section, its checksum
    left as it was. ``header_k``: the header's K is one less, its checksum
    left as it was. The other kinds rewrite the damaged section's checksum
    to match, so that only a version or structure check can see them:

    * ``version_<d>``: the header says version d;
    * ``k_out_of_range``: the header's K is MAX_K + 1;
    * ``alpha_nan``: the header's alpha_leaf is NaN;
    * ``sa_out_of_range``, ``sa_duplicate``: one flipped suffix-array byte
      makes a value out of [0, n) or equal to another row's;
    * ``sa_rows_swapped``: suffix-array rows 0 and 1 trade places, so the
      array is still a permutation but row 0 is not the sentinel's;
    * ``sa_rows_permuted``: suffix-array rows 1 and n - 1 trade places, so
      the array is still a permutation with the sentinel's row 0;
    * ``rows_reordered``: suffix-array rows n // 2 and n // 2 + 1 trade
      places, so the keys of two neighbouring rows decrease;
    * ``text_padding_set``: the last bit of the packed text, padding when
      n - 1 is not a multiple of 4, is set;
    * ``starts_swapped``: leaf starts 1 and 2 trade places;
    * ``slopes_negated``: every slope changes sign (some are > 0);
    * ``slope_inf``, ``intercept_nan``: leaf 0's slope is +inf, its
      intercept NaN;
    * ``error_over_n``: leaf 0's maximum error is n + 1;
    * ``error_raised``: the middle leaf's maximum error is one too large,
      which loads but fails the audit.

    ``trailing_bytes`` appends four bytes after the last checksum.
    """
    data = bytearray(path.read_bytes())
    sections = index_sections(data)
    section = "rmi"
    if how.startswith("flip_"):
        start, end = sections[how[len("flip_"):]]
        data[(start + end) // 2] ^= 0x10
    elif how == "header_k":
        data[6:8] = (int.from_bytes(data[6:8], "little") - 1).to_bytes(2, "little")
    elif how == "trailing_bytes":
        data += b"junk"
    else:
        if how.startswith("version_") or how in ("k_out_of_range", "alpha_nan"):
            section = "header"
            if how == "alpha_nan":
                _HEADER.pack_into(data, 4, *_HEADER.unpack_from(data, 4)[:-1], np.nan)
            elif how == "k_out_of_range":
                data[6:8] = (MAX_K + 1).to_bytes(2, "little")
            else:
                data[4:6] = int(how[len("version_"):]).to_bytes(2, "little")
        elif how.startswith("sa_") or how == "rows_reordered":
            section = "sa"
            sa_start = sections["sa"][0]
            if how == "sa_out_of_range":
                data[sa_start + 3] ^= 0xFF  # top byte of sa[0]
            elif how in ("sa_rows_swapped", "sa_rows_permuted", "rows_reordered"):
                sa = np.frombuffer(data, "<u4", (sections["sa"][1] - sa_start) // 4, sa_start)
                rows = {"sa_rows_swapped": [0, 1], "sa_rows_permuted": [1, sa.size - 1],
                        "rows_reordered": [sa.size // 2, sa.size // 2 + 1]}[how]
                sa[rows] = sa[rows[::-1]]
            else:
                sa = np.frombuffer(bytes(data[sa_start : sa_start + 32]), dtype="<u4")
                i = int(np.flatnonzero(sa >= 2)[0])  # sa[i] ^ 1 < n is held by another row
                data[sa_start + 4 * i] ^= 0x01
        elif how == "text_padding_set":
            section = "text"
            assert (_HEADER.unpack_from(data, 4)[2] - 1) % 4, "n - 1 is a multiple of 4: no padding"
            data[sections["text"][1] - 1] |= 0x01
        else:
            leaf = leaf_arrays(data)
            if how == "starts_swapped":
                leaf["starts"][[1, 2]] = leaf["starts"][[2, 1]]
            elif how == "slopes_negated":
                assert np.any(leaf["slopes"] > 0)
                leaf["slopes"] *= -1
            elif how == "slope_inf":
                leaf["slopes"][0] = np.inf
            elif how == "intercept_nan":
                leaf["intercepts"][0] = np.nan
            elif how == "error_over_n":
                leaf["max_errors"][0] = _HEADER.unpack_from(data, 4)[2] + 1
            elif how == "error_raised":
                leaf["max_errors"][leaf["max_errors"].size // 2] += 1
            else:
                raise ValueError(how)
        rewrite_crc(data, section)
    path.write_bytes(bytes(data))


@pytest.fixture(scope="session")
def medium_engine():
    """Engine over a seeded random 10^6-base reference, K=21 (shared, slow to build)."""
    rng = np.random.default_rng(20240601)
    ref = random_reference(rng, 1_000_000, name="medium")
    engine = build_engine(ref, k=21)
    return engine, ref
