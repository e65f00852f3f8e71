"""Command-line front end: build indexes and run query batches.

``query`` parses the query file into one rank array (:func:`parse_queries`)
and searches it with one :func:`batch_search` call. Every mode takes lines
of any lengths from any index and prints the same rows. With ``--locate``,
one :func:`dnasearch.fmindex.locate` call gives every line's positions.
The TSV is written by numpy alone, a block of fields at a time
(:func:`_write_tsv`); no Python code runs per line or per position.

Exit codes: 2 I/O or corrupt index, 3 invalid FASTA, 4 bad parameters.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from dnasearch import index_io
from dnasearch.fmindex import locate as fm_locate
from dnasearch.search import MODES, SearchEngine, batch_search, build_engine
from dnasearch.seqcore import SequenceError, load_fasta, parse_queries

EXIT_IO = 2
EXIT_FASTA = 3
EXIT_PARAMS = 4


def _space_report(engine: SearchEngine, sizes: dict[str, int]) -> list[str]:
    n = engine.fm.n
    k = engine.k
    ipbwt_expected = (0.25 * k + 4) * n
    total_expected = 4 * n + ipbwt_expected  # suffix array + IP-BWT model
    lines = [
        f"n={n}",
        f"k={k}",
        f"sa_bytes={sizes['sa']}",
        f"ipbwt_bytes={sizes['ipbwt']}",
        f"rmi_bytes={sizes['rmi']}",
        f"total_bytes={sizes['total']}",
        f"ipbwt_expected_bytes={ipbwt_expected:.0f}",
        f"ipbwt_ratio_vs_expected={sizes['ipbwt'] / ipbwt_expected:.3f}",
        f"total_expected_bytes={total_expected:.0f}",
        f"total_per_n={sizes['total'] / n:.2f}",
    ]
    eps = engine.rmi.leaf.max_errors  # each leaf's maximum error bounds its search window
    p50, p99 = np.percentile(eps, [50, 99], method="inverted_cdf").astype(int)
    return lines + [f"rmi_leaf_models={eps.size}", f"rmi_leaf_err_p50={p50}",
                    f"rmi_leaf_err_p99={p99}", f"rmi_leaf_err_max={int(eps.max())}"]


def cmd_build(args) -> int:
    try:
        with open(args.fasta, "rb") as fh:
            ref = load_fasta(fh)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SequenceError as exc:
        print(f"error: invalid FASTA: {exc}", file=sys.stderr)
        return EXIT_FASTA
    try:
        engine = build_engine(ref, k=args.k, alpha_leaf=args.alpha_leaf)
    except ValueError as exc:  # a K or alpha_leaf out of range, checked before the suffix sort
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    try:
        sizes = index_io.save_index(args.out, engine)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    for line in _space_report(engine, sizes):
        print(line)
    return 0


# the bytes after a field's digits, indexed by the field's suffix code
_SUFFIXES = (b"\t", b",", b"\n", b"\t\n", b"\tINVALID\n")
_TAB, _COMMA, _NEWLINE, _TAB_NEWLINE, _INVALID = range(len(_SUFFIXES))
_SUFFIX_LEN = np.array([len(s) for s in _SUFFIXES], dtype=np.int64)
_SUFFIX_BYTES = np.array([list(s.ljust(_SUFFIX_LEN.max(), b"\0")) for s in _SUFFIXES],
                         dtype=np.uint8)
_POW10 = [10**i for i in range(20)]  # a uint64 has at most 20 decimal digits
_PAD = len(_POW10)  # bytes before the first field, room for its leading-zero writes
# fields per encoded block: the bytes and their temporaries stay small (and
# in cache) however long the query file or one line's list of positions
_BLOCK = 1 << 14


def _block_fields(f0: int, f1: int, first, hit_start, low, high, valid, count,
                  positions) -> tuple[np.ndarray, np.ndarray]:
    """TSV fields f0..f1 - 1 of the whole output, as (values, suffix codes).

    A valid line is its qid, low, high and count (its head), then, unless
    ``positions`` is None, its hits; an invalid line is its qid alone.
    ``first`` holds each line's first field, ``hit_start`` the index of its
    first hit in ``positions`` (the valid lines' positions, in line order).
    Only the lines that reach into the block are read, from the line that
    holds field f0 on.
    """
    l0 = int(np.searchsorted(first, f0, side="right")) - 1  # the line holding field f0
    l1 = int(np.searchsorted(first, f1))  # the lines that start before f1
    size = f1 - f0
    values = np.empty(size, dtype=np.int64)
    codes = np.full(size, _COMMA, dtype=np.uint8)
    v, hits = valid[l0:l1], count[l0:l1]
    head = (first[l0:l1] - f0)[:, None] + np.arange(4)  # block offsets of each line's head
    head_values = np.stack([np.arange(l0, l1), low[l0:l1], high[l0:l1], hits], axis=1)
    head_codes = np.full(head.shape, _TAB, dtype=np.uint8)
    head_codes[~v, 0] = _INVALID
    head_codes[:, 3] = _NEWLINE if positions is None else np.where(hits > 0, _TAB, _TAB_NEWLINE)
    keep = (head >= 0) & (head < size) & (v[:, None] | (np.arange(4) == 0))
    at = head[keep]
    values[at] = head_values[keep]
    codes[at] = head_codes[keep]
    if positions is None:
        return values, codes
    # the other fields are consecutive positions, from line l0's first hit at or after f0
    is_hit = np.ones(size, dtype=bool)
    is_hit[at] = False
    p0 = int(hit_start[l0]) + max(0, f0 - int(first[l0]) - 4)
    values[is_hit] = positions[p0 : p0 + size - at.size]
    last = head[:, 3] + hits  # each line's last position
    codes[last[(hits > 0) & (last >= 0) & (last < size)]] = _NEWLINE
    return values, codes


def _encode(values: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """The decimal digits of each value (>= 0), then its suffix, as uint8 bytes.

    Values below 2^32 are divided as uint32, larger ones as uint64, so none
    wraps. One pass per decimal place, the highest first, writes every
    value's digit at that place. A value with fewer digits writes a 0 left
    of its field there: on bytes that a later pass or the suffixes
    overwrite, or in the pad before the first field.
    """
    vmax = int(values.max())
    uint = np.uint32 if vmax <= 0xFFFFFFFF else np.uint64
    v = values.astype(uint)
    places = len(str(vmax))
    ndig = np.ones(v.size, dtype=np.int64)
    for p in _POW10[1:places]:
        ndig += v >= uint(p)
    slen = _SUFFIX_LEN[codes]
    end = np.cumsum(ndig + slen)
    sfx = end - slen  # each suffix's first byte, one past the field's last digit
    buf = np.empty(_PAD + int(end[-1]), dtype=np.uint8)
    above = np.zeros_like(v)
    for d in range(places - 1, -1, -1):
        q = v // uint(_POW10[d])
        buf[_PAD - 1 - d :][sfx] = (q - above * uint(10)).astype(np.uint8) + np.uint8(48)
        above = q
    out = buf[_PAD:]
    out[sfx] = _SUFFIX_BYTES[codes, 0]
    longer = np.flatnonzero(slen > 1)
    for j in range(1, int(slen.max())):
        longer = longer[slen[longer] > j]
        out[sfx[longer] + j] = _SUFFIX_BYTES[codes[longer], j]
    return out


def _write_tsv(write, low, high, valid, positions=None) -> None:
    """Pass the TSV of the search results to ``write`` as uint8 arrays, a block at a time.

    A valid line's fields are its qid, low, high and high - low, and with
    ``positions`` its positions joined by commas (empty without hits); an
    invalid line's are its qid and ``INVALID``. Fields are tab-separated and
    every line ends with a newline.
    """
    count = np.where(valid, high - low, 0)
    nfield = np.where(valid, 4, 1)
    if positions is not None:
        nfield += count
    ends = np.cumsum(nfield)
    first, hit_start = ends - nfield, np.cumsum(count) - count
    total = int(ends[-1]) if ends.size else 0
    for f0 in range(0, total, _BLOCK):
        fields = _block_fields(f0, min(f0 + _BLOCK, total), first, hit_start, low, high, valid,
                               count, positions)
        write(_encode(*fields))


def cmd_query(args) -> int:
    try:
        engine, ref, meta = index_io.load_index(args.index)
        with open(args.queries, "rb") as fh:
            ranks, lengths = parse_queries(fh)
    except (OSError, index_io.CorruptIndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO

    low, high, valid = batch_search(engine, ranks, lengths, mode=args.mode)
    positions = fm_locate(engine.fm, low[valid], high[valid]) if args.locate else None
    if args.out:
        try:
            with open(args.out, "wb") as fh:
                _write_tsv(fh.write, low, high, valid, positions)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO
    else:
        _write_tsv(lambda buf: sys.stdout.write(buf.tobytes().decode("ascii")),
                   low, high, valid, positions)
    return 0


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="dnasearch",
                                description="Exact DNA search with a learned index")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build an index from FASTA")
    b.add_argument("fasta")
    b.add_argument("--out", required=True, help="output index path")
    b.add_argument("--k", type=int, default=21, help="chunk length (default 21)")
    b.add_argument("--alpha-leaf", type=float, default=6.0)
    b.set_defaults(func=cmd_build)

    q = sub.add_parser("query", help="search a query file against an index")
    q.add_argument("index")
    q.add_argument("queries")
    q.add_argument("--mode", choices=MODES, default="rmi")
    q.add_argument("--locate", action="store_true", help="emit reference positions")
    q.add_argument("--out", help="results file (default stdout)")
    q.set_defaults(func=cmd_query)

    return p


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
