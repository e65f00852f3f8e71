"""Command-line front end: build indexes and run query batches.

``query`` parses the query file into one rank array (:func:`parse_queries`)
and searches it with one :func:`batch_search` call in every mode: ``fm``
takes lines of any lengths, ``rmi`` and ``binary`` one length per file.

Exit codes: 2 I/O or corrupt index, 3 invalid FASTA, 4 bad parameters,
5 mixed-length batch in a batched mode.
"""

from __future__ import annotations

import argparse
import sys

from dnasearch import index_io
from dnasearch.fmindex import locate as fm_locate
from dnasearch.ipbwt import IpBwtError
from dnasearch.search import (
    MODES,
    MixedLengthBatchError,
    ModeUnavailableError,
    SearchEngine,
    batch_search,
    build_engine,
)
from dnasearch.seqcore import SequenceError, load_fasta, parse_queries

EXIT_IO = 2
EXIT_FASTA = 3
EXIT_PARAMS = 4
EXIT_MIXED = 5


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
    model = engine.rmi
    if model is not None:
        lines += [
            f"rmi_leaf_models={len(model.leaf)}",
            f"rmi_leaf_err_max={int(model.leaf.max_errors.max())}",
        ]
    return lines


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
        engine = build_engine(ref, k=args.k, alpha_leaf=args.alpha_leaf, with_rmi=not args.no_rmi)
    except (IpBwtError, ValueError) as exc:
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


def _format_results(engine, low, high, valid, with_locate: bool) -> list[str]:
    lines = []
    for qid, (lo, hi, ok) in enumerate(zip(low.tolist(), high.tolist(), valid.tolist())):
        if not ok:
            lines.append(f"{qid}\tINVALID")
            continue
        row = f"{qid}\t{lo}\t{hi}\t{hi - lo}"
        if with_locate:
            row += "\t" + ",".join(map(str, fm_locate(engine.fm, lo, hi).tolist()))
        lines.append(row)
    return lines


def cmd_query(args) -> int:
    try:
        engine, ref, meta = index_io.load_index(args.index)
        with open(args.queries, "rb") as fh:
            ranks, lengths = parse_queries(fh)
    except (OSError, index_io.CorruptIndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO

    try:
        low, high, valid = batch_search(engine, ranks, lengths, mode=args.mode)
    except MixedLengthBatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MIXED
    except ModeUnavailableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMS

    lines = _format_results(engine, low, high, valid, args.locate)
    text = "\n".join(lines) + ("\n" if lines else "")
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO
    else:
        sys.stdout.write(text)
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
    b.add_argument("--no-rmi", action="store_true", help="skip the learned index")
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
    if getattr(args, "k", None) is not None and args.command == "build" and args.k < 1:
        print("error: --k must be >= 1", file=sys.stderr)
        return EXIT_PARAMS
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
