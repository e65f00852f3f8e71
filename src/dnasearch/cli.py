"""Command-line front end: build indexes, run query batches, benchmark modes.

Exit codes: 2 I/O or corrupt index, 3 invalid FASTA, 4 bad parameters,
5 mixed-length batch in a batched mode.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from dnasearch import index_io
from dnasearch.fmindex import locate as fm_locate
from dnasearch.ipbwt import IpBwtError
from dnasearch.search import (
    MODES,
    MixedLengthBatchError,
    ModeUnavailableError,
    SearchEngine,
    batch_search,
    batch_search_matrix,
    build_engine,
    exact_search,
)
from dnasearch.seqcore import (
    EmptyInputError,
    Query,
    Reference,
    SequenceError,
    generate_queries,
    generate_query_matrix,
    load_fasta,
    parse_queries,
)

EXIT_IO = 2
EXIT_FASTA = 3
EXIT_PARAMS = 4
EXIT_MIXED = 5


def _space_report(engine: SearchEngine, sizes: dict[str, int]) -> list[str]:
    n = engine.fm.n
    k = engine.k
    ipbwt_expected = (0.25 * k + 4) * n
    total_expected = (8.5 + 0.25 * k) * n
    lines = [
        f"n={n}",
        f"k={k}",
        f"sa_bytes={sizes['sa']}",
        f"bwt_occ_bytes={sizes['bwt_occ']}",
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
            f"rmi_layers={len(model.layers)}",
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
        engine = build_engine(ref, k=args.k, alpha_mid=args.alpha_mid,
                              alpha_leaf=args.alpha_leaf, with_rmi=not args.no_rmi)
    except (IpBwtError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMS
    try:
        sizes = index_io.save_index(args.out, engine, ref_name=ref.name)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    for line in _space_report(engine, sizes):
        print(line)
    return 0


def _format_results(results, engine, with_locate: bool, queries) -> list[str]:
    lines = []
    for q, iv in zip(queries, results):
        if iv is None:
            lines.append(f"{q.qid}\tINVALID")
            continue
        row = f"{q.qid}\t{iv.low}\t{iv.high}\t{len(iv)}"
        if with_locate:
            positions = sorted(fm_locate(engine.fm, iv))
            row += "\t" + ",".join(str(p) for p in positions)
        lines.append(row)
    return lines


def cmd_query(args) -> int:
    try:
        engine, ref, meta = index_io.load_index(args.index)
        with open(args.queries, "rb") as fh:
            queries = parse_queries(fh)
    except (OSError, index_io.CorruptIndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO

    try:
        if args.mode == "fm":
            lengths = {len(q) for q in queries if q.valid}
            if len(lengths) <= 1:
                results = batch_search(engine, queries, mode="fm")
            else:
                results = [
                    exact_search(engine, q, mode="fm") if q.valid else None
                    for q in queries
                ]
        else:
            results = batch_search(engine, queries, mode=args.mode)
    except MixedLengthBatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MIXED
    except ModeUnavailableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMS

    lines = _format_results(results, engine, args.locate, queries)
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


def run_bench(engine: SearchEngine, ref: Reference, lengths, batch_sizes, seed: int,
              modes) -> list[dict]:
    """Time each (length, batch size, mode) cell; query sets are seeded."""
    rows = []
    for length in lengths:
        for batch in batch_sizes:
            qmatrix = generate_query_matrix(ref, length=length, count=batch,
                                            seed=seed + length)
            cell = {}
            for mode in modes:
                engine.require_mode(mode)
                # warm-up pass so timings reflect steady-state search
                warm = qmatrix[: min(batch, 10_000)]
                batch_search_matrix(engine, warm, mode=mode)
                t0 = time.perf_counter()
                batch_search_matrix(engine, qmatrix, mode=mode)
                elapsed = time.perf_counter() - t0
                cell[mode] = elapsed
            for mode in modes:
                elapsed = cell[mode]
                per_query_ns = elapsed / batch * 1e9
                row = {
                    "length": length,
                    "batch": batch,
                    "mode": mode,
                    "seconds": elapsed,
                    "ns_per_query": per_query_ns,
                    "qps": batch / elapsed if elapsed > 0 else float("inf"),
                }
                if "fm" in cell and mode != "fm" and cell[mode] > 0:
                    row["speedup_vs_fm"] = cell["fm"] / cell[mode]
                rows.append(row)
    return rows


def cmd_bench(args) -> int:
    try:
        engine, ref, meta = index_io.load_index(args.index)
    except (OSError, index_io.CorruptIndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    lengths = [int(x) for x in args.lengths.split(",")]
    batch_sizes = [int(x) for x in args.batch_size.split(",")]
    modes = [m.strip() for m in args.modes.split(",")]
    for m in modes:
        if m not in MODES:
            print(f"error: unknown mode {m!r}", file=sys.stderr)
            return EXIT_PARAMS
    if any(l < 1 or l > ref.n - 1 for l in lengths) or any(b < 1 for b in batch_sizes):
        print("error: lengths/batch sizes out of range", file=sys.stderr)
        return EXIT_PARAMS

    try:
        rows = run_bench(engine, ref, lengths, batch_sizes, args.seed, modes)
    except ModeUnavailableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAMS

    header = f"{'len':>5} {'batch':>9} {'mode':>7} {'ns/query':>12} {'qps':>12} {'vs_fm':>7}"
    print(header)
    kv_lines = []
    for row in rows:
        speedup = row.get("speedup_vs_fm")
        vs_fm = f"{speedup:>7.2f}" if speedup is not None else f"{'-':>7}"
        print(f"{row['length']:>5} {row['batch']:>9} {row['mode']:>7} "
              f"{row['ns_per_query']:>12.1f} {row['qps']:>12.0f} {vs_fm}")
        prefix = f"len{row['length']}.batch{row['batch']}.{row['mode']}"
        kv_lines.append(f"{prefix}.ns_per_query={row['ns_per_query']:.3f}")
        kv_lines.append(f"{prefix}.qps={row['qps']:.3f}")
        if speedup is not None:
            kv_lines.append(f"{prefix}.speedup_vs_fm={speedup:.4f}")
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write("\n".join(kv_lines) + "\n")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO
    return 0


def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="dnasearch",
                                description="Exact DNA search with a learned index")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build an index from FASTA")
    b.add_argument("fasta")
    b.add_argument("--out", required=True, help="output index path")
    b.add_argument("--k", type=int, default=21, help="chunk length (default 21)")
    b.add_argument("--alpha-mid", type=float, default=14.0)
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

    be = sub.add_parser("bench", help="benchmark search modes on generated queries")
    be.add_argument("index")
    be.add_argument("--lengths", default="21,32,42,200",
                    help="comma-separated query lengths")
    be.add_argument("--batch-size", default="1000000",
                    help="comma-separated batch sizes")
    be.add_argument("--seed", type=int, default=0)
    be.add_argument("--modes", default="fm,binary,rmi")
    be.add_argument("--out", help="machine-readable key=value report file")
    be.set_defaults(func=cmd_bench)
    return p


def main(argv: list[str] | None = None) -> int:
    args = make_parser().parse_args(argv)
    if getattr(args, "k", None) is not None and args.command == "build" and args.k < 1:
        print("error: --k must be >= 1", file=sys.stderr)
        return EXIT_PARAMS
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
