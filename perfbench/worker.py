"""One child process of a benchmark run: ``build`` or ``query``.

Each side runs in its own interpreter, so that its peak RSS is its own:

    python3 perfbench/worker.py build '<json args>'
    python3 perfbench/worker.py query '<json args>'

``run.py`` starts them one after the other and reads the JSON object each
prints as its last line of standard output.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import dnasearch  # noqa: E402
from dnasearch import cli, fmindex, index_io, ipbwt, rmi, search  # noqa: E402
from dnasearch.search import MODES  # noqa: E402

from checks import Tally, check_tsv, read_fasta_ranks, same_rows, verify_batch  # noqa: E402
from tracing import Tracer  # noqa: E402

BATCH1K = 1000
# p95 needs at least 10 samples above it
MIN_BATCH1K_SAMPLES = 200
SCAN_SAMPLE = 200


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def build(args: dict, tracer: Tracer) -> dict:
    """Run ``dnasearch build`` ``repeats`` times, timed around ``cli.main``."""
    argv = ["build", args["fasta"], "--out", args["index"]]
    targets = [
        (cli, "load_fasta", "seqcore.load_fasta", None),
        (cli, "build_engine", "search.build_engine", None),
        (fmindex, "build_fm_index", "fmindex.build_fm_index", None),
        (fmindex, "build_suffix_array", "fmindex.build_suffix_array", None),
        (ipbwt, "build_ipbwt", "ipbwt.build_ipbwt", None),
        (rmi, "build_rmi", "rmi.build_rmi", None),
        (index_io, "save_index", "index_io.save_index", dict),
    ]
    times, codes = [], []
    with tracer.wrap(targets):
        for r in range(args["repeats"]):
            # the size report goes to a buffer: stdout carries the result
            with contextlib.redirect_stdout(io.StringIO()), tracer.request(f"build-{r}"), \
                    tracer.span("cli.main"):
                t0 = time.perf_counter()
                rc = cli.main(argv)
                times.append(time.perf_counter() - t0)
            codes.append(rc)
    return {"build_s": times, "exit_codes": codes, "peak_rss_mb": _peak_rss_mb(),
            "spans": tracer.spans}


def _array_bytes(obj, seen: set) -> int:
    """Total nbytes of the numpy arrays reachable from an engine object."""
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (list, tuple)):
        return sum(_array_bytes(x, seen) for x in obj)
    if isinstance(obj, dict):
        return sum(_array_bytes(x, seen) for x in obj.values())
    if hasattr(obj, "__dataclass_fields__"):
        return sum(_array_bytes(getattr(obj, f), seen) for f in obj.__dataclass_fields__)
    return 0


def engine_counts(engine, qm: np.ndarray) -> dict:
    """Model shape, query-time leaf error and lane rounds of a loaded engine."""
    model, ix = engine.rmi, engine.ipbwt
    leaf = model.leaf
    n = ix.n
    rows = np.arange(n, dtype=np.int64)
    # the query path's float64 predict (search._resolve_stream_rmi), on every key
    keyf = ix.key_hi.astype(np.float64) * 18446744073709551616.0 + ix.key_lo.astype(np.float64)
    part = np.searchsorted(leaf.starts, rows, side="right") - 1
    raw = leaf.slopes[part] * keyf + leaf.intercepts[part]
    pred = np.clip(np.floor(raw + 0.5).astype(np.int64), 0, max(n - 1, 0))
    err = np.abs(pred - rows)
    leaf_depth = len(model.layers) - 1
    over = sum(1 for d, _, e in rmi.audit_errors(model, ix)
               if d == leaf_depth and e > model.alpha_leaf)

    # round r of a batched search runs the queries whose rightmost r chunks
    # still match: the fm interval of that suffix is non-empty
    k, qlen = engine.k, qm.shape[1]
    nchunks = -(-qlen // k)
    lanes = qm.shape[0]
    for r in range(1, nchunks):
        low, high = search.batch_search_matrix(engine, qm[:, (nchunks - r) * k:], "fm")
        lanes += int(np.count_nonzero(high > low))
    return {
        "rmi.layers": len(model.layers),
        "rmi.leaf_models": len(leaf),
        "rmi.leaf_err_mean": float(err.mean()),
        "rmi.leaf_err_p99": float(np.percentile(err, 99)),
        "rmi.leaf_err_max": int(err.max()),
        "rmi.over_bound_partitions": over,
        "search.lane_rounds": lanes,
        "search.engine_bytes": _array_bytes(engine, set()),
    }


def query(args: dict, tracer: Tracer) -> dict:
    """Load, search the large batch in every mode, time 1k batches and the command."""
    qm = np.load(args["batch"])
    text = read_fasta_ranks(args["fasta"])
    with open(args["queries"], "rb") as fh:
        invalid = np.array([b"N" in line for line in fh], dtype=bool)
    cli_argv = ["query", args["index"], args["queries"], "--mode", "rmi",
                "--locate", "--out", args["tsv"]]
    targets = [
        (index_io, "load_index", "index_io.load_index", None),
        (cli, "parse_queries", "seqcore.parse_queries", None),
        (cli, "batch_search", "search.batch_search", None),
    ]
    tally = Tally()
    span, request = tracer.span, tracer.request

    with tracer.wrap(targets):
        with request("load"):
            engine, _, _ = index_io.load_index(args["index"])

        # first pass: warms every path and checks the reference intervals
        first = {mode: search.batch_search_matrix(engine, qm, mode) for mode in MODES}
        exp_low, exp_high = first["fm"]
        rng = np.random.default_rng(args["seed"])
        sample = np.sort(rng.choice(invalid.size, size=min(SCAN_SAMPLE, invalid.size),
                                    replace=False))
        scanned = verify_batch(text, engine.fm.sa, qm, first, sample, tally)
        del first
        cli_out = {}

        def run_cli(trace_id: str) -> float:
            with request(trace_id), span("cli.main"):
                t0 = time.perf_counter()
                rc = cli.main(cli_argv)
                dt = time.perf_counter() - t0
            ok, cli_out["positions"] = check_tsv(args["tsv"], invalid, exp_low, exp_high, scanned)
            tally.add(ok & (rc == 0))
            return dt

        run_cli("cli-warm")

        search_s = {m: [] for m in MODES}
        batch1k_s, cli_s = [], []
        nb = qm.shape[0] // BATCH1K

        def run_small(trace_id: str) -> None:
            # two slots a round, so that the small batches sample the run's
            # speed phases more finely than one block would
            for _ in range(args["batch1k_per_slot"]):
                b = len(batch1k_s) % nb * BATCH1K
                with request(trace_id), span("search.batch_search_matrix.1k"):
                    t0 = time.perf_counter()
                    low, high = search.batch_search_matrix(engine, qm[b : b + BATCH1K], "rmi")
                    batch1k_s.append(time.perf_counter() - t0)
                tally.add(same_rows(low, high, exp_low[b : b + BATCH1K], exp_high[b : b + BATCH1K]))

        rounds = 0
        t_start = time.perf_counter()
        while (len(batch1k_s) < MIN_BATCH1K_SAMPLES
               or time.perf_counter() - t_start < args["seconds"]):
            for mode in MODES:
                with request(f"round-{rounds}/{mode}"), span(f"search.batch_search_matrix.{mode}"):
                    t0 = time.perf_counter()
                    low, high = search.batch_search_matrix(engine, qm, mode)
                    search_s[mode].append(time.perf_counter() - t0)
                tally.add(same_rows(low, high, exp_low, exp_high))
            run_small(f"round-{rounds}/batch1k-a")
            cli_s.append(run_cli(f"round-{rounds}/cli"))
            run_small(f"round-{rounds}/batch1k-b")
            rounds += 1

    peak = _peak_rss_mb()
    counts = {"cli.positions_out": cli_out["positions"]}
    if tracer.enabled:
        counts.update(engine_counts(engine, qm))
    return {"search_s": search_s, "batch1k_s": batch1k_s, "cli_s": cli_s,
            "rounds": rounds, "peak_rss_mb": peak,
            "attempted": tally.attempted, "failed": tally.failed, "counts": counts,
            "spans": tracer.spans}


def main() -> int:
    side, args = sys.argv[1], json.loads(sys.argv[2])
    if not Path(dnasearch.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: dnasearch imported from {dnasearch.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    tracer = Tracer(enabled=bool(args["trace"]))
    result = build(args, tracer) if side == "build" else query(args, tracer)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
