#!/usr/bin/env python3
"""Benchmark of dnasearch: index build, per-engine search and the query command.

    python3 perfbench/run.py --workload uniform-21 --seed 1 --seconds 30 --trace 0

Run from the repository root. The run makes its inputs from ``--seed``,
builds the index with ``dnasearch build`` in one child process, then loads
it and searches in a second child process, one call at a time. Its last
line of output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics of BENCHMARK.json, or with
``--trace 1`` its per-layer metrics; the spans go to a trace file).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import durations, self_times  # noqa: E402
from workloads import WORKLOADS, Workload, write_inputs  # noqa: E402

BUILD_REPEATS = 4
# the whole run must end within 180 s; normally the children take 10 and 35 s
CHILD_TIMEOUT_S = {"build": 60, "query": 110}
# one thread per process: no BLAS or OpenMP pool in any child
CHILD_ENV = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
# The query child, which repeats the same calls, has glibc serve every
# allocation from its heap and keep freed memory. By default, whether numpy's
# large temporaries are fresh page-faulted mmaps depends on the history of
# earlier frees, which split fm's rate on short-12 across seeds into
# 0.74-0.75 and 1.04-1.38 million queries/s. The build child keeps the
# defaults: there the setting made peak RSS differ by 11% between seeds.
QUERY_ENV = {"MALLOC_MMAP_THRESHOLD_": str(1 << 30), "MALLOC_TRIM_THRESHOLD_": str(1 << 40)}


class BenchError(RuntimeError):
    pass


def _child(side: str, args: dict) -> dict:
    env = {**os.environ, **CHILD_ENV, **(QUERY_ENV if side == "query" else {})}
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), side, json.dumps(args)],
        capture_output=True, text=True, env=env, timeout=CHILD_TIMEOUT_S[side], cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{side} process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _median(xs) -> float:
    return float(statistics.median(xs))


def _p95(xs) -> float:
    return float(statistics.quantiles(xs, n=20, method="inclusive")[-1])


def run(w: Workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """One benchmark run; returns counts, metric values and, when traced, spans."""
    paths = write_inputs(w, seed, workdir)
    common = {"trace": int(trace), "seed": seed, **{k: str(v) for k, v in paths.items()}}
    built = _child("build", {**common, "repeats": BUILD_REPEATS})
    queried = _child("query", {**common, "seconds": seconds,
                                 "batch1k_per_slot": w.batch1k_per_slot})

    n_bases = w.bases if w.kind == "uniform" else w.unit * w.copies + w.poly_a + w.tail
    build_ok = all(rc == 0 for rc in built["exit_codes"])
    attempted = queried["attempted"] + len(built["exit_codes"])
    failed = queried["failed"] + sum(rc != 0 for rc in built["exit_codes"])
    # Rates and the command time are totals over all repetitions in the run:
    # machine speed here drifts in phases of seconds, and the median of ~20
    # calls jumps between the fast and the slow phase where the total does not.
    rates = {m: w.batch * len(t) / sum(t) for m, t in queried["search_s"].items()}
    values = {
        "setup_s": _median(built["build_s"]),
        "index_bytes_per_base": os.path.getsize(paths["index"]) / n_bases,
        "build_peak_rss_mb": built["peak_rss_mb"],
        "search_qps_rmi": rates["rmi"],
        "search_qps_binary": rates["binary"],
        "search_qps_fm": rates["fm"],
        "batch1k_ms_p50": _median(queried["batch1k_s"]) * 1e3,
        "batch1k_ms_p95": _p95(queried["batch1k_s"]) * 1e3,
        "query_cli_s": sum(queried["cli_s"]) / len(queried["cli_s"]),
        "query_peak_rss_mb": queried["peak_rss_mb"],
    }
    result = {"attempted": attempted, "failed": failed, "correct": build_ok and failed == 0,
              "values": values, "rounds": queried["rounds"],
              "batch1k_samples": len(queried["batch1k_s"])}
    if trace:
        result["values"] = layer_values(built, queried)
        result["spans"] = {"build": built["spans"], "query": queried["spans"]}
        result["traced_totals"] = {"setup_s": values["setup_s"],
                                   "query_cli_s": values["query_cli_s"]}
    return result


def layer_values(built: dict, queried: dict) -> dict:
    """Per-layer metrics from the spans and counts of a traced run."""
    b, q = built["spans"], queried["spans"]
    sizes = [s["counts"] for s in b if s["name"] == "index_io.save_index"][-1]
    values = {
        "seqcore.load_fasta_s": _median(durations(b, "seqcore.load_fasta")),
        "fmindex.build_suffix_array_s": _median(durations(b, "fmindex.build_suffix_array")),
        "fmindex.build_fm_index_s": _median(self_times(b, "fmindex.build_fm_index")),
        "ipbwt.build_ipbwt_s": _median(durations(b, "ipbwt.build_ipbwt")),
        "rmi.build_rmi_s": _median(durations(b, "rmi.build_rmi")),
        "index_io.save_index_s": _median(durations(b, "index_io.save_index")),
        "index_io.sa_bytes": sizes["sa"],
        "index_io.bwt_occ_bytes": sizes["bwt_occ"],
        "index_io.ipbwt_bytes": sizes["ipbwt"],
        "index_io.rmi_bytes": sizes["rmi"],
        "index_io.load_index_s": _median(durations(q, "index_io.load_index")),
        "seqcore.parse_queries_s": _median(durations(q, "seqcore.parse_queries")),
        "search.batch_search_s": _median(durations(q, "search.batch_search")),
        "cli.query_self_s": _median(self_times(q, "cli.main")),
    }
    values.update(queried["counts"])
    return values


def report(spec: dict, res: dict, trace: bool) -> dict:
    """The result object: counts plus every metric BENCHMARK.json names."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in res["values"]]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": res["values"][m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="length of the timed search loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "dnasearch" / "__init__.py").is_file():
        print(f"error: no dnasearch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workdir = HERE / "work" / args.workload
    try:
        res = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workdir)
        out = report(spec, res, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        with open(workdir / "trace.json", "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "spans": res["spans"]}, fh)
        print(f"traced totals: {json.dumps(res['traced_totals'])}", file=sys.stderr)
    print(f"rounds={res['rounds']} batch1k_samples={res['batch1k_samples']}", file=sys.stderr)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
