#!/usr/bin/env python3
"""Small-scale self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at a small size, untraced and traced, and checks that
each metric BENCHMARK.json names is emitted. Then checks that a
deliberately altered interval is counted as a failed operation. Exits 0
when both checks hold.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import numpy as np

import run
from checks import Tally, verify_batch
from workloads import WORKLOADS, make_batch, make_reference, rng_for

sys.path.insert(0, str(run.ROOT / "src"))
from dnasearch.search import batch_search_matrix, build_engine  # noqa: E402
from dnasearch.seqcore import Reference  # noqa: E402

SMALL = dict(bases=20_000, batch=4_000, cli_queries=2_000, copies=30,
             poly_a=2_000, tail=5_000)


def small(name: str) -> run.Workload:
    return dataclasses.replace(WORKLOADS[name], **SMALL)


def check_names() -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in WORKLOADS:
        for trace in (False, True):
            res = run.run(small(name), seed=3, seconds=0.1, trace=trace,
                          workdir=run.HERE / "work" / f"selftest-{name}")
            try:
                out = run.report(spec, res, trace)
            except run.BenchError as exc:
                problems.append(f"{name} trace={trace}: {exc}")
                continue
            if not out["correct"] or out["failed"] or out["attempted"] < 1:
                problems.append(f"{name} trace={trace}: {out['failed']} of "
                                f"{out['attempted']} operations failed")
    return problems


def check_altered_interval() -> list[str]:
    w = small("repeat-200")
    rng = rng_for(w, 5)
    body = make_reference(w, rng)
    qm = make_batch(w, body, rng)
    text = np.append(body + 1, 0).astype(np.uint8)
    engine = build_engine(Reference("selftest", text), k=21)
    results = {m: batch_search_matrix(engine, qm, m) for m in ("rmi", "binary", "fm")}
    sample = np.arange(50)
    problems = []

    clean = Tally()
    verify_batch(text, engine.fm.sa, qm, results, sample, clean)
    if clean.failed:
        problems.append(f"unaltered results: {clean.failed} failed")

    hit = int(np.flatnonzero(results["fm"][1] > results["fm"][0])[0])
    for mode in ("rmi", "fm"):
        low, high = (a.copy() for a in results[mode])
        high[hit] += 1
        tally = Tally()
        verify_batch(text, engine.fm.sa, qm, {**results, mode: (low, high)}, sample, tally)
        if tally.failed == 0 or tally.attempted != clean.attempted:
            problems.append(f"altered {mode} interval of query {hit}: "
                            f"{tally.failed} of {tally.attempted} failed")
    return problems


def main() -> int:
    problems = check_names() + check_altered_interval()
    for p in problems:
        print(f"FAIL {p}")
    print("selftest:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
