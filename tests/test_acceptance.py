"""End-to-end acceptance checks for the search engine.

Each test prints exactly one PASS/FAIL line to the terminal (bypassing
capture) so the run log doubles as an acceptance report. Criterion 5 is a
wall-clock performance check; set DNASEARCH_SKIP_PERF=1 to skip it on
constrained hardware.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from dnasearch.cli import main
from dnasearch.fmindex import locate
from dnasearch.index_io import load_index, save_index
from dnasearch.search import batch_search_matrix, build_engine
from dnasearch.seqcore import encode_ranks, generate_query_matrix

from conftest import audit_leaves, make_reference, random_reference

SKIP_PERF = os.environ.get("DNASEARCH_SKIP_PERF", "") not in ("", "0")

MEDIUM_LENGTHS = (21, 32, 42, 200)
MEDIUM_COUNT = 100_000
MEDIUM_SEED = 777


def _report(capsys, num: int, ok: bool, elapsed: float, detail: str):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s) {detail}"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def medium_queries(medium_engine):
    """Criterion 3's query set: 10^5 queries per length, fixed seed."""
    _, ref = medium_engine
    return {
        length: generate_query_matrix(ref, length=length, count=MEDIUM_COUNT,
                                      seed=MEDIUM_SEED + length)
        for length in MEDIUM_LENGTHS
    }


def test_criterion_1_golden_micro_examples(capsys):
    t0 = time.perf_counter()
    small = build_engine(make_reference("ATACGAC"), k=2)
    low, high = batch_search_matrix(small, encode_ranks("AC")[None, :])  # a one-row batch
    ok = (low[0], high[0]) == (1, 3) and locate(small.fm, low, high).tolist() == [2, 5]

    chunked = build_engine(make_reference("CATTATTAGGA"), k=3)
    low2, high2 = batch_search_matrix(chunked, encode_ranks("ATTA")[None, :])
    ok = ok and (low2[0], high2[0]) == (3, 5)
    elapsed = time.perf_counter() - t0
    _report(capsys, 1, ok and elapsed < 1.0, elapsed,
            f"micro-example intervals AC=[{low[0]},{high[0]}) ATTA=[{low2[0]},{high2[0]})")


def test_criterion_2_exhaustive_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    n_refs = 200
    checked = 0
    ok = True
    for _ in range(n_refs):
        n_bases = int(rng.integers(2, 256))
        ref = random_reference(rng, n_bases)
        k = int(rng.integers(1, min(8, n_bases) + 1))
        engine = build_engine(ref, k=k)
        body = ref.ranks[:-1]
        for length in range(1, 9):
            # every substring of this length, plus random (likely absent) strings
            if length <= n_bases:
                windows = np.lib.stride_tricks.sliding_window_view(body, length)
                qm = np.unique(windows, axis=0).astype(np.uint8)
            else:
                qm = np.empty((0, length), dtype=np.uint8)
            extra = rng.integers(1, 5, size=(8, length)).astype(np.uint8)
            qm = np.concatenate([qm, extra])
            # naive substring scan oracle over the padded reference
            padded = np.concatenate([body, np.zeros(length, dtype=np.uint8)])
            ref_windows = np.lib.stride_tricks.sliding_window_view(padded, length)[: max(n_bases, 1)]
            match = (ref_windows[None, :, :] == qm[:, None, :]).all(axis=2)
            expected_sets = [set(np.flatnonzero(row).tolist()) for row in match]

            results = {m: batch_search_matrix(engine, qm, mode=m) for m in ("rmi", "binary", "fm")}
            flow, fhigh = results["fm"]
            # every row, absent queries included, equals fm's in both batched modes
            for m in ("rmi", "binary"):
                low, high = results[m]
                ok = ok and np.array_equal(low, flow) and np.array_equal(high, fhigh)
            for i in range(qm.shape[0]):
                got = (
                    set(int(p) for p in engine.fm.sa[flow[i] : fhigh[i]])
                    if flow[i] < fhigh[i]
                    else set()
                )
                ok = ok and got == expected_sets[i]
            checked += qm.shape[0]
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    _report(capsys, 2, ok and elapsed < 300, elapsed,
            f"{n_refs} references, {checked} queries, 3 modes vs substring scan")


def test_criterion_3_scaled_oracle_equivalence(capsys, medium_engine, medium_queries):
    t0 = time.perf_counter()
    engine, _ = medium_engine
    ok = True
    fewest_absent = MEDIUM_COUNT
    for length, qm in medium_queries.items():
        # a copy with one base changed in every other row (row i, column
        # i mod length, rank r -> r mod 4 + 1), so that most of those rows
        # occur nowhere in the reference and every mode must place them
        changed = np.arange(0, qm.shape[0], 2)
        altered = qm.copy()
        altered[changed, changed % length] = altered[changed, changed % length] % 4 + 1
        for batch in (qm, altered):
            flow, fhigh = batch_search_matrix(engine, batch, mode="fm")
            for mode in ("rmi", "binary"):
                low, high = batch_search_matrix(engine, batch, mode=mode)
                ok = ok and np.array_equal(low, flow) and np.array_equal(high, fhigh)
        absent = int(np.count_nonzero(flow[changed] == fhigh[changed]))
        fewest_absent = min(fewest_absent, absent)
    ok = ok and fewest_absent >= 1000
    elapsed = time.perf_counter() - t0
    _report(capsys, 3, ok and elapsed < 600, elapsed,
            f"10^6-base reference, {MEDIUM_COUNT} queries x lengths {MEDIUM_LENGTHS} and "
            f"a copy with every other row changed (>= {fewest_absent} absent per length), "
            "rmi == binary == fm on every row")


def test_criterion_4_error_bound_audit(capsys, tmp_path, medium_engine):
    t0 = time.perf_counter()
    # the leaves as the index file holds them: saved, then loaded
    path = str(tmp_path / "audit.idx")
    save_index(path, medium_engine[0])
    engine, _, _ = load_index(path)
    rmi = engine.rmi
    audit = audit_leaves(engine)
    worst = audit["mean"].max()
    over = int(np.count_nonzero(audit["mean"] > rmi.alpha_leaf))
    # the stored maximum errors bound the search windows: each must be exact
    wrong_max, negative = audit["wrong_max"].size, audit["negative"].size
    ok = audit["mean"].size == len(rmi.leaf) and over == 0 and wrong_max == 0 and negative == 0
    elapsed = time.perf_counter() - t0
    _report(capsys, 4, ok and elapsed < 120, elapsed,
            f"saved and loaded index: {len(rmi.leaf)} leaves, worst mean error {worst:.2f} "
            f"<= {rmi.alpha_leaf}, {wrong_max} stored leaf max errors wrong "
            f"(largest {int(audit['max'].max())}), {negative} negative slopes")


@pytest.fixture(scope="module")
def big_engine():
    """Engine over a 10^7-base reference (criterion 5 only; slow to build)."""
    rng = np.random.default_rng(990)
    ref = random_reference(rng, 10_000_000, name="big")
    return build_engine(ref, k=21), ref


@pytest.mark.skipif(SKIP_PERF, reason="DNASEARCH_SKIP_PERF set")
def test_criterion_5_performance_ordering(capsys, big_engine):
    t0 = time.perf_counter()
    engine, ref = big_engine
    qm = generate_query_matrix(ref, length=21, count=1_000_000, seed=5)
    modes = ["fm", "binary", "rmi"]
    for mode in modes:
        batch_search_matrix(engine, qm[:10_000], mode=mode)  # warm-up
    # best of 2 per mode, timed round-robin and rotated between the rounds, so
    # that a slow phase of the host falls on every mode, not on one
    best = dict.fromkeys(modes, float("inf"))
    for round_no in range(2):
        for mode in modes[round_no:] + modes[:round_no]:
            t1 = time.perf_counter()
            batch_search_matrix(engine, qm, mode=mode)
            best[mode] = min(best[mode], time.perf_counter() - t1)
    times = {mode: best[mode] / qm.shape[0] * 1e9 for mode in modes}
    ok = times["rmi"] <= times["binary"] / 1.2 and times["rmi"] <= times["fm"] / 1.5
    elapsed = time.perf_counter() - t0
    _report(capsys, 5, ok and elapsed < 900, elapsed,
            "ns/query rmi={rmi:.0f} binary={binary:.0f} fm={fm:.0f} "
            "(need rmi <= binary/1.2 and <= fm/1.5)".format(**times))


def test_criterion_6_batch_size_trend(capsys, medium_engine):
    t0 = time.perf_counter()
    engine, ref = medium_engine
    qm = generate_query_matrix(ref, length=21, count=1_000_000, seed=6)
    batch_search_matrix(engine, qm[:10_000], mode="rmi")  # warm-up

    t1 = time.perf_counter()
    batch_search_matrix(engine, qm, mode="rmi")
    per_query_large = (time.perf_counter() - t1) / qm.shape[0]

    small_total = 0.0
    n_small = 100
    for i in range(n_small):
        block = qm[i * 1000 : (i + 1) * 1000]
        t1 = time.perf_counter()
        batch_search_matrix(engine, block, mode="rmi")
        small_total += time.perf_counter() - t1
    per_query_small = small_total / (n_small * 1000)

    ok = per_query_large < per_query_small
    elapsed = time.perf_counter() - t0
    _report(capsys, 6, ok and elapsed < 600, elapsed,
            f"rmi ns/query: batch 10^6 = {per_query_large * 1e9:.0f} < "
            f"batch 10^3 = {per_query_small * 1e9:.0f}")


def test_criterion_7_space_model_report(capsys, tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(71)
    bases = "".join("ACGT"[i] for i in rng.integers(0, 4, size=1_000_000))
    fasta = tmp_path / "space.fa"
    with open(fasta, "w") as fh:
        fh.write(">space\n")
        for i in range(0, len(bases), 70):
            fh.write(bases[i : i + 70] + "\n")
    rc = main(["build", str(fasta), "--out", str(tmp_path / "space.idx")])
    out = capsys.readouterr().out
    report = dict(line.split("=", 1) for line in out.strip().splitlines() if "=" in line)
    ratio = float(report["ipbwt_ratio_vs_expected"])
    ok = rc == 0 and 0.5 <= ratio <= 2.0
    elapsed = time.perf_counter() - t0
    _report(capsys, 7, ok and elapsed < 120, elapsed,
            f"reported IP-BWT bytes at {ratio:.2f}x the (0.25K+4)n model")


def test_criterion_8_persistence_round_trip(capsys, tmp_path, medium_engine, medium_queries):
    t0 = time.perf_counter()
    engine, ref = medium_engine
    path = str(tmp_path / "medium.idx")
    save_index(path, engine)
    loaded, _, _ = load_index(path)

    def result_file(eng, dest):
        lines = []
        for length in MEDIUM_LENGTHS:
            low, high = batch_search_matrix(eng, medium_queries[length], mode="rmi")
            lines.extend(
                f"{length}:{i}\t{l}\t{h}" for i, (l, h) in enumerate(zip(low, high))
            )
        dest.write_bytes(("\n".join(lines) + "\n").encode())

    before, after = tmp_path / "before.tsv", tmp_path / "after.tsv"
    result_file(engine, before)
    result_file(loaded, after)
    ok = before.read_bytes() == after.read_bytes()
    elapsed = time.perf_counter() - t0
    _report(capsys, 8, ok and elapsed < 300, elapsed,
            "save -> load -> re-run produced byte-identical result files")
