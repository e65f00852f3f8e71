"""Workload definitions and seeded input generation.

Every input a run uses is made here from ``--seed``: the reference FASTA,
the large query batch (a rank matrix) and the query file the ``query``
command reads. The program under test only ever sees these files.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BASES = np.frombuffer(b"ACGT", dtype=np.uint8)
FASTA_WIDTH = 70


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "uniform" or "repeat"
    bases: int  # reference length for "uniform"
    qlen: int
    batch: int  # queries in the large batch
    cli_queries: int  # lines in the query file (N lines included)
    batch1k_per_slot: int  # timed 1000-query rmi searches in each of a round's 2 slots
    # every so many batch rows (0: none) is i.i.d. random / has one base
    # changed / lies wholly inside poly-A. Fixed rows, so every seed and every
    # prefix of the batch (the query file too) has the same make-up.
    random_every: int = 0
    substituted_every: int = 0
    poly_a_every: int = 0
    # "repeat" reference make-up: a random unit repeated with per-copy
    # substitutions, then a poly-A run, then random text
    unit: int = 300
    copies: int = 300
    mutation: float = 0.01
    poly_a: int = 20_000
    tail: int = 50_000


WORKLOADS = {
    w.name: w
    for w in (
        Workload(name="uniform-21", kind="uniform", bases=500_000, qlen=21,
                 batch=200_000, cli_queries=10_000, batch1k_per_slot=10,
                 random_every=5),
        Workload(name="repeat-200", kind="repeat", bases=0, qlen=200,
                 batch=8_000, cli_queries=5_000, batch1k_per_slot=7,
                 substituted_every=10, poly_a_every=500),
        Workload(name="short-12", kind="uniform", bases=500_000, qlen=12,
                 batch=200_000, cli_queries=10_000, batch1k_per_slot=10,
                 random_every=5),
    )
}

# a query-file line carrying an N every this many lines; it must come back INVALID
N_LINE_EVERY = 1000


def rng_for(workload: Workload, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.name.encode())])


def make_reference(w: Workload, rng: np.random.Generator) -> np.ndarray:
    """Reference body as base codes 0..3 (no sentinel)."""
    if w.kind == "uniform":
        return rng.integers(0, 4, size=w.bases, dtype=np.uint8)
    unit = rng.integers(0, 4, size=w.unit, dtype=np.uint8)
    copies = np.tile(unit, w.copies)
    hit = rng.random(copies.size) < w.mutation
    copies[hit] = (copies[hit] + rng.integers(1, 4, size=int(hit.sum()), dtype=np.uint8)) % 4
    return np.concatenate([
        copies,
        np.zeros(w.poly_a, dtype=np.uint8),
        rng.integers(0, 4, size=w.tail, dtype=np.uint8),
    ])


def make_batch(w: Workload, body: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Large query batch as ranks 1..4, shape (batch, qlen)."""
    n = body.size
    if w.kind == "repeat":
        # windows wholly inside the poly-A run have ~20k hits each; only every
        # poly_a_every-th row takes one, so the located output stays bounded
        a0 = w.unit * w.copies
        inner = w.poly_a - w.qlen + 1  # starts wholly inside the run
        starts = rng.integers(0, n - w.qlen + 1 - inner, size=w.batch)
        starts = np.where(starts >= a0, starts + inner, starts)
        polya = np.arange(w.poly_a_every // 2, w.batch, w.poly_a_every)
        starts[polya] = a0 + rng.integers(0, inner, size=polya.size)
    else:
        starts = rng.integers(0, n - w.qlen + 1, size=w.batch)
    codes = body[starts[:, None] + np.arange(w.qlen)]
    if w.substituted_every:
        sub = np.arange(3, w.batch, w.substituted_every)
        col = rng.integers(0, w.qlen, size=sub.size)
        codes[sub, col] = (codes[sub, col] + rng.integers(1, 4, size=sub.size, dtype=np.uint8)) % 4
    if w.random_every:
        rnd = np.arange(2, w.batch, w.random_every)
        codes[rnd] = rng.integers(0, 4, size=(rnd.size, w.qlen), dtype=np.uint8)
    return codes + 1


def write_inputs(w: Workload, seed: int, workdir: Path) -> dict[str, Path]:
    """Write FASTA, batch matrix and query file for one run; returns their paths."""
    rng = rng_for(w, seed)
    body = make_reference(w, rng)
    qm = make_batch(w, body, rng)
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {
        "fasta": workdir / "ref.fa",
        "batch": workdir / "batch.npy",
        "queries": workdir / "queries.txt",
        "index": workdir / "ref.idx",
        "tsv": workdir / "results.tsv",
        "trace": workdir / "trace.json",
    }
    text = BASES[body]
    with open(paths["fasta"], "wb") as fh:
        fh.write(f">{w.name}-seed{seed}\n".encode())
        pad = -text.size % FASTA_WIDTH
        lines = np.concatenate([text, np.full(pad, ord("\n"), np.uint8)]).reshape(-1, FASTA_WIDTH)
        lines = np.hstack([lines, np.full((lines.shape[0], 1), ord("\n"), np.uint8)])
        fh.write(lines.tobytes().rstrip(b"\n") + b"\n")
    np.save(paths["batch"], qm)

    lines = BASES[qm[: w.cli_queries] - 1]
    n_rows = np.arange(0, lines.shape[0], N_LINE_EVERY)
    lines[n_rows, rng.integers(0, w.qlen, size=n_rows.size)] = ord("N")
    with open(paths["queries"], "wb") as fh:
        fh.write(np.hstack([lines, np.full((lines.shape[0], 1), ord("\n"), np.uint8)]).tobytes())
    return paths
