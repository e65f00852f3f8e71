"""Output checks. Each checked item is one attempted operation.

Intervals are checked against the reference text itself: through the
suffix array for the interval property, and with a plain substring scan
that uses no part of the index. Outputs are never compared with a stored
copy of an earlier run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RANK_CHARS = np.frombuffer(b"$ACGT", dtype=np.uint8)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def add(self, ok) -> None:
        ok = np.asarray(ok, dtype=bool).ravel()
        self.attempted += int(ok.size)
        self.failed += int(ok.size - np.count_nonzero(ok))


def read_fasta_ranks(path) -> np.ndarray:
    """Reference text as ranks (A=1..T=4) plus the terminating sentinel 0."""
    with open(path, "rb") as fh:
        body = b"".join(line.strip() for line in fh if not line.startswith(b">"))
    lut = np.zeros(256, dtype=np.uint8)
    lut[np.frombuffer(b"ACGT", dtype=np.uint8)] = np.arange(1, 5, dtype=np.uint8)
    return np.append(lut[np.frombuffer(body, dtype=np.uint8)], 0).astype(np.uint8)


def same_rows(low, high, exp_low, exp_high) -> np.ndarray:
    """Per query: both intervals empty, or both equal.

    An empty interval holds no rows whatever its ``low``; the batched
    engines stop a query in the round where it empties, so only ``fm``
    reports its insertion point.
    """
    empty = (high <= low) & (exp_high <= exp_low)
    return empty | ((low == exp_low) & (high == exp_high))


def _window_cmp(text: np.ndarray, starts: np.ndarray, qm: np.ndarray) -> np.ndarray:
    """Sign of (suffix at ``starts`` cut to the query length) vs each query."""
    L = qm.shape[1]
    padded = np.concatenate([text, np.zeros(L, dtype=np.uint8)])
    win = padded[starts[:, None].astype(np.int64) + np.arange(L)]
    diff = win != qm
    first = diff.argmax(axis=1)
    rows = np.arange(qm.shape[0])
    sign = np.sign(win[rows, first].astype(np.int16) - qm[rows, first].astype(np.int16))
    return np.where(diff.any(axis=1), sign, 0)


def interval_property(text: np.ndarray, sa: np.ndarray, qm: np.ndarray,
                      low: np.ndarray, high: np.ndarray, chunk: int = 20_000) -> np.ndarray:
    """Per query: [low, high) is exactly the block of suffixes starting with it.

    Rows low and high-1 start with the query, row low-1 sorts below it and
    row high above it; an empty interval needs only the last two.
    """
    n = sa.size

    def at(rows):
        return sa[np.clip(rows, 0, n - 1)]

    ok = np.empty(qm.shape[0], dtype=bool)
    for s in range(0, qm.shape[0], chunk):
        q, lo, hi = qm[s : s + chunk], low[s : s + chunk], high[s : s + chunk]
        good = (0 <= lo) & (lo <= hi) & (hi <= n)
        nonempty = hi > lo
        good &= ~nonempty | (_window_cmp(text, at(lo), q) == 0)
        good &= ~nonempty | (_window_cmp(text, at(hi - 1), q) == 0)
        good &= (lo == 0) | (_window_cmp(text, at(lo - 1), q) < 0)
        good &= (hi == n) | (_window_cmp(text, at(hi), q) > 0)
        ok[s : s + chunk] = good
    return ok


def scan_positions(text_bytes: bytes, query: bytes) -> list[int]:
    """Every start of ``query`` in the text, overlaps included; no index used."""
    out = []
    i = text_bytes.find(query)
    while i != -1:
        out.append(i)
        i = text_bytes.find(query, i + 1)
    return out


def substring_scan(text_bytes: bytes, sa: np.ndarray, qm: np.ndarray,
                   low: np.ndarray, high: np.ndarray, sample: np.ndarray) -> tuple[np.ndarray, dict]:
    """Per sampled query: the located rows equal the positions a scan finds.

    Returns the per-query verdicts and the scanned positions by row index.
    """
    ok = np.empty(sample.size, dtype=bool)
    found = {}
    for j, i in enumerate(sample):
        pos = scan_positions(text_bytes, RANK_CHARS[qm[i]].tobytes())
        got = np.sort(sa[low[i] : max(high[i], low[i])].astype(np.int64))
        ok[j] = got.size == len(pos) and bool(np.array_equal(got, pos))
        found[int(i)] = pos
    return ok, found


def verify_batch(text: np.ndarray, sa: np.ndarray, qm: np.ndarray, results: dict,
                 sample: np.ndarray, tally: Tally) -> dict:
    """Check one search of the batch in every mode; ``fm`` gives the reference.

    Counts one operation per query for the agreement of the modes, one per
    query for the interval property of the ``fm`` interval, and one per
    sampled query for the substring scan. Returns the scanned positions.
    """
    exp_low, exp_high = results["fm"]
    agree = np.ones(qm.shape[0], dtype=bool)
    for mode, (low, high) in results.items():
        agree &= same_rows(low, high, exp_low, exp_high)
    tally.add(agree)
    tally.add(interval_property(text, sa, qm, exp_low, exp_high))
    text_bytes = RANK_CHARS[text[:-1]].tobytes()
    ok, scanned = substring_scan(text_bytes, sa, qm, exp_low, exp_high, sample)
    tally.add(ok)
    return scanned


def check_tsv(path, invalid_lines: np.ndarray, exp_low: np.ndarray, exp_high: np.ndarray,
              scanned: dict) -> tuple[np.ndarray, int]:
    """Per query-file line: one TSV row, INVALID exactly on lines with N.

    Valid rows must carry the library's interval, a matching count and that
    many positions; rows in ``scanned`` must list the scanned positions.
    Returns the verdicts and the number of positions written.
    """
    with open(path, "r") as fh:
        rows = fh.read().split("\n")
    if rows and rows[-1] == "":
        rows.pop()
    m = invalid_lines.size
    ok = np.zeros(m, dtype=bool)
    positions = 0
    for i, line in enumerate(rows[:m]):
        f = line.split("\t")
        if f[0] != str(i):
            continue
        if invalid_lines[i]:
            ok[i] = f[1:] == ["INVALID"]
            continue
        if len(f) != 5 or f[1] == "INVALID":
            continue
        lo, hi, cnt = int(f[1]), int(f[2]), int(f[3])
        npos = f[4].count(",") + 1 if f[4] else 0
        positions += npos
        good = bool(same_rows(lo, hi, exp_low[i], exp_high[i])) and cnt == hi - lo == npos
        if good and i in scanned:
            good = [int(p) for p in f[4].split(",") if p] == scanned[i]
        ok[i] = good
    if len(rows) != m:
        ok[:] = False
    return ok, positions
