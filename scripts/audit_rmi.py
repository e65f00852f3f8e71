#!/usr/bin/env python3
"""Recompute every leaf model's errors in a saved index and check its bounds.

Checks that every leaf has a mean absolute error within ``alpha_leaf``,
whatever its partition's size; that every leaf's stored maximum error
(which bounds the search window) equals the recomputed maximum; and that
every slope is >= 0, so predictions never decrease. Prints the leaf count,
the worst mean error and the distribution of the leaves' maximum errors.
Exits nonzero on any violation. Errors are those of the predictions that
search uses (``dnasearch.rmi.predict``).

Example:
    python3 scripts/audit_rmi.py ref.idx
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from dnasearch.index_io import load_index
from dnasearch.rmi import audit_errors, key_errors


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("index")
    args = ap.parse_args(argv)

    engine, ref, meta = load_index(args.index)
    if engine.rmi is None:
        print("index has no leaf models (built with --no-rmi)", file=sys.stderr)
        return 1
    rmi, ix = engine.rmi, engine.ipbwt
    leaf = rmi.leaf

    worst = 0.0
    violations = 0
    for _, j, err in audit_errors(rmi, ix):
        worst = max(worst, err)
        if err > rmi.alpha_leaf:
            violations += 1
            print(f"VIOLATION leaf={j} mean error {err:.3f} > {rmi.alpha_leaf}")

    max_errors = np.maximum.reduceat(key_errors(leaf, ix.key_hi, ix.key_lo), leaf.starts)
    for j in np.flatnonzero(leaf.max_errors != max_errors):
        violations += 1
        print(f"VIOLATION leaf={j} stored max error {leaf.max_errors[j]} != {max_errors[j]}")
    for j in np.flatnonzero(leaf.slopes < 0):
        violations += 1
        print(f"VIOLATION leaf={j} slope={leaf.slopes[j]} < 0")

    print(f"{len(leaf)} leaf models, worst mean error {worst:.3f}")
    print(f"leaf max error: max={int(max_errors.max())} "
          f"p99={np.percentile(max_errors, 99):.1f} mean={max_errors.mean():.2f}")
    print(f"alpha_leaf={rmi.alpha_leaf} violations={violations}")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
