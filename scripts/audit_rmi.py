#!/usr/bin/env python3
"""Recompute every model's errors in a saved index and check its bounds.

Checks that every model below the root has a mean absolute error within
its alpha bound, whatever its partition's size; that every leaf's stored
maximum error (which bounds the search window) equals the recomputed
maximum; and that every slope is >= 0, so predictions never decrease.
Prints per-layer model counts and worst-case errors, and the distribution
of the leaves' maximum errors. Exits nonzero on any violation. Errors are
those of the predictions that search uses (``dnasearch.rmi.predict``).

Example:
    python3 scripts/audit_rmi.py ref.idx
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from dnasearch.index_io import load_index
from dnasearch.rmi import audit_errors, key_errors


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("index")
    args = ap.parse_args()

    engine, ref, meta = load_index(args.index)
    if engine.rmi is None:
        print("index has no model hierarchy (built with --no-rmi)", file=sys.stderr)
        return 1
    rmi, ix = engine.rmi, engine.ipbwt
    leaf_depth = len(rmi.layers) - 1

    worst = [0.0] * len(rmi.layers)
    violations = 0
    for depth, j, err in audit_errors(rmi, ix):
        worst[depth] = max(worst[depth], err)
        if depth == 0:
            continue  # the root carries no bound
        bound = rmi.alpha_leaf if depth == leaf_depth else rmi.alpha_mid
        if err > bound:
            violations += 1
            print(f"VIOLATION layer={depth} model={j} err={err:.3f} > {bound}")

    leaf = rmi.leaf
    max_errors = np.maximum.reduceat(key_errors(leaf, ix.key_hi, ix.key_lo), leaf.starts)
    for j in np.flatnonzero(leaf.max_errors != max_errors):
        violations += 1
        print(f"VIOLATION leaf={j} stored max error {leaf.max_errors[j]} != {max_errors[j]}")
    for depth, layer in enumerate(rmi.layers):
        for j in np.flatnonzero(layer.slopes < 0):
            violations += 1
            print(f"VIOLATION layer={depth} model={j} slope={layer.slopes[j]} < 0")

    for depth, layer in enumerate(rmi.layers):
        kind = "root" if depth == 0 else ("leaf" if depth == leaf_depth else "mid")
        print(f"layer {depth} ({kind}): {len(layer)} models, "
              f"worst error {worst[depth]:.3f}")
    print(f"leaf max error: max={int(max_errors.max())} "
          f"p99={np.percentile(max_errors, 99):.1f} mean={max_errors.mean():.2f}")
    print(f"alpha_mid={rmi.alpha_mid} alpha_leaf={rmi.alpha_leaf} "
          f"violations={violations}")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
