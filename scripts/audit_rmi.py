#!/usr/bin/env python3
"""Recompute every model's mean absolute error in a saved index.

Prints per-layer model counts and worst-case errors against the configured
alpha bounds; exits nonzero if any model below the root exceeds its bound,
whatever its partition's size. Errors are those of the predictions that
search uses (``dnasearch.rmi.predict``).

Example:
    python3 scripts/audit_rmi.py ref.idx
"""

from __future__ import annotations

import argparse
import sys

from dnasearch.index_io import load_index
from dnasearch.rmi import audit_errors


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

    for depth, layer in enumerate(rmi.layers):
        kind = "root" if depth == 0 else ("leaf" if depth == leaf_depth else "mid")
        print(f"layer {depth} ({kind}): {len(layer)} models, "
              f"worst error {worst[depth]:.3f}")
    print(f"alpha_mid={rmi.alpha_mid} alpha_leaf={rmi.alpha_leaf} "
          f"violations={violations}")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
