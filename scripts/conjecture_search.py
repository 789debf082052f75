#!/usr/bin/env python3
"""Sweep even sizes for evenly irreducible integer tuples.

Evidence for the growing-size question accumulates as JSONL lines of the form
{"n": ..., "bound": ..., "mode": ..., "count": ..., "witnesses": [...]} so
repeated runs at larger sizes or bounds extend the record.  Each size keeps a
checkpoint file and resumes from it; a work-limit abort exits 3 with the
checkpoint saved, rerun to continue.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from quiddity import EvenSearchState, WorkLimitExceeded, search_evenly_irreducible
from quiddity.even import MODES, MODE_EQUIV


def _at_least(minimum: int):
    """argparse type: an integer >= minimum, else a usage error (exit 2)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
        if value < minimum:
            raise argparse.ArgumentTypeError(f"expected an integer >= {minimum}, got {text!r}")
        return value

    return parse


def _even_sizes(text: str) -> list[int]:
    """argparse type: comma-separated even sizes >= 4."""
    try:
        sizes = [int(s) for s in text.split(",")]
    except ValueError:
        sizes = [0]
    if any(n < 4 or n % 2 for n in sizes):
        raise argparse.ArgumentTypeError(f"expected even sizes >= 4, got {text!r}")
    return sizes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=_even_sizes, default="4,6,8", help="comma-separated even sizes")
    ap.add_argument("--bound", type=_at_least(0), default=2)
    ap.add_argument("--mode", choices=MODES, default=MODE_EQUIV)
    ap.add_argument("--work-limit", type=_at_least(0), default=10**8)
    ap.add_argument("--workers", type=_at_least(1), default=1)
    ap.add_argument("--evidence", default="even_irreducible_evidence.jsonl")
    ap.add_argument("--checkpoint-dir", default=".")
    args = ap.parse_args()

    budget = args.work_limit
    for n in args.sizes:
        ck_path = os.path.join(
            args.checkpoint_dir, f"even_search_n{n}_b{args.bound}_{args.mode}.json"
        )
        state = None
        if os.path.exists(ck_path):
            state = EvenSearchState.load(ck_path)
            if state.complete:
                print(f"n={n}: checkpoint already complete, skipping", file=sys.stderr)
                continue
        try:
            results, final = search_evenly_irreducible(
                n, args.bound, mode=args.mode, work_limit=budget,
                workers=args.workers, state=state,
            )
        except WorkLimitExceeded as exc:
            exc.state.save(ck_path)
            print(f"n={n}: budget exhausted, checkpoint at {ck_path}", file=sys.stderr)
            return 3
        final.save(ck_path)
        record = {
            "n": n,
            "bound": args.bound,
            "mode": args.mode,
            "count": len(results),
            "witnesses": [list(q.coeffs) for q, _ in results],
            "divergent": [list(q.coeffs) for q, equiv_red in results if equiv_red],
        }
        with open(args.evidence, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
        print(f"n={n}: {len(results)} evenly irreducible classes (bound {args.bound})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
