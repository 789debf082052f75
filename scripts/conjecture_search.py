#!/usr/bin/env python3
"""Sweep even sizes for evenly irreducible integer tuples.

Evidence for the growing-size question accumulates as JSONL lines of the form
{"n": ..., "bound": ..., "mode": ..., "count": ..., "witnesses": [...]} so
repeated runs at larger sizes or bounds extend the record.  Each size is one
`quiddity even-search --checkpoint FILE` run, which resumes from its own FILE
when it exists, so a rerun over a complete checkpoint sweeps nothing and
appends that size's record again.  Without --work-limit each run takes the
subcommand's default budget, QUIDDITY_WORK_LIMIT when it is set.  The first
nonzero CLI exit code stops the sweep and is returned: 3 for a work-limit
abort (checkpoint saved, rerun to continue), 2 for a bad path, checkpoint or
QUIDDITY_WORK_LIMIT, before any sweep.  An evidence file that cannot be
written exits 2 as well.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys

from quiddity import MODE_EQUIV, MODE_STRICT, cli


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
    ap.add_argument("--bound", type=cli.int_at_least(0, "bound"), default=2)
    ap.add_argument("--mode", choices=(MODE_STRICT, MODE_EQUIV), default=MODE_EQUIV)
    ap.add_argument("--work-limit", type=cli.int_at_least(0, "work limit"),
                    help="node budget per size; defaults as for the even-search subcommand")
    ap.add_argument("--workers", type=cli.int_at_least(1, "worker count"), default=1)
    ap.add_argument("--evidence", default="even_irreducible_evidence.jsonl")
    ap.add_argument("--checkpoint-dir", default=".")
    args = ap.parse_args()
    if not os.path.isdir(os.path.dirname(args.evidence) or "."):
        ap.error(f"the directory of --evidence {args.evidence!r} does not exist")

    for n in args.sizes:
        ck_path = os.path.join(
            args.checkpoint_dir, f"even_search_n{n}_b{args.bound}_{args.mode}.json"
        )
        argv = ["even-search", "--size", n, "--bound", args.bound, "--mode", args.mode,
                "--workers", args.workers, "--checkpoint", ck_path, "--format", "jsonl"]
        if args.work_limit is not None:
            argv += ["--work-limit", args.work_limit]
        buf = io.StringIO()
        code = cli.main([str(a) for a in argv], out=buf)
        if code:
            return code
        lines = map(json.loads, buf.getvalue().splitlines())
        items = [obj for obj in lines if obj["type"] == "quiddity"]
        record = {
            "n": n,
            "bound": args.bound,
            "mode": args.mode,
            "count": len(items),
            "witnesses": [it["coeffs"] for it in items],
            "divergent": [it["coeffs"] for it in items if it["equiv_reducible"]],
        }
        try:
            with open(args.evidence, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        except OSError as exc:
            print(f"error: evidence {args.evidence!r}: {exc.strerror or exc}", file=sys.stderr)
            return 2
        print(f"n={n}: {len(items)} evenly irreducible classes (bound {args.bound})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
