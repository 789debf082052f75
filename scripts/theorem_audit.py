#!/usr/bin/env python3
"""Run the desk-scale theorem audit battery and print one JSON line per probe.

Compares fresh bounded classifications against the known irreducible
families, probes the two-small-entries guarantee, the alternating-sign
bijections, the even-irreducibility link, and the rescaling transfer.

Exit code 1 when any probe reports a counterexample, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys

from quiddity import audits


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-size", type=int, default=8)
    ap.add_argument("--bound", type=int, default=3)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--out", help="also append JSONL report lines to this file")
    args = ap.parse_args()

    results = []
    results += audits.continuant_probe(1000)
    results += list(
        audits.classification_probe(
            audits.FULL_GENS, args.max_size, args.bound, workers=args.workers
        )
    )
    results += list(
        audits.small_entries_probe(
            audits.FULL_GENS, args.max_size, args.bound, workers=args.workers
        )
    )
    results += list(
        audits.bijection_probe((1, 2, 3, 5), args.max_size, args.bound, workers=args.workers)
    )
    results += list(audits.link_probe(args.max_size, min(args.bound, 2), workers=args.workers))
    results += list(audits.rescale_probe((2, 3, 5), 6, 2))
    results += audits.even_examples_probe()

    lines = [
        json.dumps(
            {"name": r.name, "ok": r.ok, "detail": r.detail,
             "max_size": args.max_size, "bound": args.bound},
            sort_keys=True,
        )
        for r in results
    ]
    for line in lines:
        print(line)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    failed = [r for r in results if not r.ok]
    print(f"{len(results) - len(failed)}/{len(results)} probes passed", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
