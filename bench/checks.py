"""Output checks behind ``failed``: every emitted tuple is re-verified through
the generic route, plus one check per workload.

- every ``quiddity`` line re-verifies with ``is_quiddity(..., cross_check=True)``
  with the stated sign, lies within the bound and is in canonical form;
- ``classify``: the class set equals ``audits.expected_irreducible_classes``;
- ``even-search``: the checkpoint round-trips through
  ``EvenSearchState.from_json`` byte for byte, is complete and lists exactly
  the emitted tuples as its evenly irreducible records.

The byte-level checks (stdout digest against the recorded reference, traced
stdout against untraced stdout) are made by run.py.
"""

from __future__ import annotations

import hashlib
import json

from quiddity import EvenSearchState, GeneratorSpec, canonical_coeffs, is_quiddity
from quiddity.audits import expected_irreducible_classes

from workloads import WORK_LIMIT, Invocation


class CheckFailed(Exception):
    """An output is wrong; the invocation counts as failed."""


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _parse(text: str) -> tuple[dict, list[dict]]:
    records = [json.loads(line) for line in text.splitlines()]
    _require(len(records) >= 2, "stdout lacks its config or summary line")
    config, items, summary = records[0], records[1:-1], records[-1]
    _require(config.get("type") == "config", "first line is not the config")
    _require(summary == {"type": "summary", "count": len(items)}, "summary count is wrong")
    _require(all(it.get("type") == "quiddity" for it in items), "unexpected line type")
    return config, items


def check_output(inv: Invocation, text: str, checkpoint: str | None = None) -> int:
    """Raise CheckFailed unless ``text`` is a correct answer to ``inv``;
    returns the number of emitted tuples."""
    try:
        return _check(inv, text, checkpoint)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise CheckFailed(f"malformed output: {exc!r}") from None


def _check(inv: Invocation, text: str, checkpoint: str | None) -> int:
    config, items = _parse(text)
    _require(config.get("command") == inv.command, "config names another command")
    _require(config.get("work_limit") == WORK_LIMIT, "config carries another work limit")
    gen = GeneratorSpec.from_string(inv.gen)
    bound = int(inv.option("--bound"))
    coeff_set = set()
    for it in items:
        coeffs = tuple(it["coeffs"])
        _require(GeneratorSpec.from_descriptor(it["generator"]) == gen, f"{coeffs}: wrong generator")
        _require(it["size"] == len(coeffs), f"{coeffs}: wrong size")
        _require(all(abs(c) <= bound for c in coeffs), f"{coeffs}: outside the bound")
        sign = is_quiddity(tuple(gen.embed(c) for c in coeffs), cross_check=True)
        _require(sign is not None and sign == it["sign"], f"{coeffs}: does not verify with sign {it['sign']}")
        _require(canonical_coeffs(coeffs, gen) == coeffs == tuple(it["canonical"]), f"{coeffs}: not canonical")
        _require(coeffs not in coeff_set, f"{coeffs}: emitted twice")
        coeff_set.add(coeffs)
    if inv.command == "classify":
        max_size = int(inv.option("--max-size"))
        _require(all(it["irreducible"] is True for it in items), "classify emitted a reducible tuple")
        want = expected_irreducible_classes(gen, 3, max_size, bound)
        _require(coeff_set == want, f"class set differs: missing {sorted(want - coeff_set)}, "
                 f"unexpected {sorted(coeff_set - want)}")
    elif inv.command == "enumerate":
        size = int(inv.option("--size"))
        _require(all(len(c) == size for c in coeff_set), "enumerate emitted another size")
    elif inv.command == "even-search":
        _require(checkpoint is not None, "even-search wrote no checkpoint")
        state = EvenSearchState.from_json(checkpoint)
        _require(state.to_json() == checkpoint, "checkpoint does not round-trip")
        _require(state.complete, "checkpoint is not complete")
        _require((state.size, state.bound, state.mode) ==
                 (int(inv.option("--size")), bound, inv.option("--mode")), "checkpoint is for another search")
        survivors = {cc for cc, _sign, equiv_red in state.found if not equiv_red}
        _require(survivors == coeff_set, "checkpoint records differ from the emitted tuples")
        _require(all(it["equiv_reducible"] is False for it in items), "even-search emitted a reducible tuple")
    return len(items)
