"""Even splice reducibility of even-size integer tuples and the resumable
search for evenly irreducible solutions (audits.link_probe checks their link
to tuples over <i>).

An even-size verified integer tuple is evenly reducible when it splits as a
splice sum of two verified tuples of even size at least 4.  Two readings are
implemented: strict (a literal equality, no dihedral move applied first) and
up-to-equivalence (any rotation/reflection may be split).  Strict witnesses
are also up-to-equivalence witnesses; the converse can fail, and search runs
record such divergences.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from itertools import islice

from .core import Quiddity, coeff_ranks
from .maps import OddSizeError
from .rings import GeneratorSpec
from .solve import (
    DEFAULT_WORK_LIMIT,
    NotAQuiddityError,
    PARITY_EVEN,
    WorkLimitExceeded,
    enumerate_quiddities,
    find_decomposition,
    priced_nodes,
)

MODE_STRICT = "strict"
MODE_EQUIV = "up-to-equivalence"
MODES = (MODE_STRICT, MODE_EQUIV)

_Z = GeneratorSpec("int", 1)


def _even_verdicts(q: Quiddity) -> tuple[bool, bool]:
    """(strictly reducible, reducible up to equivalence) from one scan.

    Lemma: find_decomposition scans the literal tuple first (rotation 0,
    unreflected), so it returns a rotation-0, unreflected witness exactly
    when the literal tuple splits."""
    w = find_decomposition(q, parity=PARITY_EVEN)
    return w is not None and w.rotation == 0 and not w.reflected, w is not None


def is_evenly_reducible(q: Quiddity, mode: str = MODE_EQUIV) -> bool:
    """Splice split into two verified even tuples of size >= 4?

    strict demands the literal alignment q = left (+) right; the default
    allows any dihedral representative of q to split.  Sizes below 6 can
    never split (the two summand sizes add to size + 2), so every size-4
    tuple comes out evenly irreducible.
    """
    eps = q.sign if q.sign is not None else q.verify()
    if eps is None:
        raise NotAQuiddityError("even reducibility is defined for verified tuples")
    if q.size % 2:
        raise OddSizeError("even reducibility concerns even sizes")
    if q.size < 4:
        raise ValueError("even reducibility concerns sizes >= 4")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    strict, equiv = _even_verdicts(q)
    return strict if mode == MODE_STRICT else equiv


_STATE_KEYS = ("size", "bound", "mode", "done", "found", "complete")
_RECORD_KEYS = ("coeffs", "sign", "equiv_reducible")


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise ValueError(f"bad checkpoint: {what}")


@dataclass(frozen=True)
class EvenSearchState:
    """Resumable cursor for one (size, bound, mode) sweep.

    Progress is tracked at first-coefficient shard granularity, so merging
    finished shards is associative and order-independent and serialized
    states are byte-stable.  Shard c holds the classes whose least entry,
    the first of the canonical form, is c.  found keeps every such class of
    a done shard that is strictly irreducible, together with its
    up-to-equivalence verdict; the mode only selects which of those count as
    results.  A state written when a shard held every class containing c
    records some classes of pending shards too; it resumes to the same
    result, as a class found twice is recorded once.
    """

    size: int
    bound: int
    mode: str
    done: tuple[int, ...]
    found: tuple[tuple[tuple[int, ...], int, bool], ...]  # (coeffs, sign, equiv_reducible)
    complete: bool = False

    def to_json(self) -> str:
        obj = {
            "size": self.size,
            "bound": self.bound,
            "mode": self.mode,
            "done": sorted(self.done),
            "found": [
                {"coeffs": list(cc), "sign": sign, "equiv_reducible": red}
                for cc, sign, red in sorted(self.found)
            ],
            "complete": self.complete,
        }
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "EvenSearchState":
        """Parse a checkpoint without trusting it; ValueError otherwise.

        Every key must be present with its type; done must list distinct
        first coefficients within [-bound, bound], and complete must say
        whether it lists all of them.  Every record is re-verified: size,
        |c| <= bound, canonical form, sign through is_quiddity, and strict
        irreducibility together with the equiv_reducible flag, recomputed
        by the one-call decision the search uses (_even_verdicts).  A
        record deleted from found cannot be detected: its shard stays in
        done, so a resumed sweep never revisits it.
        """
        try:
            obj = json.loads(text)
        except RecursionError:
            raise ValueError("bad checkpoint: JSON nested too deeply") from None
        except json.JSONDecodeError as exc:
            raise ValueError(f"bad checkpoint: not JSON ({exc})") from None
        _require(
            isinstance(obj, dict) and sorted(obj) == sorted(_STATE_KEYS),
            f"expected exactly the keys {list(_STATE_KEYS)}",
        )
        size, bound, mode, done, found, complete = (obj[k] for k in _STATE_KEYS)
        _require(
            type(size) is int and size >= 4 and size % 2 == 0, "size must be an even integer >= 4"
        )
        _require(type(bound) is int and bound >= 0, "bound must be an integer >= 0")
        _require(isinstance(mode, str) and mode in MODES, f"mode must be one of {list(MODES)}")
        _require(
            isinstance(done, list)
            and all(type(c) is int and abs(c) <= bound for c in done)
            and len(set(done)) == len(done),
            "done must list distinct first coefficients within the bound",
        )
        _require(
            type(complete) is bool and complete == (len(done) == 2 * bound + 1),
            "complete must be true exactly when done lists every shard",
        )
        _require(isinstance(found, list), "found must be a list")
        records = []
        for rec in found:
            _require(
                isinstance(rec, dict) and sorted(rec) == sorted(_RECORD_KEYS),
                f"each record needs exactly the keys {list(_RECORD_KEYS)}",
            )
            cc, sign, red = (rec[k] for k in _RECORD_KEYS)
            _require(
                isinstance(cc, list)
                and len(cc) == size
                and all(type(c) is int and abs(c) <= bound for c in cc),
                f"{cc} is not a size-{size} integer tuple within the bound",
            )
            _require(type(sign) is int and type(red) is bool, f"{cc}: sign or flag of wrong type")
            q = Quiddity(_Z, cc, sign)
            _require(q.canonical().coeffs == q.coeffs, f"{cc} is not in canonical form")
            _require(q.verify() == sign, f"{cc} does not verify with sign {sign}")
            _require(
                _even_verdicts(q) == (False, red),
                f"{cc} is strictly reducible or its equiv_reducible flag is wrong",
            )
            records.append((q.coeffs, sign, red))
        _require(len({cc for cc, _, _ in records}) == len(records), "a class is recorded twice")
        return cls(size, bound, mode, tuple(sorted(done)), tuple(sorted(records)), complete)

    def save(self, path) -> None:
        """Write to_json() to path atomically: a synced temporary file in the
        same directory, then os.replace, so an interrupted write leaves the
        previous checkpoint intact."""
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.write(self.to_json())
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)

    @classmethod
    def load(cls, path) -> "EvenSearchState":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())


def search_evenly_irreducible(
    size: int,
    bound: int,
    mode: str = MODE_EQUIV,
    work_limit: int = DEFAULT_WORK_LIMIT,
    workers: int = 1,
    state: EvenSearchState | None = None,
):
    """All canonical evenly irreducible integer tuples of one even size.

    Returns (results, final_state).  Shards are swept in ascending order of
    their coefficient c, and shard c yields the classes whose least entry is
    c (the min-first walk of enumerate_quiddities).  Each class in the
    affordable shards gets one decomposition scan (_even_verdicts), so
    strict mode tests the canonical representative; strictly reducible
    classes are not recorded, and a class already recorded is not scanned
    again.  When the node budget runs out first, WorkLimitExceeded carries a
    state that resumes the sweep exactly where it stopped, and its message
    names the node cost of one shard, the least budget under which a resume
    makes progress.  results lists (quiddity, equiv_reducible) pairs
    filtered by mode, sorted; the flag keeps divergent records visible.
    """
    if size % 2 or size < 4:
        raise ValueError("the search runs over even sizes >= 4")
    if bound < 0:
        raise ValueError("coefficient bound must be >= 0")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if state is not None and (
        (state.size, state.bound, state.mode) != (size, bound, mode)
        or any(abs(c) > bound for c in state.done)
    ):
        raise ValueError("checkpoint does not match this search")
    shards = 2 * bound + 1
    done = set(state.done) if state else set()
    records = {cc: (sign, red) for cc, sign, red in state.found} if state else {}
    per_shard, per_shard_text = priced_nodes(1, shards, size - 1)
    affordable = 0 if per_shard is None else max(0, min(shards, work_limit // per_shard))
    pending = (c for c in range(-bound, bound + 1) if c not in done)
    batch = list(islice(pending, affordable))
    overflow = shards - len(done) - len(batch)
    if batch:
        found = enumerate_quiddities(
            _Z, size, bound, canonical_only=True, work_limit=work_limit, workers=workers,
            firsts=batch,
        )
        for q in found:
            if q.coeffs not in records:
                strict, equiv = _even_verdicts(q)
                if not strict:
                    records[q.coeffs] = (q.sign, equiv)
        done.update(batch)
    found = tuple(sorted((cc, sign, red) for cc, (sign, red) in records.items()))
    final = EvenSearchState(size, bound, mode, tuple(sorted(done)), found, complete=not overflow)
    if overflow:
        message = (
            f"{overflow} of {shards} shards still pending; "
            f"one shard needs {per_shard_text} nodes (limit {work_limit})"
        )
        raise WorkLimitExceeded(message, state=final)
    results = sorted(
        ((Quiddity(_Z, cc, sign), red) for cc, (sign, red) in records.items()
         if mode == MODE_STRICT or not red),
        key=lambda pair: coeff_ranks(pair[0].coeffs, _Z),  # the element order of classes
    )
    return results, final
