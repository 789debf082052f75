"""Even splice reducibility of even-size integer tuples and the resumable
search for evenly irreducible solutions (audits.link_probe checks their link
to tuples over <i>).

An even-size verified integer tuple is evenly reducible when it splits as a
splice sum of two verified tuples of even size at least 4.  Two readings are
implemented: strict (a literal equality, no dihedral move applied first) and
up-to-equivalence (any rotation/reflection may be split).  Strict witnesses
are also up-to-equivalence witnesses; the converse can fail, and strict
search runs record such divergences.  Both readings are decided from the
continuants of windows alone (_window_verdicts), and the up-to-equivalence
search walks only tuples with no adjacent pair that such a window rules out.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from .core import Quiddity
from .maps import OddSizeError
from .rings import GeneratorSpec
from .solve import (
    DEFAULT_WORK_LIMIT,
    PARITY_EVEN,
    NotAQuiddityError,
    WorkLimitExceeded,
    enumerate_quiddities,
)

MODE_STRICT = "strict"
MODE_EQUIV = "up-to-equivalence"
MODES = (MODE_STRICT, MODE_EQUIV)

_Z = GeneratorSpec("int", 1)


def _window_verdicts(t: tuple[int, ...]) -> tuple[bool, bool]:
    """(strictly reducible, reducible up to equivalence) of a verified
    integer tuple t of even size n >= 4 at scale 1, by the window rule.

    Write K(w) for the continuant of a window w, the upper-left entry of
    M(w_1)*...*M(w_L): K() = 1, K(a) = a, and K grows at either end by
    K(w, a) = a*K(w) - K(w minus its last entry).

    Lemma (window rule).  For a representative r of t,
    _scan_representative with parity even tests each even right-summand
    size l in [4, n - 2] on the window r[m:], m = n + 2 - l, of even length
    L = l - 2 in [2, n - 4], and fires exactly when K(r[m:]) = +-1: at
    scale 1, with no coefficient limit and no sign restriction, _complete
    then always succeeds, and the left summand, of size m >= 4, verifies by
    the splice lemma.  So t is strictly reducible iff some suffix window of
    t of even length in [2, n - 4] has continuant +-1.  find_decomposition
    runs the scan on every rotation and reflection of t.  The suffixes of
    the rotations are all the cyclic windows of t, as L <= n - 4 < n, and a
    reflection reverses a window, which keeps its continuant (with S =
    diag(1, -1), S*M(a)*S = M(a)^T).  So t is evenly reducible up to
    equivalence iff some cyclic window of even length in [2, n - 4] has
    continuant +-1.  At n = 4 the range is empty: both verdicts are False.
    At L = 2, K(a, b) = a*b - 1, so an evenly irreducible tuple of size >= 6
    has no entry 0 and no cyclically adjacent pair with product 2
    (solve.reducing_rule with parity even: 0 excluded, and 1 and 2, -1 and
    -2 partners).  Over z:-1 the elements are -t, and negation keeps the
    continuant of an even-length window, so the rule reads t alike.
    """
    n = len(t)
    # two entries per step: (k_prev, k) becomes (x, b*x - k), x = a*k - k_prev
    k_prev, k = 0, 1
    for j in range(n - 1, 3, -2):  # the suffixes t[j-1:], grown leftwards
        k_prev = t[j] * k - k_prev
        k = t[j - 1] * k_prev - k
        if k in (1, -1):
            return True, True
    tt = t + t
    for start in range(n):  # the cyclic windows from start, grown rightwards
        k_prev, k = 0, 1
        for j in range(start, start + n - 4, 2):
            k_prev = tt[j] * k - k_prev
            k = tt[j + 1] * k_prev - k
            if k in (1, -1):
                return False, True
    return False, False


def _z_sign(t: tuple[int, ...]) -> int | None:
    """is_quiddity of the integer tuple t over z, on plain integers: the sign
    eps with M(t_n)*...*M(t_1) = eps*Id, or None.

    Lemma.  Over z each element is its coefficient, and M(a) times a matrix
    with rows r1 over r2 has rows a*r1 - r2 over r1, so the product's rows
    are two integer recurrences; the sign is then read off them by
    is_quiddity's test (both off-diagonal entries 0, equal diagonal entries
    +-1).
    """
    r1, r2 = (1, 0), (0, 1)
    for a in t:
        r1, r2 = (a * r1[0] - r2[0], a * r1[1] - r2[1]), r1
    (p11, p12), (p21, p22) = r1, r2
    return p11 if p12 == p21 == 0 and p11 == p22 and p11 in (1, -1) else None


def is_evenly_reducible(q: Quiddity, mode: str = MODE_EQUIV) -> bool:
    """Splice split into two verified even tuples of size >= 4?

    strict demands the literal alignment q = left (+) right; the default
    allows any dihedral representative of q to split.  Sizes below 6 can
    never split (the two summand sizes add to size + 2), so every size-4
    tuple comes out evenly irreducible.  q must lie over z, z:-1 or sqrt:1
    without +nonneg, where the window rule (_window_verdicts) decides both
    readings; any other generator is a ValueError.
    """
    if q.gen.ring not in (("int", 1, 1), ("int", -1, 1)) or q.gen.nonneg:
        gen = q.gen.to_string()
        raise ValueError(f"even reducibility is decided over z, z:-1 and sqrt:1, not {gen}")
    eps = q.sign if q.sign is not None else q.verify()
    if eps is None:
        raise NotAQuiddityError("even reducibility is defined for verified tuples")
    if q.size % 2:
        raise OddSizeError("even reducibility concerns even sizes")
    if q.size < 4:
        raise ValueError("even reducibility concerns sizes >= 4")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    strict, equiv = _window_verdicts(q.coeffs)
    return strict if mode == MODE_STRICT else equiv


CHECKPOINT_VERSION = 2
_STATE_KEYS = ("version", "size", "bound", "mode", "done", "found")
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
    the first of the canonical form, is c.  found keeps the classes of the
    done shards that are irreducible in the state's mode, each with its
    up-to-equivalence verdict (always False up to equivalence).  complete
    is derived from done; to_json writes format CHECKPOINT_VERSION.
    Construction raises ValueError unless done lists distinct shards within
    [-bound, bound], each record lies in a done shard, none is flagged up
    to equivalence, and no class is recorded twice.
    """

    size: int
    bound: int
    mode: str
    done: tuple[int, ...]
    found: tuple[tuple[tuple[int, ...], int, bool], ...]  # (coeffs, sign, equiv_reducible)

    def __post_init__(self):
        done, strict = set(self.done), self.mode == MODE_STRICT
        _require(
            len(done) == len(self.done) and all(abs(c) <= self.bound for c in done),
            "done must list distinct first coefficients within the bound",
        )
        for cc, _, red in self.found:
            _require(cc[0] in done, f"{cc} lies in shard {cc[0]}, which is not done")
            _require(strict or not red, f"{cc} is evenly reducible up to equivalence")
        _require(len({cc for cc, _, _ in self.found}) == len(self.found), "a class is recorded twice")

    @property
    def complete(self) -> bool:
        return len(self.done) == 2 * self.bound + 1

    def to_json(self) -> str:
        obj = {
            "version": CHECKPOINT_VERSION,
            "size": self.size,
            "bound": self.bound,
            "mode": self.mode,
            "done": sorted(self.done),
            "found": [
                {"coeffs": list(cc), "sign": sign, "equiv_reducible": red}
                for cc, sign, red in sorted(self.found)
            ],
        }
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "EvenSearchState":
        """Parse a checkpoint without trusting it; ValueError otherwise.

        Only version CHECKPOINT_VERSION is read: earlier formats recorded
        other classes, so their sweeps must be rerun.  Every key must be
        present with its type.  Every record is re-verified: size, |c| <=
        bound, canonical form, sign (_z_sign), and strict irreducibility
        together with the equiv_reducible flag, recomputed by the decision
        the search uses (_window_verdicts).  The constructor
        then checks the invariants across fields.  A record deleted from
        found cannot be detected: its shard stays in done, so a resumed
        sweep never revisits it.
        """
        try:
            obj = json.loads(text)
        except RecursionError:
            raise ValueError("bad checkpoint: JSON nested too deeply") from None
        except json.JSONDecodeError as exc:
            raise ValueError(f"bad checkpoint: not JSON ({exc})") from None
        _require(isinstance(obj, dict), "expected a JSON object")
        version = obj.get("version")
        what = "an unversioned checkpoint" if version is None else f"version {version!r}"
        _require(
            type(version) is int and version == CHECKPOINT_VERSION,
            f"{what} is no longer read; rerun the sweep without this file",
        )
        _require(sorted(obj) == sorted(_STATE_KEYS), f"expected exactly the keys {list(_STATE_KEYS)}")
        size, bound, mode, done, found = (obj[k] for k in _STATE_KEYS[1:])
        _require(
            type(size) is int and size >= 4 and size % 2 == 0, "size must be an even integer >= 4"
        )
        _require(type(bound) is int and bound >= 0, "bound must be an integer >= 0")
        _require(isinstance(mode, str) and mode in MODES, f"mode must be one of {list(MODES)}")
        _require(
            isinstance(done, list) and all(type(c) is int for c in done),
            "done must be a list of integers",
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
            _require(_z_sign(q.coeffs) == sign, f"{cc} does not verify with sign {sign}")
            _require(
                _window_verdicts(q.coeffs) == (False, red),
                f"{cc} is strictly reducible or its equiv_reducible flag is wrong",
            )
            records.append((q.coeffs, sign, red))
        return cls(size, bound, mode, tuple(sorted(done)), tuple(sorted(records)))

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
    c (the min-first walk of enumerate_quiddities).  Up to equivalence the
    walk runs with prune=PARITY_EVEN: at size >= 6 it leaves out every class
    with a cyclically adjacent pair of reducing_rule(z, size, bound, "even"),
    none of which is evenly irreducible (the window rule, _window_verdicts);
    the pairs are closed under swapping, so the walk still yields each
    remaining class once.
    Strict mode and size 4 walk every class.  Each class walked gets its
    verdicts from the window rule (_window_verdicts), so strict mode tests
    the canonical representative.  Strict mode records the strictly irreducible classes
    with their up-to-equivalence flag; up-to-equivalence mode records the
    evenly irreducible ones.  A state keeps every record in a done shard
    (EvenSearchState checks it), so on a resume the pending shards walk only
    unrecorded classes.  When the work limit cuts the walk
    (solve._map_shards), WorkLimitExceeded carries a state whose done lists
    exactly the shards before the cut, whatever the worker count, so a
    resume continues the sweep where it stopped; a sweep refused up front
    (enumerate_quiddities) carries the state unchanged.  results lists
    the recorded (quiddity, equiv_reducible) pairs in the element order of
    classes; the flag keeps divergent records visible.
    """
    if size % 2 or size < 4:
        raise ValueError("the search runs over even sizes >= 4")
    if bound < 0:
        raise ValueError("coefficient bound must be >= 0")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    strict = mode == MODE_STRICT
    if state is not None and (state.size, state.bound, state.mode) != (size, bound, mode):
        raise ValueError("checkpoint does not match this search")
    shards = 2 * bound + 1
    done = set(state.done) if state else set()
    records = list(state.found) if state else []
    try:
        found = enumerate_quiddities(
            _Z, size, bound, work_limit=work_limit, workers=workers,
            firsts=(c for c in range(-bound, bound + 1) if c not in done),
            prune=None if strict else PARITY_EVEN,
        )
        cut, finished, pairs = None, range(-bound, bound + 1), [(q.coeffs, q.sign) for q in found]
    except WorkLimitExceeded as exc:
        if exc.state is None:  # refused whatever the limit
            raise
        cut, (finished, pairs) = exc, exc.state
    done.update(finished)
    for cc, sign in pairs:
        split_strict, split_equiv = _window_verdicts(cc)
        if not (split_strict if strict else split_equiv):
            records.append((cc, sign, split_equiv))
    final = EvenSearchState(size, bound, mode, tuple(sorted(done)), tuple(sorted(records)))
    if cut is not None:
        message = f"{shards - len(done)} of {shards} shards still pending; {cut}"
        raise WorkLimitExceeded(message, state=final) from None
    # over z the element order of classes is the order of their coefficients
    results = [(Quiddity(_Z, cc, sign), red) for cc, sign, red in final.found]
    return results, final
