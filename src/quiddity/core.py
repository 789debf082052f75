"""Cyclic tuple algebra: elementary 2x2 factors, ordered products, continuants,
verification against plus/minus identity, splice sums and dihedral
canonical forms.

A tuple (a_1, ..., a_n) is verified when M(a_n)*...*M(a_1) = eps*Id with
M(a) = [[a, -1], [1, 0]]; eps is its sign.  The factor for the last entry
sits leftmost; flipping that convention would silently swap the two
off-diagonal continuant windows, so it is fixed here once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .rings import GeneratorSpec, Int, RingElem

DEFAULT_EXPANSION_LIMIT = 20


class SizeLimitError(ValueError):
    """A combinatorial guard (tuple size, polygon size, ...) was exceeded."""


class TheoremViolation(RuntimeError):
    """A checked mathematical guarantee failed on concrete data.

    Raising this means a falsification probe found a real counterexample
    (or an implementation bug); the CLI turns it into exit code 1.
    """


@dataclass(frozen=True)
class Mat2:
    """2x2 matrix over one of the exact rings."""

    e11: RingElem
    e12: RingElem
    e21: RingElem
    e22: RingElem

    def __mul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.e11 * other.e11 + self.e12 * other.e21,
            self.e11 * other.e12 + self.e12 * other.e22,
            self.e21 * other.e11 + self.e22 * other.e21,
            self.e21 * other.e12 + self.e22 * other.e22,
        )

    def det(self) -> RingElem:
        return self.e11 * self.e22 - self.e12 * self.e21

    @staticmethod
    def identity() -> "Mat2":
        return Mat2(Int(1), Int(0), Int(0), Int(1))


def mat_of(a) -> Mat2:
    """Elementary factor [[a, -1], [1, 0]]."""
    if isinstance(a, int):
        a = Int(a)
    return Mat2(a, Int(-1), Int(1), Int(0))


def product_matrix(entries) -> Mat2:
    """Ordered product with the last entry's factor leftmost; det is 1."""
    t = tuple(entries)
    if not t:
        raise ValueError("empty tuple has no product matrix")
    acc = mat_of(t[0])
    for a in t[1:]:
        acc = mat_of(a) * acc
    return acc


def continuant_rec(entries) -> RingElem:
    """Continuant by the three-term recurrence K_j = a_j*K_{j-1} - K_{j-2}.

    K of the empty tuple is 1 (and K_{-1} = 0), matching the tridiagonal
    determinant definition.
    """
    prev, cur = Int(0), Int(1)
    for a in entries:
        prev, cur = cur, a * cur - prev
    return cur


def continuant_euler(entries, size_limit: int = DEFAULT_EXPANSION_LIMIT) -> RingElem:
    """Continuant as the signed sum over deletions of disjoint adjacent pairs.

    Every way of deleting disjoint pairs of consecutive entries contributes
    the product of the survivors times (-1)**pairs.  Term count grows like
    Fibonacci numbers, hence the size guard.  Agrees with continuant_rec
    everywhere; the two are kept as independent routes on purpose.
    """
    t = tuple(entries)
    n = len(t)
    if n > size_limit:
        raise SizeLimitError(f"refusing pair-deletion expansion of size {n} > {size_limit}")
    total = Int(0)

    def walk(i, prod, deleted):
        nonlocal total
        if i >= n:
            total = total + (-prod if deleted % 2 else prod)
            return
        walk(i + 1, prod * t[i], deleted)
        if i + 1 < n:
            walk(i + 2, prod, deleted + 1)

    walk(0, Int(1), 0)
    return total


def continuant_windows_match(t, P: Mat2) -> bool:
    """True when the product matrix P of t carries the four continuant
    windows K(t), -K(t[1:]), K(t[:-1]), -K(t[1:-1]) row by row."""
    n = len(t)
    e22_expected = Int(0) if n == 1 else -continuant_rec(t[1:-1])
    return (
        P.e11 == continuant_rec(t)
        and P.e21 == continuant_rec(t[:-1])
        and P.e12 == -continuant_rec(t[1:])
        and P.e22 == e22_expected
    )


def is_quiddity(entries, cross_check: bool = False) -> int | None:
    """Sign eps with M(a_n)...M(a_1) = eps*Id, or None.

    Size-1 tuples always return None: the lower-left entry of a single
    factor is 1.  With cross_check=True the product entries are also
    validated against the four continuant windows.
    """
    t = tuple(entries)
    if not t:
        raise ValueError("empty tuple")
    P = product_matrix(t)
    if cross_check and not continuant_windows_match(t, P):
        raise AssertionError(f"continuant windows disagree with the product for {t!r}")
    if not P.e12.is_zero() or not P.e21.is_zero():
        return None
    r = P.e11.rational_value()
    if r in (1, -1) and P.e22 == P.e11:
        return r
    return None


def rotations(t):
    return [t[i:] + t[:i] for i in range(len(t))]


def dihedral_orbit(t):
    """All rotations of t and of its reversal (2n tuples, repeats included)."""
    return rotations(t) + rotations(t[::-1])


_BELOW_ALL = float("-inf")  # the rank of 0 over quad and poly generators


def coeff_ranks(coeffs: tuple, gen: GeneratorSpec) -> tuple:
    """Each coefficient's rank under the element order (see canonical_coeffs);
    the tuple itself when the ranks are the coefficients (int, s >= 0)."""
    kind, s, _ = gen.ring
    if kind != "int":
        return tuple(c if c else _BELOW_ALL for c in coeffs)
    return coeffs if s >= 0 else tuple(-c for c in coeffs)


def canonical_coeffs(coeffs, gen: GeneratorSpec):
    """Canonical dihedral representative of a coefficient tuple: the least of
    its 2n rotations and reflections in the order of the elements c*w, which
    puts rationals first, by value, then irrationals by their coefficient on
    sqrt(d) or X.

    Rank lemma: on one generator's coefficients that order embeds into the
    integers and -inf, so the plain tuple minimum of the ranked rotations,
    mapped back, is the canonical form.  For ``int`` (w = s) the rank is c if
    s >= 0 and -c if s < 0; at s = 0 every element is 0 and c is the
    tie-break.  For ``quad`` and ``poly``, 0 is the only rational and ranks
    -inf, and a nonzero c ranks c: this needs scale > 0 in GeneratorSpec.ring
    (w = scale*sqrt(d)), as a negative scale would reverse that order.

    Only rotations that start at a minimal rank are compared, forward and
    reflected: the least rotation starts with the least rank, so no other
    can be the minimum (Booth 1980).
    """
    t = tuple(coeffs)
    if not t:
        raise ValueError("empty tuple")
    ranked = coeff_ranks(t, gen)
    n = len(ranked)
    low = min(ranked)
    fwd = ranked + ranked
    bwd = fwd[::-1]
    best = fwd  # above the first rotation compared: it starts higher or has it as a prefix
    for i in range(n):
        if ranked[i] == low:
            u = fwd[i : i + n]
            if u < best:
                best = u
            u = bwd[n - 1 - i : 2 * n - 1 - i]  # reflection read back from i
            if u < best:
                best = u
    if ranked is t:
        return best
    back = dict(zip(ranked, t))
    return tuple(back[r] for r in best)


def sum_oplus(a, b):
    """Splice two cyclic tuples into one of size len(a) + len(b) - 2.

    Works uniformly on ring elements and on plain integer coefficient
    tuples; both operands need size >= 2.
    """
    a, b = tuple(a), tuple(b)
    if len(a) < 2 or len(b) < 2:
        raise ValueError("splice operands need size >= 2")
    return (a[0] + b[-1],) + a[1:-1] + (a[-1] + b[0],) + b[1:-1]


@dataclass(frozen=True)
class Quiddity:
    """A cyclic coefficient tuple over a generator, with its verified sign.

    coeffs holds the integers k_j of the entries a_j = k_j * w.  sign, when
    present, asserts that the ordered product equals sign * Id; it is
    re-checkable through verify().  Verified tuples have size >= 2.
    """

    gen: GeneratorSpec
    coeffs: tuple[int, ...]
    sign: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if self.sign is not None and len(self.coeffs) < 2:
            raise ValueError("verified tuples have size >= 2")

    @property
    def size(self) -> int:
        return len(self.coeffs)

    def elements(self) -> tuple[RingElem, ...]:
        return tuple(self.gen.embed(c) for c in self.coeffs)

    def verify(self) -> int | None:
        return is_quiddity(self.elements())

    @classmethod
    def verified(cls, gen: GeneratorSpec, coeffs) -> "Quiddity | None":
        """Build and verify; None when the tuple is not a solution."""
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("empty tuple")
        eps = is_quiddity(tuple(gen.embed(c) for c in coeffs))
        return None if eps is None else cls(gen, coeffs, eps)

    def canonical(self) -> "Quiddity":
        return Quiddity(self.gen, canonical_coeffs(self.coeffs, self.gen), self.sign)
