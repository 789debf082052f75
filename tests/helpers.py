"""Shared strategies and independent oracles for the suite.

Oracles recompute expected behavior through deliberately different routes
(plain integer-pair 2x2 matrices, exhaustive grid scans, the generic
RingElem/Mat2 closed forms) so the package fast paths are always held
against something slower and simpler.
"""

from __future__ import annotations

import math
import os
from itertools import product
from pathlib import Path

import hypothesis.strategies as st

import quiddity
from quiddity import (
    Decomposition,
    GeneratorSpec,
    Int,
    Mat2,
    NoModulusError,
    Poly,
    Quad,
    Quiddity,
    dihedral_orbit,
    is_quiddity,
    mat_of,
    product_matrix,
    sum_oplus,
)
from quiddity import solve
from quiddity.core import coeff_ranks

SMALL = st.integers(-6, 6)


def child_env(**extra):
    """The environment of a child process: it imports the package this suite
    imported (src/ in a checkout), with extra variables set."""
    return {**os.environ, "PYTHONPATH": str(Path(quiddity.__file__).parents[1]), **extra}


def int_elems():
    return SMALL.map(Int)


def quad_elems(d):
    return st.tuples(SMALL, SMALL).map(lambda ab: Quad(ab[0], ab[1], d))


def poly_elems():
    return st.lists(st.integers(-4, 4), max_size=4).map(Poly)


GENERATORS = [
    GeneratorSpec.from_string(s)
    for s in (
        "z",
        "z:3",
        "z:-2",
        "z+nonneg",
        "sqrt:2",
        "sqrt:3",
        "sqrt:5",
        "sqrt:4",
        "isqrt:1",
        "isqrt:2",
        "isqrt:4",
        "isqrt:6",
        "isqrt:2+nonneg",
        "alpha",
    )
]

MODULUS_GENERATORS = [g for g in GENERATORS if g.has_modulus()]


# --- integer-pair matrix arithmetic: an independent verification route ------
# elements are pairs (a, b) meaning a + b*w with w**2 = d; for plain-integer
# rings the second slot stays 0 and d is irrelevant.


def pair_mul(x, y, d):
    return (x[0] * y[0] + d * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def pair_mat_mul(A, B, d):
    a11, a12, a21, a22 = A
    b11, b12, b21, b22 = B

    def dot(p, q, r, s):
        m1 = pair_mul(p, q, d)
        m2 = pair_mul(r, s, d)
        return (m1[0] + m2[0], m1[1] + m2[1])

    return (
        dot(a11, b11, a12, b21),
        dot(a11, b12, a12, b22),
        dot(a21, b11, a22, b21),
        dot(a21, b12, a22, b22),
    )


def pair_mat_of(e):
    return (e, (-1, 0), (1, 0), (0, 0))


PAIR_ID = ((1, 0), (0, 0), (0, 0), (1, 0))


def pair_product(entries, d):
    acc = pair_mat_of(entries[0])
    for e in entries[1:]:
        acc = pair_mat_mul(pair_mat_of(e), acc, d)
    return acc


def pair_sign(entries, d):
    """eps for a tuple of pair elements, or None; brute verification route."""
    P = pair_product(entries, d)
    if P[1] != (0, 0) or P[2] != (0, 0):
        return None
    if P[0] == (1, 0) and P[3] == (1, 0):
        return 1
    if P[0] == (-1, 0) and P[3] == (-1, 0):
        return -1
    return None


def gen_pair_embedding(gen):
    """(embed, d) turning coefficients into pair elements for this generator."""
    kind, p, scale = gen.ring
    if kind == "int":
        return (lambda c: (c * p, 0)), 2
    if kind == "quad":
        return (lambda c: (0, c * scale)), p
    raise ValueError("pair arithmetic covers integer and quadratic rings only")


# --- exhaustive oracles ------------------------------------------------------


def element_key(x):
    """The element order canonical forms follow: rational elements first, by
    value (plain ints count as rationals), then quadratic a + b*w by (b, a, d),
    then polynomials by degree and coefficients."""
    r = x if isinstance(x, int) else x.rational_value()
    if r is not None:
        return (0, r)
    if isinstance(x, Quad):
        return (1, x.b, x.a, x.d)
    return (2, len(x.coeffs), x.coeffs)


def coeff_key(gen):
    """Order on gen's coefficients: element order of c*w, ties broken by c
    (only the zero generator embeds distinct coefficients equally)."""
    return lambda c: (element_key(gen.embed(c)), c)


def canonical_form(t, key=element_key):
    """Dihedral minimum under key, by default the element order: the oracle
    for canonical_coeffs, which ranks coefficients instead."""
    t = tuple(t)
    if not t:
        raise ValueError("empty tuple")
    return min(dihedral_orbit(t), key=lambda u: tuple(map(key, u)))


def element_order(gen):
    """Sort key on gen's coefficient tuples: size, then the canonical form,
    then the tuple itself, each in the element order: the oracle for the
    order of plain enumeration's output."""
    key = coeff_key(gen)
    return lambda t: (len(t), tuple(map(key, canonical_form(t, key))), tuple(map(key, t)))


def every_tuple(classes):
    """Every tuple of the classes' dihedral orbits, each a Quiddity with its
    class's sign: class by class, each orbit sorted on coeff_ranks.  Over
    enumerate_quiddities' classes these are all the solutions of its bounded
    space (the orbit lemma of core.dihedral_orbit), in the order plain
    enumerate prints them."""
    return [Quiddity(q.gen, t, q.sign) for q in classes
            for t in sorted(dihedral_orbit(q.coeffs), key=lambda t: coeff_ranks(t, q.gen))]


def brute_enumerate(gen, n, bound):
    """Filter the full coefficient grid through the generic matrix route."""
    lo = 0 if gen.nonneg else -bound
    out = []
    for coeffs in product(range(lo, bound + 1), repeat=n):
        eps = is_quiddity(tuple(gen.embed(c) for c in coeffs))
        if eps is not None:
            out.append((coeffs, eps))
    return out


_RUN_SHARD, _WALK_STRIPE = solve._run_shard, solve._walk_stripe


def shard_raising_at(bad, gen, n, bound, first, prune=None, budget=math.inf):
    """solve._run_shard, except that shard bad raises ArithmeticError: bound
    with functools.partial, it stands in for a shard that fails inside one
    walker of a pool (module level, so every start method can pickle it)."""
    if first == bad:
        raise ArithmeticError(f"shard {bad}")
    return _RUN_SHARD(gen, n, bound, first, prune, budget)


def walk_stripe_then_exit(send, *args):
    """solve._walk_stripe, then exit code 3: a worker that sends its results
    and still fails."""
    _WALK_STRIPE(send, *args)
    os._exit(3)


def shard_charges(size, bound, mode="up-to-equivalence"):
    """The work charge of each shard of even-search at (size, bound, mode),
    in shard order: what the kernel charges the work limit for it."""
    z = GeneratorSpec("int", 1)
    prune = None if mode == "strict" else "even"
    return [solve._run_shard(z, size, bound, c, prune)[1] for c in range(-bound, bound + 1)]


def reducing_pair_set(gen, n, bound, parity):
    """The pairs of coefficients within the bound that solve.reducing_rule
    stands for: (a, b) with a or b excluded, or partner[a] = b."""
    excluded, partner = solve.reducing_rule(gen, n, bound, parity)
    values = solve._coeff_values(gen, bound)
    return {(a, b) for a in values for b in values
            if a in excluded or b in excluded or partner.get(a) == b}


def pair_free(tuples, pairs):
    """The (coeffs, sign) pairs of tuples with no cyclically adjacent pair in
    pairs."""
    return {(c, eps) for c, eps in tuples
            if all((c[j - 1], c[j]) not in pairs for j in range(len(c)))}


def full_walk_shard(gen, n, bound, first):
    """solve._run_shard walking every one of the first n-2 levels in full,
    the third-from-last included: the oracle for its closed-form entry."""
    scales = solve._position_scales(gen, n, bound)
    if scales is None:
        return []
    found = []
    vals = solve._coeff_values(gen, bound)
    sx, sy = scales[n - 2], scales[n - 1]

    def rec(depth, prefix, p11, p12, p21, p22):
        if depth == n - 2:
            if p11 in (1, -1):
                hit = solve._complete(p11, p12, p21, p22, sx, sy, bound, gen.nonneg)
                if hit is not None:
                    found.append((prefix + hit[:2], hit[2]))
            return
        for c in vals:
            e = c * scales[depth]
            rec(depth + 1, prefix + (c,), e * p11 - p21, e * p12 - p22, p11, p12)

    if first is None:
        rec(0, (), 1, 0, 0, 1)
    else:
        e = first * scales[0]
        rec(1, (first,), e, -1, 1, 0)
    return found


def third_entries(p11, p21, s, vals):
    """The c in vals, ascending, for which the entry e = c*s turns a prefix
    product with first column (p11, p21) and det 1 into one with
    e*p11 - p21 = +-1: the third-from-last entries the kernel's loop body
    solves for (the closed-form lemma of solve._run_shard)."""
    q = p11 * s
    if q == 0:  # p11 = 0 forces p21 = +-1 by det 1; s = 0 makes e = 0
        return vals if p21 in (1, -1) else ()
    lo, hi = p21 - 1, p21 + 1
    if q < 0:
        q, lo, hi = -q, -hi, -lo
    return [num // q for num in (lo, hi) if num % q == 0 and num // q in vals]


def generic_decomposition(q, parity="any"):
    """find_decomposition on generic Mat2/RingElem arithmetic, with the left
    summand verified too: the slow oracle for the integer scan, in the same
    scan order, so whole witnesses compare equal."""
    gen, n = q.gen, q.size
    if parity == "even" and n % 2:
        return None
    for rotation in range(n):
        for reflected in (False, True):
            base = q.coeffs[::-1] if reflected else q.coeffs
            rep = base[rotation:] + base[:rotation]
            block = Mat2.identity()
            for l in range(3, n):
                m = n + 2 - l
                block = block * mat_of(gen.embed(rep[m]))
                if parity == "even" and (l % 2 or m % 2):
                    continue
                r = block.e11.rational_value()
                if r not in (1, -1):
                    continue
                eps = -r
                b_first, b_last = eps * block.e12, (-eps) * block.e21
                if block.e22 != eps * (b_first * b_last - 1):
                    continue
                kb_first, kb_last = gen.extract(b_first), gen.extract(b_last)
                if kb_first is None or kb_last is None:
                    continue
                left = (rep[0] - kb_last,) + rep[1 : m - 1] + (rep[m - 1] - kb_first,)
                if gen.nonneg and min(left[0], left[-1]) < 0:
                    continue
                if is_quiddity(tuple(gen.embed(c) for c in left)) is None:
                    continue
                right = Quiddity(gen, (kb_first,) + rep[m:] + (kb_last,), eps)
                return Decomposition(rotation, reflected, rep, left, right)
    return None


def brute_decomposition(q, parity="any", boundary_bound=6):
    """Exhaustive splice-decomposition scan with bounded boundary entries.

    Completeness of the bound is asserted separately against the exact
    algorithm's witnesses.
    """
    gen = q.gen
    n = q.size
    for reflected in (False, True):
        base = q.coeffs[::-1] if reflected else q.coeffs
        for r in range(n):
            rep = base[r:] + base[:r]
            for l in range(3, n):
                m = n + 2 - l
                if parity == "even" and (l % 2 or m % 2):
                    continue
                interior = rep[m:]
                for b1 in range(-boundary_bound, boundary_bound + 1):
                    for bl in range(-boundary_bound, boundary_bound + 1):
                        if gen.nonneg and (b1 < 0 or bl < 0):
                            continue
                        b = (b1,) + interior + (bl,)
                        if is_quiddity(tuple(gen.embed(c) for c in b)) is None:
                            continue
                        a = (rep[0] - bl,) + rep[1 : m - 1] + (rep[m - 1] - b1,)
                        if gen.nonneg and (a[0] < 0 or a[-1] < 0):
                            continue
                        if is_quiddity(tuple(gen.embed(c) for c in a)) is None:
                            continue
                        assert sum_oplus(a, b) == rep
                        return rep, a, b
    return None


def brute_tail_completions(prefix, gen, tail_bound):
    """All (kx, ky, eps) finishing the prefix, by exhaustive evaluation of the
    full product over the tail grid (with sound row-based pruning: the last
    two product rows do not depend on the final entry).  Polynomial rings
    have no pair arithmetic and go through the generic route instead."""
    lo = 0 if gen.nonneg else -tail_bound
    if gen.ring[0] == "poly":
        grid = product(range(lo, tail_bound + 1), repeat=2)
        found = ((kx, ky, is_quiddity(tuple(map(gen.embed, (*prefix, kx, ky))))) for kx, ky in grid)
        return sorted(hit for hit in found if hit[2] is not None)
    embed, d = gen_pair_embedding(gen)
    P = pair_product([embed(c) for c in prefix], d) if prefix else PAIR_ID
    out = []
    for kx in range(lo, tail_bound + 1):
        Q = pair_mat_mul(pair_mat_of(embed(kx)), P, d)
        # the final product has row 2 equal to row 1 of Q, whatever y is
        if Q[0] != (0, 0) or Q[1] not in ((1, 0), (-1, 0)):
            continue
        for ky in range(lo, tail_bound + 1):
            T = pair_mat_mul(pair_mat_of(embed(ky)), Q, d)
            if T[1] == (0, 0) and T[2] == (0, 0):
                if T[0] == (1, 0) and T[3] == (1, 0):
                    out.append((kx, ky, 1))
                elif T[0] == (-1, 0) and T[3] == (-1, 0):
                    out.append((kx, ky, -1))
    return sorted(out)


def kernel_tail(prefix, gen, tail_bound):
    """solve._complete fed as the kernel feeds it: the integer product of the
    prefix scaled by _position_scales, for tuples of size len(prefix) + 2
    with every coefficient within tail_bound; a list of at most one hit."""
    n = len(prefix) + 2
    scales = solve._position_scales(gen, n, tail_bound)
    if scales is None:
        return []
    p11, p12, p21, p22 = 1, 0, 0, 1
    for c, s in zip(prefix, scales):
        e = c * s
        p11, p12, p21, p22 = e * p11 - p21, e * p12 - p22, p11, p12
    if p11 not in (1, -1):
        return []
    hit = solve._complete(p11, p12, p21, p22, scales[n - 2], scales[n - 1], tail_bound, gen.nonneg)
    return [] if hit is None else [hit]


# --- the generic closed forms the integer routes replaced ---------------------


class NotUnimodularError(ValueError):
    """Tail completion needs a determinant-1 prefix product."""


def solve_tail2(P: Mat2, gen: GeneratorSpec):
    """All (kx, ky, eps) with M(y)*M(x)*P = eps*Id, x = kx*w, y = ky*w.

    M(y)*M(x) equals [[xy-1, -y], [x, -1]], so eps*P^-1 must carry -1 in its
    lower-right entry; that forces eps, then x and y, and the upper-left
    entry is the remaining consistency check.  At most one eps can match.
    """
    if P.det() != 1:
        raise NotUnimodularError("tail completion needs det(P) = 1")
    out = []
    r = P.e11.rational_value()
    for eps in (1, -1):
        if r != -eps:
            continue
        x = (-eps) * P.e21
        y = eps * P.e12
        if x * y - 1 != eps * P.e22:
            continue
        kx = gen.extract(x)
        ky = gen.extract(y)
        if kx is not None and ky is not None:
            out.append((kx, ky, eps))
    return out


def prefix_matrix(prefix, gen):
    """The generic product of the prefix's elements (the identity when empty)."""
    return product_matrix(tuple(map(gen.embed, prefix))) if prefix else Mat2.identity()


def _sign(n: int) -> int:
    return (n > 0) - (n < 0)


def cmp_abs_squared_with_4(x) -> int:
    """Compare |x|^2 with 4 exactly: -1, 0 or +1.

    For real quadratic elements the comparison squares once more and splits
    on signs, so no irrational value is ever evaluated.
    """
    if isinstance(x, int):
        x = Int(x)
    if isinstance(x, Int):
        return _sign(x.n * x.n - 4)
    if isinstance(x, Quad):
        a, b, d = x.a, x.b, x.d
        if d < 0:
            return _sign(a * a + (-d) * b * b - 4)
        # x real: x^2 = (a^2 + d b^2) + 2ab*sqrt(d); compare with 4
        c = a * a + d * b * b - 4
        e = 2 * a * b
        if e == 0:
            return _sign(c)
        if c == 0:
            return _sign(e)
        if (c > 0) == (e > 0):
            return _sign(c)
        lhs = c * c
        rhs = e * e * d
        if lhs == rhs:
            return 0
        return _sign(c) if lhs > rhs else _sign(e)
    raise NoModulusError("polynomial elements have no complex modulus")


# the zero and unit collapse rewrites, kept with their tests: no search
# relies on them
def reduce_zero(q: Quiddity, j: int) -> Quiddity:
    """Collapse (..., a, 0, b, ...) around position j into (..., a+b, ...).

    q must be verified with size >= 4 and a zero entry at j; the result is
    verified with flipped sign.  The window is rotated interior first and
    the phase rotated back, which canonical forms make irrelevant.
    """
    n = q.size
    if q.sign is None:
        raise ValueError("zero collapse needs a verified tuple")
    if n < 4:
        raise ValueError("zero collapse needs size >= 4")
    if not 0 <= j < n:
        raise IndexError(f"index {j} out of range for size {n}")
    if not q.gen.embed(q.coeffs[j]).is_zero():
        raise ValueError(f"entry at index {j} is not zero")
    rot = (j - 1) % n
    t = q.coeffs[rot:] + q.coeffs[:rot]
    merged = (t[0] + t[2],) + t[3:]
    back = rot % (n - 2)
    out = merged[-back:] + merged[:-back] if back else merged
    return Quiddity(q.gen, out, -q.sign)


def reduce_unit(entries, j: int):
    """Remove a +1 or -1 entry, shifting its two cyclic neighbors.

    Returns (tuple, sign_flipped): neighbors are decremented for a +1 entry
    (sign kept) and incremented for a -1 entry (sign flipped).  The output
    may leave a subgroup the input lived in, so it is a plain element tuple.
    """
    t = tuple(Int(x) if isinstance(x, int) else x for x in entries)
    n = len(t)
    if n < 3:
        raise ValueError("unit collapse needs size >= 3")
    if not 0 <= j < n:
        raise IndexError(f"index {j} out of range for size {n}")
    u = t[j].rational_value()
    if u not in (1, -1):
        raise ValueError(f"entry at index {j} is not a unit")
    rot = (j - 1) % n
    s = t[rot:] + t[:rot]
    if u == 1:
        merged = (s[0] - 1, s[2] - 1) + s[3:]
        flipped = False
    else:
        merged = (s[0] + 1, s[2] + 1) + s[3:]
        flipped = True
    back = rot % (n - 2)
    out = merged[-back:] + merged[:-back] if back else merged
    return out, flipped
