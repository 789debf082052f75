"""Shared strategies and independent oracles for the suite.

Oracles recompute expected behavior through deliberately different routes
(plain integer-pair 2x2 matrices, exhaustive grid scans) so the package fast
paths are always held against something slower and simpler.
"""

from __future__ import annotations

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
    Poly,
    Quad,
    Quiddity,
    dihedral_orbit,
    is_quiddity,
    mat_of,
    sum_oplus,
)

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


def brute_enumerate(gen, n, bound):
    """Filter the full coefficient grid through the generic matrix route."""
    lo = 0 if gen.nonneg else -bound
    out = []
    for coeffs in product(range(lo, bound + 1), repeat=n):
        eps = is_quiddity(tuple(gen.embed(c) for c in coeffs))
        if eps is not None:
            out.append((coeffs, eps))
    return out


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
    two product rows do not depend on the final entry)."""
    embed, d = gen_pair_embedding(gen)
    lo = 0 if gen.nonneg else -tail_bound
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
