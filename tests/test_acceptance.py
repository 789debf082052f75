"""Acceptance suite: desk-scale exhaustive verification of the classification
statements, the transport bijections, and the oracle equivalences, each at
its stated bound and time budget.  One pass line prints per criterion."""

from __future__ import annotations

import random
import time
from functools import lru_cache
from itertools import product

from quiddity import (
    GeneratorSpec,
    Int,
    MODE_EQUIV,
    MODE_STRICT,
    Poly,
    Quad,
    Quiddity,
    canonical_coeffs,
    classify_irreducibles,
    continuant_euler,
    continuant_rec,
    enumerate_quiddities,
    enumerate_triangulations,
    find_decomposition,
    find_labeling,
    is_admissible,
    is_evenly_reducible,
    is_irreducible,
    is_quiddity,
    phi,
    phi_inverse,
    product_matrix,
    quiddity_of_labeling,
    Labeling,
)
from quiddity.audits import check_two_small_entries, link_probe

from helpers import brute_decomposition, brute_tail_completions, kernel_tail, prefix_matrix, solve_tail2

Z = GeneratorSpec.from_string("z")
NAT = GeneratorSpec.from_string("z+nonneg")


@lru_cache(maxsize=None)
def _enum(gen_text: str, n: int, bound: int, canonical: bool = False):
    gen = GeneratorSpec.from_string(gen_text)
    return tuple(enumerate_quiddities(gen, n, bound, canonical_only=canonical))


def _finish(num: int, name: str, started: float, budget: float):
    elapsed = time.time() - started
    assert elapsed <= budget, f"criterion {num} exceeded its {budget}s budget ({elapsed:.1f}s)"
    print(f"criterion {num:>2} ({name}): PASS in {elapsed:.1f}s")


def _zero_classes(gen: GeneratorSpec, bound: int, exclude_units: bool = False):
    out = set()
    for a in range(-bound, bound + 1):
        if exclude_units and abs(a) == 1:
            continue
        out.add(canonical_coeffs((0, a, 0, -a), gen))
    return out


def test_criterion_01_sqrt_family_classification():
    started = time.time()
    for k in range(7):
        gen = GeneratorSpec("sqrt", k)
        got = {q.coeffs for q in classify_irreducibles(gen, 8, 4)}
        if k == 0:
            want = {canonical_coeffs((0, 0, 0, 0), gen)}
        elif k == 1:
            want = {canonical_coeffs((1, 1, 1), gen), canonical_coeffs((-1, -1, -1), gen)}
            want |= _zero_classes(gen, 4, exclude_units=True)
        else:
            want = _zero_classes(gen, 4)
            if k == 2:
                want |= {canonical_coeffs((1,) * 4, gen), canonical_coeffs((-1,) * 4, gen)}
            if k == 3:
                want |= {canonical_coeffs((1,) * 6, gen), canonical_coeffs((-1,) * 6, gen)}
        assert got == want, f"k={k}: missing {want - got}, unexpected {got - want}"
    _finish(1, "square-root generator classification", started, 300)


def test_criterion_02_integer_and_natural_classification():
    started = time.time()
    got_nat = {q.coeffs for q in classify_irreducibles(NAT, 8, 4)}
    want_nat = {canonical_coeffs((1, 1, 1), NAT), canonical_coeffs((0, 0, 0, 0), NAT)}
    assert got_nat == want_nat

    got_z = {q.coeffs for q in classify_irreducibles(Z, 8, 4)}
    want_z = {canonical_coeffs((1, 1, 1), Z), canonical_coeffs((-1, -1, -1), Z)}
    want_z |= _zero_classes(Z, 4, exclude_units=True)
    assert got_z == want_z
    _finish(2, "integer and natural classification", started, 120)


def _small_size_expectation(gen_text: str, n: int, bound: int):
    want = set()
    if n == 2:
        want.add((0, 0))
    if n == 3 and gen_text == "z":
        want |= {(1, 1, 1), (-1, -1, -1)}
    if n == 4:
        for b in range(-bound, bound + 1):
            want.add((0, b, 0, -b))
            want.add((b, 0, -b, 0))
        pairs = {
            "z": [(1, 2), (2, 1), (-1, -2), (-2, -1)],
            "sqrt:2": [(1, 1), (-1, -1)],
            "isqrt:1": [(1, -2), (2, -1), (-1, 2), (-2, 1)],
        }[gen_text]
        for a, b in pairs:
            want.add((a, b, a, b))
    return want


def test_criterion_03_small_size_catalogue():
    started = time.time()
    for gen_text in ("z", "sqrt:2", "isqrt:1"):
        gen = GeneratorSpec.from_string(gen_text)
        for n in range(1, 5):
            got = set()
            for coeffs in product(range(-5, 6), repeat=n):
                if is_quiddity(tuple(gen.embed(c) for c in coeffs)) is not None:
                    got.add(coeffs)
            assert got == _small_size_expectation(gen_text, n, 5), (gen_text, n)
    _finish(3, "small-size catalogue", started, 60)


def test_criterion_04_sign_transport_bijection():
    started = time.time()
    for k in (1, 2, 3, 5):
        iso_text, real_text = f"isqrt:{k}", f"sqrt:{k}"
        omega = [q for n in range(2, 9) for q in _enum(iso_text, n, 3)]
        xi_all = [q for n in range(2, 9) for q in _enum(real_text, n, 3)]
        xi = [q for q in xi_all if k != 1 or q.size % 2 == 0]

        images = [phi(q) for q in omega]  # phi re-verifies every image
        assert {im.coeffs for im in images} == {q.coeffs for q in xi}
        assert len(images) == len(omega) == len(xi)
        for q, im in zip(omega, images):
            assert phi_inverse(im).coeffs == q.coeffs

        if k != 1:
            verdicts: dict = {}

            def irr(q):
                key = (q.gen, q.canonical().coeffs)
                if key not in verdicts:
                    verdicts[key] = is_irreducible(q)
                return verdicts[key]

            for q, im in zip(omega, images):
                assert irr(q) == irr(im), (k, q.coeffs)
        else:
            # the documented failure at k=1: odd integer solutions exist,
            # odd sizes over <i> do not
            assert any(q.size == 3 for q in xi_all)
            for n in (3, 5, 7):
                assert _enum(iso_text, n, 3) == ()
    _finish(4, "alternating-sign transport bijection", started, 300)


def test_criterion_05_imaginary_collapse():
    started = time.time()
    for k in (1, 2, 3, 4):
        for n in (3, 5, 7):
            assert _enum(f"isqrt:{k}", n, 3) == ()
        for n in range(2, 9, 2):
            got = [q.coeffs for q in _enum(f"isqrt:{k}+nonneg", n, 3)]
            assert got == [(0,) * n], (k, n, got)
    _finish(5, "odd sizes and nonnegative imaginary collapse", started, 120)


def _criteria_corpus():
    for k in range(7):
        for n in range(3, 9):
            yield from _enum(f"sqrt:{k}", n, 4, canonical=True)
    for gen_text in ("z", "z+nonneg"):
        for n in range(3, 9):
            yield from _enum(gen_text, n, 4, canonical=True)
    for gen_text in ("z", "sqrt:2", "isqrt:1"):
        for n in (2, 3, 4):
            yield from _enum(gen_text, n, 5)
    for k in (1, 2, 3, 5):
        for fam in ("isqrt", "sqrt"):
            for n in range(2, 9):
                yield from _enum(f"{fam}:{k}", n, 3)
    for k in (1, 2, 3, 4):
        for n in range(2, 9, 2):
            yield from _enum(f"isqrt:{k}+nonneg", n, 3)


def test_criterion_06_two_small_entries_probe():
    started = time.time()
    checked = 0
    for q in _criteria_corpus():
        assert check_two_small_entries(q) is True, q
        checked += 1
    assert checked > 10_000
    _finish(6, f"two-small-entries probe over {checked} tuples", started, 180)


def test_criterion_07_continuant_cross_check():
    started = time.time()
    rng = random.Random(0x5EED)
    makers = (
        lambda: Int(rng.randint(-3, 3)),
        lambda: Quad(rng.randint(-3, 3), rng.randint(-3, 3), 2),
        lambda: Quad(rng.randint(-3, 3), rng.randint(-3, 3), -1),
        lambda: Quad(rng.randint(-3, 3), rng.randint(-3, 3), -3),
        lambda: Poly([rng.randint(-3, 3) for _ in range(rng.randint(0, 2))]),
    )
    for i in range(10_000):
        make = makers[i % len(makers)]
        n = rng.randint(1, 12)
        t = tuple(make() for _ in range(n))
        assert continuant_rec(t) == continuant_euler(t)
        P = product_matrix(t)
        assert P.e11 == continuant_rec(t)
        assert P.e21 == continuant_rec(t[:-1])
        assert P.e12 == -continuant_rec(t[1:])
        assert P.e22 == (Int(0) if n == 1 else -continuant_rec(t[1:-1]))
    _finish(7, "continuant cross-check on 10^4 tuples", started, 60)


def test_criterion_08_triangulation_equivalence():
    started = time.time()
    verified = 0
    for n in range(3, 8):
        for tri in enumerate_triangulations(n):
            for labels in product(range(-2, 3), repeat=n - 2):
                lab = Labeling(tri, labels)
                if is_admissible(lab):
                    q = quiddity_of_labeling(lab)  # raises on any violation
                    assert q.verify() == q.sign
                    verified += 1
    assert verified > 5000

    witnessed = 0
    for n in range(3, 7):
        for q in _enum("z", n, 2, canonical=True):
            w = find_labeling(q, 4)
            assert w is not None, q.coeffs
            assert quiddity_of_labeling(w).coeffs == q.canonical().coeffs
            witnessed += 1
    assert witnessed > 20
    _finish(8, "triangulation equivalence", started, 600)


def test_criterion_09_even_irreducibility_examples():
    started = time.time()
    for coeffs, expect in (
        ((2, 2, 1, 4, 1, 2), True),
        ((1, 2, 1, 2, 1, 2, 1, 2), True),
        ((1, 1, 1, 1, 1, 1), False),
    ):
        q = Quiddity.verified(Z, coeffs)
        assert is_evenly_reducible(q, MODE_EQUIV) is expect
        assert is_evenly_reducible(q, MODE_STRICT) is expect
    for q in _enum("z", 4, 4, canonical=True):
        assert is_evenly_reducible(q, MODE_EQUIV) is False
    (link,) = link_probe(8, 2)
    assert link.ok and int(link.detail.removeprefix("checked ")) > 0
    _finish(9, "even-irreducibility examples and link", started, 60)


def test_criterion_10_oracle_equivalences():
    started = time.time()
    # enumeration vs full grid filtering through the generic matrix route
    for n in range(2, 7):
        got = {(q.coeffs, q.sign) for q in _enum("z", n, 3)}
        brute = set()
        for coeffs in product(range(-3, 4), repeat=n):
            eps = is_quiddity(tuple(Int(c) for c in coeffs))
            if eps is not None:
                brute.add((coeffs, eps))
        assert got == brute, n

    # exact decomposition vs the bounded exhaustive decomposer
    for n in range(4, 8):
        for q in _enum("z", n, 2, canonical=True):
            exact = find_decomposition(q)
            brute = brute_decomposition(q, boundary_bound=6)
            assert (exact is None) == (brute is None), q.coeffs
            if exact is not None:
                # the exact witness stays inside the oracle's boundary bound,
                # which is what makes the bounded oracle a complete check here
                assert abs(exact.right.coeffs[0]) <= 6
                assert abs(exact.right.coeffs[-1]) <= 6

    # the kernel's closed-form tail completion vs the generic closed form
    # and exhaustive tails
    for gen_text in ("z", "sqrt:2", "isqrt:1"):
        gen = GeneratorSpec.from_string(gen_text)
        for length in range(0, 5):
            for prefix in product(range(-3, 4), repeat=length):
                got = kernel_tail(prefix, gen, 20)
                assert got == sorted(solve_tail2(prefix_matrix(prefix, gen), gen)), (gen_text, prefix)
                assert got == brute_tail_completions(prefix, gen, 20), (gen_text, prefix)
    _finish(10, "oracle equivalences", started, 600)


def test_criterion_11_worker_determinism():
    started = time.time()

    def classification(workers):
        return [
            classify_irreducibles(GeneratorSpec("sqrt", k), 8, 4, workers=workers)
            for k in range(7)
        ]

    def transport(workers):
        return [
            enumerate_quiddities(GeneratorSpec(fam, k), n, 3, workers=workers)
            for k in (1, 2, 3, 5)
            for fam in ("isqrt", "sqrt")
            for n in range(2, 9)
        ]

    def oracle(workers):
        return [enumerate_quiddities(Z, n, 3, workers=workers) for n in range(2, 7)]

    # Quiddity equality covers generator, coefficients and sign, in order
    assert classification(1) == classification(8)
    assert transport(1) == transport(8)
    assert oracle(1) == oracle(8)
    _finish(11, "byte-identical output across worker counts", started, 600)
