"""Products, continuants, verification, splice sums, canonical forms, and the
zero/unit collapse rewrites."""

from __future__ import annotations

from itertools import product

import pytest
from hypothesis import given
import hypothesis.strategies as st

from quiddity import (
    GeneratorSpec,
    Int,
    Mat2,
    MixedRingError,
    Poly,
    Quad,
    Quiddity,
    SizeLimitError,
    canonical_coeffs,
    continuant_euler,
    continuant_rec,
    dihedral_orbit,
    is_quiddity,
    mat_of,
    product_matrix,
    reduce_unit,
    reduce_zero,
    sum_oplus,
)

from helpers import GENERATORS, canonical_form, coeff_key, gen_pair_embedding, pair_sign

Z = GeneratorSpec.from_string("z")


_ELEMENT_MAKERS = (
    lambda r: Int(r.randint(-3, 3)),
    lambda r: Quad(r.randint(-3, 3), r.randint(-3, 3), 2),
    lambda r: Quad(r.randint(-3, 3), r.randint(-3, 3), -1),
    lambda r: Poly([r.randint(-2, 2) for _ in range(r.randint(0, 2))]),
)


def _random_elem(r):
    return r.choice(_ELEMENT_MAKERS)(r)


def _random_tuple(r, lo, hi):
    # one ring per tuple; mixing rings inside a tuple is an error by design
    make = r.choice(_ELEMENT_MAKERS)
    return tuple(make(r) for _ in range(r.randint(lo, hi)))


class TestProducts:
    def test_elementary_factor(self):
        m = mat_of(Quad(0, 1, 2))
        assert (m.e11, m.e12, m.e21, m.e22) == (Quad(0, 1, 2), Int(-1), Int(1), Int(0))
        assert mat_of(0) == Mat2(Int(0), Int(-1), Int(1), Int(0))
        assert mat_of(1).e11 == Int(1)

    def test_two_zeros_gives_minus_identity(self):
        P = product_matrix((Int(0), Int(0)))
        assert P == Mat2(Int(-1), Int(0), Int(0), Int(-1))

    def test_three_ones_gives_minus_identity(self):
        P = product_matrix((Int(1), Int(1), Int(1)))
        assert P == Mat2(Int(-1), Int(0), Int(0), Int(-1))

    def test_two_ones(self):
        P = product_matrix((Int(1), Int(1)))
        assert P == Mat2(Int(0), Int(-1), Int(1), Int(-1))

    def test_matches_independent_pair_route(self, rng):
        for gen_text, d in (("z", 2), ("sqrt:2", 2), ("isqrt:1", -1)):
            gen = GeneratorSpec.from_string(gen_text)
            embed, dd = gen_pair_embedding(gen)
            for _ in range(300):
                coeffs = tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 7)))
                got = is_quiddity(tuple(gen.embed(c) for c in coeffs))
                want = pair_sign([embed(c) for c in coeffs], dd)
                assert got == want

    def test_determinant_is_one(self, rng):
        for _ in range(250):
            n = rng.randint(1, 8)
            maker = rng.choice(
                [
                    lambda: Int(rng.randint(-4, 4)),
                    lambda: Quad(rng.randint(-3, 3), rng.randint(-3, 3), 3),
                    lambda: Poly([rng.randint(-2, 2) for _ in range(2)]),
                ]
            )
            t = tuple(maker() for _ in range(n))
            assert product_matrix(t).det() == Int(1)

    def test_mixed_rings_raise(self):
        with pytest.raises(MixedRingError):
            product_matrix((Quad(0, 1, 2), Quad(0, 1, 3)))


class TestContinuants:
    def test_empty_is_one(self):
        assert continuant_rec(()) == Int(1)
        assert continuant_euler(()) == Int(1)

    def test_single_entry(self):
        assert continuant_euler((Quad(1, 2, 5),)) == Quad(1, 2, 5)

    def test_small_formulas(self, rng):
        for _ in range(200):
            a1, a2, a3, a4 = (Int(rng.randint(-5, 5)) for _ in range(4))
            assert continuant_rec((a1, a2)) == a1 * a2 - 1
            assert continuant_rec((a1, a2, a3)) == a1 * a2 * a3 - a3 - a1
            k4 = a1 * a2 * a3 * a4 - a3 * a4 - a1 * a4 - a1 * a2 + 1
            assert continuant_euler((a1, a2, a3, a4)) == k4

    def test_two_routes_agree(self, rng):
        for _ in range(400):
            t = _random_tuple(rng, 0, 12)
            assert continuant_rec(t) == continuant_euler(t)

    def test_product_entries_are_continuant_windows(self, rng):
        for _ in range(400):
            t = _random_tuple(rng, 1, 12)
            P = product_matrix(t)
            assert P.e11 == continuant_rec(t)
            assert P.e21 == continuant_rec(t[:-1])
            assert P.e12 == -continuant_rec(t[1:])
            expected = Int(0) if len(t) == 1 else -continuant_rec(t[1:-1])
            assert P.e22 == expected

    def test_expansion_size_guard(self):
        with pytest.raises(SizeLimitError):
            continuant_euler(tuple(Int(1) for _ in range(21)))
        assert continuant_euler(tuple(Int(1) for _ in range(21)), size_limit=21) is not None


class TestVerification:
    def test_sqrt2_four_tuple(self):
        gen = GeneratorSpec.from_string("sqrt:2")
        assert is_quiddity(tuple(gen.embed(1) for _ in range(4))) == -1

    def test_sqrt3_six_tuple(self):
        gen = GeneratorSpec.from_string("sqrt:3")
        assert is_quiddity(tuple(gen.embed(1) for _ in range(6))) is not None

    @pytest.mark.parametrize("gen", GENERATORS, ids=lambda g: g.to_string())
    def test_zero_interleaved_family(self, gen):
        for m in ([0] if gen.nonneg else [0, 1, 2, 5]):
            coeffs = (0, m, 0, -m)
            elements = tuple(gen.embed(c) for c in coeffs)
            assert is_quiddity(elements) is not None

    def test_size_one_never_verifies(self, rng):
        for _ in range(50):
            assert is_quiddity((_random_elem(rng),)) is None

    def test_cross_check_route(self):
        assert is_quiddity((Int(1), Int(1), Int(1)), cross_check=True) == -1
        gen = GeneratorSpec.from_string("sqrt:2")
        assert is_quiddity(tuple(gen.embed(c) for c in (1, 1, 1, 1)), cross_check=True) == -1

    def test_dihedral_invariance(self, rng):
        for _ in range(120):
            n = rng.randint(2, 6)
            t = tuple(Int(rng.randint(-2, 2)) for _ in range(n))
            base = is_quiddity(t)
            for u in dihedral_orbit(t):
                assert is_quiddity(u) == base

    def test_negation_invariance(self, rng):
        for _ in range(120):
            t = _random_tuple(rng, 2, 6)
            assert (is_quiddity(t) is None) == (is_quiddity(tuple(-x for x in t)) is None)


class TestSpliceSum:
    def test_worked_examples(self):
        assert sum_oplus((2, 0, 3), (1, 1, 0)) == (2, 0, 4, 1)
        assert sum_oplus((2, 3, 4), (4, 1, 0, 8)) == (10, 3, 8, 1, 0)
        assert sum_oplus((1, 3, 5, 3), (3, 2, 2, 5, 4)) == (5, 3, 5, 6, 2, 2, 5)

    def test_two_zero_identity(self):
        t = (4, 1, 2, 7)
        assert sum_oplus(t, (0, 0)) == t
        # on the left the splice lands on a rotation of the same cycle
        assert canonical_form(sum_oplus((0, 0), t)) == canonical_form(t)

    def test_size_guard(self):
        with pytest.raises(ValueError):
            sum_oplus((1,), (0, 0))

    def test_verification_transfers_along_verified_summand(self, rng):
        gen = Z
        bs = [(0, 0), (1, 1, 1), (-1, -1, -1), (0, 2, 0, -2), (1, 2, 1, 2)]
        for _ in range(200):
            b = rng.choice(bs)
            assert is_quiddity(tuple(Int(c) for c in b)) is not None
            n = rng.randint(2, 5)
            a = tuple(rng.randint(-3, 3) for _ in range(n))
            lhs = is_quiddity(tuple(Int(c) for c in sum_oplus(a, b))) is not None
            rhs = is_quiddity(tuple(Int(c) for c in a)) is not None
            assert lhs == rhs


small_int_tuples = st.lists(st.integers(-4, 4), min_size=1, max_size=7).map(tuple)

# every ring kind of the rank lemma: integer scales of each sign and zero,
# quadratic real and imaginary (square radicands included) and X
RANK_GENERATORS = GENERATORS + [GeneratorSpec.from_string("z:0")]


class TestCanonicalForm:
    @given(t=small_int_tuples)
    def test_idempotent_and_in_orbit(self, t):
        c = canonical_coeffs(t, Z)
        assert c == canonical_form(t)
        assert c in dihedral_orbit(t)
        assert canonical_coeffs(c, Z) == c

    @given(t=small_int_tuples, rot=st.integers(0, 6), flip=st.booleans())
    def test_constant_on_orbit(self, t, rot, flip):
        u = t[::-1] if flip else t
        u = u[rot % len(u) :] + u[: rot % len(u)]
        assert canonical_coeffs(u, Z) == canonical_coeffs(t, Z)

    def test_examples(self):
        assert canonical_coeffs((1, 1, 1), Z) == (1, 1, 1)
        assert canonical_coeffs((0, 3, 0, -3), Z) == canonical_form((0, 3, 0, -3)) == (-3, 0, 3, 0)
        gen = GeneratorSpec.from_string("sqrt:2")
        # element order puts zero multiples first over quadratic generators
        assert canonical_coeffs((0, 3, 0, -3), gen) == (0, -3, 0, 3)

    def test_coefficient_form_tracks_element_order(self):
        gen = GeneratorSpec.from_string("z:-2")
        cc = canonical_coeffs((0, 1, 0, -1), gen)
        elems = canonical_form(tuple(gen.embed(c) for c in (0, 1, 0, -1)))
        assert tuple(gen.embed(c) for c in cc) == elems

    @pytest.mark.parametrize("gen", RANK_GENERATORS, ids=lambda g: g.to_string())
    def test_ranks_follow_element_order(self, gen):
        key = coeff_key(gen)
        for n in range(1, 6):
            for t in product(range(-2, 3), repeat=n):
                cc = canonical_coeffs(t, gen)
                assert cc == canonical_form(t, key)
                assert tuple(map(gen.embed, cc)) == canonical_form(map(gen.embed, t))

    @pytest.mark.parametrize("gen", RANK_GENERATORS, ids=lambda g: g.to_string())
    def test_order_key_follows_element_order(self, gen):
        key = coeff_key(gen)

        def oracle(q):
            return (q.size, tuple(map(key, canonical_form(q.coeffs, key))), tuple(map(key, q.coeffs)))

        qs = [Quiddity(gen, t) for n in range(1, 5) for t in product(range(-2, 3), repeat=n)]
        assert sorted(qs, key=Quiddity.order_key) == sorted(qs, key=oracle)

    @pytest.mark.parametrize("gen", GENERATORS, ids=lambda g: g.to_string())
    @given(data=st.data())
    def test_ties_at_the_minimal_rank(self, gen, data):
        # at most three values in up to ten places: constant tuples,
        # palindromes and repeated minima, where the candidate starts tie
        values = data.draw(st.lists(st.integers(-3, 3), min_size=1, max_size=3, unique=True))
        t = tuple(data.draw(st.lists(st.sampled_from(values), min_size=1, max_size=10)))
        if data.draw(st.booleans()):
            t = (t + t[::-1])[:10]
        assert canonical_coeffs(t, gen) == canonical_form(t, coeff_key(gen))


class TestQuiddityType:
    def test_verified_and_rejected(self):
        assert Quiddity.verified(Z, (1, 1, 1)).sign == -1
        assert Quiddity.verified(Z, (1, 1)) is None

    def test_verified_needs_two_entries(self):
        with pytest.raises(ValueError):
            Quiddity(Z, (0,), sign=1)

    def test_json_roundtrip(self):
        q = Quiddity.verified(GeneratorSpec.from_string("sqrt:2"), (1, 1, 1, 1))
        assert Quiddity.from_json_dict(q.to_json_dict()) == q

    def test_canonical_keeps_sign(self):
        q = Quiddity.verified(Z, (2, 1, 2, 1))
        c = q.canonical()
        assert c.coeffs == (1, 2, 1, 2)
        assert c.sign == q.sign == c.verify()


class TestReduceZero:
    def test_zero_pair_collapse(self):
        q = Quiddity.verified(Z, (0, 5, 0, -5))
        out = reduce_zero(q, 2)
        assert out.coeffs == (0, 0)
        assert out.sign == -q.sign == out.verify()

    def test_all_zero(self):
        q = Quiddity.verified(Z, (0, 0, 0, 0))
        out = reduce_zero(q, 1)
        assert out.coeffs == (0, 0)
        assert out.verify() == out.sign

    def test_collapse_at_every_zero(self):
        q = Quiddity.verified(Z, (2, 0, 3, 0, -5, 0))
        assert q is not None
        for j, c in enumerate(q.coeffs):
            if c == 0:
                out = reduce_zero(q, j)
                assert out.size == 4
                assert out.verify() == out.sign == -q.sign

    def test_wraparound_indices(self):
        q = Quiddity.verified(Z, (0, 5, 0, -5))
        assert reduce_zero(q, 0).verify() == -q.sign

    def test_preconditions(self):
        q = Quiddity.verified(Z, (0, 5, 0, -5))
        with pytest.raises(ValueError):
            reduce_zero(q, 1)  # entry is 5
        with pytest.raises(ValueError):
            reduce_zero(Quiddity.verified(Z, (0, 0)), 0)
        with pytest.raises(ValueError):
            reduce_zero(Quiddity(Z, (0, 1, 0, -1)), 0)  # unverified

    @pytest.mark.parametrize("gen", GENERATORS, ids=lambda g: g.to_string())
    def test_sign_flip_across_generators(self, gen):
        m = 0 if gen.nonneg else 2
        q = Quiddity.verified(gen, (0, m, 0, -m))
        out = reduce_zero(q, 0)
        assert out.verify() == out.sign == -q.sign


class TestReduceUnit:
    def test_matrix_identities(self, rng):
        for _ in range(150):
            a, b = _random_elem(rng), _random_elem(rng)
            try:
                lhs = product_matrix((a, Int(1), b))
            except MixedRingError:
                continue
            assert lhs == product_matrix((a - 1, b - 1))
            lhs = product_matrix((a, Int(-1), b))
            neg = product_matrix((a + 1, b + 1))
            assert lhs == Mat2(-neg.e11, -neg.e12, -neg.e21, -neg.e22)

    def test_tuple_rewrite_plus_one(self):
        out, flipped = reduce_unit((Int(4), Int(1), Int(7)), 1)
        assert out == (Int(3), Int(6)) and flipped is False

    def test_tuple_rewrite_minus_one(self):
        out, flipped = reduce_unit((Int(4), Int(-1), Int(7)), 1)
        assert out == (Int(5), Int(8)) and flipped is True

    def test_all_ones_collapses_to_zero_pair(self):
        out, flipped = reduce_unit((1, 1, 1), 1)
        assert out == (Int(0), Int(0)) and flipped is False
        # both sides verify with the same sign
        assert is_quiddity((Int(1),) * 3) == -1 and is_quiddity(out) == -1

    def test_preserves_verification_with_sign(self, rng):
        cases = [(1, 2, 1, 2), (2, 1, 2, 1), (0, 1, 0, -1), (1, 1, 1)]
        for coeffs in cases:
            t = tuple(Int(c) for c in coeffs)
            eps = is_quiddity(t)
            assert eps is not None
            for j, c in enumerate(coeffs):
                if c in (1, -1) and len(t) >= 3:
                    out, flipped = reduce_unit(t, j)
                    expected = -eps if flipped else eps
                    assert is_quiddity(out) == expected

    def test_ambient_ring_output_tolerated(self):
        # collapsing a rational unit between quadratic entries leaves <w>
        t = (Quad(3, 1, 2), Int(1), Quad(0, -2, 2))
        out, flipped = reduce_unit(t, 1)
        assert out == (Quad(2, 1, 2), Quad(-1, -2, 2)) and flipped is False
        assert product_matrix(t) == product_matrix(out)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            reduce_unit((Int(2), Int(3), Int(4)), 0)
        with pytest.raises(ValueError):
            reduce_unit((Int(1), Int(1)), 0)
