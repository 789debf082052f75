"""Ring elements, generator subgroups, and the element/generator grammars."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given
import hypothesis.strategies as st

from quiddity import (
    ElementSyntaxError,
    GeneratorSpec,
    GeneratorSyntaxError,
    Int,
    MixedRingError,
    NoModulusError,
    Poly,
    Quad,
    format_element,
    parse_element,
)

from helpers import GENERATORS, cmp_abs_squared_with_4, element_key, int_elems, poly_elems, quad_elems


class TestArithmetic:
    def test_sqrt2_squares_to_two(self):
        got = Quad(0, 1, 2) * Quad(0, 1, 2)
        assert isinstance(got, Quad)
        assert (got.a, got.b, got.d) == (2, 0, 2)

    def test_formal_symbol_squares(self):
        assert Poly((0, 1)) * Poly((0, 1)) == Poly((0, 0, 1))

    def test_additive_inverse(self):
        assert Int(3) + (-Int(3)) == Int(0)

    def test_int_coerces_into_quad(self):
        assert Int(3) + Quad(1, 1, 2) == Quad(4, 1, 2)
        assert 2 * Quad(1, -1, 5) == Quad(2, -2, 5)

    def test_int_coerces_into_poly(self):
        assert Int(2) * Poly((0, 1)) == Poly((0, 2))
        assert Poly((1, 1)) - 1 == Poly((0, 1))

    def test_distinct_discriminants_refuse_to_mix(self):
        with pytest.raises(MixedRingError):
            Quad(0, 1, 2) + Quad(0, 1, 3)
        with pytest.raises(MixedRingError):
            Quad(0, 1, 2) * Poly((0, 1))

    def test_rational_content_equality(self):
        assert Int(2) == Quad(2, 0, 5) == Poly((2,))
        assert hash(Int(2)) == hash(Quad(2, 0, 5)) == hash(Poly((2,)))
        assert Int(0) == Poly(())
        assert Quad(1, 1, 2) != Quad(1, 1, 5)

    def test_quad_guards_square_discriminant(self):
        with pytest.raises(ValueError):
            Quad(1, 1, 4)
        with pytest.raises(ValueError):
            Quad(1, 1, 0)

    def test_poly_strips_trailing_zeros(self):
        assert Poly((1, 2, 0, 0)).coeffs == (1, 2)
        assert Poly((0, 0)).coeffs == ()


_RING_MAKERS = {
    "int": lambda r: Int(r.randint(-9, 9)),
    "sqrt2": lambda r: Quad(r.randint(-9, 9), r.randint(-9, 9), 2),
    "gauss": lambda r: Quad(r.randint(-9, 9), r.randint(-9, 9), -1),
    "isqrt3": lambda r: Quad(r.randint(-9, 9), r.randint(-9, 9), -3),
    "poly": lambda r: Poly([r.randint(-5, 5) for _ in range(r.randint(0, 3))]),
}


@pytest.mark.parametrize("ring", sorted(_RING_MAKERS))
def test_ring_axioms_bulk(ring):
    # >= 10^4 random triples per ring
    make = _RING_MAKERS[ring]
    r = random.Random(ring)
    zero = Int(0)
    for _ in range(10_000):
        x, y, z = make(r), make(r), make(r)
        assert x + y == y + x
        assert (x + y) + z == x + (y + z)
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + (-x) == zero


@given(x=quad_elems(2), y=quad_elems(2), z=quad_elems(2))
def test_ring_axioms_hypothesis_quad(x, y, z):
    assert (x + y) * z == x * z + y * z
    assert x * (y * z) == (x * y) * z


@given(x=poly_elems(), y=poly_elems(), z=poly_elems())
def test_ring_axioms_hypothesis_poly(x, y, z):
    assert (x + y) * z == x * z + y * z
    assert x * (y * z) == (x * y) * z


class TestModulusComparison:
    def test_examples(self):
        assert cmp_abs_squared_with_4(Int(1)) == -1
        assert cmp_abs_squared_with_4(Quad(0, 1, 2)) == -1
        # |2*sqrt(2)|^2 = 8 > 4
        assert 2 * 2 * 2 == 8 and cmp_abs_squared_with_4(Quad(0, 2, 2)) == 1
        assert cmp_abs_squared_with_4(Int(2)) == 0
        assert cmp_abs_squared_with_4(Int(-2)) == 0
        assert cmp_abs_squared_with_4(Quad(0, 2, -1)) == 0  # |2i| = 2

    def test_poly_has_no_modulus(self):
        with pytest.raises(NoModulusError):
            cmp_abs_squared_with_4(Poly((0, 1)))

    def test_agrees_with_floating_point_on_clear_cases(self):
        r = random.Random(7)
        checked = 0
        while checked < 5000:
            d = r.choice([2, 3, 5, 7, -1, -2, -5])
            x = Quad(r.randint(-8, 8), r.randint(-8, 8), d)
            if d < 0:
                val = float(x.a * x.a + (-d) * x.b * x.b)
            else:
                val = (x.a + x.b * math.sqrt(d)) ** 2
            if abs(val - 4.0) <= 1e-6:
                continue
            checked += 1
            assert cmp_abs_squared_with_4(x) == (1 if val > 4.0 else -1)


class TestGeneratorSpec:
    def test_square_radicand_collapses_to_integer(self):
        g = GeneratorSpec.from_string("sqrt:4")
        assert g.ring == ("int", 2, 1)
        assert g.embed(3) == Int(6)
        g9 = GeneratorSpec.from_string("sqrt:9")
        assert g9.embed(1) == Int(3)
        g1 = GeneratorSpec.from_string("sqrt:1")
        assert g1.ring == ("int", 1, 1)

    def test_square_imaginary_radicand_scales_i(self):
        g = GeneratorSpec.from_string("isqrt:4")
        assert g.ring == ("quad", -1, 2)
        assert g.embed(3) == Quad(0, 6, -1)
        assert g.extract(Quad(0, 6, -1)) == 3
        assert g.extract(Quad(0, 3, -1)) is None

    def test_scale_is_positive_for_every_family(self):
        # canonical_coeffs ranks nonzero quad coefficients by c, which is the
        # element order only while w = scale*sqrt(d) has scale > 0
        gens = [GeneratorSpec(fam, k, nonneg) for fam in ("sqrt", "isqrt") for k in range(50)
                for nonneg in (False, True)]
        gens += [GeneratorSpec("int", s) for s in range(-5, 6)] + [GeneratorSpec("alpha")]
        for gen in gens + GENERATORS:
            assert gen.ring[2] > 0, gen

    def test_extract_examples(self):
        assert GeneratorSpec.from_string("sqrt:3").extract(Quad(0, -3, 3)) == -3
        assert GeneratorSpec.from_string("sqrt:2").extract(Quad(1, 1, 2)) is None
        assert GeneratorSpec.from_string("z:2").extract(Int(4)) == 2
        assert GeneratorSpec.from_string("z:2").extract(Int(3)) is None
        assert GeneratorSpec.from_string("alpha").extract(Poly((0, 7))) == 7
        assert GeneratorSpec.from_string("alpha").extract(Poly((1, 7))) is None
        assert GeneratorSpec.from_string("alpha").extract(Poly((0, 0, 7))) is None

    def test_zero_generator(self):
        g = GeneratorSpec.from_string("z:0")
        assert g.embed(5) == Int(0)
        assert g.extract(Int(0)) == 0
        assert g.extract(Int(1)) is None

    @pytest.mark.parametrize("gen", GENERATORS, ids=lambda g: g.to_string())
    def test_embed_extract_roundtrip(self, gen):
        kind, p, _ = gen.ring
        degenerate = kind == "int" and p == 0
        r = random.Random(42)
        values = [0, 1, -1, 2, -7, 10**6, -(10**6)]
        values += [r.randint(-(10**6), 10**6) for _ in range(300)]
        for m in values:
            got = gen.extract(gen.embed(m))
            if degenerate:
                assert got == 0
            elif gen.nonneg and m < 0:
                assert got is None
            else:
                assert got == m

    def test_nonneg_rejects_negative_coefficients(self):
        g = GeneratorSpec.from_string("isqrt:2+nonneg")
        assert g.extract(Quad(0, -1, -2)) is None
        assert g.extract(Quad(0, 1, -2)) == 1

    def test_string_roundtrip(self):
        for text in ("z", "z:5", "z:-3", "sqrt:2", "isqrt:7", "alpha", "sqrt:3+nonneg"):
            g = GeneratorSpec.from_string(text)
            assert GeneratorSpec.from_string(g.to_string()) == g

    def test_descriptor_roundtrip(self):
        for gen in GENERATORS:
            assert GeneratorSpec.from_descriptor(gen.descriptor()) == gen

    @pytest.mark.parametrize("obj", [
        {"kind": "sqrt"},
        {"kind": "isqrt"},
        {"kind": "int"},
        {"kind": "int", "s": 1.9},
        {"kind": "int", "s": 1.0},
        {"kind": "int", "s": True},
        {"kind": "sqrt", "k": "2"},
        {"kind": "sqrt", "k": -2},
        {"kind": "int", "s": 1, "sign": "neg"},
        {"kind": "int", "s": 1, "sign": True},
        {"kind": "int", "s": 1, "k": 1},
        {"kind": "alpha", "s": 1},
        {"kind": "alpha", "k": 0},
        {"kind": "sqrt", "k": 2, "extra": None},
        {"kind": "bogus"},
        {"kind": ["int"], "s": 1},
        {},
        [],
        "z",
        None,
    ], ids=repr)
    def test_descriptor_accepts_only_what_descriptor_writes(self, obj):
        with pytest.raises(GeneratorSyntaxError):
            GeneratorSpec.from_descriptor(obj)

    def test_bad_generator_strings(self):
        for text in ("q", "sqrt:-2", "sqrt:x", "isqrt", "z:", "alpha:2"):
            with pytest.raises(GeneratorSyntaxError):
                GeneratorSpec.from_string(text)


class TestElementGrammar:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("3", Int(3)),
            ("-14", Int(-14)),
            ("0+1*sqrt(2)", Quad(0, 1, 2)),
            ("1-3*sqrt(5)", Quad(1, -3, 5)),
            ("sqrt(2)", Quad(0, 1, 2)),
            ("-2*i", Quad(0, -2, -1)),
            ("i", Quad(0, 1, -1)),
            ("0+4*i*sqrt(3)", Quad(0, 4, -3)),
            ("0+2*sqrt(4)", Int(4)),
            ("1*i*sqrt(9)", Quad(0, 3, -1)),
            ("0+1*X", Poly((0, 1))),
            ("1-1*X+3*X^2", Poly((1, -1, 3))),
            ("X", Poly((0, 1))),
            ("0", Int(0)),
        ],
    )
    def test_parse_examples(self, text, expected):
        assert parse_element(text) == expected

    def test_whitespace_insensitive(self):
        assert parse_element(" 1 - 3 * sqrt( 5 ) ") == Quad(1, -3, 5)
        assert parse_element("0 + 1*X + 2*X^3") == Poly((0, 1, 0, 2))

    def test_rejects_mixed_rings_and_junk(self):
        for text in ("1*X+1*sqrt(2)", "sqrt(2)+i", "", "foo", "1**2"):
            with pytest.raises(ElementSyntaxError):
                parse_element(text)

    @given(
        x=st.one_of(int_elems(), quad_elems(2), quad_elems(-1), quad_elems(-6), poly_elems())
    )
    def test_format_parse_roundtrip(self, x):
        assert parse_element(format_element(x)) == x

    def test_sort_key_consistent_with_equality(self):
        assert element_key(Int(2)) == element_key(Quad(2, 0, 5)) == element_key(Poly((2,)))
        assert element_key(Int(2)) == element_key(2)
        items = [Int(2), Quad(0, 1, 2), Quad(0, -1, 2), Int(-5), Poly((0, 1))]
        ordered = sorted(items, key=element_key)
        assert ordered[0] == Int(-5)
