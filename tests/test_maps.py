"""Alternating-sign transport and even-position rescaling."""

from __future__ import annotations

from itertools import product

import pytest

from quiddity import (
    GeneratorSpec,
    NotAQuiddityError,
    OddSizeError,
    Quiddity,
    continuant_rec,
    enumerate_quiddities,
    phi,
    phi_inverse,
    rescale_even,
    rescale_even_inverse,
)
from quiddity.audits import bijection_probe

from helpers import every_tuple

Z = GeneratorSpec.from_string("z")


class TestPhi:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_zero_family_transport(self, k):
        gen = GeneratorSpec("isqrt", k)
        for m in (0, 1, 2):
            q = Quiddity.verified(gen, (0, m, 0, -m))
            img = phi(q)
            assert img.coeffs == (0, -m, 0, m)
            assert img.gen == GeneratorSpec("sqrt", k)
            assert img.verify() == img.sign

    def test_alternating_units_map_to_sqrt2_square(self):
        q = Quiddity.verified(GeneratorSpec("isqrt", 2), (1, -1, 1, -1))
        assert q is not None
        img = phi(q)
        assert img.coeffs == (1, 1, 1, 1)
        assert img.sign == -1

    def test_inverse_examples(self):
        q = Quiddity.verified(GeneratorSpec("sqrt", 2), (1, 1, 1, 1))
        back = phi_inverse(q)
        assert back.coeffs == (1, -1, 1, -1)
        assert back.gen == GeneratorSpec("isqrt", 2)

        zz = Quiddity.verified(Z, (0, 0))
        assert phi_inverse(zz).coeffs == (0, 0)

        q3 = Quiddity.verified(GeneratorSpec("sqrt", 3), (1, 1, 1, 1, 1, 1))
        back3 = phi_inverse(q3)
        assert back3.coeffs == (1, -1, 1, -1, 1, -1)
        assert back3.verify() == back3.sign

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_roundtrip_on_enumerated_sets(self, k):
        gen = GeneratorSpec("isqrt", k)
        for n in (2, 4, 6):
            for q in every_tuple(enumerate_quiddities(gen, n, 2)):
                img = phi(q)
                assert phi_inverse(img).coeffs == q.coeffs
                assert img.size == q.size

    def test_preconditions(self):
        with pytest.raises(ValueError):
            phi(Quiddity.verified(Z, (0, 0)))  # wrong family
        odd = Quiddity.verified(Z, (1, 1, 1))
        with pytest.raises(OddSizeError):
            phi_inverse(odd)
        with pytest.raises(NotAQuiddityError):
            phi(Quiddity(GeneratorSpec("isqrt", 2), (1, 1, 1, 1)))

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_even_sizes_only_within_bounds(self, k):
        for fam in ("sqrt", "isqrt"):
            gen = GeneratorSpec(fam, k)
            for n in (3, 5, 7):
                assert enumerate_quiddities(gen, n, 3) == []

    def test_irreducibility_transport_reports(self):
        skipped, ok, roundtrip = bijection_probe((1, 2), 6, 2)
        assert ok.name == "sign-map-irreducibility[k=2]" and ok.ok
        assert ok.detail.startswith("ok, checked ") and int(ok.detail.split()[-1]) > 0
        assert roundtrip.ok
        assert (skipped.ok, skipped.detail) == (True, "skipped, checked 0")


class TestRescale:
    def test_examples(self):
        assert rescale_even((1, 1, 1, 1), 2) == (1, 2, 1, 2)
        assert Quiddity.verified(GeneratorSpec("sqrt", 2), (1, 1, 1, 1)) is not None
        assert Quiddity.verified(Z, (1, 2, 1, 2)) is not None

        assert rescale_even((1, 1, 1, 1, 1, 1), 3) == (1, 3, 1, 3, 1, 3)
        assert Quiddity.verified(Z, (1, 3, 1, 3, 1, 3)) is not None

        for k in (2, 3, 5):
            for a in (0, 1, 2):
                assert rescale_even((0, a, 0, -a), k) == (0, k * a, 0, -k * a)
                assert Quiddity.verified(Z, (0, k * a, 0, -k * a)) is not None

    def test_inverse(self):
        assert rescale_even_inverse((1, 2, 1, 2), 2) == (1, 1, 1, 1)
        with pytest.raises(ValueError):
            rescale_even_inverse((1, 3, 1, 2), 2)
        for k in (2, 3):
            for coeffs in product(range(-2, 3), repeat=4):
                assert rescale_even_inverse(rescale_even(coeffs, k), k) == coeffs

    def test_preconditions(self):
        with pytest.raises(OddSizeError):
            rescale_even((1, 2, 3), 2)
        with pytest.raises(ValueError):
            rescale_even((1, 2), 0)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_verification_transfers_both_ways(self, k):
        gen = GeneratorSpec("sqrt", k)
        for n in (2, 4, 6):
            for coeffs in product(range(-2, 3), repeat=n):
                src = Quiddity.verified(gen, coeffs)
                img = Quiddity.verified(Z, rescale_even(coeffs, k))
                assert (src is None) == (img is None), coeffs
                if src is not None:
                    assert src.sign == img.sign

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_continuant_identities(self, k, rng):
        # full-window continuants agree; odd windows pick up one factor sqrt(k)
        gen = GeneratorSpec("sqrt", k)
        for _ in range(150):
            n = rng.randint(1, 5) * 2
            coeffs = tuple(rng.randint(-3, 3) for _ in range(n))
            scaled = rescale_even(coeffs, k)
            src = tuple(gen.embed(c) for c in coeffs)
            assert continuant_rec(src) == continuant_rec(scaled)
            assert continuant_rec(src[:-1]) == gen.embed(1) * continuant_rec(scaled[:-1])
