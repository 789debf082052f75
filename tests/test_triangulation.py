"""Polygon triangulations, admissible labelings, and labeling witnesses."""

from __future__ import annotations

import math
from itertools import product

import pytest

from quiddity import (
    GeneratorSpec,
    Labeling,
    NotAdmissibleError,
    Quiddity,
    SizeLimitError,
    enumerate_quiddities,
    enumerate_triangulations,
    find_labeling,
    is_admissible,
    quiddity_of_labeling,
    render_labeling,
)

from helpers import canonical_form

Z = GeneratorSpec.from_string("z")


def _catalan(m: int) -> int:
    return math.comb(2 * m, m) // (m + 1)


class TestEnumeration:
    @pytest.mark.parametrize("n", range(3, 11))
    def test_counts_match_catalan(self, n):
        assert len(enumerate_triangulations(n)) == _catalan(n - 2)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_shape_invariants(self, n):
        for tri in enumerate_triangulations(n):
            assert len(tri.triangles) == n - 2
            assert len(tri.dual_edges()) == n - 3
            # the dual graph is connected with n-3 edges on n-2 nodes: a tree
            if n > 3:
                reach = {0}
                frontier = [0]
                adj: dict[int, list[int]] = {i: [] for i in range(n - 2)}
                for u, v in tri.dual_edges():
                    adj[u].append(v)
                    adj[v].append(u)
                while frontier:
                    x = frontier.pop()
                    for y in adj[x]:
                        if y not in reach:
                            reach.add(y)
                            frontier.append(y)
                assert reach == set(range(n - 2))

    def test_size_guard(self):
        with pytest.raises(SizeLimitError):
            enumerate_triangulations(2)
        with pytest.raises(SizeLimitError):
            enumerate_triangulations(13)


class TestAdmissibility:
    def test_all_unit_labels(self):
        for tri in enumerate_triangulations(6):
            assert is_admissible(Labeling(tri, (1,) * 4)) is True

    def test_unpaired_labels_fail(self):
        tri = enumerate_triangulations(4)[0]
        assert is_admissible(Labeling(tri, (2, 3))) is False
        assert is_admissible(Labeling(tri, (2, 2))) is False

    def test_adjacent_opposite_pair(self):
        tri = enumerate_triangulations(4)[0]
        assert is_admissible(Labeling(tri, (5, -5))) is True

    def test_zero_labels_pair_with_adjacent_zero(self):
        tri = enumerate_triangulations(4)[0]
        assert is_admissible(Labeling(tri, (0, 0))) is True
        assert is_admissible(Labeling(tri, (0, 5))) is False
        assert is_admissible(Labeling(tri, (0, 1))) is False
        # a path of three triangles: zeros at the two ends cannot pair
        for tri in enumerate_triangulations(5):
            edges = tri.dual_edges()
            degrees = {i: 0 for i in range(3)}
            for u, v in edges:
                degrees[u] += 1
                degrees[v] += 1
            middle = max(degrees, key=lambda i: degrees[i])
            labels = [0, 0, 0]
            labels[middle] = 1
            assert is_admissible(Labeling(tri, tuple(labels))) is False


class TestQuiddityOfLabeling:
    def test_triangle(self):
        tri = enumerate_triangulations(3)[0]
        q = quiddity_of_labeling(Labeling(tri, (1,)))
        assert q.coeffs == (1, 1, 1)

    def test_square_all_ones(self):
        tri = enumerate_triangulations(4)[0]
        q = quiddity_of_labeling(Labeling(tri, (1, 1)))
        assert q.coeffs == canonical_form((2, 1, 2, 1))

    def test_two_pentagon_labelings_same_tuple(self):
        # a fan labeled (1, -1, 1) and a fan labeled (1, 0, 0) both induce
        # the cycle (1, 1, 1, 0, 0) up to rotation/reflection
        results = set()
        for tri in enumerate_triangulations(5):
            for labels in ((1, -1, 1), (1, 0, 0)):
                lab = Labeling(tri, labels)
                if is_admissible(lab):
                    q = quiddity_of_labeling(lab)
                    if q.coeffs == canonical_form((1, 1, 1, 0, 0)):
                        results.add((tri.triangles, labels))
        assert len(results) >= 2

    def test_not_admissible_raises(self):
        tri = enumerate_triangulations(4)[0]
        with pytest.raises(NotAdmissibleError):
            quiddity_of_labeling(Labeling(tri, (2, 3)))

    def test_guarantee_holds_exhaustively_small(self):
        for n in range(3, 7):
            for tri in enumerate_triangulations(n):
                for labels in product(range(-2, 3), repeat=n - 2):
                    lab = Labeling(tri, labels)
                    if is_admissible(lab):
                        q = quiddity_of_labeling(lab)  # raises on violation
                        assert q.verify() == q.sign


class TestFindLabeling:
    def test_triangle_witness(self):
        w = find_labeling(Quiddity.verified(Z, (1, 1, 1)), 2)
        assert w is not None and w.labels == (1,)

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
    def test_zero_family_witness(self, m):
        q = Quiddity.verified(Z, (0, m, 0, -m))
        w = find_labeling(q, 4)
        assert w is not None
        assert quiddity_of_labeling(w).coeffs == q.canonical().coeffs

    def test_every_small_solution_has_witness(self):
        for n in range(3, 6):
            for q in enumerate_quiddities(Z, n, 2, canonical_only=True):
                w = find_labeling(q, 4)
                assert w is not None, q.coeffs
                assert quiddity_of_labeling(w).coeffs == q.canonical().coeffs

    def test_bound_guards(self):
        q = Quiddity.verified(Z, (1, 1, 1))
        with pytest.raises(SizeLimitError):
            find_labeling(q, 5)
        with pytest.raises(ValueError):
            find_labeling(Quiddity.verified(GeneratorSpec("sqrt", 2), (1, 1, 1, 1)), 2)

    def test_render_mentions_sums(self):
        w = find_labeling(Quiddity.verified(Z, (1, 1, 1)), 2)
        text = render_labeling(w)
        assert "vertex sums" in text and "triangle 0" in text
