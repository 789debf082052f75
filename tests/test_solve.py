"""Tail completion, bounded enumeration, exact decomposition, irreducibility
and the two-small-entries probe, each against an exhaustive oracle."""

from __future__ import annotations

import concurrent.futures
import math
import subprocess
import sys
from itertools import product

import pytest

from quiddity import (
    EnumSpec,
    GeneratorSpec,
    Int,
    Mat2,
    NoModulusError,
    NotAQuiddityError,
    NotUnimodularError,
    Quiddity,
    WorkLimitExceeded,
    canonical_coeffs,
    check_two_small_entries,
    classify_irreducibles,
    enumerate_quiddities,
    find_decomposition,
    is_irreducible,
    product_matrix,
    solve_tail2,
    sum_oplus,
)
from quiddity import solve
from quiddity.solve import predicted_nodes, priced_nodes

from helpers import (
    GENERATORS,
    brute_decomposition,
    brute_enumerate,
    brute_tail_completions,
    child_env,
    full_walk_shard,
    generic_decomposition,
)

Z = GeneratorSpec.from_string("z")
N = GeneratorSpec.from_string("z+nonneg")
SQRT2 = GeneratorSpec.from_string("sqrt:2")
GAUSS = GeneratorSpec.from_string("isqrt:1")
ALPHA = GeneratorSpec.from_string("alpha")


class TestSolveTail:
    def test_identity_prefix(self):
        assert solve_tail2(Mat2.identity(), Z) == [(0, 0, -1)]
        assert brute_tail_completions((), Z, 5) == [(0, 0, -1)]

    def test_single_one_prefix(self):
        P = product_matrix((Int(1),))
        assert solve_tail2(P, Z) == [(1, 1, -1)]

    def test_sqrt2_prefix(self):
        P = product_matrix(tuple(SQRT2.embed(1) for _ in range(2)))
        assert solve_tail2(P, SQRT2) == [(1, 1, -1)]
        assert brute_tail_completions((1, 1), SQRT2, 4) == [(1, 1, -1)]

    def test_membership_filter(self):
        # completions must land inside the subgroup: over <2> the tuple
        # (1, 1, 1) is invisible
        P = product_matrix((Int(1),))
        assert solve_tail2(P, GeneratorSpec.from_string("z:2")) == []

    def test_rejects_non_unimodular(self):
        with pytest.raises(NotUnimodularError):
            solve_tail2(Mat2(Int(2), Int(0), Int(0), Int(1)), Z)

    @pytest.mark.parametrize("gen", [Z, SQRT2, GAUSS], ids=lambda g: g.to_string())
    def test_completeness_small(self, gen):
        for length in range(0, 3):
            for prefix in product(range(-3, 4), repeat=length):
                elems = tuple(gen.embed(c) for c in prefix)
                P = product_matrix(elems) if elems else Mat2.identity()
                got = sorted(solve_tail2(P, gen))
                for kx, ky, _ in got:
                    assert abs(kx) <= 12 and abs(ky) <= 12
                assert got == brute_tail_completions(prefix, gen, 12)


class TestEnumerate:
    def test_size_two_over_z(self):
        found = enumerate_quiddities(EnumSpec(Z, 2, 3))
        assert [q.coeffs for q in found] == [(0, 0)]
        assert found[0].sign == -1

    def test_size_four_classes_over_z(self):
        got = {q.coeffs for q in enumerate_quiddities(EnumSpec(Z, 4, 3, canonical_only=True))}
        brute = {canonical_coeffs(c, Z) for c, _ in brute_enumerate(Z, 4, 3)}
        assert got == brute
        assert len(got) == 6
        assert canonical_coeffs((1, 2, 1, 2), Z) in got
        assert canonical_coeffs((-1, -2, -1, -2), Z) in got
        for m in range(4):
            assert canonical_coeffs((0, m, 0, -m), Z) in got

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_imaginary_odd_sizes_empty(self, k):
        gen = GeneratorSpec("isqrt", k)
        for n in (3, 5):
            assert enumerate_quiddities(EnumSpec(gen, n, 3)) == []

    # one generator per scale branch of the kernel: uniform integer scale
    # (positive, negative, from a square radicand), alternating quadratic
    # scale (real, imaginary, imaginary square radicand) and Kronecker X
    @pytest.mark.parametrize(
        "gen",
        [Z, N, GeneratorSpec.from_string("z:2"), GeneratorSpec.from_string("z:-3"),
         SQRT2, GeneratorSpec.from_string("sqrt:5"), GAUSS,
         GeneratorSpec.from_string("isqrt:3"), GeneratorSpec.from_string("isqrt:4"),
         GeneratorSpec.from_string("isqrt:2+nonneg"), ALPHA,
         GeneratorSpec.from_string("alpha+nonneg")],
        ids=lambda g: g.to_string(),
    )
    def test_matches_brute_force(self, gen):
        for n in range(2, 6):
            got = [(q.coeffs, q.sign) for q in enumerate_quiddities(EnumSpec(gen, n, 2))]
            assert got == sorted(
                brute_enumerate(gen, n, 2),
                key=lambda pair: Quiddity(gen, pair[0], pair[1]).order_key(),
            )

    def test_alpha_kronecker_substitution_is_sound(self):
        # every tuple the integer walker accepts at X := M must solve over X
        found = enumerate_quiddities(EnumSpec(ALPHA, 8, 3))
        assert len(found) == 2765
        for q in found:
            assert q.verify() == q.sign

    def test_signs_reverify(self):
        for q in enumerate_quiddities(EnumSpec(SQRT2, 6, 2)):
            assert q.verify() == q.sign

    def test_worker_count_does_not_change_output(self):
        serial = enumerate_quiddities(EnumSpec(Z, 5, 2), workers=1)
        parallel = enumerate_quiddities(EnumSpec(Z, 5, 2), workers=3)
        assert serial == parallel

    def test_pool_never_outgrows_shards_or_cpus(self, monkeypatch):
        started = []

        class RecordingPool:  # records its size and maps in-process: starts no process
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return list(map(fn, items))

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        for cpus, spec, pools in (
            (4, EnumSpec(Z, 4, 1), [3]),  # 3 shards
            (4, EnumSpec(Z, 6, 3), [4]),  # 7 shards, 4 CPUs
            (None, EnumSpec(Z, 6, 3), []),  # CPU count unknown: serial
        ):
            started.clear()
            monkeypatch.setattr(solve.os, "cpu_count", lambda: cpus)
            serial = enumerate_quiddities(spec)
            assert enumerate_quiddities(spec, workers=100_000) == serial
            assert started == pools

    def test_import_loads_no_pool_machinery(self):
        # only a run that starts a pool pays for concurrent.futures and multiprocessing
        code = ("import sys, quiddity.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=child_env(), check=True)
        assert out.stdout.strip() == "[]"

    def test_work_limit_is_a_precondition(self):
        with pytest.raises(WorkLimitExceeded):
            enumerate_quiddities(EnumSpec(Z, 8, 4), work_limit=100)

    def test_predicted_nodes_counts_the_prefix_tree(self):
        for v in range(1, 6):
            for n in range(9):
                assert predicted_nodes(v, n) == 1 + sum(v**i for i in range(1, n - 1))

    def test_priced_nodes_is_exact_or_a_true_lower_bound(self):
        digits = sys.get_int_max_str_digits()
        for v in (2, 10, 11):
            edge = int(digits / math.log10(v))
            for n in range(edge - 6, edge + 6):
                for count in (1, v - 1):
                    cost = count * predicted_nodes(v, n)
                    exact, text = priced_nodes(count, v, n)
                    if exact is None:
                        k = int(text.removeprefix("more than 10^"))
                        assert digits - 3 <= k and 10**k < cost
                    else:
                        assert exact == cost and text == str(cost)

    def test_zero_generator_deduplicates_coefficients(self):
        found = enumerate_quiddities(EnumSpec(GeneratorSpec.from_string("z:0"), 4, 3))
        assert [q.coeffs for q in found] == [(0, 0, 0, 0)]


# every ring kind, with the zero scale and a second negative one besides
KERNEL_GENERATORS = GENERATORS + [GeneratorSpec.from_string(s) for s in ("z:0", "z:-3")]


class TestKernel:
    @pytest.mark.parametrize("gen", KERNEL_GENERATORS, ids=lambda g: g.to_string())
    def test_shards_equal_the_full_walk(self, gen):
        for n in range(2, 8 if gen.ring[0] == "poly" else 9):
            for bound in range(4):
                for first in [None] if n == 2 else solve._coeff_values(gen, bound):
                    got = solve._run_shard(gen, n, bound, first)
                    assert set(got) == set(full_walk_shard(gen, n, bound, first))
                    assert len(got) == len(set(got))

    @pytest.mark.parametrize(
        "gen",
        [g for g in KERNEL_GENERATORS if g.ring[0] == "int" and g.ring[1]],
        ids=lambda g: g.to_string(),
    )
    def test_zero_first_entry_walks_the_third_level(self, gen):
        # at n = 4 the product before the third-from-last entry has p11 =
        # 0*s = 0, so every entry there completes: (0, m, 0, -m) over Z
        for bound in range(4):
            want = {(c, eps) for c, eps in brute_enumerate(gen, 4, bound) if c[0] == 0}
            assert set(solve._run_shard(gen, 4, bound, 0)) == want
            if gen == Z:
                assert len(want) == 2 * bound + 1

    def test_third_entries_are_exactly_the_completable_ones(self):
        for vals in (range(-3, 4), range(0, 4), range(1)):
            for s in range(-4, 5):
                for p11, p21 in product(range(-7, 8), repeat=2):
                    if math.gcd(p11, p21) != 1:
                        continue  # no det-1 product has this first column
                    got = solve._third_entries(p11, p21, s, vals)
                    assert list(got) == [c for c in vals if c * s * p11 - p21 in (1, -1)]


class TestDecomposition:
    def test_worked_example(self):
        q = Quiddity.verified(Z, (2, 2, 1, 4, 1, 2))
        d = find_decomposition(q)
        assert d is not None
        assert sum_oplus(d.left, d.right.coeffs) == d.representative
        assert d.representative in [r for r in _dihedral(q.coeffs)]
        assert d.right.verify() == d.right.sign
        assert d.left == (1, 2, 1, 2) and d.right.coeffs == (2, 1, 2, 1)

    def test_even_mode_all_ones_is_stuck(self):
        q = Quiddity.verified(Z, (1, 1, 1, 1, 1, 1))
        assert find_decomposition(q, parity="even") is None
        assert find_decomposition(q) is not None  # plain reducibility does hold

    def test_zero_entry_makes_large_tuples_reducible(self):
        for gen in (Z, SQRT2):
            for n in (5, 6):
                for q in enumerate_quiddities(EnumSpec(gen, n, 2, canonical_only=True)):
                    if 0 in q.coeffs:
                        assert find_decomposition(q) is not None

    def test_witnesses_re_verify(self):
        for gen, parity in product(GENERATORS, ("any", "even")):
            for n in range(4, 7):
                for q in enumerate_quiddities(EnumSpec(gen, n, 2, canonical_only=True)):
                    d = find_decomposition(q, parity)
                    if d is None:
                        continue
                    assert sum_oplus(d.left, d.right.coeffs) == d.representative
                    assert d.right.verify() == d.right.sign
                    assert d.left_size >= 3 and d.right_size >= 3
                    assert d.left_size + d.right_size - 2 == q.size
                    if parity == "even":
                        assert d.left_size % 2 == 0 and d.right_size % 2 == 0
                    base = q.coeffs[::-1] if d.reflected else q.coeffs
                    rot = d.rotation
                    assert d.representative == base[rot:] + base[:rot]
                    # the scan never tests the left summand: the splice lemma does
                    assert Quiddity.verified(q.gen, d.left) is not None

    def test_matches_brute_force_decomposer(self):
        for gen, parity in product(GENERATORS, ("any", "even")):
            for n in range(4, 7):
                for q in enumerate_quiddities(EnumSpec(gen, n, 1, canonical_only=True)):
                    exact = find_decomposition(q, parity)
                    brute = brute_decomposition(q, parity, boundary_bound=4)
                    assert (exact is None) == (brute is None), (gen.to_string(), q.coeffs, parity)
                    if exact is not None:
                        assert all(abs(c) <= 4 for c in (exact.right.coeffs[0], exact.right.coeffs[-1]))

    def test_witnesses_equal_the_generic_oracle(self):
        classes = 0
        for gen in GENERATORS + [GeneratorSpec.from_string("z:0")]:
            for n in range(4, 9):
                for q in enumerate_quiddities(EnumSpec(gen, n, 2, canonical_only=True)):
                    classes += 1
                    for parity in ("any", "even"):
                        assert find_decomposition(q, parity) == generic_decomposition(q, parity), (
                            gen.to_string(), q.coeffs, parity
                        )
        assert classes == 1423  # 1420 over GENERATORS, one zero tuple per even n over z:0

    def test_requires_verified_input(self):
        with pytest.raises(NotAQuiddityError):
            find_decomposition(Quiddity(Z, (1, 1, 1, 1)))


def _dihedral(t):
    out = []
    for base in (t, t[::-1]):
        for r in range(len(t)):
            out.append(base[r:] + base[:r])
    return out


class TestIrreducibility:
    def test_examples(self):
        assert is_irreducible(Quiddity.verified(N, (0, 0, 0, 0))) is True
        assert is_irreducible(Quiddity.verified(Z, (0, 0))) is False
        assert is_irreducible(Quiddity.verified(Z, (1, 1, 1))) is True
        assert is_irreducible(Quiddity.verified(Z, (0, 1, 0, -1))) is False
        for m in (0, 2, 3):
            assert is_irreducible(Quiddity.verified(Z, (0, m, 0, -m))) is True

    def test_constant_on_dihedral_orbits(self):
        for q in enumerate_quiddities(EnumSpec(Z, 5, 2, canonical_only=True)):
            base = is_irreducible(q)
            for rep in _dihedral(q.coeffs):
                assert is_irreducible(Quiddity(Z, rep, q.sign)) == base

    def test_negation_preserves_irreducibility(self):
        for n in range(3, 7):
            for q in enumerate_quiddities(EnumSpec(Z, n, 2, canonical_only=True)):
                neg = Quiddity.verified(Z, tuple(-c for c in q.coeffs))
                assert is_irreducible(q) == is_irreducible(neg)

    def test_classify_small_sqrt2(self):
        got = {q.coeffs for q in classify_irreducibles(SQRT2, 6, 2)}
        want = {canonical_coeffs((1, 1, 1, 1), SQRT2), canonical_coeffs((-1, -1, -1, -1), SQRT2)}
        want |= {canonical_coeffs((0, a, 0, -a), SQRT2) for a in range(-2, 3)}
        assert got == want

    def test_classify_small_sqrt5(self):
        gen = GeneratorSpec.from_string("sqrt:5")
        got = {q.coeffs for q in classify_irreducibles(gen, 6, 2)}
        want = {canonical_coeffs((0, a, 0, -a), gen) for a in range(-2, 3)}
        assert got == want


class TestTwoSmallEntries:
    def test_examples(self):
        assert check_two_small_entries(Quiddity.verified(Z, (0, 0))) is True
        assert check_two_small_entries(Quiddity.verified(SQRT2, (1, 1, 1, 1))) is True

    def test_no_modulus_over_formal_symbol(self):
        with pytest.raises(NoModulusError):
            check_two_small_entries(Quiddity.verified(ALPHA, (0, 0)))

    def test_holds_on_small_enumerations(self):
        for gen in (Z, N, SQRT2, GAUSS, GeneratorSpec.from_string("sqrt:5")):
            for n in range(2, 7):
                for q in enumerate_quiddities(EnumSpec(gen, n, 2)):
                    assert check_two_small_entries(q) is True
