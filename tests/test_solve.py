"""Tail completion, bounded enumeration, exact decomposition, irreducibility
and the two-small-entries probe, each against an exhaustive oracle."""

from __future__ import annotations

import functools
import math
import multiprocessing
import subprocess
import sys
import tracemalloc
from itertools import product

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

from quiddity import (
    GeneratorSpec,
    Int,
    Mat2,
    NoModulusError,
    NotAQuiddityError,
    Quiddity,
    WorkLimitExceeded,
    canonical_coeffs,
    classify_irreducibles,
    continuant_rec,
    enumerate_quiddities,
    find_decomposition,
    is_irreducible,
    product_matrix,
    sum_oplus,
)
from quiddity import solve
from quiddity.audits import check_two_small_entries
from quiddity.core import coeff_ranks
from quiddity.solve import predicted_nodes, priced_nodes, reducing_pairs

from helpers import (
    GENERATORS,
    MODULUS_GENERATORS,
    NotUnimodularError,
    brute_decomposition,
    brute_enumerate,
    brute_tail_completions,
    child_env,
    cmp_abs_squared_with_4,
    element_order,
    full_walk_shard,
    generic_decomposition,
    kernel_tail,
    prefix_matrix,
    shard_raising_at,
    solve_tail2,
    third_entries,
    walk_stripe_then_exit,
)

Z = GeneratorSpec.from_string("z")
N = GeneratorSpec.from_string("z+nonneg")
SQRT2 = GeneratorSpec.from_string("sqrt:2")
GAUSS = GeneratorSpec.from_string("isqrt:1")
ALPHA = GeneratorSpec.from_string("alpha")
MODULUS_EXTRAS = ("z:0", "z:-2", "sqrt:4", "isqrt:9")


class TestSolveTail:
    """solve._complete on the kernel's scaled integer products, held against
    the generic closed form helpers.solve_tail2 and exhaustive tails."""

    def test_identity_prefix(self):
        assert kernel_tail((), Z, 5) == [(0, 0, -1)]
        assert solve_tail2(Mat2.identity(), Z) == [(0, 0, -1)]
        assert brute_tail_completions((), Z, 5) == [(0, 0, -1)]

    def test_single_one_prefix(self):
        assert kernel_tail((1,), Z, 5) == [(1, 1, -1)]
        assert solve_tail2(product_matrix((Int(1),)), Z) == [(1, 1, -1)]

    def test_sqrt2_prefix(self):
        assert kernel_tail((1, 1), SQRT2, 4) == [(1, 1, -1)]
        assert solve_tail2(prefix_matrix((1, 1), SQRT2), SQRT2) == [(1, 1, -1)]
        assert brute_tail_completions((1, 1), SQRT2, 4) == [(1, 1, -1)]

    def test_membership_filter(self):
        # completions must land inside the subgroup: over <2> the tuple
        # (1, 1, 1) is invisible
        z2 = GeneratorSpec.from_string("z:2")
        assert kernel_tail((1,), z2, 5) == []
        assert solve_tail2(product_matrix((Int(1),)), z2) == []

    def test_rejects_non_unimodular(self):
        with pytest.raises(NotUnimodularError):
            solve_tail2(Mat2(Int(2), Int(0), Int(0), Int(1)), Z)

    @pytest.mark.parametrize(
        "gen", [Z, SQRT2, GAUSS, GeneratorSpec.from_string("z:-2"), ALPHA], ids=lambda g: g.to_string()
    )
    def test_completeness_small(self, gen):
        # the longer prefixes have completions beyond the smaller tail bound
        cases = [(p, 12) for length in range(3) for p in product(range(-3, 4), repeat=length)]
        cases += [(p, 2) for length in (3, 4) for p in product(range(-2, 3), repeat=length)]
        cut = 0
        for prefix, limit in cases:
            got = kernel_tail(prefix, gen, limit)
            generic = sorted(solve_tail2(prefix_matrix(prefix, gen), gen))
            assert got == [t for t in generic if abs(t[0]) <= limit and abs(t[1]) <= limit]
            assert got == brute_tail_completions(prefix, gen, limit)
            cut += len(generic) > len(got)
        assert cut > 0


# every ring kind, with the zero scale and a second negative one besides
KERNEL_GENERATORS = GENERATORS + [GeneratorSpec.from_string(s) for s in ("z:0", "z:-3")]


class TestEnumerate:
    def test_size_two_over_z(self):
        found = enumerate_quiddities(Z, 2, 3)
        assert [q.coeffs for q in found] == [(0, 0)]
        assert found[0].sign == -1

    def test_size_four_classes_over_z(self):
        got = {q.coeffs for q in enumerate_quiddities(Z, 4, 3, canonical_only=True)}
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
            assert enumerate_quiddities(gen, n, 3) == []

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
            got = [(q.coeffs, q.sign) for q in enumerate_quiddities(gen, n, 2)]
            order = element_order(gen)
            assert got == sorted(brute_enumerate(gen, n, 2), key=lambda pair: order(pair[0]))

    def test_alpha_kronecker_substitution_is_sound(self):
        # every tuple the integer walker accepts at X := M must solve over X
        found = enumerate_quiddities(ALPHA, 8, 3)
        assert len(found) == 2765
        for q in found:
            assert q.verify() == q.sign

    def test_signs_reverify(self):
        for q in enumerate_quiddities(SQRT2, 6, 2):
            assert q.verify() == q.sign

    def test_worker_count_does_not_change_output(self):
        serial = enumerate_quiddities(Z, 5, 2, workers=1)
        parallel = enumerate_quiddities(Z, 5, 2, workers=3)
        assert serial == parallel

    def test_pool_never_outgrows_shards_or_cpus(self, monkeypatch):
        started = []

        class LocalPipe(list):  # both ends of an in-process one-way pipe
            send = list.append

            def recv(self):
                return self.pop(0)

            def close(self):
                pass

        class LocalProcess:  # walks its stripe in-process at start: starts no process
            exitcode = 0

            def __init__(self, target, args, daemon):
                self.walk = functools.partial(target, *args)

            def start(self):
                started.append(self)
                self.walk()

            def join(self):
                pass

        monkeypatch.setattr(multiprocessing, "Pipe", lambda duplex: 2 * (LocalPipe(),))
        monkeypatch.setattr(multiprocessing, "Process", LocalProcess)
        for cpus, space, walkers in (
            (4, (Z, 4, 1), [3]),  # 3 shards
            (4, (Z, 6, 3), [4]),  # 7 shards, 4 CPUs
            (None, (Z, 6, 3), []),  # CPU count unknown: serial
        ):
            started.clear()
            monkeypatch.setattr(solve.os, "cpu_count", lambda: cpus)
            serial = enumerate_quiddities(*space)
            assert enumerate_quiddities(*space, workers=100_000) == serial
            # the parent walks stripe 0 itself, so it counts as one walker
            assert ([len(started) + 1] if started else []) == walkers

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_pooled_output_equals_serial(self, monkeypatch, workers):
        monkeypatch.setattr(solve.os, "cpu_count", lambda: 4)
        vals = [0, -1, 1, -2, 2, -3, 3]
        for count in (workers - 1, workers, workers + 3):  # fewer, as many and more shards
            firsts = vals[:count]
            # the kernel's pairs in shard order, before _collect sorts them
            assert solve._map_shards(Z, 6, 3, firsts, workers) == solve._map_shards(Z, 6, 3, firsts, 1)
            for canonical_only in (False, True):
                serial = enumerate_quiddities(Z, 6, 3, firsts=firsts, canonical_only=canonical_only)
                assert enumerate_quiddities(Z, 6, 3, firsts=firsts, canonical_only=canonical_only,
                                            workers=workers) == serial
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("name, stand_in, error", [
        # with two walkers shard -3 is the parent's (stripe 0) and shard -2 the worker's
        ("_run_shard", functools.partial(shard_raising_at, -3), ArithmeticError),
        ("_run_shard", functools.partial(shard_raising_at, -2), RuntimeError),
        ("_walk_stripe", walk_stripe_then_exit, RuntimeError),  # fails after it sent
    ])
    def test_a_failing_walker_raises_and_leaves_no_process(self, monkeypatch, name, stand_in, error):
        monkeypatch.setattr(solve.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(solve, name, stand_in)
        with pytest.raises(error):
            enumerate_quiddities(Z, 6, 3, workers=2)
        assert multiprocessing.active_children() == []

    def test_pool_under_the_spawn_start_method(self):
        # the start method of macOS and Windows: the walkers import quiddity afresh
        code = (
            "import multiprocessing, os\n"
            "from quiddity import GeneratorSpec, enumerate_quiddities\n"
            "if __name__ == '__main__':\n"
            "    multiprocessing.set_start_method('spawn')\n"
            "    os.cpu_count = lambda: 3\n"
            "    z = GeneratorSpec.from_string('z')\n"
            "    pooled = enumerate_quiddities(z, 6, 2, workers=3)\n"
            "    print(pooled == enumerate_quiddities(z, 6, 2), len(pooled), multiprocessing.active_children())\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=child_env(), check=True)
        assert out.stdout.split()[0] == "True" and out.stdout.split()[2] == "[]"

    def test_serial_fan_out_holds_one_shard_at_a_time(self):
        # 40,001 shards of size 3 with two solutions among them
        tracemalloc.start()
        try:
            found = enumerate_quiddities(Z, 3, 20_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [q.coeffs for q in found] == [(-1, -1, -1), (1, 1, 1)]
        assert peak < 1_000_000

    def test_import_loads_no_pool_machinery(self):
        # only a run that starts a pool pays for multiprocessing, and none
        # loads concurrent.futures
        code = (
            "import os, sys, quiddity.cli\n"
            "from quiddity import GeneratorSpec, enumerate_quiddities\n"
            "def loaded(top):\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == top)\n"
            "print(loaded('concurrent') + loaded('multiprocessing'))\n"
            "os.cpu_count = lambda: 2\n"
            "enumerate_quiddities(GeneratorSpec.from_string('z'), 5, 2, workers=2)\n"
            "print(loaded('concurrent'), 'multiprocessing' in sys.modules)\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=child_env(), check=True)
        assert out.stdout.splitlines() == ["[]", "[] True"]

    def test_work_limit_is_a_precondition(self):
        with pytest.raises(WorkLimitExceeded):
            enumerate_quiddities(Z, 8, 4, work_limit=100)

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
        found = enumerate_quiddities(GeneratorSpec.from_string("z:0"), 4, 3)
        assert [q.coeffs for q in found] == [(0, 0, 0, 0)]

    @pytest.mark.parametrize("gen", KERNEL_GENERATORS, ids=lambda g: g.to_string())
    def test_canonical_only_equals_the_brute_classes(self, gen):
        # the zero generator maps every coefficient to 0, so it takes 0 alone
        top = 0 if gen.ring[:2] == ("int", 0) else 2
        for n in range(2, 7):
            grid = brute_enumerate(gen, n, top)
            for bound in range(3):
                brute = {
                    canonical_coeffs(c, gen): eps
                    for c, eps in grid
                    if max(map(abs, c)) <= bound
                }
                found = enumerate_quiddities(gen, n, bound, canonical_only=True)
                got = [(q.coeffs, q.sign) for q in found]
                assert got == sorted(brute.items(), key=lambda kv: coeff_ranks(kv[0], gen))


class TestKernel:
    @pytest.mark.parametrize("gen", KERNEL_GENERATORS, ids=lambda g: g.to_string())
    def test_shards_equal_the_full_walk(self, gen):
        # plain enumeration, the classes' orbits, is the union of the full
        # walk's shards, each tuple once
        for n in range(2, 8 if gen.ring[0] == "poly" else 9):
            for bound in range(4):
                want = set()
                for first in [None] if n == 2 else solve._coeff_values(gen, bound):
                    want.update(full_walk_shard(gen, n, bound, first))
                got = [(q.coeffs, q.sign) for q in enumerate_quiddities(gen, n, bound)]
                assert set(got) == want
                assert len(got) == len(want)

    @pytest.mark.parametrize("gen", KERNEL_GENERATORS, ids=lambda g: g.to_string())
    def test_min_first_shards_equal_the_full_walk_above_their_entry(self, gen):
        for n in range(2, 8 if gen.ring[0] == "poly" else 9):
            for bound in range(4):
                for first in [None] if n == 2 else solve._coeff_values(gen, bound):
                    # the classes among the full walk's tuples above first,
                    # each once, as its own canonical form
                    want = full_walk_shard(gen, n, bound, first)
                    if first is not None:
                        low = coeff_ranks((first,), gen)[0]
                        want = [(c, eps) for c, eps in want if min(coeff_ranks(c, gen)) >= low]
                    classes = {canonical_coeffs(c, gen): eps for c, eps in want}
                    got = solve._run_shard(gen, n, bound, first)
                    assert set(got) == set(classes.items())
                    assert len(got) == len(set(got))
                    assert all(canonical_coeffs(c, gen) == c for c, _ in got)

    @pytest.mark.parametrize("gen", KERNEL_GENERATORS, ids=lambda g: g.to_string())
    def test_pair_free_walk_keeps_exactly_the_pair_free_tuples(self, gen):
        # closed under swapping, with values forbidden next to themselves and
        # next to others, so the rows differ with the previous entry
        forbidden = {(1, 1), (0, 2), (2, 0), (-1, 2), (2, -1), (-2, -2)}
        for n in range(2, 7 if gen.ring[0] == "poly" else 8):
            for bound in range(4):
                tuples = set()
                for first in [None] if n == 2 else solve._coeff_values(gen, bound):
                    tuples.update(full_walk_shard(gen, n, bound, first))
                want = {(c, eps) for c, eps in tuples
                        if all((c[j - 1], c[j]) not in forbidden for j in range(n))}
                got = [(q.coeffs, q.sign)
                       for q in enumerate_quiddities(gen, n, bound, forbidden=forbidden)]
                assert set(got) == want and len(got) == len(want)
                classes = [(q.coeffs, q.sign) for q in enumerate_quiddities(
                    gen, n, bound, canonical_only=True, forbidden=forbidden)]
                assert set(classes) == {(canonical_coeffs(c, gen), eps) for c, eps in want}
                assert len(classes) == len(set(classes))

    def test_pair_free_closed_forms_and_preconditions(self):
        assert enumerate_quiddities(Z, 2000, 0, forbidden={(0, 0)}) == []
        assert enumerate_quiddities(Z, 2, 3, forbidden={(0, 0)}) == []
        assert [q.coeffs for q in enumerate_quiddities(Z, 3, 1, forbidden={(1, 1)})] == [
            (-1, -1, -1)
        ]
        with pytest.raises(ValueError, match="closed under swapping"):
            enumerate_quiddities(Z, 6, 2, forbidden={(1, 2)})
        forbidden = {(0, c) for c in range(-3, 4)} | {(c, 0) for c in range(-3, 4)}
        serial, pooled = (
            enumerate_quiddities(Z, 8, 3, canonical_only=True, workers=w, forbidden=forbidden)
            for w in (1, 2)
        )
        assert serial == pooled and serial
        assert all(0 not in q.coeffs for q in serial)

    @given(
        gen=st.sampled_from([Z, GeneratorSpec.from_string("z:-3"), SQRT2, ALPHA]),
        coeffs=st.lists(st.integers(-2, 2), min_size=2, max_size=7).map(tuple),
    )
    @example(gen=Z, coeffs=(0, 1, 2, 0, 1, 1))  # a tie, and not canonical
    def test_leaf_reject_lemma(self, gen, coeffs):
        # the reflection read back from position 0 starts (t[0], t[-1], ...)
        ranks = coeff_ranks(coeffs, gen)
        if ranks[1] > ranks[-1]:
            assert canonical_coeffs(coeffs, gen) != coeffs

    def test_a_tie_at_the_leaf_reject_can_be_canonical(self):
        # so the kernel rejects only a strict rank(t[1]) > rank(t[-1])
        for gen, t in [(Z, (0, 1, 2, 1)), (GeneratorSpec.from_string("z:-3"), (0, -1, -2, -1)),
                       (SQRT2, (0, 1, 2, 1)), (ALPHA, (0, 1, 2, 1))]:
            ranks = coeff_ranks(t, gen)
            assert ranks[1] == ranks[-1] and canonical_coeffs(t, gen) == t

    @pytest.mark.parametrize(
        "gen",
        [g for g in KERNEL_GENERATORS if g.ring[0] == "int" and g.ring[1]],
        ids=lambda g: g.to_string(),
    )
    def test_zero_first_entry_walks_the_third_level(self, gen):
        # at n = 4 the product before the third-from-last entry has p11 =
        # 0*s = 0, so every entry there completes; shard 0 keeps only the
        # zero tuple, and each (0, m, 0, -m) comes as a class from the shard
        # of its least entry: (-m, 0, m, 0) over Z
        for bound in range(4):
            assert solve._run_shard(gen, 4, bound, 0) == [((0, 0, 0, 0), 1)]
            union = {
                pair
                for first in solve._coeff_values(gen, bound)
                for pair in solve._run_shard(gen, 4, bound, first)
            }
            want = {
                (canonical_coeffs(c, gen), eps)
                for c, eps in brute_enumerate(gen, 4, bound)
                if c[0] == 0
            }
            assert want <= union
            if gen == Z:
                assert want == {((-m, 0, m, 0), 1) for m in range(bound + 1)}

    def test_third_entries_are_exactly_the_completable_ones(self):
        for vals in (range(-3, 4), range(0, 4), range(1)):
            for s in range(-4, 5):
                for p11, p21 in product(range(-7, 8), repeat=2):
                    if math.gcd(p11, p21) != 1:
                        continue  # no det-1 product has this first column
                    got = third_entries(p11, p21, s, vals)
                    assert list(got) == [c for c in vals if c * s * p11 - p21 in (1, -1)]


class TestPruningLemmas:
    """The lemmas behind the kernel's pruning (_run_shard, _position_scales),
    through the generic route: continuants of the embedded elements, and the
    full walk and the exhaustive grid as oracles."""

    @pytest.mark.parametrize("gen", KERNEL_GENERATORS, ids=lambda g: g.to_string())
    def test_a_prefix_continuant_is_its_complementary_window(self, gen):
        # the frieze-cap lemma: K(a_1..a_m) = -eps*K(a_(m+2)..a_(n-1))
        for n in range(2, 7 if gen.ring[0] == "poly" else 9):
            for q in enumerate_quiddities(gen, n, 3):
                a = q.elements()
                for m in range(1, n - 1):
                    assert continuant_rec(a[:m]) == -q.sign * continuant_rec(a[m + 1 : n - 1])

    def test_capped_shards_equal_the_full_walk(self):
        n, bound = 10, 2
        kmax = [1, bound]
        while len(kmax) < n - 2:
            kmax.append(bound * kmax[-1] + kmax[-2])
        # the cap cuts after 5, 6 and 7 of the 7 walked entries: an
        # alternating prefix of m entries reaches Kmax(m) > Kmax(n - m - 2)
        for m in (5, 6, 7):
            prefix = ((bound, -bound) * n)[:m]
            assert abs(continuant_rec(prefix).rational_value()) == kmax[m] > kmax[n - m - 2]
        forbidden = reducing_pairs(Z, n, bound, "even")
        for first in range(-bound, bound + 1):
            classes = {(canonical_coeffs(c, Z), eps)
                       for c, eps in full_walk_shard(Z, n, bound, first) if min(c) >= first}
            pair_free = {(c, eps) for c, eps in classes
                         if all((c[j - 1], c[j]) not in forbidden for j in range(n))}
            assert sorted(solve._run_shard(Z, n, bound, first)) == sorted(classes)
            assert sorted(solve._run_shard(Z, n, bound, first, forbidden)) == sorted(pair_free)

    def test_odd_sizes_have_no_solution_over_the_formal_symbol(self):
        # the grid at (7, 2) takes about 25 s, so size 7 stops at bound 1
        for n, bound in ((3, 2), (5, 2), (7, 1)):
            assert brute_enumerate(ALPHA, n, bound) == []
            assert solve._position_scales(ALPHA, n, bound) is None


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
                for q in enumerate_quiddities(gen, n, 2, canonical_only=True):
                    if 0 in q.coeffs:
                        assert find_decomposition(q) is not None

    def test_witnesses_re_verify(self):
        for gen, parity in product(GENERATORS, ("any", "even")):
            for n in range(4, 7):
                for q in enumerate_quiddities(gen, n, 2, canonical_only=True):
                    d = find_decomposition(q, parity)
                    if d is None:
                        continue
                    assert sum_oplus(d.left, d.right.coeffs) == d.representative
                    assert d.right.verify() == d.right.sign
                    assert len(d.left) >= 3 and d.right.size >= 3
                    assert len(d.left) + d.right.size - 2 == q.size
                    if parity == "even":
                        assert len(d.left) % 2 == 0 and d.right.size % 2 == 0
                    base = q.coeffs[::-1] if d.reflected else q.coeffs
                    rot = d.rotation
                    assert d.representative == base[rot:] + base[:rot]
                    # the scan never tests the left summand: the splice lemma does
                    assert Quiddity.verified(q.gen, d.left) is not None

    def test_matches_brute_force_decomposer(self):
        for gen, parity in product(GENERATORS, ("any", "even")):
            for n in range(4, 7):
                for q in enumerate_quiddities(gen, n, 1, canonical_only=True):
                    exact = find_decomposition(q, parity)
                    brute = brute_decomposition(q, parity, boundary_bound=4)
                    assert (exact is None) == (brute is None), (gen.to_string(), q.coeffs, parity)
                    if exact is not None:
                        assert all(abs(c) <= 4 for c in (exact.right.coeffs[0], exact.right.coeffs[-1]))

    def test_witnesses_equal_the_generic_oracle(self):
        classes = 0
        for gen in GENERATORS + [GeneratorSpec.from_string("z:0")]:
            for n in range(4, 9):
                for q in enumerate_quiddities(gen, n, 2, canonical_only=True):
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
        for q in enumerate_quiddities(Z, 5, 2, canonical_only=True):
            base = is_irreducible(q)
            for rep in _dihedral(q.coeffs):
                assert is_irreducible(Quiddity(Z, rep, q.sign)) == base

    def test_negation_preserves_irreducibility(self):
        for n in range(3, 7):
            for q in enumerate_quiddities(Z, n, 2, canonical_only=True):
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


# the generators of the reducing-pair lemmas: each ring kind, both signs of
# <+-1>, a scaled and the zero integer generator, and +nonneg with no pairs
REDUCING_GENERATORS = [
    GeneratorSpec.from_string(s)
    for s in ("z", "z:-1", "z:2", "z:0", "z+nonneg", "sqrt:1", "sqrt:2", "sqrt:3",
              "isqrt:1", "isqrt:2", "isqrt:4", "alpha", "sqrt:2+nonneg")
]
REDUCING_SPACES = [(n, b) for b in (1, 2) for n in range(3, 10)] + [(n, 3) for n in range(3, 9)]


class TestReducingPairs:
    """reducing_pairs against the scan it stands for: every class holding a
    pair has a witness, and the pair-free classify walk finds exactly the
    irreducible classes of the unpruned one."""

    @pytest.mark.parametrize("gen", REDUCING_GENERATORS, ids=lambda g: g.to_string())
    def test_pruned_classify_equals_the_unpruned_walk_with_the_scan(self, gen):
        for n, bound in REDUCING_SPACES:
            classes = enumerate_quiddities(gen, n, bound, canonical_only=True)
            want = [q for q in classes if is_irreducible(q)]
            assert classify_irreducibles(gen, n, bound, min_size=n) == want, (n, bound)
            for parity in ("any", "even"):
                pairs = reducing_pairs(gen, n, bound, parity)
                assert all((b, a) in pairs for a, b in pairs)
                for q in classes:
                    t = q.coeffs
                    if any((t[j - 1], t[j]) in pairs for j in range(n)):
                        assert find_decomposition(q, parity) is not None, (n, bound, parity, t)

    def test_pairs_by_ring(self):
        def pairs(spec, n, bound=2, parity="any"):
            return reducing_pairs(GeneratorSpec.from_string(spec), n, bound, parity)

        zero = {(0, c) for c in range(-2, 3)} | {(c, 0) for c in range(-2, 3)}
        units = {(u, c) for u in (1, -1) for c in range(-2, 3)}
        units |= {(b, a) for a, b in units}
        assert pairs("z", 4) == pairs("z:-1", 4) == units
        assert pairs("z", 5) == units | zero | {(1, 2), (2, 1), (-1, -2), (-2, -1)}
        assert pairs("z", 6, parity="even") == zero | {(1, 2), (2, 1), (-1, -2), (-2, -1)}
        assert pairs("z", 5, parity="even") == pairs("z", 4, parity="even") == frozenset()
        assert pairs("z:2", 5) == pairs("sqrt:3", 6) == pairs("isqrt:4", 6) == zero
        assert pairs("alpha", 6) == zero and pairs("alpha", 5) == frozenset()
        assert pairs("sqrt:2", 6) == zero | {(1, 1), (-1, -1)}
        assert pairs("isqrt:2", 6) == zero | {(1, -1), (-1, 1)}
        assert pairs("isqrt:1", 6) == zero | {(1, -2), (-2, 1), (-1, 2), (2, -1)}
        assert pairs("z:0", 5) == {(0, 0)}
        assert pairs("sqrt:2", 5) == pairs("sqrt:2", 4) == frozenset()
        assert pairs("z+nonneg", 8) == pairs("isqrt:1+nonneg", 8) == frozenset()
        with pytest.raises(ValueError, match="parity"):
            pairs("z", 6, parity="odd")


class TestTwoSmallEntries:
    def test_examples(self):
        assert check_two_small_entries(Quiddity.verified(Z, (0, 0))) is True
        assert check_two_small_entries(Quiddity.verified(SQRT2, (1, 1, 1, 1))) is True

    def test_no_modulus_over_formal_symbol(self):
        with pytest.raises(NoModulusError):
            check_two_small_entries(Quiddity.verified(ALPHA, (0, 0)))

    @pytest.mark.parametrize(
        "gen",
        list(dict.fromkeys(MODULUS_GENERATORS + [GeneratorSpec.from_string(t) for t in MODULUS_EXTRAS])),
        ids=lambda g: g.to_string(),
    )
    def test_integer_norm_agrees_with_the_generic_comparison(self, gen):
        small = {c: cmp_abs_squared_with_4(gen.embed(c)) < 0 for c in range(-6, 7)}
        for t in product(range(-6, 7), repeat=3):
            want = sum(small[c] for c in t) >= 2
            assert check_two_small_entries(Quiddity(gen, t)) is want, t

    def test_holds_on_small_enumerations(self):
        for gen in (Z, N, SQRT2, GAUSS, GeneratorSpec.from_string("sqrt:5")):
            for n in range(2, 7):
                for q in enumerate_quiddities(gen, n, 2):
                    assert check_two_small_entries(q) is True
