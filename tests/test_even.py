"""Even splice reducibility, the <i> link, and the resumable search."""

from __future__ import annotations

import functools
import io
import itertools
import json
import multiprocessing

import pytest

from quiddity import (
    EvenSearchState,
    GeneratorSpec,
    MODE_EQUIV,
    MODE_STRICT,
    OddSizeError,
    Quiddity,
    WorkLimitExceeded,
    enumerate_quiddities,
    find_decomposition,
    is_evenly_reducible,
    search_evenly_irreducible,
)
from quiddity import solve
from quiddity.audits import link_probe
from quiddity.cli import main
from quiddity.even import MODES, _window_verdicts
from helpers import generic_decomposition, reducing_pair_set, shard_charges

Z = GeneratorSpec.from_string("z")
# every even size up to 10 at every bound up to 3, and one wider bound
EVEN_SPACES = [(n, b) for n in (4, 6, 8, 10) for b in range(4)] + [(8, 4)]


def _scan_verdicts(q, decompose=find_decomposition):
    """(strictly reducible, reducible up to equivalence) read off one
    decomposition scan, which tries the literal tuple first."""
    w = decompose(q, parity="even")
    return w is not None and w.rotation == 0 and not w.reflected, w is not None


def _q(coeffs):
    q = Quiddity.verified(Z, coeffs)
    assert q is not None
    return q


def _checkpoints(size, bound, mode, done, found):
    """(unversioned, current) checkpoint texts of these fields, built as
    dicts because EvenSearchState refuses a state that breaks its
    invariants: the form from before the version key, with complete stored,
    and the same fields as version 2."""
    obj = {
        "size": size, "bound": bound, "mode": mode, "done": sorted(done),
        "found": [
            {"coeffs": list(cc), "sign": sign, "equiv_reducible": red}
            for cc, sign, red in sorted(found)
        ],
    }
    unversioned = {**obj, "complete": len(done) == 2 * bound + 1}
    return json.dumps(unversioned), json.dumps({**obj, "version": 2})


def _assert_refused(argv, tmp_path, capsys, text, detail):
    """even-search argv over a checkpoint holding text exits 2, names the
    path and detail, prints nothing and leaves the file as it was."""
    path = tmp_path / "state.json"
    path.write_text(text)
    out = io.StringIO()
    assert main([*argv, "--checkpoint", str(path)], out=out) == 2 and out.getvalue() == ""
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad checkpoint {str(path)!r}: ") and detail in err
    assert path.read_text() == text


class TestEvenReducibility:
    def test_worked_examples(self):
        assert is_evenly_reducible(_q((2, 2, 1, 4, 1, 2)), MODE_STRICT) is True
        assert is_evenly_reducible(_q((2, 2, 1, 4, 1, 2)), MODE_EQUIV) is True
        assert is_evenly_reducible(_q((1, 2, 1, 2, 1, 2, 1, 2)), MODE_STRICT) is True
        assert is_evenly_reducible(_q((1, 2, 1, 2, 1, 2, 1, 2)), MODE_EQUIV) is True
        assert is_evenly_reducible(_q((1, 1, 1, 1, 1, 1)), MODE_STRICT) is False
        assert is_evenly_reducible(_q((1, 1, 1, 1, 1, 1)), MODE_EQUIV) is False

    def test_size_four_always_irreducible(self):
        for q in enumerate_quiddities(Z, 4, 4, canonical_only=True):
            assert is_evenly_reducible(q, MODE_EQUIV) is False
            assert is_evenly_reducible(q, MODE_STRICT) is False

    def test_strict_implies_equivalent(self):
        for n in (6, 8):
            for q in enumerate_quiddities(Z, n, 2, canonical_only=True):
                if is_evenly_reducible(q, MODE_STRICT):
                    assert is_evenly_reducible(q, MODE_EQUIV)

    def test_equiv_mode_is_orbit_invariant(self):
        for q in enumerate_quiddities(Z, 6, 2, canonical_only=True):
            base = is_evenly_reducible(q, MODE_EQUIV)
            for reflected in (False, True):
                t = q.coeffs[::-1] if reflected else q.coeffs
                for r in range(q.size):
                    rep = Quiddity(Z, t[r:] + t[:r], q.sign)
                    assert is_evenly_reducible(rep, MODE_EQUIV) == base

    def test_strict_witness_splits_into_even_sizes(self):
        from quiddity.solve import _position_scales, _scan_representative

        for n in (6, 8):
            for q in enumerate_quiddities(Z, n, 2, canonical_only=True):
                hit = _scan_representative(q.coeffs, Z, "even", _position_scales(Z, n, 2))
                if hit is None:
                    continue
                left, right, _ = hit
                assert len(left) % 2 == 0 and len(left) >= 4
                assert len(right) % 2 == 0 and len(right) >= 4
                assert len(left) + len(right) - 2 == n

    def test_strict_verdict_read_off_the_witness_matches_literal_scan(self):
        from quiddity.solve import _position_scales, _scan_representative

        for n in (6, 8):
            for q in enumerate_quiddities(Z, n, 2, canonical_only=True):
                scales = _position_scales(Z, n, 2)
                literal = _scan_representative(q.coeffs, Z, "even", scales) is not None
                assert is_evenly_reducible(q, MODE_STRICT) is literal

    def test_preconditions(self):
        with pytest.raises(OddSizeError):
            is_evenly_reducible(_q((1, 1, 1)))
        with pytest.raises(ValueError):
            is_evenly_reducible(_q((0, 0)))

    @pytest.mark.parametrize("gen", ["z:-1", "sqrt:1"])
    def test_verdicts_equal_the_scan_over_the_other_unit_rings(self, gen):
        # the decomposition scan once decided these generators; every tuple,
        # not only canonical ones, as the strict reading sees the alignment
        gen = GeneratorSpec.from_string(gen)
        verdicts = set()
        for n in (4, 6, 8):
            for q in enumerate_quiddities(gen, n, 2):
                got = (is_evenly_reducible(q, MODE_STRICT), is_evenly_reducible(q, MODE_EQUIV))
                assert got == _scan_verdicts(q), q.coeffs
                verdicts.add(got)
        assert verdicts == {(False, False), (False, True), (True, True)}

    @pytest.mark.parametrize(
        "gen, coeffs",
        [
            ("sqrt:2", (1, 1, 1, 1)),
            ("isqrt:2", (1, -1, 1, -1)),
            ("z:2", (0, 1, 0, -1)),
            ("z+nonneg", (1, 1, 1, 1, 1, 1)),
            ("alpha", (0, 1, 0, -1)),
        ],
    )
    def test_other_generators_are_refused(self, gen, coeffs):
        q = Quiddity.verified(GeneratorSpec.from_string(gen), coeffs)
        assert q is not None
        for mode in MODES:
            with pytest.raises(ValueError, match="decided over z, z:-1 and sqrt:1"):
                is_evenly_reducible(q, mode)


class TestWindowRule:
    """The window verdicts against the decomposition scans they replace."""

    @pytest.mark.parametrize("size, bound", EVEN_SPACES)
    def test_window_verdicts_equal_both_decomposition_scans(self, size, bound):
        for q in enumerate_quiddities(Z, size, bound, canonical_only=True):
            got = _window_verdicts(q.coeffs)
            assert got == _scan_verdicts(q) == _scan_verdicts(q, generic_decomposition), q.coeffs

    @pytest.mark.parametrize("size", [6, 8])
    def test_window_verdicts_hold_on_every_representative(self, size):
        # strict verdicts read the literal tuple, so rotations and reflections differ
        verdicts = set()
        for q in enumerate_quiddities(Z, size, 2):
            got = _window_verdicts(q.coeffs)
            assert got == _scan_verdicts(q), q.coeffs
            verdicts.add(got)
        assert {(True, True), (False, True)} <= verdicts

    def test_size_four_has_no_window(self):
        assert {_window_verdicts(q.coeffs) for q in enumerate_quiddities(Z, 4, 4)} == {
            (False, False)
        }

    @pytest.mark.parametrize("mode", [MODE_STRICT, MODE_EQUIV])
    def test_the_zero_tuple_splits_at_any_size(self, mode):
        # bound 0 leaves only the zero tuple, whose window (0, 0) has
        # continuant -1: the pruned walk drops it, the full one rejects it
        results, state = search_evenly_irreducible(2000, 0, mode)
        assert results == [] and state.found == () and state.complete

    @pytest.mark.parametrize("bound", range(5))
    def test_reducing_pairs_are_the_unit_windows_of_length_two(self, bound):
        values = range(-bound, bound + 1)
        pairs = reducing_pair_set(Z, 8, bound, "even")
        assert pairs == {(a, b) for a in values for b in values if a * b - 1 in (1, -1)}

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("size, bound", EVEN_SPACES)
    def test_pruned_sweep_equals_the_full_walk_with_the_scan(self, size, bound, workers):
        classes = enumerate_quiddities(Z, size, bound, canonical_only=True)
        verdicts = [(q, *_scan_verdicts(q)) for q in classes]
        want = {
            MODE_EQUIV: [(q.coeffs, q.sign, False) for q, _, equiv in verdicts if not equiv],
            MODE_STRICT: [(q.coeffs, q.sign, equiv) for q, strict, equiv in verdicts if not strict],
        }
        for mode, expected in want.items():
            results, state = search_evenly_irreducible(size, bound, mode, workers=workers)
            assert [(q.coeffs, q.sign, red) for q, red in results] == expected
            assert sorted(state.found) == sorted(expected)


class TestLinkToGaussianUnits:
    def test_small_scan_is_clean(self):
        (result,) = link_probe(6, 2)
        assert result.ok and result.detail.startswith("checked ")
        assert int(result.detail.split()[-1]) > 0

    def test_zero_interleaved_tuples_line_up(self):
        from quiddity import is_irreducible, phi

        gauss = GeneratorSpec("isqrt", 1)
        for m in (0, 2, 3):
            q = Quiddity.verified(gauss, (0, m, 0, -m))
            assert is_irreducible(q) is True
            assert is_evenly_reducible(phi(q), MODE_EQUIV) is False

    def test_all_ones_image_case(self):
        from quiddity import is_irreducible, phi

        gauss = GeneratorSpec("isqrt", 1)
        q = Quiddity.verified(gauss, (1, -1, 1, -1, 1, -1))
        assert q is not None
        img = phi(q)
        assert img.coeffs == (1, 1, 1, 1, 1, 1)
        assert is_irreducible(q) is True
        assert is_evenly_reducible(img, MODE_EQUIV) is False


class TestSearch:
    def test_contains_all_ones_at_size_six(self):
        results, state = search_evenly_irreducible(6, 1)
        coeffs = {q.canonical().coeffs for q, _ in results}
        assert Quiddity(Z, (1, 1, 1, 1, 1, 1)).canonical().coeffs in coeffs
        assert state.complete

    def test_size_four_returns_every_class(self):
        results, _ = search_evenly_irreducible(4, 2)
        got = {q.coeffs for q, _ in results}
        want = {
            q.coeffs for q in enumerate_quiddities(Z, 4, 2, canonical_only=True)
        }
        assert got == want

    def test_excludes_strictly_reducible_pattern(self):
        results, _ = search_evenly_irreducible(8, 2)
        target = Quiddity(Z, (1, 2, 1, 2, 1, 2, 1, 2)).canonical().coeffs
        assert target not in {q.canonical().coeffs for q, _ in results}

    def test_results_match_direct_filter(self):
        results, _ = search_evenly_irreducible(6, 2)
        direct = {
            q.coeffs
            for q in enumerate_quiddities(Z, 6, 2, canonical_only=True)
            if not is_evenly_reducible(q, MODE_EQUIV)
        }
        assert {q.coeffs for q, red in results if not red} == direct

    def test_checkpoint_resume_equals_single_shot(self):
        full, state_full = search_evenly_irreducible(6, 2)
        # a limit that pays for exactly the first two shards
        with pytest.raises(WorkLimitExceeded) as exc:
            search_evenly_irreducible(6, 2, work_limit=sum(shard_charges(6, 2)[:2]))
        partial = exc.value.state
        assert partial is not None and not partial.complete
        assert partial.done == (-2, -1)
        resumed, state_resumed = search_evenly_irreducible(6, 2, state=partial)
        assert [q.coeffs for q, _ in resumed] == [q.coeffs for q, _ in full]
        assert state_resumed.to_json() == state_full.to_json()

    @pytest.mark.parametrize("mode", [MODE_STRICT, MODE_EQUIV])
    def test_checkpoint_of_whole_class_shards_is_refused(self, mode, tmp_path, capsys):
        # a shard once held every class containing its coefficient, not only
        # those starting there: a checkpoint from then has shard 0 done and
        # every strictly irreducible class that contains 0 recorded
        classes = enumerate_quiddities(Z, 8, 2, canonical_only=True)
        found = tuple(sorted(
            (q.coeffs, q.sign, is_evenly_reducible(q, MODE_EQUIV))
            for q in classes
            if 0 in q.coeffs and not is_evenly_reducible(q, MODE_STRICT)
        ))
        assert any(min(cc) < 0 for cc, _, _ in found)  # classes that start below 0
        with pytest.raises(ValueError, match="which is not done"):
            EvenSearchState(8, 2, mode, (0,), found)
        unversioned, current = _checkpoints(8, 2, mode, (0,), found)
        argv = ["even-search", "--size", "8", "--bound", "2", "--mode", mode]
        _assert_refused(argv, tmp_path, capsys, unversioned, "an unversioned checkpoint")
        _assert_refused(argv, tmp_path, capsys, current, "which is not done")

    @pytest.mark.parametrize("mode", [MODE_STRICT, MODE_EQUIV])
    def test_partial_states_record_the_classes_starting_in_done_shards(self, mode):
        # the irreducible classes of the state's mode
        irreducible = {
            q.coeffs
            for q in enumerate_quiddities(Z, 8, 2, canonical_only=True)
            if not is_evenly_reducible(q, mode)
        }
        # the dearest shard's charge: every run finishes at least one shard
        limit = max(shard_charges(8, 2, mode))
        state, partials = None, []
        for _ in range(5):  # one run per shard at most
            try:
                _, state = search_evenly_irreducible(8, 2, mode, work_limit=limit, state=state)
                break
            except WorkLimitExceeded as exc:
                state = exc.state
                partials.append(state)
        assert state.complete and len(partials) >= 2
        for partial in partials:
            assert all(cc[0] in partial.done for cc, _, _ in partial.found)
            assert {cc for cc, _, _ in partial.found} == {
                cc for cc in irreducible if cc[0] in partial.done
            }

    def test_checkpoint_with_flagged_records_is_refused(self, tmp_path, capsys):
        # an up-to-equivalence checkpoint as a sweep of every class wrote it:
        # two of seven shards done, each with every strictly irreducible
        # class starting there, the ones split after a dihedral move flagged
        done = (-3, 1)
        found = []
        for q in enumerate_quiddities(Z, 8, 3, canonical_only=True):
            strict, equiv = _scan_verdicts(q)
            if q.coeffs[0] in done and not strict:
                found.append((q.coeffs, q.sign, equiv))
        assert any(red for _, _, red in found) and not all(red for _, _, red in found)
        with pytest.raises(ValueError, match="evenly reducible up to equivalence"):
            EvenSearchState(8, 3, MODE_EQUIV, done, tuple(found))
        unversioned, current = _checkpoints(8, 3, MODE_EQUIV, done, found)
        argv = ["even-search", "--size", "8", "--bound", "3"]
        _assert_refused(argv, tmp_path, capsys, unversioned, "an unversioned checkpoint")
        _assert_refused(argv, tmp_path, capsys, current, "evenly reducible up to equivalence")

    @pytest.mark.parametrize("version", [None, 1, 3, "2", 2.0, True])
    def test_other_versions_are_refused(self, version):
        obj = json.loads(search_evenly_irreducible(6, 1)[1].to_json())
        with pytest.raises(ValueError, match="is no longer read"):
            EvenSearchState.from_json(json.dumps({**obj, "version": version}))

    @pytest.mark.parametrize(
        "bound, mode, done, found, detail",
        [
            (1, MODE_EQUIV, (0, 0), (), "distinct first coefficients"),
            (1, MODE_EQUIV, (-2, -1, 0, 1), (), "within the bound"),
            (1, MODE_STRICT, (-1, 0), (((1,) * 6, 1, False),), "which is not done"),
            (2, MODE_EQUIV, (-2, -1, 0, 1, 2), (((0, 1, 1, 2, 1, 1), 1, True),),
             "evenly reducible up to equivalence"),
            (1, MODE_EQUIV, (-1, 0, 1), (((1,) * 6, 1, False),) * 2, "recorded twice"),
        ],
        ids=["done-duplicate", "done-outside-bound", "record-outside-done", "equiv-flagged",
             "class-twice"],
    )
    def test_a_state_that_breaks_an_invariant_is_refused(self, bound, mode, done, found, detail):
        with pytest.raises(ValueError, match=detail):
            EvenSearchState(6, bound, mode, done, found)

    def test_state_serialization_is_byte_stable(self):
        _, state = search_evenly_irreducible(6, 1)
        text = state.to_json()
        assert EvenSearchState.from_json(text).to_json() == text

    def test_checkpoint_mismatch_rejected(self):
        _, state = search_evenly_irreducible(6, 1)
        with pytest.raises(ValueError):
            search_evenly_irreducible(6, 2, state=state)

    def test_deeply_nested_checkpoint_json_is_value_error(self):
        with pytest.raises(ValueError, match="nested too deeply"):
            EvenSearchState.from_json("[" * 200_000)

    def test_shards_outside_the_bound_are_a_mismatch(self, tmp_path, capsys):
        with pytest.raises(ValueError, match="within the bound"):
            EvenSearchState(6, 1, MODE_EQUIV, (-1, 0, 5), ())
        _, current = _checkpoints(6, 1, MODE_EQUIV, (-1, 0, 5), ())
        argv = ["even-search", "--size", "6", "--bound", "1"]
        _assert_refused(argv, tmp_path, capsys, current, "within the bound")

    @pytest.mark.parametrize("mode", [MODE_STRICT, MODE_EQUIV])
    def test_the_search_makes_no_decomposition_scan(self, mode, monkeypatch):
        import quiddity.even as even
        import quiddity.solve as solve

        assert not hasattr(even, "find_decomposition")
        calls = []

        def counting(q, *args, **kwargs):
            calls.append(q.coeffs)
            return find_decomposition(q, *args, **kwargs)

        monkeypatch.setattr(solve, "find_decomposition", counting)
        results, state = search_evenly_irreducible(8, 3, mode)
        assert EvenSearchState.from_json(state.to_json()) == state
        assert not any(is_evenly_reducible(q, mode) for q, _ in results)
        assert results and calls == []

    def test_first_coefficient_batches_cover_the_class_set(self):
        classes = functools.partial(enumerate_quiddities, Z, 8, 2, canonical_only=True)
        union = set()
        for batch in ([-2, 1], [0], [2, -1]):
            union |= {q.coeffs for q in classes(firsts=batch)}
        assert union == {q.coeffs for q in classes()}

    def test_canonical_shards_hold_the_classes_starting_there(self):
        shard = functools.partial(enumerate_quiddities, Z, 8, 2, canonical_only=True)
        classes = [q.coeffs for q in shard()]
        for c in range(-2, 3):
            got = [q.coeffs for q in shard(firsts=[c])]
            assert got == [cc for cc in classes if cc[0] == c]

    def test_first_coefficient_batch_preconditions(self):
        for bad in ([3], [0, 0], [-3, 1]):
            with pytest.raises(ValueError):
                enumerate_quiddities(Z, 6, 2, firsts=bad)
        with pytest.raises(ValueError):
            enumerate_quiddities(Z, 2, 2, firsts=[0])
        # the limit pays for exactly the two shards' charges
        charges = shard_charges(6, 2, MODE_STRICT)
        limit = charges[2] + charges[3]  # shards 0 and 1
        assert enumerate_quiddities(Z, 6, 2, work_limit=limit, firsts=[0, 1]) is not None
        with pytest.raises(WorkLimitExceeded):
            enumerate_quiddities(Z, 6, 2, work_limit=limit - 1, firsts=[0, 1])

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("mode", [MODE_STRICT, MODE_EQUIV])
    def test_resume_chain_equals_single_shot(self, mode, workers):
        full, state_full = search_evenly_irreducible(8, 2, mode)
        # the dearest shard's charge: every run finishes at least one shard
        limit = max(shard_charges(8, 2, mode))
        state, steps = None, 0
        for _ in range(5):  # one run per shard at most
            try:
                resumed, state = search_evenly_irreducible(
                    8, 2, mode, work_limit=limit, workers=workers, state=state
                )
                break
            except WorkLimitExceeded as exc:
                state, steps = exc.state, steps + 1
        assert state.complete and steps >= 2
        assert [(q.coeffs, q.sign, red) for q, red in resumed] == [
            (q.coeffs, q.sign, red) for q, red in full
        ]
        assert state.to_json() == state_full.to_json()

    def test_a_cut_is_the_same_for_every_worker_count(self, tmp_path, monkeypatch, capsys):
        # at each shard boundary of 12 3 (running total - 1, = and + 1): the
        # same exit code, stderr and checkpoint bytes for 1, 2 and 3 walkers,
        # done holding exactly the shards the limit pays for, and a resume
        # that prints the single run's bytes
        monkeypatch.setattr(solve.os, "cpu_count", lambda: 3)
        monkeypatch.delenv("QUIDDITY_WORK_LIMIT", raising=False)
        argv = ["even-search", "--size", "12", "--bound", "3", "--format", "jsonl"]
        single = io.StringIO()
        assert main(argv, out=single) == 0
        ck = tmp_path / "ck.json"
        totals = list(itertools.accumulate(shard_charges(12, 3)))
        for limit in [t + d for t in totals for d in (-1, 0, 1)]:
            runs = set()
            for workers in ("1", "2", "3"):
                ck.unlink(missing_ok=True)
                capsys.readouterr()
                code = main([*argv, "--work-limit", str(limit), "--workers", workers,
                             "--checkpoint", str(ck)], out=io.StringIO())
                runs.add((code, capsys.readouterr().err, ck.read_bytes()))
            ((code, err, state),) = runs
            paid = sum(t <= limit for t in totals)
            assert code == (0 if paid == len(totals) else 3)
            assert json.loads(state)["done"] == list(range(-3, -3 + paid))
            if code:
                assert err.startswith(f"work limit: {7 - paid} of 7 shards still pending; "
                                      f"shard {paid - 3} needs more than the "
                                      f"{limit - (totals[paid - 1] if paid else 0)} nodes left "
                                      f"(limit {limit})\n")
            resumed = io.StringIO()
            assert main([*argv, "--checkpoint", str(ck)], out=resumed) == 0
            assert resumed.getvalue() == single.getvalue()
        assert multiprocessing.active_children() == []

    def test_save_is_atomic(self, tmp_path, monkeypatch):
        import os

        _, small = search_evenly_irreducible(6, 1)
        _, large = search_evenly_irreducible(6, 2)
        path = tmp_path / "state.json"
        small.save(path)
        assert path.read_text() == small.to_json()

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError):
            large.save(path)
        assert path.read_text() == small.to_json()
        assert [p.name for p in tmp_path.iterdir()] == ["state.json"]
        monkeypatch.undo()
        large.save(path)
        assert EvenSearchState.load(path) == large

    def test_preconditions(self):
        with pytest.raises(ValueError):
            search_evenly_irreducible(5, 2)
        with pytest.raises(ValueError):
            search_evenly_irreducible(6, -1)
        with pytest.raises(ValueError):
            search_evenly_irreducible(6, 2, mode="bogus")
