"""Even splice reducibility, the <i> link, and the resumable search."""

from __future__ import annotations

import functools
import io

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
from quiddity.audits import link_probe
from quiddity.cli import main

Z = GeneratorSpec.from_string("z")


def _q(coeffs):
    q = Quiddity.verified(Z, coeffs)
    assert q is not None
    return q


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
        from quiddity.solve import _scan_representative

        for n in (6, 8):
            for q in enumerate_quiddities(Z, n, 2, canonical_only=True):
                hit = _scan_representative(q.coeffs, Z, "even")
                if hit is None:
                    continue
                left, right, _ = hit
                assert len(left) % 2 == 0 and len(left) >= 4
                assert len(right) % 2 == 0 and len(right) >= 4
                assert len(left) + len(right) - 2 == n

    def test_strict_verdict_read_off_the_witness_matches_literal_scan(self):
        from quiddity.solve import _scan_representative

        for n in (6, 8):
            for q in enumerate_quiddities(Z, n, 2, canonical_only=True):
                literal = _scan_representative(q.coeffs, Z, "even") is not None
                assert is_evenly_reducible(q, MODE_STRICT) is literal

    def test_preconditions(self):
        with pytest.raises(OddSizeError):
            is_evenly_reducible(_q((1, 1, 1)))
        with pytest.raises(ValueError):
            is_evenly_reducible(_q((0, 0)))


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
        # per-shard cost is 1+5+25+125 = 156 nodes; afford exactly two shards
        with pytest.raises(WorkLimitExceeded) as exc:
            search_evenly_irreducible(6, 2, work_limit=2 * 156)
        partial = exc.value.state
        assert partial is not None and not partial.complete
        assert 0 < len(partial.done) < 5
        resumed, state_resumed = search_evenly_irreducible(6, 2, state=partial)
        assert [q.coeffs for q, _ in resumed] == [q.coeffs for q, _ in full]
        assert state_resumed.to_json() == state_full.to_json()

    @pytest.mark.parametrize("mode", [MODE_STRICT, MODE_EQUIV])
    def test_checkpoint_of_whole_class_shards_resumes_to_the_single_shot_run(
        self, mode, tmp_path
    ):
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
        old = EvenSearchState(8, 2, mode, (0,), found)
        path = tmp_path / "state.json"
        path.write_text(old.to_json())
        assert EvenSearchState.load(path) == old  # a valid checkpoint today
        argv = ["even-search", "--size", "8", "--bound", "2", "--mode", mode]
        single_out = io.StringIO()
        assert main(argv, out=single_out) == 0
        resumed_out = io.StringIO()
        assert main([*argv, "--checkpoint", str(path)], out=resumed_out) == 0
        assert resumed_out.getvalue() == single_out.getvalue()
        _, single = search_evenly_irreducible(8, 2, mode)
        assert path.read_text() == single.to_json()

    def test_partial_states_record_the_classes_starting_in_done_shards(self):
        strict_irreducible = {
            q.coeffs
            for q in enumerate_quiddities(Z, 8, 2, canonical_only=True)
            if not is_evenly_reducible(q, MODE_STRICT)
        }
        shard = 1 + 5 + 25 + 125 + 625 + 3125  # size-8, bound-2 shard cost
        state, partials = None, []
        while True:
            try:
                _, state = search_evenly_irreducible(8, 2, work_limit=shard, state=state)
                break
            except WorkLimitExceeded as exc:
                state = exc.state
                partials.append(state)
        assert len(partials) == 4
        for partial in partials:
            assert all(cc[0] in partial.done for cc, _, _ in partial.found)
            assert {cc for cc, _, _ in partial.found} == {
                cc for cc in strict_irreducible if cc[0] in partial.done
            }

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

    def test_shards_outside_the_bound_are_a_mismatch(self):
        state = EvenSearchState(6, 1, MODE_EQUIV, (-1, 0, 5), (), complete=True)
        with pytest.raises(ValueError, match="does not match"):
            search_evenly_irreducible(6, 1, state=state)

    def test_one_decomposition_call_per_class(self, monkeypatch):
        import quiddity.even as even

        calls = []

        def counting(q, *args, **kwargs):
            calls.append(q.coeffs)
            return find_decomposition(q, *args, **kwargs)

        monkeypatch.setattr(even, "find_decomposition", counting)
        search_evenly_irreducible(8, 2)
        classes = [q.coeffs for q in enumerate_quiddities(Z, 8, 2, canonical_only=True)]
        assert sorted(calls) == sorted(classes)

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
        # a size-6, bound-2 shard costs 1+5+25+125 = 156 nodes
        assert enumerate_quiddities(Z, 6, 2, work_limit=312, firsts=[0, 1]) is not None
        with pytest.raises(WorkLimitExceeded):
            enumerate_quiddities(Z, 6, 2, work_limit=311, firsts=[0, 1])

    def test_resume_chain_with_workers_equals_single_shot(self):
        full, state_full = search_evenly_irreducible(8, 2)
        shard = 1 + 5 + 25 + 125 + 625 + 3125  # size-8, bound-2 shard cost
        state, steps = None, 0
        while True:
            try:
                resumed, state = search_evenly_irreducible(
                    8, 2, work_limit=2 * shard, workers=2, state=state
                )
                break
            except WorkLimitExceeded as exc:
                state, steps = exc.state, steps + 1
        assert steps == 2
        assert [(q.coeffs, q.sign, red) for q, red in resumed] == [
            (q.coeffs, q.sign, red) for q, red in full
        ]
        assert state.to_json() == state_full.to_json()

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
