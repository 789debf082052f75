"""Tests of the benchmark itself, at toy sizes.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import checks
import run
import tracing
import workloads

TOY_SIZES = {
    "classify-even": {"max_size": 5, "bound": 2, "even_size": 6, "even_bound": 3},
    "enumerate-fanout": {"size": 5, "bound": 2, "workers": 2},
}


@pytest.fixture(autouse=True)
def _work_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path / "work")


def _toy(name, seed=0):
    return workloads.build(name, seed, TOY_SIZES)


def _lines(text):
    return text.splitlines(keepends=True)


def _toy_even_search():
    wl = _toy("classify-even")
    (inv,) = [inv for inv in wl.invocations if inv.command == "even-search"]
    return inv


@pytest.mark.parametrize("name", workloads.NAMES)
def test_toy_workload_runs_and_passes_its_checks(name):
    wl = _toy(name)
    sample = run.run_sample(wl.invocations, traced=False)
    assert sample.problem == ""
    assert sample.exits == [0] * len(wl.invocations)
    assert sample.wall_s > 0 and sample.setup_s > 0 and sample.cpu_s > 0 and sample.rss_mb > 0
    for inv, text, checkpoint in zip(wl.invocations, sample.outputs, sample.checkpoints):
        assert checks.check_output(inv, text, checkpoint) >= 1


@pytest.mark.parametrize("command", ["classify", "even-search", "enumerate"])
def test_checker_catches_a_corrupted_line(command):
    invs = [inv for name in workloads.NAMES for inv in _toy(name).invocations if inv.command == command]
    sample = run.run_sample(invs[:1], traced=False)
    inv, text, checkpoint = invs[0], sample.outputs[0], sample.checkpoints[0]
    lines = _lines(text)
    item = json.loads(lines[1])
    item["coeffs"][0] += 1
    lines[1] = json.dumps(item, sort_keys=True, separators=(",", ":")) + "\n"
    with pytest.raises(checks.CheckFailed):
        checks.check_output(inv, "".join(lines), checkpoint)
    with pytest.raises(checks.CheckFailed):
        checks.check_output(inv, "".join(lines[:1] + lines[2:]), checkpoint)  # a dropped line
    del item["coeffs"]
    lines[1] = json.dumps(item) + "\n"
    with pytest.raises(checks.CheckFailed):
        checks.check_output(inv, "".join(lines), checkpoint)  # a malformed line


def test_checker_catches_an_incomplete_checkpoint():
    inv = _toy_even_search()
    sample = run.run_sample([inv], traced=False)
    broken = sample.checkpoints[0].replace('"complete":true', '"complete":false')
    with pytest.raises(checks.CheckFailed):
        checks.check_output(inv, sample.outputs[0], broken)


def test_judge_counts_digest_mismatch_and_traced_difference():
    inv = _toy_even_search()
    sample = run.run_sample([inv], traced=False)
    good = {inv.ref_key: checks.digest(sample.outputs[0])}
    assert run.Judge(good).judge([inv], sample)[0] == 0
    assert run.Judge({inv.ref_key: "0" * 64}).judge([inv], sample)[0] == 1
    judge = run.Judge(good)
    judge.judge([inv], sample)
    traced = run.run_sample([inv], traced=True)
    traced.outputs = [traced.outputs[0] + "\n"]
    good[inv.ref_key] = checks.digest(traced.outputs[0])
    assert judge.judge([inv], traced)[0] == 1


def test_traced_sample_has_identical_stdout_and_every_layer():
    wl = _toy("classify-even")
    plain = run.run_sample(wl.invocations, traced=False)
    traced = run.run_sample(wl.invocations, traced=True)
    assert traced.outputs == plain.outputs
    per_call = tracing.aggregate(traced.spans)
    assert len(per_call) == len(wl.invocations)
    for inv, agg in zip(wl.invocations, per_call):
        if inv.command == "classify":
            assert {"cli.main", "solve.enumerate", "core.canonical", "solve.irreducible"} <= set(agg)
        else:
            assert {"cli.main", "even.search", "core.canonical", "core.verify", "solve.decompose"} <= set(agg)
    values = run.layer_values(wl, traced, classes=1)
    for family in ("z", "sqrt", "isqrt", "alpha"):
        assert values[f"solve.enumerate.self_s.{family}"] > 0
    assert values["core.canonical.serialize_calls"] > 0 and values["even.search.self_s"] > 0


def test_metric_sets_match_benchmark_json():
    wl = _toy("enumerate-fanout")
    plain = run.run_sample(wl.invocations, traced=False)
    traced = run.run_sample(wl.invocations, traced=True)
    layers = run.per_layer([plain], [traced], [run.layer_values(wl, traced, classes=1)], 1, [0.02])
    assert set(layers) == set(run.PER_LAYER_UNITS)
    assert layers["solve.pool.core_utilization"] > 0 and layers["cli.out_bytes"] == 1
    assert set(run.end_to_end(wl, [plain], attempted=1, failed=0)) == set(run.END_TO_END_UNITS)


def test_fanout_output_is_worker_count_invariant():
    inv = _toy("enumerate-fanout").invocations[0]
    serial = replace(inv, argv=tuple(inv.ref_key.split(" ")))
    assert "--workers 1" in serial.ref_key and "--workers 2" in " ".join(inv.argv)
    two = run.run_sample([inv], traced=False).outputs
    one = run.run_sample([serial], traced=False).outputs
    assert one == two


def test_tracer_fails_loudly_when_a_traced_function_is_gone(monkeypatch):
    import quiddity.cli  # noqa: F401  loaded before the name goes
    import quiddity.solve

    monkeypatch.delattr(quiddity.solve, "find_decomposition")
    with pytest.raises(RuntimeError, match="find_decomposition"):
        tracing.Tracer().install()


def test_aggregate_self_and_busy_time():
    spans = [
        ["cli.main", 0.0, 10.0, -1, True],
        ["solve.enumerate", 1.0, 6.0, 0, True],
        ["core.canonical", 2.0, 3.0, 1, True],
        ["core.canonical", 7.0, 8.0, 0, True],
        ["core.verify", 8.5, 9.0, 0, False],
    ]
    (agg,) = tracing.aggregate(spans)
    assert agg["cli.main"]["self_s"] == pytest.approx(10.0 - 5.0 - 1.0 - 0.5)
    assert agg["solve.enumerate"]["self_s"] == pytest.approx(4.0)
    assert agg["core.canonical"]["busy_s"] == pytest.approx(2.0)
    assert agg["core.canonical"]["serialize_calls"] == 1
    assert (agg["core.verify"]["calls"], agg["core.verify"]["hits"]) == (1, 0)


def test_seed_picks_radicands_and_default_is_published():
    assert workloads.radicands(0) == (2, 2)
    seen = {workloads.radicands(s) for s in range(25)}
    assert len(seen) == 25
    assert _toy("enumerate-fanout", 3) == _toy("enumerate-fanout", 11)
    assert _toy("classify-even", 3).invocations[-1] == _toy("classify-even", 11).invocations[-1]


def test_reference_covers_every_seed():
    digests = json.loads(run.REFERENCE.read_text(encoding="utf-8"))["digests"]
    for name in workloads.NAMES:
        for seed in range(25):
            for inv in workloads.build(name, seed).invocations:
                assert inv.ref_key in digests


def test_upper_quartile_is_the_75th_percentile():
    assert run.upper_quartile([5.0, 1.0, 4.0, 2.0, 3.0]) == 4.0
    assert run.upper_quartile([0.5]) == 0.5


def test_tail_has_ten_samples_above_it():
    values = [float(i) for i in range(30)]
    value, pct = run.tail(values)
    assert value == 19.0 and sum(v > value for v in values) == 10
    assert pct == pytest.approx(100 * 19 / 29)


def test_run_fails_without_the_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "enumerate-fanout", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
