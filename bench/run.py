"""quiddity benchmark: exact-search workloads timed end to end, with a traced
run for per-layer figures.

    python3 bench/run.py --workload classify-even --seed 0 --seconds 60 --trace 0
    python3 bench/run.py --record        # re-record bench/reference.json

A run is a closed loop of samples, one at a time: each sample starts a fresh
interpreter (bench/child.py) that imports quiddity from ``src/`` and calls
``quiddity.cli.main`` for each invocation of the workload (see workloads.py).
Samples continue until the next one would end after ``--seconds``.  Every
invocation is one operation; it fails on a nonzero exit, a stdout digest that
differs from the recorded reference, or a failed output check (checks.py).

With ``--trace 0`` the last stdout line carries the end-to-end metrics: the
times are the 75th percentile of the run's samples, the rest medians (see
``upper_quartile``).  With ``--trace 1`` samples alternate between
untraced and traced (bench/tracing.py) and the last line carries the
per-layer metrics; the tracing overhead is the traced median wall time minus
the untraced one, and traced stdout must equal untraced stdout byte for byte.
Lines before the last one are a readable table and one ``{"type": "info"}``
JSON line with the seed's choices, sample counts and the host-drift
calibration, which is recorded but not gated.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work" / str(os.getpid())  # one directory per harness process
REFERENCE = BENCH / "reference.json"
TAIL_BEYOND = 10  # samples above the reported tail percentile

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def _tree_ok() -> bool:
    return (SRC / "quiddity" / "cli.py").is_file()


if _tree_ok():
    sys.path.insert(0, str(SRC))
    import checks  # noqa: E402  (imports quiddity from src/)


@dataclass
class Sample:
    """One child interpreter's timings, outputs and (when traced) spans."""

    traced: bool
    wall_s: float = 0.0
    setup_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    import_s: float = 0.0
    worker_cpu_s: float = 0.0
    exits: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    checkpoints: list = field(default_factory=list)
    spans: list | None = None
    problem: str = ""  # why the child produced no report, if it did not


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("QUIDDITY_WORK_LIMIT", None)  # the work limit is pinned in argv
    # an installed CLI imports from its bytecode cache; let the children keep one under src/
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _read(path: Path):
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return None


def run_sample(invocations, traced: bool) -> Sample:
    """Run one child interpreter over ``invocations`` and collect what it did."""
    WORK.mkdir(parents=True, exist_ok=True)
    for stale in WORK.iterdir():
        stale.unlink()
    calls = []
    for i, inv in enumerate(invocations):
        argv = list(inv.argv)
        if inv.checkpoint:
            argv += ["--checkpoint", str(WORK / f"checkpoint-{i}.json")]
        calls.append({"argv": argv, "stdout": str(WORK / f"stdout-{i}.txt")})
    spec = {"trace": traced, "report": str(WORK / "report.json"),
            "spans": str(WORK / "spans.tsv"), "calls": calls}
    sample = Sample(traced)
    with open(WORK / "stderr.txt", "w", encoding="utf-8") as err:
        launch = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), json.dumps(spec)],
            cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    sample.rss_mb = usage.ru_maxrss / 1024.0  # the child or its largest reaped worker
    report_text = _read(WORK / "report.json")
    if proc.returncode != 0 or report_text is None:
        stderr = (_read(WORK / "stderr.txt") or "").strip().splitlines()
        sample.problem = f"child exited {proc.returncode}: {stderr[-1] if stderr else 'no stderr'}"
        sample.exits = [None] * len(invocations)
        sample.outputs = sample.checkpoints = [None] * len(invocations)
        return sample
    report = json.loads(report_text)
    if not str(Path(report["module"]).resolve()).startswith(str(SRC.resolve()) + os.sep):
        sample.problem = f"child imported quiddity from {report['module']}, not from {SRC}"
    sample.setup_s = report["calls"][0]["start"] - launch
    sample.wall_s = sum(c["end"] - c["start"] for c in report["calls"])
    sample.cpu_s = report["cpu_s"]
    sample.import_s = report["import_s"]
    sample.worker_cpu_s = report["worker_cpu_s"]
    sample.exits = [c["exit"] for c in report["calls"]]
    sample.outputs = [_read(Path(c["stdout"])) for c in calls]
    sample.checkpoints = [_read(WORK / f"checkpoint-{i}.json") for i in range(len(calls))]
    if traced:
        sample.spans = tracing.load(WORK / "spans.tsv")
    return sample


class Judge:
    """Counts failed invocations.  A deep output check (checks.py) runs once
    per distinct output; identical bytes get the same verdict."""

    def __init__(self, references: dict):
        self.references = references
        self.verdicts: dict = {}
        self.untraced_digests: dict = {}
        self.problems: list[str] = []

    def judge(self, invocations, sample: Sample) -> tuple[int, list[int]]:
        """(failed invocations, emitted tuples per invocation)"""
        failed, counts = 0, []
        for i, inv in enumerate(invocations):
            problem, count = self._judge_one(i, inv, sample)
            counts.append(count)
            if problem:
                failed += 1
                if len(self.problems) < 20:
                    self.problems.append(f"{' '.join(inv.argv)}: {problem}")
        return failed, counts

    def _judge_one(self, i, inv, sample: Sample):
        if sample.problem:
            return sample.problem, 0
        if sample.exits[i] != 0:
            return f"exit code {sample.exits[i]}", 0
        text = sample.outputs[i]
        if text is None:
            return "no stdout", 0
        d = checks.digest(text)
        if self.references.get(inv.ref_key) != d:
            return "stdout differs from the recorded reference digest", 0
        if sample.traced:
            if self.untraced_digests.get(i, d) != d:
                return "traced stdout differs from untraced stdout", 0
        else:
            self.untraced_digests.setdefault(i, d)
        key = (inv.ref_key, d, sample.checkpoints[i])
        if key not in self.verdicts:
            try:
                self.verdicts[key] = ("", checks.check_output(inv, text, sample.checkpoints[i]))
            except checks.CheckFailed as exc:
                self.verdicts[key] = (str(exc), 0)
        return self.verdicts[key]


def calibrate(rounds: int = 5) -> list[float]:
    """Times of a fixed pure-Python loop: a host-drift diagnostic, not gated."""
    times = []
    for _ in range(rounds):
        t = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc * 31 + i) % 1_000_003
        times.append(time.perf_counter() - t)
    return times


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with at least
    TAIL_BEYOND samples above it; the maximum when there are too few."""
    xs = sorted(values)
    idx = len(xs) - 1 - TAIL_BEYOND if len(xs) > TAIL_BEYOND else len(xs) - 1
    pct = 100.0 * idx / (len(xs) - 1) if len(xs) > 1 else 100.0
    return xs[idx], pct


def upper_quartile(values: list[float]) -> float:
    """The 75th percentile of one run's sample times.

    The shared host runs at two speeds that differ by about 1.5x, for stretches
    of seconds to a minute, and the share of a 60 s run spent at the fast one
    varies from run to run between 0 and about half.  A median flips between
    the two speeds when that share nears one half; the 75th percentile stays at
    the slow speed, and repeated runs of the same code spread about half as
    much (measured in README.md)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


def end_to_end(wl, untraced: list[Sample], attempted: int, failed: int) -> dict:
    wall = upper_quartile([s.wall_s for s in untraced])
    return {
        "wall_s": wall,
        "space_nodes_per_s": wl.space_nodes / wall,
        "cpu_s": upper_quartile([s.cpu_s for s in untraced]),
        "peak_rss_mb": statistics.median(s.rss_mb for s in untraced),
        "setup_s": statistics.median(s.setup_s for s in untraced),
        "ok_frac": 1.0 - failed / attempted,
    }


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_values(wl, sample: Sample, classes: int) -> dict:
    """Per-layer figures of one traced sample."""
    per_call = tracing.aggregate(sample.spans)
    zero = {"calls": 0, "hits": 0, "busy_s": 0.0, "self_s": 0.0, "serialize_calls": 0}

    def total(layer, key, family=None):
        return sum(agg.get(layer, zero)[key] for inv, agg in zip(wl.invocations, per_call)
                   if family is None or inv.family == family)

    enum_self = total("solve.enumerate", "self_s")
    enum_nodes = sum(inv.nodes for inv, agg in zip(wl.invocations, per_call) if "solve.enumerate" in agg)
    canon_calls = total("core.canonical", "calls")
    out = {
        "solve.enumerate.calls": total("solve.enumerate", "calls"),
        "solve.enumerate.self_s": enum_self,
        "solve.kernel.space_nodes_per_s": _ratio(enum_nodes, enum_self),
        "core.canonical.calls": canon_calls,
        "core.canonical.busy_s": total("core.canonical", "busy_s"),
        "core.canonical.us_per_call": 1e6 * _ratio(total("core.canonical", "busy_s"), canon_calls),
        "core.canonical.calls_per_class": _ratio(canon_calls, classes),
        "core.canonical.serialize_calls": total("core.canonical", "serialize_calls"),
        "solve.decompose.calls": total("solve.decompose", "calls"),
        "solve.decompose.busy_s": total("solve.decompose", "busy_s"),
        "solve.decompose.hit_ratio": _ratio(total("solve.decompose", "hits"), total("solve.decompose", "calls")),
        "core.verify.calls": total("core.verify", "calls"),
        "core.verify.busy_s": total("core.verify", "busy_s"),
        "core.verify.pass_ratio": _ratio(total("core.verify", "hits"), total("core.verify", "calls")),
        "even.search.self_s": total("even.search", "self_s"),
        "cli.main.self_s": total("cli.main", "self_s"),
    }
    for family in ("z", "sqrt", "isqrt", "alpha"):
        out[f"solve.enumerate.self_s.{family}"] = total("solve.enumerate", "self_s", family)
    return out


def per_layer(untraced, traced, layer_samples, out_bytes, calib) -> dict:
    nproc = len(os.sched_getaffinity(0))
    out = {k: statistics.median(v[k] for v in layer_samples) for k in layer_samples[0]}
    traced_wall = statistics.median(s.wall_s for s in traced)
    out.update({
        "solve.pool.worker_cpu_s": statistics.median(s.worker_cpu_s for s in untraced),
        "solve.pool.core_utilization": statistics.median(s.cpu_s / (s.wall_s * nproc) for s in untraced),
        "cli.out_bytes": out_bytes,
        "setup.import_s": statistics.median(s.import_s for s in untraced),
        "trace.overhead_s": traced_wall - statistics.median(s.wall_s for s in untraced),
        "host.calib_s": statistics.median(calib),
    })
    return out


def run(name: str, seed: int, seconds: float, trace: bool) -> dict | None:
    """One timed run; None when no sample could be measured."""
    wl = workloads.build(name, seed)
    references = json.loads(REFERENCE.read_text(encoding="utf-8"))["digests"]
    judge = Judge(references)
    calib = calibrate()
    untraced, traced, layer_samples = [], [], []
    attempted = failed = 0
    out_bytes = 0
    deadline = time.monotonic() + seconds
    while True:
        traced_now = trace and len(traced) < len(untraced)
        started = time.monotonic()
        sample = run_sample(wl.invocations, traced_now)
        bad, counts = judge.judge(wl.invocations, sample)
        attempted += len(wl.invocations)
        failed += bad
        if not sample.problem:  # a crashed child has no timings; its invocations count as failed
            if traced_now:
                traced.append(sample)
                layer_samples.append(layer_values(wl, sample, sum(counts)))
            else:
                untraced.append(sample)
                out_bytes = sum(len((t or "").encode("utf-8")) for t in sample.outputs)
        now = time.monotonic()
        measured = untraced and (traced or not trace)
        next_overruns = now + (now - started) > deadline
        if (measured and next_overruns) or now > deadline + seconds:
            break
    if not untraced or (trace and not traced):
        for problem in judge.problems:
            print(f"FAILED {problem}", file=sys.stderr)
        return None
    calib += calibrate()
    e2e = end_to_end(wl, untraced, attempted, failed)
    tail_value, tail_pct = tail([s.wall_s for s in untraced])
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    if trace:
        metrics = per_layer(untraced, traced, layer_samples, out_bytes, calib)
        units = PER_LAYER_UNITS
    else:
        metrics, units = e2e, END_TO_END_UNITS
    info = {
        "type": "info",
        "workload": name,
        "seed": seed,
        "params": wl.params,
        "space_nodes": wl.space_nodes,
        "samples": len(untraced),
        "traced_samples": len(traced),
        "wall_s_median": statistics.median(s.wall_s for s in untraced),
        "wall_s_tail": tail_value,
        "wall_s_tail_percentile": round(tail_pct, 1),
        "failed_frac": failed / attempted,
        "host_calib_s": statistics.median(calib),
        "problems": judge.problems,
    }
    _print_table(name, e2e, metrics if trace else None, info)
    print(json.dumps(info, sort_keys=True))
    result["metrics"] = {k: {"value": metrics[k], "unit": units[k]} for k in units}
    return result


def _print_table(name, e2e, layers, info) -> None:
    print(f"workload {name}  seed {info['seed']}  params {json.dumps(info['params'], sort_keys=True)}")
    print(f"  samples {info['samples']} untraced, {info['traced_samples']} traced")
    for key, unit in END_TO_END_UNITS.items():
        print(f"  {key:32s} {e2e[key]:14.6g} {unit}")
    print(f"  {'wall_s median':32s} {info['wall_s_median']:14.6g} s")
    tail_name = f"wall_s tail (p{info['wall_s_tail_percentile']:g})"
    print(f"  {tail_name:32s} {info['wall_s_tail']:14.6g} s")
    print(f"  {'failed_frac':32s} {info['failed_frac']:14.6g} frac")
    print(f"  {'host.calib_s (not gated)':32s} {info['host_calib_s']:14.6g} s")
    for key, unit in PER_LAYER_UNITS.items() if layers else ():
        print(f"  {key:32s} {layers[key]:14.6g} {unit}")
    for problem in info["problems"]:
        print(f"  FAILED {problem}")


def record() -> int:
    """Run every reference invocation once, check it, and store its digest."""
    digests = {}
    for inv in workloads.reference_invocations():
        sample = run_sample([inv], traced=False)
        if sample.problem or sample.exits[0] != 0:
            print(f"{inv.ref_key}: {sample.problem or sample.exits}", file=sys.stderr)
            return 1
        try:
            checks.check_output(inv, sample.outputs[0], sample.checkpoints[0])
        except checks.CheckFailed as exc:
            print(f"{inv.ref_key}: {exc}", file=sys.stderr)
            return 1
        digests[inv.ref_key] = checks.digest(sample.outputs[0])
        print(f"{digests[inv.ref_key]}  {inv.ref_key}")
    REFERENCE.write_text(json.dumps({"digests": digests}, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="re-record bench/reference.json")
    args = parser.parse_args(argv)
    if not _tree_ok():
        print(f"error: no quiddity sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.record:
        try:
            return record()
        finally:
            shutil.rmtree(WORK, ignore_errors=True)
    if args.workload is None:
        parser.error("--workload is required")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    if result is None:
        print("error: no sample of the workload could be measured", file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
