"""One benchmark sample: a fresh interpreter that imports quiddity and runs
CLI invocations through ``quiddity.cli.main(argv, out=...)``.

    python3 bench/child.py '<json spec>'

run.py writes the spec: ``{"trace": bool, "report": path, "spans": path,
"calls": [{"argv": [...], "stdout": path}, ...]}``.  The report holds the
import time, each call's CLOCK_MONOTONIC start and end (the end is taken
after the call's output file is closed) and exit code, the CPU time spent
during the calls by this interpreter and the workers it reaped, and the
workers' share of it.  With tracing on, the spans are written once every
call has returned.
"""

import json
import resource
import sys
import time


def _cpu(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def main() -> None:
    spec = json.loads(sys.argv[1])
    t = time.perf_counter()
    import quiddity.cli

    import_s = time.perf_counter() - t
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    calls = []
    cpu_start = _cpu(resource.RUSAGE_SELF)
    for call in spec["calls"]:
        start = time.monotonic()
        with open(call["stdout"], "w", encoding="utf-8") as out:
            code = quiddity.cli.main(call["argv"], out=out)
        calls.append({"start": start, "end": time.monotonic(), "exit": code})
    workers_cpu = _cpu(resource.RUSAGE_CHILDREN)
    cpu_s = _cpu(resource.RUSAGE_SELF) - cpu_start + workers_cpu
    if tracer is not None:
        tracer.dump(spec["spans"])
    report = {
        "module": quiddity.cli.__file__,
        "import_s": import_s,
        "calls": calls,
        "cpu_s": cpu_s,
        "worker_cpu_s": workers_cpu,
    }
    with open(spec["report"], "w", encoding="utf-8") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    main()
