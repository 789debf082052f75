"""The benchmark's workloads: which CLI invocations one sample runs.

A sample is one fresh interpreter that imports quiddity and calls
``quiddity.cli.main`` once per invocation, as a user's shell would for each
command.  The only process-wide state the package keeps is the
``lru_cache`` on ``core._coeff_key``, keyed by (coefficient, generator): the
classify invocations share no entries, and the even-search invocation finds
at most 2B+1 integer keys already cached, a saving of microseconds.

Why each workload (sizes scaled down from the instances in ROADMAP.md so that
a 60 s run collects about 18-100 samples, while keeping each layer mix):

- ``classify-even``: ``classify`` for one generator of each ring kind (int,
  quad real and imaginary, poly), where the DFS kernel and canonicalization
  do the work, then ``even-search``, where the forced-boundary decomposition
  scan on generic ``Mat2``/``RingElem`` arithmetic and its ``is_quiddity``
  checks do, plus a checkpoint write.  No pool; small output.
- ``enumerate-fanout``: the only workload with a process pool and a large
  payload; the parent canonicalizes every raw solution.  It never runs the
  decomposition scan, so a scan change should leave it unchanged.

The seed picks the ``sqrt:k`` and ``isqrt:k`` radicands of the classify
part; seed 0 gives k = 2 for both, which have published classifications.
The even-search part and ``enumerate-fanout`` are fixed exact instances that
the seed does not change.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

WORK_LIMIT = 10 ** 8  # pinned: the JSON config embeds it
RADICANDS = (2, 3, 5, 6, 7)

SIZES = {
    "classify-even": {"max_size": 7, "bound": 4, "even_size": 8, "even_bound": 3},
    "enumerate-fanout": {"size": 7, "bound": 5, "workers": 2},
}
NAMES = tuple(SIZES)
_TAIL = ("--work-limit", str(WORK_LIMIT), "--format", "jsonl")


@dataclass(frozen=True)
class Invocation:
    """One CLI call.  ``family`` labels per-family kernel times; ``ref_key``
    names the recorded digest the stdout must equal; ``checkpoint`` asks the
    sample runner to append ``--checkpoint <file>``."""

    family: str
    gen: str
    argv: tuple[str, ...]
    ref_key: str
    nodes: int  # full prefix-tree size of the space the call sweeps
    checkpoint: bool = False

    @property
    def command(self) -> str:
        return self.argv[0]

    def option(self, flag: str) -> str:
        return self.argv[self.argv.index(flag) + 1]


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple[Invocation, ...]
    params: dict

    @property
    def space_nodes(self) -> int:
        return sum(inv.nodes for inv in self.invocations)


def radicands(seed: int) -> tuple[int, int]:
    """(k for sqrt:k, k for isqrt:k) picked by the seed; seed 0 gives (2, 2)."""
    return RADICANDS[seed % len(RADICANDS)], RADICANDS[(seed // len(RADICANDS)) % len(RADICANDS)]


def _invocation(family, gen, argv, nodes, ref_argv=None, checkpoint=False) -> Invocation:
    return Invocation(family, gen, argv, " ".join(ref_argv or argv), nodes, checkpoint)


def build(name: str, seed: int, sizes=SIZES) -> Workload:
    from quiddity.solve import predicted_nodes

    p = sizes[name]
    if name == "classify-even":
        k_sqrt, k_isqrt = radicands(seed)
        gens = (("z", "z"), ("sqrt", f"sqrt:{k_sqrt}"), ("isqrt", f"isqrt:{k_isqrt}"), ("alpha", "alpha"))
        values = 2 * p["bound"] + 1
        nodes = sum(predicted_nodes(values, n) for n in range(3, p["max_size"] + 1))
        invs = [
            _invocation(family, gen, ("classify", "--gen", gen, "--max-size", str(p["max_size"]),
                                      "--bound", str(p["bound"]), "--workers", "1") + _TAIL, nodes)
            for family, gen in gens
        ]
        invs.append(_invocation(
            "z", "z",
            ("even-search", "--size", str(p["even_size"]), "--bound", str(p["even_bound"]),
             "--mode", "up-to-equivalence", "--workers", "1") + _TAIL,
            predicted_nodes(2 * p["even_bound"] + 1, p["even_size"]),
            checkpoint=True,
        ))
        return Workload(name, tuple(invs), {**p, "sqrt_k": k_sqrt, "isqrt_k": k_isqrt})
    if name == "enumerate-fanout":
        base = ("enumerate", "--gen", "z", "--size", str(p["size"]), "--bound", str(p["bound"]),
                "--canonical-only")
        inv = _invocation(
            "z", "z", base + ("--workers", str(p["workers"])) + _TAIL,
            predicted_nodes(2 * p["bound"] + 1, p["size"]),
            ref_argv=base + ("--workers", "1") + _TAIL,  # the worker-count invariance reference
        )
        return Workload(name, (inv,), dict(p))
    raise ValueError(f"unknown workload {name!r}")


def reference_invocations(sizes=SIZES) -> list[Invocation]:
    """One invocation per recorded digest that any seed can ask for, running
    the reference command itself (the serial one for enumerate-fanout)."""
    refs = {}
    for name in NAMES:
        for seed in range(len(RADICANDS) ** 2):
            for inv in build(name, seed, sizes).invocations:
                if inv.ref_key not in refs:
                    refs[inv.ref_key] = replace(inv, argv=tuple(inv.ref_key.split(" ")))
    return list(refs.values())
