"""Batch command line: verify, enumerate, classify, decompose, phi, rescale,
triangulate, even-search and selftest.

Output is deterministic for a fixed configuration: results are fully sorted,
JSON is dumped with sorted keys and fixed separators, and worker count never
leaks into the payload.  Exit codes: 0 success, 1 mathematical counterexample
found by a falsification probe, 2 usage error, 3 work-limit abort, 141 stdout
closed by its reader.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .core import Quiddity, TheoremViolation, canonical_coeffs, coeff_ranks, dihedral_orbit, is_quiddity
from .even import MODE_EQUIV, MODES, EvenSearchState, search_evenly_irreducible
from .maps import phi, phi_inverse, rescale_even, rescale_even_inverse
from .rings import GeneratorSpec, format_element, parse_element
from .solve import (
    DEFAULT_WORK_LIMIT,
    NotAQuiddityError,
    WorkLimitExceeded,
    classify_irreducibles,
    enumerate_quiddities,
    find_decomposition,
)
from .triangulation import find_labeling, quiddity_of_labeling, render_labeling, vertex_sums
from . import audits

WORK_LIMIT_ENV = "QUIDDITY_WORK_LIMIT"

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_USAGE = 2
EXIT_WORK_LIMIT = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process the signal killed


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _default_work_limit() -> str:
    """The --work-limit default as text: argparse converts a string default
    with the option's type, so a malformed environment value is a usage
    error (exit 2) exactly like a malformed flag."""
    return os.environ.get(WORK_LIMIT_ENV) or str(DEFAULT_WORK_LIMIT)


def int_at_least(minimum: int, what: str):
    """argparse type for integers >= minimum; anything else is a usage
    error (exit 2)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"{what} must be an integer >= {minimum}, got {text!r}"
            )
        return value

    return parse


_worker_count = int_at_least(1, "worker count")
_work_limit = int_at_least(0, "work limit")


def _parse_tuple_arg(text: str, gen: GeneratorSpec) -> tuple[int, ...]:
    """JSON array of coefficients (ints) or element strings."""
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("tuple JSON is nested too deeply") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"--tuple is not JSON: {exc}") from None
    if not isinstance(data, list) or not data:
        raise ValueError("tuple must be a non-empty JSON array")
    coeffs = []
    for item in data:
        if isinstance(item, bool):
            raise ValueError("tuple entries must be integers or element strings")
        if isinstance(item, int):
            coeffs.append(item)
        elif isinstance(item, str):
            m = gen.extract(parse_element(item))
            if m is None:
                raise ValueError(
                    f"element {item!r} is not in the subgroup of {gen.to_string()}"
                )
            coeffs.append(m)
        else:
            raise ValueError("tuple entries must be integers or element strings")
    return tuple(coeffs)


def _verified_input(args) -> Quiddity:
    """The verified tuple named by --gen and --tuple; NotAQuiddityError
    (exit 2) when it does not verify."""
    gen = GeneratorSpec.from_string(args.gen)
    coeffs = _parse_tuple_arg(args.tuple, gen)
    q = Quiddity.verified(gen, coeffs)
    if q is None:
        raise NotAQuiddityError(f"{tuple(coeffs)} does not verify over {gen.to_string()}")
    return q


# parsed options the config leaves out: format and workers never change the
# answer, the tuple is the input, the checkpoint a side file, and gen is
# echoed as its descriptor
_UNECHOED = ("format", "workers", "tuple", "checkpoint", "handler", "gen")


def _config(args) -> dict:
    """The run configuration embedded in the output: every parsed option
    except _UNECHOED, with --gen as its generator descriptor."""
    config = {k: v for k, v in vars(args).items() if k not in _UNECHOED}
    if "gen" in vars(args):
        config["generator"] = GeneratorSpec.from_string(args.gen).descriptor()
    return config


def _quiddity_payload(q: Quiddity, canonical: tuple, irreducible=None) -> dict:
    """One output item: q's fields, with its dihedral class's canonical form
    (q.coeffs when q is in it, so no canonical form is recomputed).  The
    object commands print it; batch commands print the same bytes from
    _item_texts, and the tests hold the two against each other."""
    out = {
        "coeffs": list(q.coeffs),
        "generator": q.gen.descriptor(),
        "sign": q.sign,
        "canonical": list(canonical),
        "size": q.size,
        "elements": [format_element(e) for e in q.elements()],
    }
    if irreducible is not None:
        out["irreducible"] = irreducible
    return out


def _ints(t) -> str:
    """_dump of an integer tuple, as a JSON list."""
    return "[" + ",".join(map(str, t)) + "]"


def _item_texts(gen: GeneratorSpec, classes, irreducible) -> list[str]:
    """The JSON text of each batch item, less its closing brace, built from
    per-call templates in sort_keys order (canonical, coeffs, elements,
    [equiv_reducible], generator, [irreducible], sign, size): the generator
    descriptor is dumped once, each coefficient's element string is made on
    first use, and the coeffs text is the canonical text when the member is
    the canonical tuple itself.  So each text is _dump of _quiddity_payload
    with the flags added, less its last byte.  A class's members are
    dihedral images of its canonical tuple, so they hold the same entries."""
    elements = {}  # coefficient -> the JSON string of its element
    generator = ',"generator":' + _dump(gen.descriptor())
    if irreducible is not None:
        generator += ',"irreducible":' + _dump(irreducible)
    texts = []
    for canonical, sign, equiv_reducible, members in classes:
        for c in canonical:
            if c not in elements:
                elements[c] = _dump(format_element(gen.embed(c)))
        canon = _ints(canonical)
        head = '{"canonical":' + canon + ',"coeffs":'
        tail = "" if equiv_reducible is None else ',"equiv_reducible":' + _dump(equiv_reducible)
        tail += f'{generator},"sign":{sign},"size":{len(canonical)}'
        texts += [
            head + (canon if t is canonical else _ints(t))
            + ',"elements":[' + ",".join(map(elements.__getitem__, t)) + "]" + tail
            for t in members
        ]
    return texts


# a batch output goes out in writes of this many lines: a few large writes,
# and a reader that closes the pipe early still fails a later one
_LINES_PER_WRITE = 1024


def _emit_items(args, config: dict, gen: GeneratorSpec, classes, out, irreducible=None) -> None:
    """Write a batch command's items in args.format.  classes yields
    (canonical, sign, equiv_reducible or None, members): one item per member
    tuple, in order, each with its class's canonical form and sign.
    irreducible, when not None, is every item's flag."""
    fmt = args.format
    if fmt == "csv":
        irr = "" if irreducible is None else _dump(irreducible)
        lines = ["size,coeffs,sign,canonical,irreducible"]
        for canonical, sign, _, members in classes:
            canon = " ".join(map(str, canonical))
            lines += [f"{len(t)},[{' '.join(map(str, t))}],{sign},[{canon}],{irr}" for t in members]
    elif fmt == "text":
        rows = [f"size {len(t)}  sign {sign:+d}  {t}" for _, sign, _, members in classes for t in members]
        lines = [f"# {_dump(config)}", *rows, f"# count {len(rows)}"]
    elif fmt == "jsonl":
        items = _item_texts(gen, classes, irreducible)
        lines = [
            _dump({"type": "config", **config}),
            *(t + ',"type":"quiddity"}' for t in items),
            _dump({"type": "summary", "count": len(items)}),
        ]
    else:
        items = _item_texts(gen, classes, irreducible)
        body = ",".join(t + "}" for t in items)
        lines = [f'{{"config":{_dump(config)},"count":{len(items)},"items":[{body}]}}']
    for i in range(0, len(lines), _LINES_PER_WRITE):
        out.write("\n".join(lines[i : i + _LINES_PER_WRITE]) + "\n")


def _emit_object(args, payload: dict, out, text_lines) -> None:
    print("\n".join(text_lines) if args.format == "text" else _dump(payload), file=out)


# ----------------------------------------------------------------------------
# handlers


def _cmd_verify(args, out) -> int:
    gen = GeneratorSpec.from_string(args.gen)
    coeffs = _parse_tuple_arg(args.tuple, gen)
    elements = tuple(gen.embed(c) for c in coeffs)
    eps = is_quiddity(elements, cross_check=True)
    payload = {
        "config": _config(args),
        "size": len(coeffs),
        "coeffs": list(coeffs),
        "elements": [format_element(e) for e in elements],
        "is_quiddity": eps is not None,
        "sign": eps,
        "canonical": list(canonical_coeffs(coeffs, gen)),
    }
    verdict = f"sign {eps:+d}" if eps is not None else "not a solution"
    _emit_object(args, payload, out, [f"{tuple(coeffs)} over {gen.to_string()}: {verdict}"])
    return EXIT_OK


def _cmd_enumerate(args, out) -> int:
    gen = GeneratorSpec.from_string(args.gen)
    found = enumerate_quiddities(
        gen,
        args.size,
        args.bound,
        work_limit=args.work_limit,
        workers=args.workers,
    )
    if args.canonical_only:
        classes = ((q.coeffs, q.sign, None, (q.coeffs,)) for q in found)
    else:  # each class's orbit in turn, every tuple with the class's sign
        classes = ((q.coeffs, q.sign, None,
                    sorted(dihedral_orbit(q.coeffs), key=lambda t: coeff_ranks(t, gen))) for q in found)
    _emit_items(args, _config(args), gen, classes, out)
    return EXIT_OK


def _cmd_classify(args, out) -> int:
    gen = GeneratorSpec.from_string(args.gen)
    found = classify_irreducibles(
        gen,
        args.max_size,
        args.bound,
        min_size=args.min_size,
        work_limit=args.work_limit,
        workers=args.workers,
    )
    classes = ((q.coeffs, q.sign, None, (q.coeffs,)) for q in found)
    _emit_items(args, _config(args), gen, classes, out, irreducible=True)
    return EXIT_OK


def _cmd_decompose(args, out) -> int:
    q = _verified_input(args)
    w = find_decomposition(q, parity=args.parity)
    lines = [f"{q.coeffs}: " + ("reducible" if w else "no decomposition found")]
    witness = None
    if w:
        witness = {
            "rotation": w.rotation,
            "reflected": w.reflected,
            "representative": list(w.representative),
            "left": list(w.left),
            "right": {
                "coeffs": list(w.right.coeffs),
                "generator": w.right.gen.descriptor(),
                "sign": w.right.sign,
                "canonical": list(w.right.canonical().coeffs),
            },
            "left_size": len(w.left),
            "right_size": w.right.size,
        }
        lines.append(f"  representative {w.representative} = {w.left} (+) {w.right.coeffs}")
    payload = {
        "config": _config(args),
        "input": _quiddity_payload(q, q.canonical().coeffs),
        "reducible": w is not None,
        "witness": witness,
    }
    _emit_object(args, payload, out, lines)
    return EXIT_OK


def _cmd_phi(args, out) -> int:
    q = _verified_input(args)
    image = phi_inverse(q) if args.inverse else phi(q)
    payload = {
        "config": _config(args),
        "source": _quiddity_payload(q, q.canonical().coeffs),
        "target": _quiddity_payload(image, image.canonical().coeffs),
    }
    line = f"{q.coeffs} over {q.gen.to_string()} -> {image.coeffs} over {image.gen.to_string()}"
    _emit_object(args, payload, out, [line])
    return EXIT_OK


def _cmd_rescale(args, out) -> int:
    gen = GeneratorSpec.from_string(args.gen)
    if gen.family != "sqrt":
        raise ValueError("rescale expects a sqrt:k generator")
    coeffs = _parse_tuple_arg(args.tuple, gen)
    z = GeneratorSpec("int", 1)
    src, dst = (z, gen) if args.inverse else (gen, z)
    mapped = (rescale_even_inverse if args.inverse else rescale_even)(coeffs, gen.param)
    result = {
        "input": list(coeffs),
        "output": list(mapped),
        "input_sign": is_quiddity(tuple(src.embed(c) for c in coeffs)),
        "output_sign": is_quiddity(tuple(dst.embed(c) for c in mapped)),
    }

    def side(g, t):
        return f"{t} over z" if g is z else f"coefficients {t} over {gen.to_string()}"

    line = f"{side(src, coeffs)} -> {side(dst, mapped)}"
    _emit_object(args, {"config": _config(args), **result}, out, [line])
    return EXIT_OK


def _cmd_triangulate(args, out) -> int:
    q = _verified_input(args)
    config = _config(args)
    witness = find_labeling(q, args.label_bound)
    if witness is None:
        payload = {"config": config, "found": False, "witness": None}
        _emit_object(args, payload, out, ["no labeling within bounds (bound-scoped)"])
        return EXIT_OK
    induced = quiddity_of_labeling(witness)  # re-verifies; raises on violation
    payload = {
        "config": config,
        "found": True,
        "witness": {
            "triangles": [list(t) for t in witness.triangulation.triangles],
            "labels": list(witness.labels),
            "vertex_sums": list(vertex_sums(witness)),
            "quiddity": _quiddity_payload(induced, induced.canonical().coeffs),
        },
    }
    _emit_object(args, payload, out, [render_labeling(witness)])
    return EXIT_OK


def _checkpoint_io(call, path):
    """call(path) for a checkpoint load or save; an OSError there means a bad
    --checkpoint path and a ValueError bad contents, so both become a usage
    error (exit 2) that names the path."""
    try:
        return call(path)
    except OSError as exc:
        raise ValueError(f"checkpoint {path!r}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        detail = str(exc).removeprefix("bad checkpoint: ")
        raise ValueError(f"bad checkpoint {path!r}: {detail}") from exc


def _cmd_even_search(args, out) -> int:
    """--checkpoint F resumes from F when it exists (every record is
    re-verified on load) and starts fresh otherwise; either way the state is
    written back to F.  A path that cannot be a checkpoint fails before any
    sweep."""
    state = None
    if args.checkpoint:
        if not os.path.isdir(os.path.dirname(args.checkpoint) or "."):
            raise ValueError(f"the directory of --checkpoint {args.checkpoint!r} does not exist")
        if os.path.exists(args.checkpoint):
            state = _checkpoint_io(EvenSearchState.load, args.checkpoint)
    try:
        results, final = search_evenly_irreducible(
            args.size,
            args.bound,
            mode=args.mode,
            work_limit=args.work_limit,
            workers=args.workers,
            state=state,
        )
    except WorkLimitExceeded as exc:
        print(f"work limit: {exc}", file=sys.stderr)
        if args.checkpoint and exc.state is not None:
            _checkpoint_io(exc.state.save, args.checkpoint)
            print(f"work limit hit; checkpoint written to {args.checkpoint}", file=sys.stderr)
        elif not args.checkpoint:
            print("work limit hit; no checkpoint path given", file=sys.stderr)
        return EXIT_WORK_LIMIT
    if args.checkpoint:
        _checkpoint_io(final.save, args.checkpoint)
    classes = ((q.coeffs, q.sign, red, (q.coeffs,)) for q, red in results)
    _emit_items(args, _config(args), GeneratorSpec("int", 1), classes, out)
    return EXIT_OK


def _cmd_selftest(args, out) -> int:
    results = audits.run_selftest(full=args.full)
    failed = [r for r in results if not r.ok]
    for r in results:
        mark = "ok" if r.ok else "FAIL"
        detail = f"  ({r.detail})" if r.detail else ""
        print(f"{r.name}: {mark}{detail}", file=out)
    print(f"{len(results) - len(failed)}/{len(results)} probes passed", file=out)
    return EXIT_COUNTEREXAMPLE if failed else EXIT_OK


# ----------------------------------------------------------------------------
# parser


def _add_common(sub, gen=True, fmt=True, workers=True, work_limit=True):
    if gen:
        sub.add_argument("--gen", required=True, help="generator: z | z:s | sqrt:k | isqrt:k | alpha [+nonneg]")
    if fmt:
        sub.add_argument("--format", choices=("json", "jsonl", "csv", "text"), default="json")
    if workers:
        sub.add_argument("--workers", type=_worker_count, default=1)
    if work_limit:
        sub.add_argument("--work-limit", type=_work_limit, default=_default_work_limit())


def build_parser(command=None) -> argparse.ArgumentParser:
    """The command-line parser.  Every subcommand is named with its help;
    when command names one, only that one gets a parser and its arguments,
    and the other names stand in the choices without one (half the build
    time is add_parser), so the usage line lists all nine and parsing argv
    that starts with command reads exactly as on the full parser.  Any
    other command (-h, no input, a typo) gets the full parser."""
    parser = argparse.ArgumentParser(
        prog="quiddity",
        description="Exact search and classification for cyclic tuples whose "
        "elementary matrix product is plus or minus the identity.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    def sub(name, help, handler):
        if command not in (None, name):
            subs.choices[name] = None  # named in the usage line; argv never selects it
            return None
        p = subs.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        return p

    if p := sub("verify", "check one tuple and report its sign", _cmd_verify):
        _add_common(p, workers=False, work_limit=False)
        p.add_argument("--tuple", required=True, help='JSON array of coefficients or element strings')

    if p := sub("enumerate", "all solutions of one size within a bound", _cmd_enumerate):
        _add_common(p)
        p.add_argument("--size", type=int, required=True)
        p.add_argument("--bound", type=int, required=True)
        p.add_argument("--canonical-only", action="store_true")

    if p := sub("classify", "canonical irreducible solutions up to a size", _cmd_classify):
        _add_common(p)
        p.add_argument("--min-size", type=int, default=3)
        p.add_argument("--max-size", type=int, required=True)
        p.add_argument("--bound", type=int, required=True)

    if p := sub("decompose", "exact splice decomposition of one tuple", _cmd_decompose):
        _add_common(p, workers=False, work_limit=False)
        p.add_argument("--tuple", required=True)
        p.add_argument("--parity", choices=("any", "even"), default="any")

    if p := sub("phi", "alternating-sign transport between i*sqrt(k) and sqrt(k)", _cmd_phi):
        _add_common(p, workers=False, work_limit=False)
        p.add_argument("--tuple", required=True)
        p.add_argument("--inverse", action="store_true", help="map from the real to the imaginary side")

    if p := sub("rescale", "even-position rescaling between sqrt(k) and z", _cmd_rescale):
        _add_common(p, workers=False, work_limit=False)
        p.add_argument("--tuple", required=True)
        p.add_argument("--inverse", action="store_true")

    if p := sub("triangulate", "labeling witness for an integer tuple", _cmd_triangulate):
        _add_common(p, workers=False, work_limit=False)
        p.add_argument("--tuple", required=True)
        p.add_argument("--label-bound", type=int, default=4)

    if p := sub("even-search", "evenly irreducible integer tuples of one even size", _cmd_even_search):
        _add_common(p, gen=False)
        p.add_argument("--size", type=int, required=True)
        p.add_argument("--bound", type=int, required=True)
        p.add_argument("--mode", choices=MODES, default=MODE_EQUIV)
        p.add_argument("--checkpoint", help="state file: resumed from when it exists, then written")

    if p := sub("selftest", "falsification probes and audits", _cmd_selftest):
        p.add_argument("--full", action="store_true")

    return parser if command is None or subs.choices.get(command) else build_parser()


def main(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = build_parser(argv[0] if argv else None).parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args, out)
    except TheoremViolation as exc:
        print(f"counterexample: {exc}", file=sys.stderr)
        return EXIT_COUNTEREXAMPLE
    except WorkLimitExceeded as exc:
        print(f"work limit: {exc}", file=sys.stderr)
        return EXIT_WORK_LIMIT
    except ValueError as exc:  # bad syntax, unverified input, bad checkpoint, ...
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console() -> None:
    """The quiddity script and python -m quiddity.  A reader that closes
    stdout early (| head) ends the run with EXIT_BROKEN_PIPE and no
    traceback: fd 1 then points at os.devnull, so the interpreter's final
    flush stays quiet.  Callers of main with their own out keep the
    BrokenPipeError."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code = EXIT_BROKEN_PIPE
    raise SystemExit(code)
