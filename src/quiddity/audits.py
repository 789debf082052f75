"""Known classification families at desk scale and the probe battery behind
the selftest command.

The families encode published classifications of irreducible solutions over
the supported subgroups; audits compare them with fresh bounded searches, so
a mismatch means either a counterexample or an implementation bug.  Both are
worth failing loudly over.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .core import (
    Quiddity,
    canonical_coeffs,
    continuant_euler,
    continuant_rec,
    continuant_windows_match,
    product_matrix,
)
from .even import MODE_EQUIV, is_evenly_reducible
from .maps import phi, phi_inverse, rescale_even
from .rings import GeneratorSpec, Int, NoModulusError, Poly, Quad
from .solve import classify_irreducibles, enumerate_quiddities, is_irreducible


def expected_irreducible_classes(gen: GeneratorSpec, min_size, max_size, bound):
    """Canonical coefficient classes of the known irreducible families,
    intersected with the given size/bound window.

    Covers integer generators, sqrt and isqrt families (k != 1 for isqrt),
    the zero generator and the formal symbol; <i> itself has no closed list
    and raises.
    """
    kind, ring_param, _scale = gen.ring
    fam, k = gen.family, gen.param
    candidates: list[tuple[int, ...]] = []

    def zero_family():
        for a in range(-bound, bound + 1):
            candidates.append((0, a, 0, -a))

    if kind == "int" and ring_param == 0:
        candidates.append((0, 0, 0, 0))
    elif kind == "int" and abs(ring_param) == 1:
        candidates.extend([(1, 1, 1), (-1, -1, -1)])
        for a in range(-bound, bound + 1):
            if abs(a) != 1:
                candidates.append((0, a, 0, -a))
    elif kind == "int":
        zero_family()
    elif fam == "sqrt" and k == 2:
        zero_family()
        candidates.extend([(1, 1, 1, 1), (-1, -1, -1, -1)])
    elif fam == "sqrt" and k == 3:
        zero_family()
        candidates.extend([(1,) * 6, (-1,) * 6])
    elif fam == "sqrt":
        zero_family()
    elif fam == "isqrt" and k == 1:
        raise ValueError("no closed classification over <i>")
    elif fam == "isqrt" and k == 2:
        zero_family()
        candidates.append((1, -1, 1, -1))
    elif fam == "isqrt" and k == 3:
        zero_family()
        candidates.append((1, -1, 1, -1, 1, -1))
    elif fam == "isqrt":
        zero_family()
    else:  # alpha
        zero_family()

    out = set()
    for coeffs in candidates:
        if not min_size <= len(coeffs) <= max_size:
            continue
        if any(abs(c) > bound for c in coeffs):
            continue
        if gen.nonneg and any(c < 0 for c in coeffs):
            continue
        out.add(canonical_coeffs(coeffs, gen))
    return out


@dataclass
class ProbeResult:
    name: str
    ok: bool
    detail: str = ""


def classification_probe(gen_strings, max_size, bound):
    for text in gen_strings:
        gen = GeneratorSpec.from_string(text)
        got = {q.coeffs for q in classify_irreducibles(gen, max_size, bound)}
        want = expected_irreducible_classes(gen, 3, max_size, bound)
        if got != want:
            missing = sorted(want - got)
            extra = sorted(got - want)
            yield ProbeResult(
                f"classification[{text}]",
                False,
                f"missing={missing} unexpected={extra}",
            )
        else:
            yield ProbeResult(f"classification[{text}]", True, f"{len(got)} classes")


def check_two_small_entries(q: Quiddity) -> bool:
    """True when at least two positions carry an entry of modulus below 2.

    Every verified tuple over a subset of C is expected to satisfy this; the
    enumeration suites call it as a falsification probe and treat False as a
    counterexample.  On integers: |c*w|**2 = c**2 * N, with N = s**2 for
    w = s and N = scale**2 * |d| for w = scale*sqrt(d).
    """
    if not q.gen.has_modulus():
        raise NoModulusError("two-small-entries needs a modulus; not defined over X")
    kind, p, scale = q.gen.ring
    norm = p * p if kind == "int" else scale * scale * abs(p)
    return sum(c * c * norm < 4 for c in q.coeffs) >= 2


def small_entries_probe(gen_strings, max_size, bound):
    for text in gen_strings:
        gen = GeneratorSpec.from_string(text)
        if not gen.has_modulus():
            continue
        bad = []
        count = 0
        for n in range(2, max_size + 1):
            for q in enumerate_quiddities(gen, n, bound, canonical_only=True):
                count += 1
                if not check_two_small_entries(q):
                    bad.append(q.coeffs)
        yield ProbeResult(
            f"two-small-entries[{text}]",
            not bad,
            f"{count} tuples" if not bad else f"counterexamples: {bad}",
        )


def _phi_mismatches(gen, sizes, bound, agree):
    """Run agree(q, phi(q)) on every canonical tuple over gen of the given
    sizes; return the number checked and a failure detail naming each
    disagreeing `source -> image` pair ("" when they all agree)."""
    checked, bad = 0, []
    for n in sizes:
        for q in enumerate_quiddities(gen, n, bound, canonical_only=True):
            img = phi(q)
            checked += 1
            if not agree(q, img):
                bad.append(f"{q.coeffs} -> {img.coeffs}")
    return checked, ("counterexamples: " + "; ".join(bad) if bad else "")


def bijection_probe(ks, max_size, bound):
    """Irreducibility over <i*sqrt(k)> must match irreducibility of the
    alternating-sign image over <sqrt(k)>, tuple by tuple, and the map must
    round-trip.

    k = 1 is skipped: odd-size integer tuples exist while odd sizes over <i>
    are empty, so the transport genuinely fails there.
    """
    for k in ks:
        name = f"sign-map-irreducibility[k={k}]"
        if k == 1:
            yield ProbeResult(name, True, "skipped, checked 0")
            continue
        src = GeneratorSpec("isqrt", k)
        checked, failure = _phi_mismatches(
            src, range(2, max_size + 1), bound,
            lambda q, img: is_irreducible(q) == is_irreducible(img),
        )
        yield ProbeResult(name, not failure, failure or f"ok, checked {checked}")
        bad = []
        for n in range(2, max_size + 1, 2):
            for q in enumerate_quiddities(src, n, bound):
                if phi_inverse(phi(q)).coeffs != q.coeffs:
                    bad.append(q.coeffs)
        yield ProbeResult(
            f"sign-map-roundtrip[k={k}]", not bad, "" if not bad else f"failed on {bad}"
        )


def link_probe(max_size, bound):
    """A tuple over <i> is irreducible exactly when its alternating-sign
    integer image is evenly irreducible.

    Sizes start at 4: the size-2 tuple is excluded from irreducibility by
    convention, which would fake a counterexample.
    """
    checked, failure = _phi_mismatches(
        GeneratorSpec("isqrt", 1), range(4, max_size + 1), bound,
        lambda q, img: is_irreducible(q) != is_evenly_reducible(img, MODE_EQUIV),
    )
    yield ProbeResult("even-irreducibility-link", not failure, failure or f"checked {checked}")


def rescale_probe(ks, max_size, bound):
    """Exhaustive two-way transfer check at small sizes: a coefficient tuple
    verifies over <sqrt(k)> exactly when its rescaling verifies over Z."""
    from itertools import product as iproduct

    for k in ks:
        gen = GeneratorSpec("sqrt", k)
        z = GeneratorSpec("int", 1)
        bad = []
        for n in range(2, max_size + 1, 2):
            for coeffs in iproduct(range(-bound, bound + 1), repeat=n):
                src = Quiddity.verified(gen, coeffs)
                img = Quiddity.verified(z, rescale_even(coeffs, k))
                if (src is None) != (img is None):
                    bad.append(coeffs)
        yield ProbeResult(
            f"rescale-transfer[k={k}]", not bad, "" if not bad else f"failed on {bad}"
        )


def continuant_probe(samples=400, seed=20260809):
    rng = random.Random(seed)
    makers = [
        lambda r: Int(r.randint(-3, 3)),
        lambda r: Quad(r.randint(-3, 3), r.randint(-3, 3), 2),
        lambda r: Quad(r.randint(-3, 3), r.randint(-3, 3), -1),
        lambda r: Poly([r.randint(-2, 2) for _ in range(r.randint(0, 2))]),
    ]
    for _ in range(samples):
        make = rng.choice(makers)
        t = tuple(make(rng) for _ in range(rng.randint(1, 9)))
        if continuant_rec(t) != continuant_euler(t):
            return [ProbeResult("continuant-routes", False, f"disagree on {t!r}")]
        if not continuant_windows_match(t, product_matrix(t)):
            return [ProbeResult("continuant-windows", False, f"disagree on {t!r}")]
    return [ProbeResult("continuant-routes", True, f"{samples} random tuples")]


def even_examples_probe():
    z = GeneratorSpec("int", 1)
    cases = [
        ((2, 2, 1, 4, 1, 2), True),
        ((1, 2, 1, 2, 1, 2, 1, 2), True),
        ((1, 1, 1, 1, 1, 1), False),
    ]
    bad = []
    for coeffs, expect in cases:
        q = Quiddity.verified(z, coeffs)
        if q is None or is_evenly_reducible(q, MODE_EQUIV) is not expect:
            bad.append(coeffs)
    return [ProbeResult("even-reducibility-examples", not bad, "" if not bad else str(bad))]


QUICK_GENS = ("z", "z+nonneg", "sqrt:0", "sqrt:2", "sqrt:3", "sqrt:5", "isqrt:2", "alpha")
FULL_GENS = QUICK_GENS + ("sqrt:1", "sqrt:4", "sqrt:6", "isqrt:3", "isqrt:4", "z:2", "isqrt:2+nonneg")


def run_selftest(full: bool = False):
    """The probe battery; returns a list of ProbeResult."""
    max_size, bound = (8, 3) if full else (6, 2)
    gens = FULL_GENS if full else QUICK_GENS
    results: list[ProbeResult] = []
    results += continuant_probe(800 if full else 300)
    results += list(classification_probe(gens, max_size, bound))
    results += list(small_entries_probe(gens, max_size, bound))
    results += list(bijection_probe((1, 2, 3, 5) if full else (1, 2), max_size, bound))
    results += list(link_probe(max_size, bound))
    results += list(rescale_probe((2, 3) if not full else (2, 3, 5), 6, 2))
    results += even_examples_probe()
    return results
