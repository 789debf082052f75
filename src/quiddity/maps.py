"""Structure transport between tuple families.

Two coefficient-level maps:

* the alternating-sign bijection between verified tuples over <i*sqrt(k)>
  and over <sqrt(k)> (negate every second coefficient), and
* the even-position rescaling that turns a tuple over <sqrt(k)> into a plain
  integer tuple with the same verification status.

Both act on coefficient vectors rather than ring elements, which keeps them
exact, generator-agnostic, and automatic in the square-k corner cases.
"""

from __future__ import annotations

from .core import Quiddity, TheoremViolation
from .rings import GeneratorSpec
from .solve import NotAQuiddityError


class OddSizeError(ValueError):
    """The map is only defined for even tuple sizes."""


def _alternate(coeffs):
    return tuple(-c if i % 2 else c for i, c in enumerate(coeffs))


def _transport(q: Quiddity, target: GeneratorSpec) -> Quiddity:
    if q.size % 2:
        raise OddSizeError("the alternating-sign map needs even size")
    eps = q.sign if q.sign is not None else q.verify()
    if eps is None:
        raise NotAQuiddityError("the alternating-sign map needs a verified tuple")
    out = Quiddity.verified(target, _alternate(q.coeffs))
    if out is None:
        raise TheoremViolation(
            f"alternating-sign image of {q.coeffs} over {q.gen.to_string()} "
            f"does not verify over {target.to_string()}"
        )
    return out


def phi(q: Quiddity) -> Quiddity:
    """Verified even tuple over <i*sqrt(k)> to one over <sqrt(k)>.

    (k_1, k_2, k_3, k_4, ...) maps to (k_1, -k_2, k_3, -k_4, ...); the image
    is re-verified and a failure raises TheoremViolation.
    """
    if q.gen.family != "isqrt":
        raise ValueError("phi expects an imaginary square-root generator")
    return _transport(q, GeneratorSpec("sqrt", q.gen.param))


def phi_inverse(q: Quiddity) -> Quiddity:
    """Verified even tuple over <sqrt(k)> (or <s> read as <sqrt(s*s)>) to one
    over <i*sqrt(k)>; the same alternating coefficient map."""
    if q.gen.family == "sqrt":
        k = q.gen.param
    elif q.gen.family == "int":
        k = q.gen.param * q.gen.param
    else:
        raise ValueError("phi_inverse expects a real generator")
    return _transport(q, GeneratorSpec("isqrt", k))


def rescale_even(coeffs, k: int):
    """(k_1, k_2, k_3, k_4, ...) -> (k_1, k*k_2, k_3, k*k_4, ...).

    For k >= 1 the output is a verified integer tuple exactly when the input
    coefficients verify over <sqrt(k)>, with the same sign: this is the
    quadratic lemma in solve._position_scales with D = k, which the
    enumerator runs on (its even-size argument needs only w != 0, so square
    k is covered too).  k = 0 kills the transfer (the zero generator forgets
    the coefficients), so it is rejected.
    """
    t = tuple(coeffs)
    if len(t) % 2:
        raise OddSizeError("rescaling is defined for even sizes")
    if k < 1:
        raise ValueError("rescaling needs k >= 1")
    return tuple(c * k if i % 2 else c for i, c in enumerate(t))


def rescale_even_inverse(values, k: int):
    """Inverse direction; defined only when every second entry is divisible
    by k.  Used to import integer facts back into <sqrt(k)>."""
    t = tuple(values)
    if len(t) % 2:
        raise OddSizeError("rescaling is defined for even sizes")
    if k < 1:
        raise ValueError("rescaling needs k >= 1")
    out = []
    for i, v in enumerate(t):
        if i % 2:
            if v % k:
                raise ValueError(f"entry {v} at position {i} is not divisible by {k}")
            out.append(v // k)
        else:
            out.append(v)
    return tuple(out)
