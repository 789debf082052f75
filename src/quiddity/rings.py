"""Exact arithmetic for the coefficient rings behind cyclic-subgroup searches.

Three element kinds cover every ambient ring of a generator:

* ``Int``  -- plain unbounded integers.
* ``Quad`` -- quadratic integers ``a + b*w`` with ``w**2 = d`` for a fixed
  nonzero, non-square integer ``d`` (``d > 0`` models ``sqrt(d)``, ``d < 0``
  models ``i*sqrt(-d)``).
* ``Poly`` -- integer polynomials in a formal symbol ``X`` standing in for a
  transcendental number; coefficients lowest degree first, no trailing zeros.

The elements serve verification, parsing and formatting; the solvers work on
plain integers read off ``GeneratorSpec.ring``.  ``GeneratorSpec`` describes
an additive subgroup ``Z*w`` (``N*w`` with ``nonneg=True``) of one of these
rings and knows how to embed integer coefficients and extract them back.
Everything here is immutable and pure, so values can be shared freely across
worker processes.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field


class MixedRingError(TypeError):
    """Two elements from incompatible rings met in a single operation."""


class NoModulusError(TypeError):
    """The operation needs a complex modulus, which Poly elements lack."""


class ElementSyntaxError(ValueError):
    """An element string failed to parse."""


class GeneratorSyntaxError(ValueError):
    """A generator descriptor failed to parse."""


def _is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


class RingElem:
    """Immutable exact ring element; base for Int, Quad and Poly.

    Equality identifies rational integers across representations, e.g.
    ``Int(2) == Quad(2, 0, 5) == Poly((2,))``; hashing is consistent with
    that.  Elements carry no order: canonical forms rank the coefficients of
    one generator instead (see core.canonical_coeffs).
    """

    __slots__ = ()

    def rational_value(self) -> int | None:
        """The element as a plain integer when it is one, else None."""
        raise NotImplementedError

    def is_zero(self) -> bool:
        return self.rational_value() == 0

    def __add__(self, other):
        pair = _common(self, other)
        return NotImplemented if pair is None else pair[0]._add(pair[1])

    __radd__ = __add__

    def __sub__(self, other):
        pair = _common(self, other)
        return NotImplemented if pair is None else pair[0]._sub(pair[1])

    def __rsub__(self, other):
        pair = _common(self, other)
        return NotImplemented if pair is None else pair[1]._sub(pair[0])

    def __mul__(self, other):
        pair = _common(self, other)
        return NotImplemented if pair is None else pair[0]._mul(pair[1])

    __rmul__ = __mul__

    def __neg__(self):
        return self._neg()

    def __eq__(self, other):
        if isinstance(other, int):
            other = Int(other)
        if not isinstance(other, RingElem):
            return NotImplemented
        rs = self.rational_value()
        ro = other.rational_value()
        if rs is not None or ro is not None:
            return rs == ro
        if type(self) is not type(other):
            return False
        return self._eq_same(other)

    def __hash__(self):
        r = self.rational_value()
        if r is not None:
            return hash(("elem", r))
        return self._hash_irrational()

    def __bool__(self):
        return not self.is_zero()


class Int(RingElem):
    """A plain integer viewed as a ring element."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        self.n = n

    def __repr__(self):
        return f"Int({self.n})"

    def rational_value(self):
        return self.n

    def _add(self, other):
        return Int(self.n + other.n)

    def _sub(self, other):
        return Int(self.n - other.n)

    def _mul(self, other):
        return Int(self.n * other.n)

    def _neg(self):
        return Int(-self.n)


class Quad(RingElem):
    """Quadratic integer a + b*w with w**2 = d, d nonzero and non-square."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a: int, b: int, d: int):
        if d == 0 or _is_square(d):
            raise ValueError(f"quadratic discriminant must be a nonzero non-square, got {d}")
        self.a = a
        self.b = b
        self.d = d

    def __repr__(self):
        return f"Quad({self.a}, {self.b}, {self.d})"

    def rational_value(self):
        return self.a if self.b == 0 else None

    def _add(self, o):
        return Quad(self.a + o.a, self.b + o.b, self.d)

    def _sub(self, o):
        return Quad(self.a - o.a, self.b - o.b, self.d)

    def _mul(self, o):
        return Quad(self.a * o.a + self.d * self.b * o.b,
                    self.a * o.b + self.b * o.a, self.d)

    def _neg(self):
        return Quad(-self.a, -self.b, self.d)

    def _eq_same(self, o):
        return self.a == o.a and self.b == o.b and self.d == o.d

    def _hash_irrational(self):
        return hash(("quad", self.a, self.b, self.d))


class Poly(RingElem):
    """Integer polynomial in the formal symbol X, lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = tuple(coeffs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        self.coeffs = cs

    def __repr__(self):
        return f"Poly({list(self.coeffs)})"

    def rational_value(self):
        if not self.coeffs:
            return 0
        if len(self.coeffs) == 1:
            return self.coeffs[0]
        return None

    def _padded(self, o):
        n = max(len(self.coeffs), len(o.coeffs))
        a = self.coeffs + (0,) * (n - len(self.coeffs))
        b = o.coeffs + (0,) * (n - len(o.coeffs))
        return a, b

    def _add(self, o):
        a, b = self._padded(o)
        return Poly(x + y for x, y in zip(a, b))

    def _sub(self, o):
        a, b = self._padded(o)
        return Poly(x - y for x, y in zip(a, b))

    def _mul(self, o):
        if not self.coeffs or not o.coeffs:
            return Poly(())
        out = [0] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            if ci:
                for j, cj in enumerate(o.coeffs):
                    out[i + j] += ci * cj
        return Poly(out)

    def _neg(self):
        return Poly(-c for c in self.coeffs)

    def _eq_same(self, o):
        return self.coeffs == o.coeffs

    def _hash_irrational(self):
        return hash(("poly", self.coeffs))


def _common(x, y):
    """Lift both operands into one ring; None defers to NotImplemented."""
    if isinstance(y, int):
        y = Int(y)
    if isinstance(x, int):
        x = Int(x)
    if not isinstance(x, RingElem) or not isinstance(y, RingElem):
        return None
    if isinstance(x, Int):
        if isinstance(y, Int):
            return x, y
        if isinstance(y, Quad):
            return Quad(x.n, 0, y.d), y
        return Poly((x.n,)), y
    if isinstance(x, Quad):
        if isinstance(y, Int):
            return x, Quad(y.n, 0, x.d)
        if isinstance(y, Quad):
            if x.d != y.d:
                raise MixedRingError(f"distinct quadratic rings: w^2={x.d} vs w^2={y.d}")
            return x, y
        raise MixedRingError("cannot mix quadratic and polynomial elements")
    if isinstance(y, Int):
        return x, Poly((y.n,))
    if isinstance(y, Poly):
        return x, y
    raise MixedRingError("cannot mix polynomial and quadratic elements")


_FAMILIES = ("int", "sqrt", "isqrt", "alpha")


@dataclass(frozen=True)
class GeneratorSpec:
    """The additive subgroup Z*w (or N*w when nonneg) of a concrete ring.

    Families: ``int`` (w = s), ``sqrt`` (w = sqrt(k)), ``isqrt``
    (w = i*sqrt(k)) and ``alpha`` (w = the formal symbol X).  Square k
    collapses to an integer generator (sqrt) or to a scaled multiple of i
    (isqrt), so quadratic discriminants stay non-square by construction.
    """

    family: str
    param: int = 0
    nonneg: bool = False
    # the concrete ring behind w, derived once from the three fields above
    # (see _ring); it takes no part in equality or hashing
    ring: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise GeneratorSyntaxError(f"unknown generator family {self.family!r}")
        if self.family in ("sqrt", "isqrt") and self.param < 0:
            raise GeneratorSyntaxError(f"{self.family} generator needs k >= 0")
        if self.family == "alpha" and self.param != 0:
            raise GeneratorSyntaxError("alpha generator takes no parameter")
        object.__setattr__(self, "ring", self._ring())

    def _ring(self):
        """The concrete ring behind w: ("int", s, 1) for w = s,
        ("quad", d, scale) for w = scale*sqrt(d) with d non-square (d < 0
        for imaginary roots), or ("poly", 0, 1) for w = X."""
        if self.family == "int":
            return ("int", self.param, 1)
        if self.family == "sqrt":
            if _is_square(self.param):
                return ("int", math.isqrt(self.param), 1)
            return ("quad", self.param, 1)
        if self.family == "isqrt":
            if self.param == 0:
                return ("int", 0, 1)
            if _is_square(self.param):
                return ("quad", -1, math.isqrt(self.param))
            return ("quad", -self.param, 1)
        return ("poly", 0, 1)

    def has_modulus(self) -> bool:
        return self.family != "alpha"

    def embed(self, m: int) -> RingElem:
        """The element m*w."""
        kind, p, scale = self.ring
        if kind == "int":
            return Int(m * p)
        if kind == "quad":
            return Quad(0, m * scale, p)
        return Poly((0, m))

    def extract(self, x) -> int | None:
        """Coefficient m with x = m*w, or None when x is outside the subgroup."""
        if isinstance(x, int):
            x = Int(x)
        kind, p, scale = self.ring
        r = x.rational_value()
        m = None
        if r == 0:
            m = 0
        elif kind == "int":
            if r is not None and p != 0 and r % p == 0:
                m = r // p
        elif kind == "quad":
            if isinstance(x, Quad) and x.d == p and x.a == 0 and x.b % scale == 0:
                m = x.b // scale
        else:
            if isinstance(x, Poly) and len(x.coeffs) == 2 and x.coeffs[0] == 0:
                m = x.coeffs[1]
        if m is not None and self.nonneg and m < 0:
            return None
        return m

    def descriptor(self) -> dict:
        out = {"kind": self.family}
        if self.family == "int":
            out["s"] = self.param
        elif self.family in ("sqrt", "isqrt"):
            out["k"] = self.param
        if self.nonneg:
            out["sign"] = "nonneg"
        return out

    @classmethod
    def from_descriptor(cls, obj) -> "GeneratorSpec":
        """The spec whose descriptor() is obj; GeneratorSyntaxError for
        anything else (a missing or unknown key, a parameter not an int)."""
        kind = obj.get("kind") if isinstance(obj, dict) else None
        param = obj.get("s" if kind == "int" else "k", 0) if kind in _FAMILIES else None
        if type(param) is int:  # a negative k is refused by __post_init__
            spec = cls(kind, param, obj.get("sign") == "nonneg")
            if spec.descriptor() == obj:
                return spec
        raise GeneratorSyntaxError(f"bad generator descriptor {obj!r}")

    @classmethod
    def from_string(cls, text: str) -> "GeneratorSpec":
        """Parse 'z', 'z:s', 'sqrt:k', 'isqrt:k' or 'alpha', optionally '+nonneg'."""
        s = text.strip().replace(" ", "")
        nonneg = s.endswith("+nonneg")
        if nonneg:
            s = s[: -len("+nonneg")]
        if s == "z":
            return cls("int", 1, nonneg)
        if s == "alpha":
            return cls("alpha", 0, nonneg)
        m = re.fullmatch(r"z:(-?\d+)", s)
        if m:
            return cls("int", int(m.group(1)), nonneg)
        m = re.fullmatch(r"(sqrt|isqrt):(\d+)", s)
        if m:
            return cls(m.group(1), int(m.group(2)), nonneg)
        raise GeneratorSyntaxError(f"cannot parse generator {text!r}")

    def to_string(self) -> str:
        if self.family == "int":
            base = "z" if self.param == 1 else f"z:{self.param}"
        elif self.family == "alpha":
            base = "alpha"
        else:
            base = f"{self.family}:{self.param}"
        return base + ("+nonneg" if self.nonneg else "")


def format_element(x) -> str:
    """Canonical textual form: '7', '0+1*sqrt(2)', '0-2*i', '1+0*X+3*X^2'."""
    if isinstance(x, int):
        x = Int(x)
    if isinstance(x, Int):
        return str(x.n)
    if isinstance(x, Quad):
        if x.d == -1:
            root = "i"
        elif x.d > 0:
            root = f"sqrt({x.d})"
        else:
            root = f"i*sqrt({-x.d})"
        op = "+" if x.b >= 0 else "-"
        return f"{x.a}{op}{abs(x.b)}*{root}"
    if not x.coeffs:
        return "0"
    parts = [str(x.coeffs[0])]
    for i, c in enumerate(x.coeffs[1:], 1):
        mono = "X" if i == 1 else f"X^{i}"
        op = "+" if c >= 0 else "-"
        parts.append(f"{op}{abs(c)}*{mono}")
    return "".join(parts)


_TERM_INT = re.compile(r"([+-]?\d+)$")
_TERM_RADICAL = re.compile(r"([+-]?)(?:(\d+)\*)?(i\*sqrt\((\d+)\)|sqrt\((\d+)\)|i)$")
_TERM_MONO = re.compile(r"([+-]?)(?:(\d+)\*)?X(?:\^(\d+))?$")


def parse_element(text: str) -> RingElem:
    """Exact, whitespace-insensitive inverse of format_element.

    Square radicands fold away (sqrt(4) -> 2, i*sqrt(9) -> 3*i) so parsed
    quadratic elements always carry a non-square discriminant.
    """
    s = re.sub(r"\s+", "", text)
    if not s:
        raise ElementSyntaxError("empty element string")
    terms = re.findall(r"[+-]?[^+-]+", s)
    if "".join(terms) != s:
        raise ElementSyntaxError(f"cannot parse element {text!r}")
    const = 0
    quads: dict[int, int] = {}
    monos: dict[int, int] = {}
    for t in terms:
        m = _TERM_INT.match(t)
        if m:
            const += int(m.group(1))
            continue
        m = _TERM_RADICAL.match(t)
        if m:
            coeff = (-1 if m.group(1) == "-" else 1) * int(m.group(2) or 1)
            if m.group(3) == "i":
                k, imag = 1, True
            elif m.group(4) is not None:
                k, imag = int(m.group(4)), True
            else:
                k, imag = int(m.group(5)), False
            if k == 0:
                continue
            root = math.isqrt(k)
            if root * root == k:
                if imag:
                    quads[-1] = quads.get(-1, 0) + coeff * root
                else:
                    const += coeff * root
            else:
                d = -k if imag else k
                quads[d] = quads.get(d, 0) + coeff
            continue
        m = _TERM_MONO.match(t)
        if m:
            coeff = (-1 if m.group(1) == "-" else 1) * int(m.group(2) or 1)
            deg = int(m.group(3)) if m.group(3) is not None else 1
            if deg == 0:
                const += coeff
            else:
                monos[deg] = monos.get(deg, 0) + coeff
            continue
        raise ElementSyntaxError(f"cannot parse term {t!r} in {text!r}")
    if monos and quads:
        raise ElementSyntaxError("element mixes X and radical terms")
    if len(quads) > 1:
        raise ElementSyntaxError("element mixes distinct radicals")
    if monos:
        coeffs = [0] * (max(monos) + 1)
        coeffs[0] = const
        for deg, c in monos.items():
            coeffs[deg] = c
        return Poly(coeffs)
    if quads:
        ((d, b),) = quads.items()
        if b == 0:
            return Int(const)
        return Quad(const, b, d)
    return Int(const)
