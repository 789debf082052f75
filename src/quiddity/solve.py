"""Decision procedures over bounded coefficient spaces: closed-form solving
of the last three entries, exhaustive enumeration, the exact splice
decomposition test, and irreducible classification.

The enumeration core is one integer walker for every ring.  Each position
gets an integer scale (see _position_scales and its two lemmas: the
alternating scales 1, D, 1, D, ... for a quadratic generator with w**2 = D,
and a Kronecker substitution X := M for the formal symbol), so that a
coefficient tuple solves over the generator exactly when the scaled integer
tuple solves over Z.  The walker visits the first n-3 coefficients depth
first while accumulating the ordered product as four plain integers, solves
for the third-from-last entry (at most two candidates, and the whole level
only where the product's upper-left entry is 0; see _run_shard), then
completes the final two entries in closed form (_complete).  Everything it
emits is a plain Quiddity that re-verifies through the generic matrix route,
and the test suite holds the two routes against each other.

Reducibility is decided exactly, with no coefficient bound: for a fixed
dihedral representative and summand size, the interior of the right summand
is a fixed window of the representative and its two boundary entries are
forced by the window's matrix product.  Enumerating candidate summands
instead could never terminate over an infinite subgroup.  The scan runs on
the walker's scaled integers and closed-form completion; the generic
RingElem/Mat2 route serves only verification, solve_tail2 and the oracles.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass

from .core import Mat2, Quiddity, canonical_coeffs, coeff_ranks
from .rings import GeneratorSpec, NoModulusError, cmp_abs_squared_with_4

DEFAULT_WORK_LIMIT = 10 ** 8

PARITY_ANY = "any"
PARITY_EVEN = "even"


class NotUnimodularError(ValueError):
    """Tail completion needs a determinant-1 prefix product."""


class NotAQuiddityError(ValueError):
    """The operation is only defined for verified tuples."""


class WorkLimitExceeded(RuntimeError):
    """The search would exceed its node budget; never a partial answer.

    Resumable searches attach a checkpointable state.
    """

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


@dataclass(frozen=True)
class EnumSpec:
    """Bounded exhaustive search space: size-n tuples over gen, |k_j| <= bound
    (0 <= k_j <= bound for nonneg generators)."""

    gen: GeneratorSpec
    size: int
    bound: int
    canonical_only: bool = False


def solve_tail2(P: Mat2, gen: GeneratorSpec):
    """All (kx, ky, eps) with M(y)*M(x)*P = eps*Id, x = kx*w, y = ky*w.

    M(y)*M(x) equals [[xy-1, -y], [x, -1]], so eps*P^-1 must carry -1 in its
    lower-right entry; that forces eps, then x and y, and the upper-left
    entry is the remaining consistency check.  At most one eps can match.
    """
    if P.det() != 1:
        raise NotUnimodularError("tail completion needs det(P) = 1")
    out = []
    r = P.e11.rational_value()
    for eps in (1, -1):
        if r != -eps:
            continue
        x = (-eps) * P.e21
        y = eps * P.e12
        if x * y - 1 != eps * P.e22:
            continue
        kx = gen.extract(x)
        ky = gen.extract(y)
        if kx is not None and ky is not None:
            out.append((kx, ky, eps))
    return out


def _coeff_values(gen: GeneratorSpec, bound: int) -> range:
    """The coefficients one position takes, as a range: a search is priced
    from its length before any value is built."""
    kind, p, _ = gen.ring
    if kind == "int" and p == 0:
        return range(1)  # the zero generator maps every coefficient to one element
    return range(0 if gen.nonneg else -bound, bound + 1)


def predicted_nodes(num_values: int, size: int) -> int:
    """DFS states for a full prefix tree over size-2 levels, root included:
    1 + v + ... + v**(size-2) for v = num_values.

    An upper bound on the states the walker visits: it solves for the last
    level's entry instead of walking it (see _run_shard), and walks that
    level in full only below products with upper-left entry 0.  The work
    limit prices this bound."""
    if size <= 2:
        return 1
    if num_values == 1:
        return size - 1
    return (num_values ** (size - 1) - 1) // (num_values - 1)


def priced_nodes(count: int, num_values: int, size: int):
    """(cost, text) for count * predicted_nodes(num_values, size) nodes;
    (None, "more than 10^k") when the cost is too long to print.

    For num_values >= 2 the cost lies in [C, 2C) with C = count *
    num_values**(size-2), so log10(C) bounds its digit count before it is
    built (capping size keeps the estimate a lower bound).  Python's str()
    refuses ints longer than sys.get_int_max_str_digits() digits, and no
    run can spend such a budget, so that cost is never built and callers
    refuse it whatever the limit.
    """
    if count and num_values >= 2 and size > 2:
        log_c = math.log10(count) + min(size - 2, 10**6) * math.log10(num_values)
        if log_c + 2 > (getattr(sys, "get_int_max_str_digits", int)() or 4300):
            return None, f"more than 10^{int(log_c) - 1}"
    cost = count * predicted_nodes(num_values, size)
    return cost, str(cost)


def _position_scales(gen: GeneratorSpec, n: int, bound: int):
    """Integer scales (t_1, ..., t_n) such that coefficients (c_1, ..., c_n)
    with |c_j| <= bound solve over gen exactly when the integers
    (t_1*c_1, ..., t_n*c_n) solve over Z, with the same sign; None when
    size n has no solutions at all.

    Integer generator w = s: the entries are the integers s*c_j, so every
    position carries s (s = 0 is the zero generator, handled by _complete).

    Lemma (quadratic, w**2 = D with D = p*scale**2 from the ring).  A
    continuant of L entries c_j*w is a signed sum of products of L - 2*i
    survivors, so it lies in Z when L is even and in Z*w when L is odd.  Put
    x_j = w at odd positions and x_j = 1/w = w/D at even ones, so that
    c_j*w = x_j*(t_j*c_j) with t = (1, D, 1, D, ...).  Since
    x_j*x_(j+1) = 1, every pair deletion removes a factor 1, and the
    continuant of a window equals the product of its x_j times the integer
    continuant of the scaled window: exactly it for even length, w or 1/w
    times it for odd length.  Verification asks the windows "all but the
    last" and "all but the first" to vanish, and the windows "all" and "all
    but both ends" to equal eps and -eps.  For even n the first two have odd
    length and vanish exactly when their scaled integer continuants do
    (w != 0), and the last two have even length and are equal to theirs, so
    this is verification of the scaled integer tuple with the same eps.  For
    odd n the full continuant lies in Z*w, which meets Q only in 0 because D
    is not a square, so it never equals eps and no tuple solves.  This
    proves the rescale_even transfer for every k, and the same argument
    covers <i*sqrt(k)> with D < 0.

    Lemma (formal X, Kronecker substitution).  Every position carries M,
    i.e. X := M.  Completeness needs no bound: evaluation at M is a ring map
    Z[X] -> Z, so a solution over <X> maps to a solution over Z with the
    same sign.  Soundness: the walker accepts when the prefix product P
    (n-2 factors) satisfies P11 = -eps, P21 = -eps*kx*X, P12 = eps*ky*X and
    eps*P22 = kx*ky*X**2 - 1 at X = M, with |kx|, |ky| <= B.  Each P_ij is
    a continuant of at most n-2 entries c_j*X: at most F(n-1) pair-deletion
    terms (Fibonacci), each with coefficients of modulus at most B'**(n-2),
    B' = max(B, 1).  So every coefficient on either side of a comparison
    has modulus at most F(n+1)*B'**n + B'**2 < M/2, and their difference
    has coefficients of modulus below M.  A nonzero polynomial g with
    |g_i| < M has g(M) != 0 (M divides the lowest nonzero coefficient
    otherwise), so the four equalities hold in Z[X] and the tuple solves
    over <X>.  Hence M = 2*(F(n+1)*B'**n + B'**2 + 1) + 1.  The scan's
    windows are shorter; _scan_representative bounds them by M/4.
    """
    kind, p, scale = gen.ring
    if kind == "int":
        return (p,) * n
    if kind == "quad":
        if n % 2:
            return None
        return (1, p * scale * scale) * (n // 2)
    fib, nxt = 1, 1  # F(1), F(2)
    for _ in range(n):
        fib, nxt = nxt, fib + nxt
    b = max(bound, 1)
    return (2 * (fib * b ** n + b * b + 1) + 1,) * n


def _complete(p11, p12, p21, p22, sx, sy, limit, nonneg):
    """(kx, ky, eps) with M(sy*ky)*M(sx*kx)*P = eps*Id, |kx|, |ky| <= limit
    (>= 0 when nonneg), or None, for an integer product P with p11 = +-1:
    solve_tail2's closed form, divided back by the scales (0 takes only 0).
    """
    eps = -p11
    x = -eps * p21
    y = eps * p12
    if x * y - 1 != eps * p22:
        return None
    if sx == 0:
        return (0, 0, eps) if x == 0 and y == 0 else None
    if x % sx or y % sy:
        return None
    kx, ky = x // sx, y // sy
    if abs(kx) > limit or abs(ky) > limit or (nonneg and (kx < 0 or ky < 0)):
        return None
    return kx, ky, eps


def _third_entries(p11, p21, s, vals):
    """The c in vals, ascending, for which the entry e = c*s turns a prefix
    product with first column (p11, p21) and det 1 into one with
    e*p11 - p21 = +-1: the only entries after which _complete can fire (see
    _run_shard)."""
    q = p11 * s
    if q == 0:  # p11 = 0 forces p21 = +-1 by det 1; s = 0 makes e = 0
        return vals if p21 in (1, -1) else ()
    lo, hi = p21 - 1, p21 + 1
    if q < 0:
        q, lo, hi = -q, -hi, -lo
    return [num // q for num in (lo, hi) if num % q == 0 and num // q in vals]


def _run_shard(gen, n, bound, first):
    """Enumerate all solutions whose first coefficient is `first` (every
    solution when first is None, used for n = 2).

    One integer walker serves every ring through _position_scales: the
    first n-3 coefficients are walked depth first on the flat integer
    product of the scaled entries, coefficient n-2 is solved for by
    _third_entries, and the last two are completed in closed form by
    _complete.

    Lemma (closed-form third-from-last entry).  Let P = (p11, p12, p21,
    p22) be the product of the first n-3 scaled entries, det P = 1.
    Appending e = c*s (s the scale of position n-2) gives p11' = e*p11 -
    p21, and _complete fires only when p11' = +-1.  If p11 != 0, then e is
    (p21 - 1)/p11 or (p21 + 1)/p11: at most two c remain, each an exact
    quotient by p11*s inside _coeff_values.  If p11 = 0, det P = -p12*p21 =
    1 forces p21 = +-1, so p11' = -p21 = +-1 for every e and the level is
    walked in full, as it is when s = 0 (the zero generator, e = 0).
    """
    scales = _position_scales(gen, n, bound)
    found = []
    if scales is None:
        return found
    emit = found.append
    nonneg = gen.nonneg
    vals = _coeff_values(gen, bound)
    levels = [[(c, c * s) for c in vals] for s in scales[: n - 3]]
    s3 = scales[n - 3] if n > 2 else None
    sx, sy = scales[n - 2], scales[n - 1]

    def tail(prefix, p11, p12, p21, p22):
        if p11 == 1 or p11 == -1:
            hit = _complete(p11, p12, p21, p22, sx, sy, bound, nonneg)
            if hit is not None:
                emit((prefix + hit[:2], hit[2]))

    def rec(depth, prefix, p11, p12, p21, p22):
        if depth == n - 2:  # n = 2, or n = 3 with its first entry fixed
            tail(prefix, p11, p12, p21, p22)
        elif depth == n - 3:
            for c in _third_entries(p11, p21, s3, vals):
                e = c * s3
                tail(prefix + (c,), e * p11 - p21, e * p12 - p22, p11, p12)
        else:
            for c, e in levels[depth]:
                rec(depth + 1, prefix + (c,), e * p11 - p21, e * p12 - p22, p11, p12)

    if first is None:
        rec(0, (), 1, 0, 0, 1)
    else:
        e = first * scales[0]
        rec(1, (first,), e, -1, 1, 0)
    return found


def _run_shard_star(args):
    return _run_shard(*args)


def _map_shards(gen, n, bound, shards, workers):
    args = [(gen, n, bound, first) for first in shards]
    # the executor starts all max_workers processes at the first submit
    workers = min(workers, len(args), os.cpu_count() or 1)
    if workers <= 1:
        return [_run_shard(*a) for a in args]
    from concurrent.futures import ProcessPoolExecutor  # ~2 MB, 20 ms: only when used

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_shard_star, args))


def _collect(spec: EnumSpec, found):
    gen = spec.gen
    if spec.canonical_only:
        seen = {}
        for coeffs, eps in found:
            cc = canonical_coeffs(coeffs, gen)
            if cc not in seen:
                seen[cc] = eps
        # order_key of a canonical tuple of size n is (n, ranks, ranks)
        ordered = sorted(seen, key=lambda cc: coeff_ranks(cc, gen))
        return [Quiddity(gen, cc, seen[cc]) for cc in ordered]
    qs = [Quiddity(gen, coeffs, eps) for coeffs, eps in found]
    qs.sort(key=Quiddity.order_key)
    return qs


def enumerate_quiddities(
    spec: EnumSpec, work_limit: int = DEFAULT_WORK_LIMIT, workers: int = 1, firsts=None
):
    """Every verified tuple in the bounded space, deterministically sorted.

    Sharded on the first coefficient (all values, or the distinct ones in
    firsts); results are merged and re-sorted, so worker count never changes
    the output.  The work limit prices the full prefix tree
    (predicted_nodes), an upper bound on the nodes walked known up front,
    which keeps it a hard precondition rather than a mid-flight truncation.
    """
    gen, n, bound = spec.gen, spec.size, spec.bound
    if n < 2:
        raise ValueError("enumeration needs size >= 2")
    if bound < 0:
        raise ValueError("coefficient bound must be >= 0")
    vals = _coeff_values(gen, bound)
    if firsts is None:
        shards, count, levels = ([None] if n == 2 else vals), 1, n
    elif n == 2 or len(set(firsts)) != len(firsts) or not all(f in vals for f in firsts):
        raise ValueError("first coefficients must be distinct and within the bound (size >= 3)")
    else:
        shards, count, levels = list(firsts), len(firsts), n - 1
    cost, text = priced_nodes(count, vals.stop - vals.start, levels)
    if cost is None or cost > work_limit:
        raise WorkLimitExceeded(f"enumeration would visit {text} nodes (limit {work_limit})")
    chunks = _map_shards(gen, n, bound, shards, workers)
    return _collect(spec, [pair for chunk in chunks for pair in chunk])


@dataclass(frozen=True)
class Decomposition:
    """Witness q ~ left (+) right for a verified tuple q.

    representative is the dihedral image of q actually split; left is a
    plain coefficient tuple, right a verified summand; the splice of the two
    reproduces representative exactly.
    """

    rotation: int
    reflected: bool
    representative: tuple[int, ...]
    left: tuple[int, ...]
    right: Quiddity

    @property
    def left_size(self) -> int:
        return len(self.left)

    @property
    def right_size(self) -> int:
        return self.right.size

    def to_json_dict(self) -> dict:
        return {
            "rotation": self.rotation,
            "reflected": self.reflected,
            "representative": list(self.representative),
            "left": list(self.left),
            "right": self.right.to_json_dict(),
            "left_size": self.left_size,
            "right_size": self.right_size,
        }


def _scan_representative(rep, gen, parity):
    """First split rep = left (+) right of one fixed representative, as
    (left, right, sign of right), or None.

    Runs on the kernel's integers: rep is scaled by _position_scales, the
    window rep[m:] (m = n + 2 - l) grows by one factor per right size l, and
    the summand rotated to (rep[m:], last, first) is completed by _complete
    with the scales that continue the window's, scales[m] and
    scales[(m+1) % n].  Quadratic generators skip odd l (no odd size
    solves); an even window starts at an even m, so the summand carries
    1, D, ..., 1, D and the quadratic lemma of _position_scales decides it.
    Lemma (<X>): a window of at most n - 3 entries c_j*X, |c_j| <= B', has
    continuant coefficients of modulus at most F(n-2)*B'**(n-3) < M/4.  With
    boundary coefficients below M/2, the identities tested at X = M
    (P11 = -eps, P21 = -eps*kx*X, P12 = eps*ky*X) are differences of
    coefficients below M, so they hold in Z[X], and the fourth follows from
    det P = 1; a true boundary coefficient is a continuant coefficient, so
    none is lost.  left is not tested: M(x + y) = -M(x)*M(0)*M(y) gives the
    splice lemma, by which left verifies whenever rep and right do.
    """
    n = len(rep)
    scales = _position_scales(gen, n, max(map(abs, rep), default=0))
    if scales is None:
        return None
    kind = gen.ring[0]
    even_sizes = kind == "quad" or parity == PARITY_EVEN
    limit = scales[0] // 2 if kind == "poly" else math.inf
    b11, b12, b21, b22 = 1, 0, 0, 1
    for l in range(3, n):
        m = n + 2 - l
        e = rep[m] * scales[m]
        b11, b12, b21, b22 = b11 * e + b12, -b11, b21 * e + b22, -b21
        if (even_sizes and (l % 2 or m % 2)) or b11 not in (1, -1):
            continue
        hit = _complete(b11, b12, b21, b22, scales[m], scales[(m + 1) % n], limit, gen.nonneg)
        if hit is not None:
            x, y, eps = hit  # right = (y, *rep[m:], x)
            left = (rep[0] - x,) + rep[1 : m - 1] + (rep[m - 1] - y,)
            if not (gen.nonneg and min(left[0], left[-1]) < 0):
                return left, (y,) + rep[m:] + (x,), eps
    return None


def find_decomposition(q: Quiddity, parity: str = PARITY_ANY):
    """First splice decomposition q ~ left (+) right, or None.

    Both summands have size >= 3; parity "even" asks for even sizes, which
    are then >= 4.  Scan order is rotation index, then reflection flag, then
    right-summand size ascending, so witnesses are reproducible across runs
    and platforms.  A sign on q is trusted as Quiddity asserts it: the left
    summand verifies only because q does.
    """
    if parity not in (PARITY_ANY, PARITY_EVEN):
        raise ValueError(f"unknown parity {parity!r}")
    if q.sign is None and q.verify() is None:
        raise NotAQuiddityError("decomposition is defined for verified tuples")
    for rotation in range(q.size):
        for reflected in (False, True):
            base = q.coeffs[::-1] if reflected else q.coeffs
            rep = base[rotation:] + base[:rotation]
            hit = _scan_representative(rep, q.gen, parity)
            if hit is not None:
                left, right, eps = hit
                return Decomposition(rotation, reflected, rep, left, Quiddity(q.gen, right, eps))
    return None


def is_irreducible(q: Quiddity) -> bool:
    """Not expressible, up to rotation/reflection, as left (+) right with a
    verified right summand and both sizes >= 3.

    Size 2 is excluded by convention; size 3 admits no legal split.
    """
    if q.sign is None and q.verify() is None:
        raise NotAQuiddityError("irreducibility is defined for verified tuples")
    if q.size <= 3:
        return q.size == 3
    return find_decomposition(q) is None


def classify_irreducibles(
    gen: GeneratorSpec,
    max_size: int,
    bound: int,
    min_size: int = 3,
    work_limit: int = DEFAULT_WORK_LIMIT,
    workers: int = 1,
):
    """Canonical irreducible tuples for every size in [min_size, max_size]."""
    out = []
    for n in range(min_size, max_size + 1):  # sizes ascend and each comes sorted
        spec = EnumSpec(gen, n, bound, canonical_only=True)
        for q in enumerate_quiddities(spec, work_limit=work_limit, workers=workers):
            if is_irreducible(q):
                out.append(q)
    return out


def check_two_small_entries(q: Quiddity) -> bool:
    """True when at least two positions carry an entry of modulus below 2.

    Every verified tuple over a subset of C is expected to satisfy this; the
    enumeration suites call it as a falsification probe and treat False as a
    counterexample.
    """
    if not q.gen.has_modulus():
        raise NoModulusError("two-small-entries needs a modulus; not defined over X")
    small = 0
    for e in q.elements():
        if cmp_abs_squared_with_4(e) < 0:
            small += 1
            if small >= 2:
                return True
    return False
