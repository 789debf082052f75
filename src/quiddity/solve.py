"""Decision procedures over bounded coefficient spaces: closed-form solving
of the last three entries, exhaustive enumeration, the exact splice
decomposition test, and irreducible classification.

The enumeration core is one integer walker for every ring.  Each position
gets an integer scale (see _position_scales and its two lemmas: the
alternating scales 1, D, 1, D, ... for a quadratic generator with w**2 = D,
and a Kronecker substitution X := M for the formal symbol), so that a
coefficient tuple solves over the generator exactly when the scaled integer
tuple solves over Z.  The walker visits the first n-3 coefficients depth
first while accumulating the ordered product as four plain integers; one
loop body walks the last of them, solves for the third-from-last entry (at
most two candidates, and the whole level only where the product's
upper-left entry is 0) and completes the final two entries in closed form
(see _run_shard).  Every enumeration generates dihedral classes: the walk
is min-first (the shard of first coefficient c walks only coefficients
ranked at or above c) and keeps a leaf only when it is its own canonical
form, so each class comes out once, from the shard of its least entry, with
no dedupe pass (see _run_shard).  Plain enumeration expands each class to
its dihedral orbit (see _collect).  With prune set to a parity, the walk
leaves out the values the reducing rule of that parity excludes, and each
row the one partner of the previous entry, which keeps whole classes (see
_run_shard).
Two more lemmas prune the walk: a prefix whose continuant exceeds what its
complementary window can reach never closes (the frieze cap), and at the
last walked position at most four entries leave the third-from-last
solvable (see _run_shard).
Prenecklace pruning
(Fredricksen-Kessler-Maiorana, Sawada 2001) was measured and left out:
after min-first, 753 of the 767 leaves of z, n = 7, B = 5 pass it.
Everything the walker emits is a plain Quiddity that re-verifies through the
generic matrix route, and the test suite holds the two routes against each
other.  The work limit is charged with what the walk does (see _run_shard)
and cuts a sweep at the same shard for any worker count (see _map_shards).

Reducibility is decided exactly, with no coefficient bound: for a fixed
dihedral representative and summand size, the interior of the right summand
is a fixed window of the representative and its two boundary entries are
forced by the window's matrix product.  Enumerating candidate summands
instead could never terminate over an infinite subgroup.  The scan runs on
the walker's scaled integers and closed-form completion; the generic
RingElem/Mat2 route serves only verification and the test suite's oracles.
The scan's shortest windows give a rule that needs no scan at all: a class
with a cyclically adjacent pair (c1, c2) whose scaled window of two has
continuant +-1, i.e. c1*c2 times the pair's scale product in {0, 2}, or
over <+-1> an entry +-1, is reducible (see reducing_rule).  Classification
and even-search walk only the classes free of such pairs, and scan those.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

from .core import Quiddity, canonical_coeffs, coeff_ranks
from .rings import GeneratorSpec

DEFAULT_WORK_LIMIT = 10 ** 8
# the walker recurses once per walked level, so larger sizes with two or more
# values would overrun the recursion limit: refused whatever the limit
_MAX_WALK_SIZE = 512

PARITY_ANY = "any"
PARITY_EVEN = "even"


class NotAQuiddityError(ValueError):
    """The operation is only defined for verified tuples."""


class WorkLimitExceeded(RuntimeError):
    """The search would exceed its node budget; never a partial answer.

    state is what finished before the cut, or None when the search is
    refused whatever the limit.  enumerate_quiddities attaches (shards, pairs):
    the first coefficients of the shards before the cut, in sweep order, and
    the kernel's (canonical coefficients, sign) pairs of their classes,
    unsorted.  search_evenly_irreducible attaches its EvenSearchState.
    """

    def __init__(self, message, state=None):
        super().__init__(message)
        self.state = state


def _coeff_values(gen: GeneratorSpec, bound: int) -> range:
    """The coefficients one position takes, as a range, counted as stop -
    start (len() overflows past the machine word) before any is built."""
    kind, p, _ = gen.ring
    if kind == "int" and p == 0:
        return range(1)  # the zero generator maps every coefficient to one element
    return range(0 if gen.nonneg else -bound, bound + 1)


def predicted_nodes(num_values: int, size: int) -> int:
    """DFS states for a full prefix tree over size-2 levels, root included:
    1 + v + ... + v**(size-2) for v = num_values, far above what the walker
    visits.  Only the benchmark's space_nodes figure reads it."""
    if size <= 2:
        return 1
    if num_values == 1:
        return size - 1
    return (num_values ** (size - 1) - 1) // (num_values - 1)


def _position_scales(gen: GeneratorSpec, n: int, bound: int):
    """Integer scales (t_1, ..., t_n) such that coefficients (c_1, ..., c_n)
    with |c_j| <= bound solve over gen exactly when the integers
    (t_1*c_1, ..., t_n*c_n) solve over Z, with the same sign; None when
    size n has no solutions at all.

    Integer generator w = s: the entries are the integers s*c_j, so every
    position carries s (s = 0 is the zero generator; see _run_shard).

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

    Lemma (odd sizes over <X>).  Every pair deletion removes two factors
    c_j*X, so every monomial of a continuant of L entries c_j*X has degree
    congruent to L mod 2.  At odd n the full continuant has no constant
    term and never equals eps, so no tuple solves, as over a quadratic ring.
    """
    kind, p, scale = gen.ring
    if kind == "int":
        return (p,) * n
    if n % 2:
        return None
    if kind == "quad":
        return (1, p * scale * scale) * (n // 2)
    fib, nxt = 1, 1  # F(1), F(2)
    for _ in range(n):
        fib, nxt = nxt, fib + nxt
    b = max(bound, 1)
    return (2 * (fib * b ** n + b * b + 1) + 1,) * n


def _complete(p11, p12, p21, p22, sx, sy, limit, nonneg):
    """(kx, ky, eps) with M(sy*ky)*M(sx*kx)*P = eps*Id, |kx|, |ky| <= limit
    (>= 0 when nonneg), or None, for an integer product P with det 1 and
    p11 = +-1.  M(y)*M(x) = [[x*y - 1, -y], [x, -1]] must equal eps*P**-1,
    whose lower-right entry eps*p11 forces eps = -p11; then x = -eps*p21 and
    y = eps*p12, divided back by the scales (0 takes only 0).  The upper-left
    entry needs no test: det P = -eps*p22 - p12*p21 = 1 gives eps*p22 =
    -p12*p21 - 1 = x*y - 1.  _scan_representative passes products of
    matrices M(e), so det P = 1; the kernel's loop body (_run_shard) inlines
    the same completion.
    """
    eps = -p11
    x = -eps * p21
    y = eps * p12
    if sx == 0:
        return (0, 0, eps) if x == 0 and y == 0 else None
    if x % sx or y % sy:
        return None
    kx, ky = x // sx, y // sy
    if abs(kx) > limit or abs(ky) > limit or (nonneg and (kx < 0 or ky < 0)):
        return None
    return kx, ky, eps


def _run_shard(gen, n, bound, first, prune=None, budget=math.inf):
    """(found, spent): the canonical forms of the classes whose least entry
    is `first`, each once, with their signs (at n = 2 the one class, for any
    first), keeping, when prune is a parity, only the classes with no
    cyclically adjacent pair of reducing_rule(gen, n, bound, prune), and the
    shard's work charge; once spent passes budget the walk stops, and found
    is None if it stopped early.

    Work charge: v values for the rank dict, after which a shard whose first
    entry is excluded stops; then per distinct scale of the walked levels v'
    (the values ranked at or above first and not excluded) for its row, plus
    the length of each partner row; each is paid before it is built.  Each
    walked node adds the length of its row, and a whole-level third-from-last
    entry v'.  A shard with no walk costs 1.

    One integer walker serves every ring through _position_scales: from the
    fixed first coefficient, positions 1 .. n-5 are walked depth first on
    the flat integer product of the scaled entries, and one loop body walks
    position n-4, solves for position n-3 and completes positions n-2 and
    n-1 with _complete's closed form, inlined: for the product R of all but
    the last two entries, r11 = +-1, the sign is -r11 and the last two
    scaled entries are r11*r21 and -r11*r12.

    Lemma (closed-form third-from-last entry).  Let P = (p11, p12, p21,
    p22) be the product of the first n-3 scaled entries, det P = 1.
    Appending e = c*s (s the scale of position n-3) gives p11' = e*p11 -
    p21, and the completion fires only when p11' = +-1.  If p11 != 0, then e
    is (p21 - 1)/p11 or (p21 + 1)/p11: at most two c remain, each an exact
    quotient by p11*s inside the walked values.  If p11 = 0, det P = -p12*p21
    = 1 forces p21 = +-1, so p11' = -p21 = +-1 for every e and the level is
    walked in full.  Either way the new p11 is +-1 by construction.

    Lemma (frieze cap).  Write K(w) for the continuant of a window w (K()
    = 1, K(a) = a).  The product P of the first m scaled entries a_1 ..
    a_m is [[K(a_1..a_m), -K(a_2..a_m)], [K(a_1..a_(m-1)),
    -K(a_2..a_(m-1))]], so the walk's p11 is K(a_1..a_m).  For a solution
    of sign eps, M(a_n)*...*M(a_(m+1)) = eps*P**-1, and the lower-right
    entries read -K(a_(m+2)..a_(n-1)) = eps*K(a_1..a_m): a prefix's
    continuant is, up to sign, that of its complementary window of n - m -
    2 entries (the glide symmetry of frieze patterns, Coxeter 1971).  Every entry of a solution
    the shard keeps is c*s with c among its values, so |c*s| <= E, the
    largest such product, and a window of L entries has continuant at most
    Kmax(L) in modulus: Kmax(0) = 1, Kmax(1) = E and Kmax(L) =
    E*Kmax(L-1) + Kmax(L-2).  So a walked prefix of m entries with |p11| >
    Kmax(n - m - 2) never closes, and the walk drops it.

    Lemma (last walked position).  Let P be the product of the first n-4
    entries, with |p11| >= 2, and q11 = e*p11 - p21 after the entry e = c*s
    at position n-4.  A completion needs c3*s3*q11 = p11 +- 1 (the
    closed-form lemma), which is nonzero, so |c*s*p11 - p21| = |q11| <= r =
    floor((|p11| + 1)/|s3|).  Those c form one interval, found by integer
    division instead of a row scan, and number at most 2r/|s*p11| + 1 <= 4.
    With |p11| <= 1 the row is scanned.

    Lemma (small and one-value cases).  At n = 2 the product of no entries
    is Id, and the completion gives (0, 0) with sign -1.  At n = 3 it needs
    the single entry e = first*s to be +-1, and then gives back e at both
    ends, so the solution is (first, first, first) with sign -e (an integer
    generator; quadratic ones and <X> have no odd size).
    When a position takes one coefficient value (the zero generator, or
    bound 0), every entry is 0, and M(0)**2 = -Id, so the only solutions
    are the zero tuples of even size, with sign (-1)**(n/2); no walk is
    made, whatever the size.  A zero tuple is pair-free unless 0 is excluded
    (no partner is keyed by 0), and below n = 4 the rule is empty.

    Lemma (min-first).  The canonical form of a class starts at an entry of
    least rank (canonical_coeffs), so it is a solution, inside the bound,
    whose first coefficient c ranks at or below every other.  Walking shard
    c only over the coefficients whose rank (coeff_ranks) is at or above
    c's, on the walked levels, the third-from-last entry and both completed
    entries, keeps exactly the solutions that start at c and have no entry
    ranked below it: a tuple of every class whose least entry is c, and
    none of any other class.

    Lemma (canonical leaf).  The canonical form is unique per class, and it
    starts at a least entry, so among the tuples the min-first walk meets
    the class's canonical form is met exactly once, in the shard of its
    least entry, and a leaf t is kept iff canonical_coeffs(t) == t: each
    class comes out once, with no dedupe pass.  A constant-time reject runs
    first: if rank(t[1]) > rank(t[-1]), the reflection read back from
    position 0, (t[0], t[-1], ...), is smaller than t, so t is not
    canonical.

    Lemma (pair-free space).  Let (excluded, partner) be the reducing rule,
    whose pairs {(a, b) : a or b excluded, or partner[a] = b} are closed
    under swapping, and call a tuple pair-free when no cyclically adjacent
    pair (t[j-1], t[j]), j mod n, is one of them.  A rotation keeps the
    cyclic adjacencies and a reflection reverses each of them, so the
    pair-free tuples are a union of dihedral classes.  The rank dict holds
    no excluded value, each walked entry comes from the row of its
    predecessor, which lacks the predecessor's partner, and the leaf tests
    the solved entry, both completed entries and the wrap-around pair
    (t[-1], t[0]) against partner the same way, so the walk meets exactly
    the pair-free tuples that min-first meets.  A pair-free class contains
    its canonical form, so by the canonical-leaf lemma each pair-free class
    comes out once and no other class does.  Without prune nothing is
    excluded and no value has a partner.
    """
    excluded, partner = reducing_rule(gen, n, bound, prune) if prune else ((), {})
    every = _coeff_values(gen, bound)
    if every.stop - every.start == 1:  # every entry is 0
        return ([] if n % 2 or 0 in excluded else [((0,) * n, (-1) ** (n // 2))]), 1
    scales = _position_scales(gen, n, bound)
    if scales is None:
        return [], 1
    if n == 2:
        return [((0, 0), -1)], 1
    if n == 3:
        e = first * scales[0]
        return ([((first,) * 3, -e)] if e in (1, -1) else []), 1
    spent = every.stop - every.start
    if spent > budget:
        return None, spent
    if first in excluded:
        return [], spent
    low = coeff_ranks((first,), gen)[0]
    rank = {c: r for c, r in zip(every, coeff_ranks(every, gen)) if r >= low and c not in excluded}
    vals = tuple(rank)
    w = len(vals)
    # tables[s][a]: the (value, scaled entry) pairs a walked position of
    # scale s takes after a: one row shared by every level of that scale,
    # and for each partner a that row minus partner[a]
    partner = {a: b for a, b in partner.items() if a in rank}
    tables = dict.fromkeys(scales[1 : n - 3])
    spent += len(tables) * (w + sum(w - (b in rank) for b in partner.values()))
    if spent > budget:
        return None, spent
    for s in tables:
        row = [(c, c * s) for c in vals]
        tables[s] = {a: [ce for ce in row if ce[0] != partner[a]] if a in partner else row
                     for a in vals}
    levels = [{None: [(first, first * scales[0])]}] + [tables[s] for s in scales[1 : n - 3]]
    s4, s3, sx, sy = scales[n - 4], scales[n - 3], scales[n - 2], scales[n - 1]
    # caps[d]: Kmax(n - 3 - d), the largest |p11| after position d that can
    # close (the frieze-cap lemma)
    big = max(map(abs, vals)) * max(map(abs, scales))
    kmax = [1, big]
    for _ in range(n - 4):
        kmax.append(big * kmax[-1] + kmax[-2])
    caps = kmax[:0:-1]
    found = []
    emit, get = found.append, partner.get

    def rec(depth, prefix, last, p11, p12, p21, p22):
        nonlocal spent
        walked = depth < n - 4
        if walked or -1 <= p11 <= 1:
            row = levels[depth][last]
        else:  # at most four entries (the last-position lemma)
            r = (abs(p11) + 1) // abs(s3)
            d, lo, hi = s4 * p11, p21 - r, p21 + r
            if d < 0:
                d, lo, hi = -d, -hi, -lo
            skip = get(last)
            row = [(c, c * s4) for c in range(-(-lo // d), hi // d + 1) if c in rank and c != skip]
        spent += len(row)
        if spent > budget:
            raise WorkLimitExceeded(first)
        if walked:
            cap = caps[depth]
            for c, e in row:
                q11 = e * p11 - p21
                if -cap <= q11 <= cap:
                    rec(depth + 1, prefix + (c,), c, q11, e * p12 - p22, p11, p12)
            return
        for c, e in row:  # position n-4, then n-3 solved, then completed
            q11 = e * p11 - p21
            q12 = e * p12 - p22
            q = q11 * s3
            if q:  # c3*q = p11 - 1 or p11 + 1 (a tuple: no comprehension frame per node)
                lo, hi = p11 - 1, p11 + 1
                thirds = (() if lo % q else (lo // q,)) + (() if hi % q else (hi // q,))
            else:
                thirds = vals
                spent += len(vals)
            for c3 in thirds:
                e3 = c3 * s3
                r11 = e3 * q11 - p11  # +-1; the sign is -r11
                x = r11 * q11
                y = r11 * (p12 - e3 * q12)
                if x % sx or y % sy:
                    continue
                kx, ky = x // sx, y // sy
                if (c3 in rank and kx in rank and ky in rank and get(c) != c3
                        and get(c3) != kx and get(kx) != ky and get(ky) != first):
                    t = prefix + (c, c3, kx, ky)
                    if rank[t[1]] <= rank[ky] and canonical_coeffs(t, gen) == t:
                        emit((t, -r11))

    try:
        rec(0, (), None, 1, 0, 0, 1)
    except WorkLimitExceeded:  # spent passed budget
        found = None
    rec = None  # rec's closure holds rec: free the cycle and this shard's tables now
    return found, spent


def _stripe(run, shards, count, walkers, w, limit):
    """(found, spent) of each shard i < count of stripe w in order, each run
    on what is left of limit, until the stripe's own total passes limit."""
    total = 0
    for i in range(w, count):
        if min(i % (2 * walkers), 2 * walkers - 1 - i % (2 * walkers)) == w:
            found, spent = run(shards[i], budget=limit - total)
            yield found, spent
            total += spent
            if total > limit:
                return


def _walk_stripe(send, *args):
    """A pool worker's body: its _stripe, sent back over its own pipe."""
    send.send(list(_stripe(*args)))


def _map_shards(run, shards, count, workers, limit):
    """(found, cut) for the first count shards, run(first, budget=...) giving
    a shard's (found, spent): found holds the (coeffs, sign) pairs of the
    shards before the cut in shard order, flattened, and cut is (i, limit
    minus the total before i) for the first shard i whose running total
    passes limit, else None.  With one walker the parent walks every shard
    in turn and holds one shard's result at a time.

    With W = min(workers, count, CPUs) > 1 walkers, the parent is one of
    them: it starts W - 1 worker processes, and worker w walks stripe w and
    sends back its list of shard results over its own one-way pipe, while
    the parent walks stripe 0 (_stripe serves both).  Stripe w takes one
    shard from each block of W consecutive shards, the shards i with
    owner(i) = w, where owner(i) = min(i % 2W, 2W - 1 - i % 2W): i % W in
    even blocks and W - 1 - i % W in odd ones.  Lemma (merge): shard i is
    item i // W of stripe owner(i), since every stripe lists its shards in
    block order, so reading i = 0, 1, ... back restores shard order and the
    output does not depend on W.  Lemma (balance): when shard costs do not
    grow along the shards, as in a min-first walk over z, every stripe costs
    at most the sum of its blocks' first shards, the cost of stripe 0 of the
    plain stripes shards[w::W].  Lemma (cut): each walker runs a shard on
    what its own total leaves of limit and stops once that total passes it;
    the running total up to a shard is at least its walker's own total, and
    a finished shard's charge does not depend on its budget.  So every shard
    before the cut has its exact charge, one its walker never reached lies
    after the cut, and one over its budget passes limit: every W cuts at the
    same shard with the same nodes left, wasting at most W * limit nodes.
    A worker that exits without sending or with a nonzero exit code raises
    RuntimeError, and no partial list is returned; whatever raises, every
    worker is terminated and joined first.
    """
    walkers = max(1, min(workers, count, os.cpu_count() or 1))
    stripes = [_stripe(run, shards, count, walkers, 0, limit)]
    procs = []
    try:
        if walkers > 1:
            import multiprocessing  # only when a pool is started: it costs an import

            for w in range(1, walkers):
                recv, send = multiprocessing.Pipe(duplex=False)
                proc = multiprocessing.Process(
                    target=_walk_stripe, args=(send, run, shards, count, walkers, w, limit),
                    daemon=True)
                proc.start()
                send.close()  # the worker holds the only write end: its exit reads as EOF
                procs.append((proc, recv))
            stripes[0] = iter(list(stripes[0]))  # the parent's stripe, walked meanwhile
            for proc, recv in procs:
                try:
                    stripe = recv.recv()
                except EOFError:
                    stripe = None
                proc.join()
                if stripe is None or proc.exitcode:
                    raise RuntimeError(f"a shard worker failed (exit code {proc.exitcode})")
                stripes.append(iter(stripe))
        found, total, period = [], 0, 2 * walkers
        for i in range(count):
            pairs, spent = next(stripes[min(i % period, period - 1 - i % period)])
            if total + spent > limit:
                return found, (i, limit - total)
            total += spent
            found += pairs
        return found, None
    finally:
        for proc, recv in procs:
            if proc.exitcode is None:
                proc.terminate()
            proc.join()
            recv.close()


def _collect(gen, found, canonical_only):
    """Quiddities in the element order from the kernel's (canonical form,
    sign) pairs: the classes sorted on coeff_ranks and, without
    canonical_only, each expanded to its dihedral orbit sorted on the
    tuples' own ranks (size, then the class's ranks, then the tuple's).

    Lemma (orbits).  A rotation conjugates the product, M(a_1)*P*M(a_1)**-1,
    so the sign is unchanged.  For reversal let S = diag(1, -1): S*M(a)*S =
    M(a)^T, so the reversed tuple's product is S*P^T*S = eps*Id.  Dihedral
    moves permute the entries, so they keep every |c| <= B and c >= 0, and
    each orbit stays inside the bounded space: the classes' orbits are
    disjoint and their union is every solution there.

    Lemma (period).  The rotations of t that equal t are the multiples of
    its least period p, a divisor of n, so t has exactly p distinct
    rotations, its first p, and so has its reversal: the orbit is built from
    those 2p tuples, never from all 2n.
    """
    ranks = functools.partial(coeff_ranks, gen=gen)
    found.sort(key=lambda pair: ranks(pair[0]))
    if canonical_only:
        return [Quiddity(gen, cc, eps) for cc, eps in found]
    out = []
    for cc, eps in found:
        n = len(cc)
        p = next(p for p in range(1, n + 1) if n % p == 0 and cc[p:] + cc[:p] == cc)
        orbit = {u[i:] + u[:i] for u in (cc, cc[::-1]) for i in range(p)}
        out += [Quiddity(gen, t, eps) for t in sorted(orbit, key=ranks)]
    return out


def enumerate_quiddities(
    gen: GeneratorSpec,
    size: int,
    bound: int,
    *,
    canonical_only: bool = False,
    work_limit: int = DEFAULT_WORK_LIMIT,
    workers: int = 1,
    firsts=None,
    prune=None,
):
    """Every verified tuple of the given size over gen with |k_j| <= bound
    (0 <= k_j <= bound for nonneg generators), or with canonical_only one
    canonical form per dihedral class, deterministically sorted.  prune is
    None, PARITY_ANY or PARITY_EVEN; with a parity, the tuples with a
    cyclically adjacent pair of reducing_rule(gen, size, bound, prune), all
    split by find_decomposition with that parity, are left out, whole
    classes at a time (the pair-free lemma of _run_shard).

    Sharded on the first coefficient (all values, or the distinct ones in
    the iterable firsts, in its order).  Shard c walks min-first (see
    _run_shard) and holds exactly the canonical forms of the classes whose
    least entry is c, each once, so firsts selects the classes whose least
    entry is in it, in both modes; plain output is the union of those
    classes' orbits (see _collect).  Results are merged and re-sorted, so
    worker count never changes the output.

    A shard that walks pays v, its number of values, before it builds
    anything, and one that walks nothing pays 1 (_run_shard), so a sweep of
    S shards whose S least charges pass work_limit is refused up front, with
    nothing finished, and firsts is read no further than one shard past
    those the limit pays for.  Otherwise WorkLimitExceeded names the shard
    where work_limit cuts the sweep (_map_shards) and the nodes left.
    """
    if size < 2:
        raise ValueError("enumeration needs size >= 2")
    if bound < 0:
        raise ValueError("coefficient bound must be >= 0")
    if prune not in (None, PARITY_ANY, PARITY_EVEN):
        raise ValueError(f"unknown prune parity {prune!r}")
    vals = _coeff_values(gen, bound)
    v = vals.stop - vals.start
    if v > 1 and size > _MAX_WALK_SIZE:
        raise WorkLimitExceeded(f"size {size} is deeper than the walker recurses: sizes above "
                                f"{_MAX_WALK_SIZE} with two or more values are refused whatever the limit")
    least = v if size >= 4 and v > 1 and _position_scales(gen, size, bound) is not None else 1
    if firsts is None:
        shards, count = vals, 1 if size == 2 else v
    else:
        shards = [c for _, c in zip(range(work_limit // least + 1), firsts)]
        count = len(shards)
        if size == 2 or len(set(shards)) != count or not all(c in vals for c in shards):
            raise ValueError("first coefficients must be distinct and within the bound (size >= 3)")
    if count * least > work_limit:
        raise WorkLimitExceeded(f"each shard needs {least} or more nodes, and the limit "
                                f"({work_limit}) pays for at most {work_limit // least}", state=((), []))
    run = functools.partial(_run_shard, gen, size, bound, prune=prune)
    found, cut = _map_shards(run, shards, count, workers, work_limit)
    if cut is not None:
        i, left = cut
        message = f"shard {shards[i]} needs more than the {left} nodes left (limit {work_limit})"
        raise WorkLimitExceeded(message, state=(tuple(shards[:i]), found))
    return _collect(gen, found, canonical_only)


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


def _scan_representative(rep, gen, parity, scales):
    """First split rep = left (+) right of one fixed representative, as
    (left, right, sign of right), or None.

    Runs on the kernel's integers: rep is scaled by scales, the
    _position_scales of its size and largest |c|, the same for every
    dihedral image of a tuple, so find_decomposition derives them once; the
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
    scales = _position_scales(q.gen, q.size, max(map(abs, q.coeffs)))
    if scales is None:
        return None
    for rotation in range(q.size):
        for reflected in (False, True):
            base = q.coeffs[::-1] if reflected else q.coeffs
            rep = base[rotation:] + base[:rotation]
            hit = _scan_representative(rep, q.gen, parity, scales)
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


def reducing_rule(gen: GeneratorSpec, size: int, bound: int, parity: str):
    """(excluded, partner): the rule whose cyclic adjacencies make a verified
    size-`size` tuple over gen with |c| <= bound reducible.  Its pairs are
    {(a, b) : a or b excluded, or partner[a] = b}, closed under swapping,
    and find_decomposition(q, parity) finds a witness for every such tuple.

    Lemma (pairs).  Rotate the pair (c1, c2) to the last two positions m =
    n - 2 and n - 1.  _scan_representative meets the window rep[m:] of
    length L = 2 at right size l = 4; m is even whenever n is, so quadratic
    generators and parity even test it too.  With a = c1*s_m and b =
    c2*s_(m+1) the scaled entries, the window's continuant is K(a, b) = ab -
    1, which is +-1 exactly when c1*c2*sigma is 0 or 2, where sigma =
    s_m*s_(m+1) is the pair's scale product (_position_scales): p**2 for
    <p>, D = p*scale**2 for a quadratic ring, M**2 for <X>, where only
    c1*c2 = 0 qualifies.  _complete then gives the boundary values -eps*a
    and -eps*b, which the scales of their own positions divide back to
    -eps*c1 and -eps*c2, with |c| <= bound < M/2 below the limit of <X>,
    and the left summand verifies by the splice lemma.  Both summands need
    size >= 3 (size >= 4 for parity even), so this needs n >= 5 for parity
    any and an even n >= 6 for parity even (the scan skips windows that
    start at an odd position otherwise).  So 0 is excluded, and c1*c2*sigma
    = 2 pairs c1 = q/sigma with c2 = 2/q for each q in +-1, +-2 that sigma
    divides: at most four partners, none keyed by 0 (sigma = 0 only for the
    zero generator, which has none).  The partner of 2/q is q/sigma, by the
    same rule with q' = 2*sigma/q, so the pairs are closed under swapping.

    Lemma (single entries).  The window of length L = 1 at m = n - 1 (right
    size 3, parity any) is one entry e = c*s with K(e) = e, and fires when e
    = +-1, which happens only over <+-1>; the completion gives c at both
    ends.  A tuple holding c is then reducible whatever its neighbours, so
    the rule excludes c.  This needs n >= 4.

    +nonneg generators get nothing: the completion can leave the left
    summand a negative boundary entry, which the scan refuses.  Sizes with
    no solutions (odd n over a quadratic ring or <X>) get nothing either.
    """
    if parity not in (PARITY_ANY, PARITY_EVEN):
        raise ValueError(f"unknown parity {parity!r}")
    scales = _position_scales(gen, size, bound)
    excluded, partner = set(), {}
    if gen.nonneg or scales is None:
        return frozenset(), partner
    if size >= 5 and parity == PARITY_ANY or size >= 6 and size % 2 == 0:
        excluded.add(0)
        sigma = scales[-2] * scales[-1]
        for q in (1, -1, 2, -2):
            if sigma and q % sigma == 0:
                partner[q // sigma] = 2 // q
    if size >= 4 and parity == PARITY_ANY and gen.ring[0] == "int":
        excluded.update(c for c in (1, -1) if c * scales[-1] in (1, -1))
    return frozenset(excluded), partner


def classify_irreducibles(
    gen: GeneratorSpec,
    max_size: int,
    bound: int,
    min_size: int = 3,
    work_limit: int = DEFAULT_WORK_LIMIT,
    workers: int = 1,
):
    """Canonical irreducible tuples for every size in [min_size, max_size].

    Each size walks with prune=PARITY_ANY, so only the classes with no
    cyclically adjacent pair of reducing_rule, each of which
    find_decomposition splits (its lemmas): the walk leaves out reducible
    classes only, whole classes at a time (the pair-free lemma of
    _run_shard); every class walked is then decided by is_irreducible.
    Each size is charged against the whole work limit
    (enumerate_quiddities).
    """
    out = []
    for n in range(min_size, max_size + 1):  # sizes ascend and each comes sorted
        found = enumerate_quiddities(
            gen, n, bound, canonical_only=True, work_limit=work_limit, workers=workers,
            prune=PARITY_ANY,
        )
        out += [q for q in found if is_irreducible(q)]
    return out
