"""Convex polygon triangulations, admissible integer labelings, and the
vertex-sum tuples they induce.

A triangulation of the convex polygon on vertices 0..n-1 has n-2 triangles
whose adjacency across shared diagonals forms a tree.  A labeling assigns an
integer to each triangle; it is admissible when the triangles labeled
outside {1, -1} split into disjoint dual-adjacent pairs labeled a and -a
(zero labels pair with an adjacent zero).  Summing labels around each vertex
and walking the polygon yields an integer tuple which always verifies; that
guarantee is re-checked on every call and a failure is escalated as a
counterexample.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Quiddity, SizeLimitError, TheoremViolation, dihedral_orbit
from .rings import GeneratorSpec

TRIANGULATION_SIZE_LIMIT = 12
LABEL_SEARCH_SIZE_LIMIT = 10
LABEL_SEARCH_BOUND_LIMIT = 4

_Z = GeneratorSpec("int", 1)


class NotAdmissibleError(ValueError):
    """The labeling does not satisfy the pairing rule."""


@dataclass(frozen=True)
class Triangulation:
    """A polygon triangulation as a fixed-order tuple of vertex triples."""

    size: int
    triangles: tuple[tuple[int, int, int], ...]

    def dual_edges(self) -> tuple[tuple[int, int], ...]:
        """Pairs of triangle indices sharing a diagonal; always a tree."""
        owners: dict[tuple[int, int], list[int]] = {}
        for idx, (a, b, c) in enumerate(self.triangles):
            for e in ((a, b), (b, c), (a, c)):
                owners.setdefault(e, []).append(idx)
        return tuple(
            sorted((ts[0], ts[1]) for ts in owners.values() if len(ts) == 2)
        )

    def vertex_incidence(self) -> tuple[tuple[int, ...], ...]:
        inc: list[list[int]] = [[] for _ in range(self.size)]
        for idx, (a, b, c) in enumerate(self.triangles):
            for v in (a, b, c):
                inc[v].append(idx)
        return tuple(tuple(x) for x in inc)


def enumerate_triangulations(size: int) -> tuple[Triangulation, ...]:
    """All triangulations of the convex polygon on 0..size-1, in a fixed
    recursive order; there are Catalan(size - 2) of them."""
    if not 3 <= size <= TRIANGULATION_SIZE_LIMIT:
        raise SizeLimitError(
            f"triangulation enumeration supports 3 <= n <= {TRIANGULATION_SIZE_LIMIT}"
        )

    def rec(lo, hi):
        if hi - lo < 2:
            return [()]
        out = []
        for mid in range(lo + 1, hi):
            for left in rec(lo, mid):
                for right in rec(mid, hi):
                    out.append(left + ((lo, mid, hi),) + right)
        return out

    return tuple(Triangulation(size, tris) for tris in rec(0, size - 1))


@dataclass(frozen=True)
class Labeling:
    """One integer label per triangle of a triangulation."""

    triangulation: Triangulation
    labels: tuple[int, ...]

    def __post_init__(self):
        if len(self.labels) != len(self.triangulation.triangles):
            raise ValueError("one label per triangle")


def is_admissible(labeling: Labeling) -> bool:
    """Can the non-unit triangles split into dual-adjacent (a, -a) pairs?

    The pairing lives on an induced subforest of the dual tree, where a leaf
    has exactly one possible partner; peeling leaves first therefore decides
    existence exactly, no general matching needed.  A zero label must pair
    with an adjacent zero (0 = -0).
    """
    labels = labeling.labels
    need = {i for i, lab in enumerate(labels) if lab not in (1, -1)}
    if not need:
        return True
    if len(need) % 2:
        return False
    adj: dict[int, set[int]] = {i: set() for i in need}
    for u, v in labeling.triangulation.dual_edges():
        if u in need and v in need:
            adj[u].add(v)
            adj[v].add(u)
    while need:
        leaf = None
        for i in sorted(need):
            if len(adj[i]) <= 1:
                leaf = i
                break
        if not adj[leaf]:
            return False
        (partner,) = adj[leaf]
        if labels[leaf] != -labels[partner]:
            return False
        for x in (leaf, partner):
            need.remove(x)
            for y in adj.pop(x):
                adj[y].discard(x)
    return True


def vertex_sums(labeling: Labeling) -> tuple[int, ...]:
    """Sum of incident triangle labels at each polygon vertex, in order."""
    sums = [0] * labeling.triangulation.size
    for (a, b, c), lab in zip(labeling.triangulation.triangles, labeling.labels):
        sums[a] += lab
        sums[b] += lab
        sums[c] += lab
    return tuple(sums)


def quiddity_of_labeling(labeling: Labeling) -> Quiddity:
    """Canonical verified integer tuple of the vertex sums.

    Reading direction and starting vertex wash out in the canonical form.
    Raises NotAdmissibleError when the pairing rule fails and
    TheoremViolation if the sums ever fail to verify (never expected).
    """
    if not is_admissible(labeling):
        raise NotAdmissibleError("labels do not pair admissibly")
    sums = vertex_sums(labeling)
    q = Quiddity.verified(_Z, sums)
    if q is None:
        raise TheoremViolation(f"admissible labeling with non-verifying sums {sums}")
    return q.canonical()


def _label_dfs(tri, values, completes_at, entry_set, orbit):
    count = len(tri.triangles)
    sums = [0] * tri.size
    labels: list[int] = []

    def rec(depth):
        if depth == count:
            lab = Labeling(tri, tuple(labels))
            if tuple(sums) in orbit and is_admissible(lab):
                return lab
            return None
        a, b, c = tri.triangles[depth]
        for val in values:
            labels.append(val)
            sums[a] += val
            sums[b] += val
            sums[c] += val
            if all(sums[v] in entry_set for v in completes_at[depth]):
                hit = rec(depth + 1)
                if hit is not None:
                    return hit
            labels.pop()
            sums[a] -= val
            sums[b] -= val
            sums[c] -= val
        return None

    return rec(0)


def find_labeling(q: Quiddity, label_bound: int):
    """A triangulation plus admissible labeling, labels in [-L, L], whose
    vertex sums match q up to rotation/reflection; None within bounds.

    Absence is bound-scoped, never a refutation.  Partial label assignments
    are pruned as soon as a vertex with all incident triangles labeled sums
    to a value outside q's entry set.
    """
    kind, s, _ = q.gen.ring
    if kind != "int":
        raise ValueError("labeling witnesses are defined for integer tuples")
    if label_bound < 0:
        raise ValueError("label bound must be >= 0")
    n = q.size
    if not 3 <= n <= LABEL_SEARCH_SIZE_LIMIT or label_bound > LABEL_SEARCH_BOUND_LIMIT:
        raise SizeLimitError(
            f"labeling search supports n <= {LABEL_SEARCH_SIZE_LIMIT} "
            f"and label bound <= {LABEL_SEARCH_BOUND_LIMIT}"
        )
    target = tuple(c * s for c in q.coeffs)
    orbit = frozenset(dihedral_orbit(target))
    entry_set = set(target)
    values = list(range(-label_bound, label_bound + 1))
    for tri in enumerate_triangulations(n):
        incidence = tri.vertex_incidence()
        completes_at: list[list[int]] = [[] for _ in tri.triangles]
        for v, tids in enumerate(incidence):
            completes_at[max(tids)].append(v)
        hit = _label_dfs(tri, values, completes_at, entry_set, orbit)
        if hit is not None:
            return hit
    return None


def render_labeling(labeling: Labeling) -> str:
    """Human-readable sketch: triangles with labels, dual tree, vertex sums."""
    tri = labeling.triangulation
    sums = vertex_sums(labeling)
    lines = [f"polygon on {tri.size} vertices (0..{tri.size - 1})"]
    for idx, (t, lab) in enumerate(zip(tri.triangles, labeling.labels)):
        lines.append(f"  triangle {idx} {t}: label {lab}")
    edges = ", ".join(f"{u}-{v}" for u, v in tri.dual_edges()) or "none"
    lines.append(f"  dual edges: {edges}")
    lines.append("  vertex sums: " + " ".join(f"v{v}={s}" for v, s in enumerate(sums)))
    lines.append(f"  tuple: {tuple(sums)}")
    return "\n".join(lines)
