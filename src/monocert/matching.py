"""Monochromatic matchings in t-edge-colored graphs.

The target vector (n_1 >= ... >= n_t) has matching Ramsey number
R = n_1 + 1 + sum_i (n_i - 1); any graph with chi >= R carries a
monochromatic matching of n_i edges in some color i. Two routes look for
one: the direct route runs maximum matching per color class, and the
reduction route contracts each class of a proper vertex coloring to a
single node, merging classes with no edge between them, colors the
resulting complete graph by picking the smallest genuine color on each
class pair, finds the matching there, and lifts it back through recorded
provenance edges.

Neither route needs chi. Either the k' merged classes reach R, and
Cockayne-Lorimer on K_k' forces a matching that lifts back to the host, or
they are a proper coloring with fewer than R colors, which shows that
nothing is guaranteed. ``miss_witness`` hands out that second side.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations

from .graphs import (
    EdgeColoring,
    Graph,
    InternalInconsistencyError,
    canonical_edge,
    check_partition,
    complete_graph,
    iter_bits,
    json_classes,
    json_edges,
    json_fields,
    json_int,
    json_ints,
    json_list,
)


@dataclass(frozen=True)
class MatchingTargets:
    """Matching sizes per color, held in non-increasing order."""

    targets: tuple[int, ...]

    def __post_init__(self):
        if not self.targets:
            raise ValueError("need at least one target")
        if any(x < 1 for x in self.targets):
            raise ValueError("targets must be at least 1")
        if list(self.targets) != sorted(self.targets, reverse=True):
            raise ValueError("targets must be non-increasing; use MatchingTargets.of")

    @staticmethod
    def of(values) -> "MatchingTargets":
        return MatchingTargets(tuple(sorted(values, reverse=True)))

    @property
    def t(self) -> int:
        return len(self.targets)


def ramsey_matching_number(targets: MatchingTargets) -> int:
    """n_1 + 1 + sum(n_i - 1) over all targets."""
    return targets.targets[0] + 1 + sum(x - 1 for x in targets.targets)


@dataclass(frozen=True)
class MatchingCertificate:
    color: int
    target: int
    edges: tuple[tuple[int, int], ...]

    def to_json(self) -> dict:
        return {
            "color": self.color,
            "target": self.target,
            "edges": [list(e) for e in self.edges],
        }

    @staticmethod
    def from_json(data) -> "MatchingCertificate":
        """Inverse of to_json; ValueError when data has another shape."""
        color, target, edges = json_fields(data, "color", "target", "edges")
        return MatchingCertificate(json_int(color), json_int(target), json_edges(edges))


# ---------------------------------------------------------------------------
# maximum matching (blossom contraction, O(V^3))

def maximum_matching(g: Graph) -> list[tuple[int, int]]:
    """Maximum-cardinality matching as a sorted list of canonical edges.

    Classic blossom algorithm: repeatedly BFS for an augmenting path from
    each free vertex, contracting odd cycles onto their base as they are
    found. Deterministic: vertices and neighbors are scanned in index order.
    """
    n = g.n
    nbr = [list(iter_bits(row)) for row in g.adj]
    match = [-1] * n
    for u in range(n):  # greedy warm start
        if match[u] < 0:
            for v in nbr[u]:
                if match[v] < 0:
                    match[u], match[v] = v, u
                    break
    p = [-1] * n
    base = list(range(n))

    def lca(a: int, b: int) -> int:
        used = [False] * n
        x = a
        while True:
            x = base[x]
            used[x] = True
            if match[x] < 0:
                break
            x = p[match[x]]
        y = b
        while True:
            y = base[y]
            if used[y]:
                return y
            y = p[match[y]]

    def mark_path(v: int, b_: int, child: int, blossom: list[bool]) -> None:
        while base[v] != b_:
            blossom[base[v]] = True
            blossom[base[match[v]]] = True
            p[v] = child
            child = match[v]
            v = p[match[v]]

    def find_augmenting(root: int) -> int:
        for i in range(n):
            p[i] = -1
            base[i] = i
        used = [False] * n
        used[root] = True
        q = deque([root])
        while q:
            v = q.popleft()
            for to in nbr[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] >= 0 and p[match[to]] >= 0):
                    cur = lca(v, to)
                    blossom = [False] * n
                    mark_path(v, cur, to, blossom)
                    mark_path(to, cur, v, blossom)
                    for x in range(n):
                        if blossom[base[x]]:
                            base[x] = cur
                            if not used[x]:
                                used[x] = True
                                q.append(x)
                elif p[to] < 0:
                    p[to] = v
                    if match[to] < 0:
                        return to
                    used[match[to]] = True
                    q.append(match[to])
        return -1

    for v in range(n):
        if match[v] < 0:
            end = find_augmenting(v)
            while end >= 0:  # flip the found path back to the root
                pv = p[end]
                ppv = match[pv]
                match[end] = pv
                match[pv] = end
                end = ppv
    return sorted(canonical_edge(u, match[u]) for u in range(n) if u < match[u])


def find_mono_matching(
    ec: EdgeColoring, targets: MatchingTargets
) -> MatchingCertificate | None:
    """First color (ascending) whose class holds its target matching.

    The certificate's edge list is truncated to exactly the target size.
    """
    if ec.t != targets.t:
        raise ValueError(f"coloring has t={ec.t} but targets have t={targets.t}")
    for color, want in enumerate(targets.targets, start=1):
        mm = maximum_matching(ec.classes[color - 1])
        if len(mm) >= want:
            return MatchingCertificate(color, want, tuple(mm[:want]))
    return None


# ---------------------------------------------------------------------------
# reduction route

@dataclass(frozen=True)
class ReducedInstance:
    """Complete graph on merged color classes with provenance per pair.

    classes are sorted vertex tuples; pairs maps each class pair (i, j),
    i < j, to (color, edge): the smallest genuine color appearing on a
    crossing edge, and the lexicographically smallest crossing edge of that
    color as provenance.
    """

    t: int
    classes: tuple[tuple[int, ...], ...]
    pairs: dict[tuple[int, int], tuple[int, tuple[int, int]]]

    @property
    def k(self) -> int:
        return len(self.classes)

    def to_json(self) -> dict:
        return {
            "t": self.t,
            "classes": [list(c) for c in self.classes],
            "pairs": [
                {"i": i, "j": j, "color": color, "provenance": list(edge)}
                for (i, j), (color, edge) in sorted(self.pairs.items())
            ],
        }

    @staticmethod
    def from_json(data) -> "ReducedInstance":
        """Inverse of to_json; ValueError when data has another shape."""
        t, classes, pairs = json_fields(data, "t", "classes", "pairs")
        classes = json_classes(classes)
        out = {}
        for pair in json_list(pairs):
            i, j, color, prov = json_fields(pair, "i", "j", "color", "provenance")
            i, j = json_int(i), json_int(j)
            if not i < j < len(classes):
                raise ValueError(f"pair ({i},{j}) is not two of the {len(classes)} classes")
            if (i, j) in out:
                raise ValueError(f"pair ({i},{j}) appears twice")
            out[(i, j)] = (json_int(color), json_ints(prov, 2))
        return ReducedInstance(json_int(t), classes, out)


def kiraly_reduce(ec: EdgeColoring, coloring) -> ReducedInstance:
    """Contract a properly colored host onto the classes of coloring.

    Classes are merged first fit: each class of coloring, in order, joins
    the first merged class with no edge to it, or opens a new one. So every
    two merged classes carry at least one crossing edge. Each pair is then
    colored by its smallest crossing genuine color, with the smallest such
    edge recorded as provenance.
    """
    g = ec.graph
    if problems := check_partition(g, coloring):
        raise ValueError(f"vertex coloring is not proper: {problems[0]}")
    merged: list[list] = []  # per merged class: [members, their mask, OR of their rows]
    for cls in coloring:
        mask = sum(1 << v for v in cls)
        near = 0
        for v in cls:
            near |= g.adj[v]
        for m in merged:
            if not m[2] & mask:
                m[0] += cls
                m[1] |= mask
                m[2] |= near
                break
        else:
            merged.append([list(cls), mask, near])
    masks = [m[1] for m in merged]

    pairs: dict[tuple[int, int], tuple[int, tuple[int, int]]] = {}
    for i, j in combinations(range(len(masks)), 2):
        for color, cls in enumerate(ec.classes, start=1):
            edge = _first_crossing_edge(cls, masks[i], masks[j])
            if edge is not None:
                pairs[(i, j)] = (color, edge)
                break
        else:
            raise InternalInconsistencyError(
                f"classes {i} and {j} survived merging without a crossing edge"
            )
    return ReducedInstance(ec.t, tuple(tuple(sorted(m[0])) for m in merged), pairs)


def _first_crossing_edge(g: Graph, a: int, b: int) -> tuple[int, int] | None:
    """Smallest canonical edge of g with one end in mask a and the other in mask b.

    The first vertex (ascending) with a neighbor across is the smaller end
    of that edge: a smaller neighbor across would have been found first.
    """
    for u in iter_bits(a | b):
        across = g.adj[u] & (b if (a >> u) & 1 else a)
        if across:
            return canonical_edge(u, (across & -across).bit_length() - 1)
    return None


def lift_matching(
    ri: ReducedInstance, pairs, color: int
) -> list[tuple[int, int]]:
    """Map disjoint class pairs of one color back to their provenance edges."""
    seen: set[int] = set()
    out = []
    for a, b in pairs:
        i, j = (a, b) if a < b else (b, a)
        if (i, j) not in ri.pairs:
            raise ValueError(f"({i},{j}) is not a class pair of the instance")
        if i in seen or j in seen:
            raise ValueError(f"class {i if i in seen else j} used twice")
        got, edge = ri.pairs[(i, j)]
        if got != color:
            raise ValueError(f"pair ({i},{j}) has color {got}, not {color}")
        seen.add(i)
        seen.add(j)
        out.append(edge)
    assert len({v for e in out for v in e}) == 2 * len(out)
    return sorted(out)


def find_mono_matching_kiraly(
    ri: ReducedInstance, targets: MatchingTargets
) -> MatchingCertificate | None:
    """Reduction route: match on the class graph of ri, then lift."""
    colors = {pair: color for pair, (color, _) in ri.pairs.items()}
    cert = find_mono_matching(EdgeColoring.of(complete_graph(ri.k), colors, ri.t), targets)
    if cert is None:
        return None
    return MatchingCertificate(
        cert.color, cert.target, tuple(lift_matching(ri, cert.edges, cert.color))
    )


def miss_witness(ri: ReducedInstance, targets: MatchingTargets) -> tuple[tuple[int, ...], ...]:
    """The merged classes of ri, as the witness that no target is forced.

    Call it only after a route found no matching. The classes are a proper
    coloring of the host; with k' >= R of them, Cockayne-Lorimer on K_k'
    would have forced a matching that lifts to the host, so the miss itself
    is wrong and InternalInconsistencyError is raised instead.
    """
    need = ramsey_matching_number(targets)
    if ri.k >= need:
        raise InternalInconsistencyError(
            f"no color reached its matching target although the {ri.k} merged "
            f"classes reach the matching Ramsey number {need}"
        )
    return ri.classes
