"""Independent re-checkers for emitted certificates.

Each checker returns a list of problem strings (empty means the certificate
holds) and avoids the code paths that built the object: tree shape and
the largest monochromatic component are found with union-find rather than
BFS, the matching Ramsey number from its formula, matchings by direct endpoint
bookkeeping, a hunt's star refutations by counting degrees, and every
vertex coloring (a chi witness, a tree's derived classes, a matching miss,
reduced classes) by ``graphs.check_partition``, the package's one
proper-partition check. ``hunt_unchecked`` alone decides which claims of a
hunt report, parsed whole by ``HuntReport.from_json``, go unchecked.
"""

from __future__ import annotations

from collections import Counter

from .graphs import (EdgeColoring, Graph, check_partition, json_classes, json_fields, json_int,
                     parse_graph)
from .matching import (
    MatchingCertificate,
    MatchingTargets,
    ReducedInstance,
    ramsey_matching_number,
)
from .tree_cert import TreeCertificate


def _root(parent, x):
    """Root of x in a union-find forest, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _check_edge(ec: EdgeColoring, u: int, v: int, color: int, problems: list, name: str) -> bool:
    """Whether (u, v) is an edge of ec's graph; a problem is added when it
    is not, or when its color is not color."""
    if not ec.graph.has_edge(u, v):
        problems.append(f"{name} ({u},{v}) is not in the graph")
        return False
    if (c := ec.color_of(u, v)) != color:
        problems.append(f"{name} ({u},{v}) has color {c}, not {color}")
    return True


def check_tree_certificate(
    ec: EdgeColoring, cert: TreeCertificate, derived_classes
) -> list[str]:
    """The tree is a monochromatic tree of ec, and derived_classes, a
    proper coloring of the host with no more classes than the tree has
    vertices, shows that the tree spans at least chi vertices. No
    connectivity test is needed: with no other problem, each of the |V|-1
    edges inside V joined two union-find roots, which leaves one."""
    g = ec.graph
    problems = []
    verts = set(cert.vertices)
    if not verts:
        problems.append("certificate has no vertices")
        return problems
    if not 1 <= cert.color <= ec.t:
        problems.append(f"color {cert.color} is outside 1..{ec.t}")
    problems += [
        f"vertex {v} is outside 0..{g.n - 1}" for v in sorted(verts) if not 0 <= v < g.n
    ]
    if len(cert.vertices) != len(verts):
        problems.append("vertex list has duplicates")
    if len(cert.edges) != len(verts) - 1:
        problems.append(
            f"{len(cert.edges)} edges for {len(verts)} vertices; a tree needs |V|-1"
        )
    parent = {v: v for v in verts}
    for u, v in cert.edges:
        if u not in verts or v not in verts:
            problems.append(f"edge ({u},{v}) leaves the vertex set")
            continue
        if not _check_edge(ec, u, v, cert.color, problems, "edge"):
            continue
        ru, rv = _root(parent, u), _root(parent, v)
        if ru == rv:
            problems.append(f"edge ({u},{v}) closes a cycle")
        else:
            parent[ru] = rv
    problems += [f"derived coloring: {p}" for p in check_partition(g, derived_classes)]
    if len(derived_classes) > len(verts):
        problems.append(
            f"derived coloring has {len(derived_classes)} classes, more than "
            f"the {len(verts)} vertices of the tree"
        )
    return problems


def check_dual_degree(ec: EdgeColoring, max_degree: int) -> list[str]:
    """A stated dual degree is the order of a largest monochromatic
    component of ec, found by union-find over each color's edges."""
    largest = 0
    for cls in ec.classes:
        parent = list(range(cls.n))
        for u, v in cls.edges():
            ru, rv = _root(parent, u), _root(parent, v)
            if ru != rv:
                parent[ru] = rv
        sizes = Counter(_root(parent, v) for v in range(cls.n))
        largest = max([largest, *sizes.values()])
    if max_degree != largest:
        return [f"dual max_degree {max_degree} is not {largest}, the order of a "
                "largest monochromatic component"]
    return []


def check_ramsey_value(data: dict, key: str, targets: MatchingTargets) -> list[str]:
    """A matching Ramsey number that data states under key, if it states
    one, is n_1 + 1 + sum(n_i - 1) of targets."""
    if key not in data:
        return []
    value, need = json_int(data[key]), ramsey_matching_number(targets)
    if value != need:
        return [f"R = {value} is stated, but targets {list(targets.targets)} give R = {need}"]
    return []


def hunt_unchecked(report) -> list[str]:
    """The claims of a parsed hunt report that verify does not re-derive: the
    chi bounds of each candidate but a counterexample, whose chi is computed
    again, and each exhausted candidate's refutation unless degrees prove it.
    They do when the pattern is a star K_{1,k} (a vertex of degree k = n - 1)
    and a host vertex has degree above t(k - 1), or every host vertex has
    degree t(k - 1) and their number times k - 1 is odd: each color meets a
    vertex at most k - 1 times, and each class would be (k - 1)-regular."""
    k = report.pattern.graph.n - 1
    star = k in map(int.bit_count, report.pattern.graph.adj)
    cap = report.t * (k - 1)

    def refuted(graph6: str) -> bool:
        deg = [row.bit_count() for row in parse_graph(graph6, "g6").adj]
        return max(deg, default=0) > cap or (
            all(d == cap for d in deg) and len(deg) * (k - 1) % 2 == 1)

    unchecked = []
    for c in report.candidates:
        if not c.counterexample:
            unchecked.append(f"chi of {c.graph6}")
        if c.exhausted and not (star and refuted(c.graph6)):
            unchecked.append(f"no avoiding coloring of {c.graph6}")
    return unchecked


def check_matching_certificate(
    ec: EdgeColoring, cert: MatchingCertificate, targets: MatchingTargets
) -> list[str]:
    """A hit holds up when its color is one of targets' and its edges are a
    matching of that color's target size; the certificate's own target must
    be that size, not a smaller one."""
    problems = []
    if not 1 <= cert.color <= targets.t:
        problems.append(f"color {cert.color} is outside 1..{targets.t}")
    elif cert.target != targets.targets[cert.color - 1]:
        problems.append(
            f"target {cert.target} is not color {cert.color}'s target "
            f"{targets.targets[cert.color - 1]}"
        )
    if len(cert.edges) < cert.target:
        problems.append(f"{len(cert.edges)} edges, below target {cert.target}")
    seen: set[int] = set()
    for u, v in cert.edges:
        if not _check_edge(ec, u, v, cert.color, problems, "edge"):
            continue
        if u in seen or v in seen:
            problems.append(f"edge ({u},{v}) shares an endpoint with another")
        seen.add(u)
        seen.add(v)
    return problems


def check_matching_miss(g: Graph, classes, targets: MatchingTargets) -> list[str]:
    """A miss holds up when its coloring is proper with fewer than R colors:
    then chi < R, and the theorem promises no matching."""
    problems = check_partition(g, classes)
    need = ramsey_matching_number(targets)
    if len(classes) >= need:
        problems.append(
            f"coloring has {len(classes)} classes, not fewer than R = {need}; "
            "a matching is guaranteed"
        )
    return problems


def check_chi_witness(g: Graph, data: dict) -> list[str]:
    """Check a chi-result JSON: classes are a proper coloring with upper
    classes, and a lower bound of at most 2 holds (1 needs a vertex, 2 an
    edge, and no bound exceeds n). A larger lower bound is not checked.
    ValueError when data has another shape."""
    lower, upper, exact, classes = json_fields(data, "lower", "upper", "exact", "classes")
    lower, upper, classes = json_int(lower), json_int(upper), json_classes(classes)
    if type(exact) is not bool:
        raise ValueError(f"expected true or false for exact, got {exact!r:.60}")
    problems = check_partition(g, classes)
    if len(classes) != upper:
        problems.append(f"witness uses {len(classes)} classes but upper is {upper}")
    if lower > upper:
        problems.append("lower bound exceeds upper bound")
    if exact and lower != upper:
        problems.append("exact result with lower != upper")
    if lower > g.n:
        problems.append(f"lower bound {lower} exceeds the {g.n} vertices")
    elif lower >= 2 and not any(g.adj):
        problems.append(f"lower bound {lower} on a graph with no edge")
    return problems


def check_reduced_instance(ec: EdgeColoring, ri: ReducedInstance) -> list[str]:
    g = ec.graph
    problems = check_partition(g, ri.classes)
    if ri.t != ec.t:
        problems.append(f"instance has t = {ri.t}, but the coloring has t = {ec.t}")
    class_of = {v: i for i, cls in enumerate(ri.classes) for v in cls}
    missing = ri.k * (ri.k - 1) // 2 - len(ri.pairs)
    if missing:
        problems.append(f"{missing} class pairs have no color")
    for (i, j), (color, (u, v)) in ri.pairs.items():
        if not _check_edge(ec, u, v, color, problems, "provenance"):
            continue
        if {class_of.get(u), class_of.get(v)} != {i, j}:
            problems.append(f"provenance ({u},{v}) does not join classes {i} and {j}")
    return problems
