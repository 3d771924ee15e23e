"""Independent re-checkers for emitted certificates.

Each checker returns a list of problem strings (empty means the certificate
holds) and avoids the code paths that built the object: tree shape is
checked with union-find rather than BFS, matchings by direct endpoint
bookkeeping, and chromatic witnesses by a per-edge scan.
"""

from __future__ import annotations

from .graphs import EdgeColoring, Graph, json_int, json_ints, json_list
from .matching import MatchingCertificate, ReducedInstance
from .tree_cert import TreeCertificate


def check_tree_certificate(ec: EdgeColoring, cert: TreeCertificate) -> list[str]:
    g = ec.graph
    problems = []
    verts = set(cert.vertices)
    if not verts:
        problems.append("certificate has no vertices")
        return problems
    if len(cert.vertices) != len(verts):
        problems.append("vertex list has duplicates")
    if len(cert.edges) != len(verts) - 1:
        problems.append(
            f"{len(cert.edges)} edges for {len(verts)} vertices; a tree needs |V|-1"
        )
    parent = {v: v for v in verts}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in cert.edges:
        if u not in verts or v not in verts:
            problems.append(f"edge ({u},{v}) leaves the vertex set")
            continue
        if not g.has_edge(u, v):
            problems.append(f"({u},{v}) is not an edge of the graph")
            continue
        if ec.color_of(u, v) != cert.color:
            problems.append(
                f"edge ({u},{v}) has color {ec.color_of(u, v)}, not {cert.color}"
            )
        ru, rv = find(u), find(v)
        if ru == rv:
            problems.append(f"edge ({u},{v}) closes a cycle")
        else:
            parent[ru] = rv
    if not problems and len({find(v) for v in verts}) != 1:
        problems.append("edges do not connect the vertex set")
    if len(verts) < cert.chi_lower_used:
        problems.append(
            f"tree spans {len(verts)} vertices, below the claimed bound "
            f"{cert.chi_lower_used}"
        )
    return problems


def check_matching_certificate(ec: EdgeColoring, cert: MatchingCertificate) -> list[str]:
    g = ec.graph
    problems = []
    if cert.target < 1:
        problems.append("target must be at least 1")
    if len(cert.edges) < cert.target:
        problems.append(f"{len(cert.edges)} edges, below target {cert.target}")
    seen: set[int] = set()
    for u, v in cert.edges:
        if not g.has_edge(u, v):
            problems.append(f"({u},{v}) is not an edge of the graph")
            continue
        if ec.color_of(u, v) != cert.color:
            problems.append(
                f"edge ({u},{v}) has color {ec.color_of(u, v)}, not {cert.color}"
            )
        if u in seen or v in seen:
            problems.append(f"edge ({u},{v}) shares an endpoint with another")
        seen.add(u)
        seen.add(v)
    return problems


def check_chi_witness(g: Graph, data: dict) -> list[str]:
    """Check a chi-result JSON: classes partition V, are proper, count == upper."""
    try:
        classes = [json_ints(cls) for cls in json_list(data.get("classes"))]
        lower, upper = json_int(data.get("lower", 0)), json_int(data.get("upper"))
    except ValueError as e:
        return [f"malformed chi result: {e}"]
    problems = []
    assign: dict[int, int] = {}
    for i, cls in enumerate(classes):
        if not cls:
            problems.append(f"class {i} is empty")
        for v in cls:
            if v in assign:
                problems.append(f"vertex {v} appears in two classes")
            assign[v] = i
    if set(assign) != set(range(g.n)):
        problems.append("classes do not cover vertices 0..n-1 exactly")
        return problems
    for u, v in g.edges():
        if assign[u] == assign[v]:
            problems.append(f"edge ({u},{v}) is monochromatic in the witness")
    if len(classes) != upper:
        problems.append(f"witness uses {len(classes)} classes but upper is {upper}")
    if lower > upper:
        problems.append("lower bound exceeds upper bound")
    if data.get("exact") and data.get("lower") != upper:
        problems.append("exact result with lower != upper")
    return problems


def check_reduced_instance(ec: EdgeColoring, ri: ReducedInstance) -> list[str]:
    g = ec.graph
    problems = []
    seen: set[int] = set()
    for cls in ri.classes:
        for v in cls:
            if v in seen:
                problems.append(f"vertex {v} appears in two classes")
            seen.add(v)
    if seen != set(range(g.n)):
        problems.append("classes do not partition the vertex set")
    for (i, j), color in ri.edge_color.items():
        u, v = ri.provenance[(i, j)]
        if not g.has_edge(u, v):
            problems.append(f"provenance ({u},{v}) is not an edge of the graph")
            continue
        if ec.color_of(u, v) != color:
            problems.append(
                f"provenance ({u},{v}) has color {ec.color_of(u, v)}, not {color}"
            )
        in_i = u in ri.classes[i] or v in ri.classes[i]
        in_j = u in ri.classes[j] or v in ri.classes[j]
        if not (in_i and in_j and {u, v} <= set(ri.classes[i]) | set(ri.classes[j])):
            problems.append(f"provenance ({u},{v}) does not join classes {i} and {j}")
    return problems
