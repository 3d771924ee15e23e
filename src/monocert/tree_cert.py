"""Monochromatic-tree certificates from 2-edge-colorings.

Pipeline: the red and blue component families form a bipartite multigraph
with one link per vertex (its red component on the left, its blue component
on the right). A proper edge coloring of that multigraph with exactly its
maximum degree many colors exists because it is bipartite (König); reading
each vertex's link color back yields a proper vertex coloring of the host
graph with max-component-size many classes. The dual's largest node, a
largest monochromatic component, therefore spans at least chi(G) vertices.
The certificate is its BFS spanning tree, and the derived coloring proves
the bound: a checker needs no chi to see that it is proper and has no more
classes than the tree has vertices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import (
    EdgeColoring,
    Graph,
    InternalInconsistencyError,
    bfs_forest,
    canonical_edge,
    check_partition,
    connected_components,
    json_edges,
    json_fields,
    json_int,
    json_ints,
    lowest_zero_bit,
)

RED, BLUE = 1, 2


@dataclass(frozen=True)
class DualMultigraph:
    """Bipartite multigraph of red components vs blue components.

    ``links[v]`` is the pair (left index, right index) of vertex v of the
    host graph: its red and its blue component. The degree of a node equals
    the size of its component because components of the two colors overlap
    in exactly their shared vertices.
    """

    left: tuple[tuple[int, ...], ...]
    right: tuple[tuple[int, ...], ...]
    links: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for side in (self.left, self.right):
            mins = [comp[0] for comp in side]
            if mins != sorted(mins):
                raise ValueError("components must be ordered by minimum vertex")
        left_of = {v: i for i, comp in enumerate(self.left) for v in comp}
        right_of = {v: i for i, comp in enumerate(self.right) for v in comp}
        ldeg = [0] * len(self.left)
        rdeg = [0] * len(self.right)
        for v, (li, ri) in enumerate(self.links):
            if left_of.get(v) != li or right_of.get(v) != ri:
                raise ValueError(f"link for vertex {v} joins components not containing it")
            ldeg[li] += 1
            rdeg[ri] += 1
        for i, comp in enumerate(self.left):
            if ldeg[i] != len(comp):
                raise ValueError(f"left node {i} degree {ldeg[i]} != component size {len(comp)}")
        for i, comp in enumerate(self.right):
            if rdeg[i] != len(comp):
                raise ValueError(f"right node {i} degree {rdeg[i]} != component size {len(comp)}")

    def max_degree(self) -> int:
        """Largest number of links at any node (0 for the empty dual)."""
        return max(map(len, self.left + self.right), default=0)


@dataclass(frozen=True)
class TreeCertificate:
    color: int
    edges: tuple[tuple[int, int], ...]
    vertices: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "color": self.color,
            "edges": [list(e) for e in self.edges],
            "vertices": list(self.vertices),
        }

    @staticmethod
    def from_json(data) -> "TreeCertificate":
        """Inverse of to_json; ValueError when data has another shape."""
        color, edges, vertices = json_fields(data, "color", "edges", "vertices")
        return TreeCertificate(json_int(color), json_edges(edges), json_ints(vertices))


def build_dual(ec: EdgeColoring) -> DualMultigraph:
    """Dual multigraph of the red/blue component families."""
    if ec.t != 2:
        raise ValueError(f"need exactly 2 colors, got t={ec.t}")
    red, blue = (connected_components(cls) for cls in ec.classes)
    red_of = {v: i for i, comp in enumerate(red) for v in comp}
    blue_of = {v: i for i, comp in enumerate(blue) for v in comp}
    links = tuple((red_of[v], blue_of[v]) for v in range(ec.graph.n))
    return DualMultigraph(tuple(red), tuple(blue), links)


def edge_color_dual(b: DualMultigraph) -> tuple[int, ...]:
    """Properly edge-color the dual with exactly max_degree colors.

    Links are inserted one at a time, each with the lowest color of 1..Delta
    free at both endpoints, read off a bitmask of each node's colors. If
    there is none, take a color free on the left and one free on the right
    and flip the alternating two-color path starting at the right endpoint;
    in a bipartite multigraph that path can never reach the left endpoint
    (it would have to close with the wrong parity), so afterwards the left
    color is free at both ends. Returns the color in 1..Delta of each
    vertex's link, in vertex order.
    """
    delta = b.max_degree()
    nl = len(b.left)
    # node id: left i -> i, right j -> nl + j
    color_at: list[dict[int, int]] = [dict() for _ in range(nl + len(b.right))]
    # bitmask of the colors at each node; bit 0 stays set, so colors start at 1
    taken = [1] * len(color_at)
    ends: list[tuple[int, int]] = []
    link_color: list[int] = []
    for li, ri in b.links:
        p, q = li, nl + ri
        ends.append((p, q))
        idx = len(link_color)
        common = lowest_zero_bit(taken[p] | taken[q])
        if common > delta:
            alpha = lowest_zero_bit(taken[p])
            beta = lowest_zero_bit(taken[q])
            # walk the alpha/beta alternating path from q, then flip it
            path = []
            node, want = q, alpha
            while want in color_at[node]:
                e2 = color_at[node][want]
                path.append(e2)
                a, bb = ends[e2]
                node = bb if node == a else a
                want = beta if want == alpha else alpha
            for e2 in path:
                old = link_color[e2]
                for nd in ends[e2]:
                    del color_at[nd][old]
                    taken[nd] ^= 1 << old
            for e2 in path:
                new = beta if link_color[e2] == alpha else alpha
                link_color[e2] = new
                for nd in ends[e2]:
                    color_at[nd][new] = e2
                    taken[nd] |= 1 << new
            common = alpha
        link_color.append(common)
        color_at[p][common] = idx
        color_at[q][common] = idx
        taken[p] |= 1 << common
        taken[q] |= 1 << common
    if link_color and len(set(link_color)) != delta:
        raise InternalInconsistencyError(
            "edge coloring of the dual did not use exactly max_degree colors"
        )
    return tuple(link_color)


def vertex_coloring_from_dual(
    g: Graph, b: DualMultigraph, link_colors: tuple[int, ...]
) -> tuple[tuple[int, ...], ...]:
    """Turn a proper link coloring, one color per vertex, into a proper
    vertex coloring of g: one class per link color, in color order."""
    if len(link_colors) != len(b.links):
        raise ValueError(f"{len(link_colors)} link colors for {len(b.links)} links")
    seen_l: list[set[int]] = [set() for _ in b.left]
    seen_r: list[set[int]] = [set() for _ in b.right]
    for (li, ri), c in zip(b.links, link_colors):
        if c in seen_l[li] or c in seen_r[ri]:
            raise ValueError("link coloring is not proper on the dual")
        seen_l[li].add(c)
        seen_r[ri].add(c)
    by_color: dict[int, list[int]] = {c: [] for c in sorted(set(link_colors))}
    for v, c in enumerate(link_colors):
        by_color[c].append(v)
    classes = tuple(map(tuple, by_color.values()))
    if problems := check_partition(g, classes):
        raise ValueError(f"link coloring does not come from this graph's dual: {problems[0]}")
    return classes


def mono_tree_certificate(ec: EdgeColoring, dual: DualMultigraph) -> TreeCertificate:
    """Spanning tree of the dual's largest node, a largest monochromatic
    component of ec; ties go to the lowest minimum vertex, then to red."""
    nodes = [(RED, comp) for comp in dual.left] + [(BLUE, comp) for comp in dual.right]
    if not nodes:
        raise ValueError("the empty graph has no components")
    color, comp = min(nodes, key=lambda node: (-len(node[1]), node[1][0], node[0]))
    tree = bfs_forest(ec.classes[color - 1], comp[:1])
    if tuple(sorted(v for v, _ in tree)) != comp:
        raise ValueError(f"dual component {comp} is not a component of this coloring")
    edges = sorted(canonical_edge(v, parent) for v, parent in tree[1:])
    return TreeCertificate(color, tuple(edges), comp)
