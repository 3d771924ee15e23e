"""Monochromatic-tree certificates from 2-edge-colorings.

``mono_tree_certificate`` makes the whole argument in one call. Each
vertex links its red component (a left node) to its blue component (a
right node); a node's degree is its component's size, so the largest
degree Δ of this bipartite multigraph, the dual, is the order of a largest
monochromatic component. König's theorem gives the dual a proper edge
coloring with exactly Δ colors (``edge_color_dual``), and reading each
vertex's link color back gives a proper Δ-coloring of the host. A largest
monochromatic component therefore spans at least chi(G) vertices. The
certificate is its BFS spanning tree, and the derived coloring proves the
bound: a checker needs no chi to see that it is proper and has no more
classes than the tree has vertices.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import (
    EdgeColoring,
    InternalInconsistencyError,
    canonical_edge,
    check_partition,
    json_edges,
    json_fields,
    json_int,
    json_ints,
    spanning_trees,
)

RED, BLUE = 1, 2


def _lowest_zero_bit(mask: int) -> int:
    """Position of the lowest clear bit of a non-negative ``mask``."""
    return ((mask + 1) & ~mask).bit_length() - 1


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


def edge_color_dual(links) -> tuple[int, ...]:
    """Properly edge-color a bipartite multigraph with exactly Δ colors.

    links lists the edges as (left node, right node) index pairs; the node
    counts and the largest degree Δ are read off them. Links are inserted
    one at a time, each with the lowest color of 1..Δ free at both
    endpoints, read off a bitmask of each node's colors. If there is none,
    take a color free on the left and one free on the right and flip the
    alternating two-color path starting at the right endpoint; in a
    bipartite multigraph that path can never reach the left endpoint (it
    would have to close with the wrong parity), so afterwards the left color
    is free at both ends. Returns the color in 1..Δ of each link, in order.
    """
    nl = 1 + max((li for li, _ in links), default=-1)
    # node id: left i -> i, right j -> nl + j
    ends = [(li, nl + ri) for li, ri in links]
    degree = [0] * (1 + max((q for _, q in ends), default=-1))
    for p, q in ends:
        degree[p] += 1
        degree[q] += 1
    delta = max(degree, default=0)
    color_at: list[dict[int, int]] = [dict() for _ in degree]
    # bitmask of the colors at each node; bit 0 stays set, so colors start at 1
    taken = [1] * len(degree)
    link_color: list[int] = []
    for idx, (p, q) in enumerate(ends):
        common = _lowest_zero_bit(taken[p] | taken[q])
        if common > delta:
            alpha = _lowest_zero_bit(taken[p])
            beta = _lowest_zero_bit(taken[q])
            # walk the alpha/beta alternating path from q, then flip it
            path = []
            node, want = q, alpha
            while want in color_at[node]:
                e2 = color_at[node][want]
                path.append(e2)
                a, b = ends[e2]
                node = b if node == a else a
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
    return tuple(link_color)


def mono_tree_certificate(
    ec: EdgeColoring,
) -> tuple[TreeCertificate, tuple[tuple[int, ...], ...]]:
    """The spanning tree of a largest monochromatic component of ec, ties
    going to the lowest minimum vertex, then to red, and its proof: the
    derived classes, one per link color of the dual, in color order."""
    if ec.t != 2:
        raise ValueError(f"need exactly 2 colors, got t={ec.t}")
    g = ec.graph
    red, blue = (spanning_trees(cls) for cls in ec.classes)
    nodes = [(RED, tree) for tree in red] + [(BLUE, tree) for tree in blue]
    if not nodes:
        raise ValueError("the empty graph has no components")
    # a tree's first pair is its root, the component's minimum vertex
    color, tree = min(nodes, key=lambda node: (-len(node[1]), node[1][0][0], node[0]))
    edges = sorted(canonical_edge(v, parent) for v, parent in tree[1:])
    links = [[0, 0] for _ in range(g.n)]
    for side, trees in enumerate((red, blue)):
        for i, members in enumerate(trees):
            for v, _ in members:
                links[v][side] = i
    link_colors = edge_color_dual(links)
    # the dual's largest node is tree, so König promises colors 1..len(tree)
    if set(link_colors) != set(range(1, len(tree) + 1)):
        raise InternalInconsistencyError(
            "edge coloring of the dual did not use exactly max_degree colors"
        )
    classes: list[list[int]] = [[] for _ in tree]
    for v, c in enumerate(link_colors):
        classes[c - 1].append(v)
    derived = tuple(map(tuple, classes))
    if problems := check_partition(g, derived):
        raise InternalInconsistencyError(
            f"the dual's link colors are not a proper coloring: {problems[0]}"
        )
    vertices = tuple(sorted(v for v, _ in tree))
    return TreeCertificate(color, tuple(edges), vertices), derived
