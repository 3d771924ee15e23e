"""Core graph and coloring types plus parsing and serialization.

Vertices are the integers 0..n-1. Adjacency is stored as one Python-int
bitset row per vertex; arbitrary-width ints make dense instances up to a few
hundred vertices cheap without a sparse fallback, and bit tricks (``&``,
``bit_count``) do the heavy lifting everywhere else in the package.

Where validation happens: a direct ``Graph(n, adj)`` checks every row it
is handed (one row per vertex, bits in range, no loop bit) and walks the
set bits to check symmetry. The builders check each edge as they take it
and set both ends themselves, so their rows are symmetric by construction;
they construct through the private ``Graph._from_rows``, which checks
nothing again. These are ``Graph.from_edges``, which the edge-list and
DIMACS readers call, ``complete_graph``, the graph6 reader, the hunter's
class rows, and ``EdgeColoring.of``, which ``parse_edge_coloring`` and
``EdgeColoring.from_json`` call: it is the one place where a reader
allocates class rows. Each text reader makes one pass over its lines.

An edge-colored graph is one object, an ``EdgeColoring``: the host graph
it was given plus one spanning class graph per color, edge-disjoint, whose
union is the host. The constructor is the one place that checks a coloring
fits its graph, row by row, so consumers read a color class as
``ec.classes[c - 1]`` and the host as ``ec.graph`` without re-checking it.
A vertex coloring is a tuple of classes, each an ascending tuple of
vertices, and ``check_partition`` is the one check that it is proper.
``bfs_forest`` is the one breadth-first search: components, spanning trees
and the hunter's orders are read off its (vertex, parent) pairs.

Supported text formats: edge list ("u v" per line, 0-indexed, ``#``
comments, optional ``# n <count>`` directive for isolated vertices), DIMACS
.col ("p edge n m" / "e u v", 1-indexed, translated at this boundary), and
graph6 (single line, optional ``>>graph6<<`` header). Edge colorings are
"u v c" lines, read against the graph they color.
"""

from __future__ import annotations

from dataclasses import dataclass


class GraphParseError(ValueError):
    """Malformed graph or coloring text; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class InternalInconsistencyError(RuntimeError):
    """A theorem-backed guarantee failed to hold.

    Raised when a construction that a theorem promises cannot deliver: a
    dual edge coloring with exactly max-degree colors, a crossing edge
    between merged classes, a matching once the merged classes reach the
    Ramsey number, or a hunt's find that passes re-verification. It means
    the code is wrong, not that a search was unlucky.
    """


def iter_bits(mask: int):
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def canonical_edge(u: int, v: int) -> tuple[int, int]:
    """Return the edge as an ordered pair; loops are never representable."""
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph with one bitset adjacency row per vertex."""

    n: int
    adj: tuple[int, ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        if len(self.adj) != self.n:
            raise ValueError("adjacency needs exactly one row per vertex")
        full = (1 << self.n) - 1
        for u, row in enumerate(self.adj):
            if row & ~full:
                raise ValueError(f"row {u} has bits outside 0..{self.n - 1}")
            if (row >> u) & 1:
                raise ValueError(f"self-loop at vertex {u}")
        for u in range(self.n):
            row = self.adj[u]
            for v in iter_bits(row):
                if not (self.adj[v] >> u) & 1:
                    raise ValueError(f"asymmetric adjacency at ({u},{v})")

    @staticmethod
    def _from_rows(n: int, rows) -> "Graph":
        """A Graph on n vertices from rows that are symmetric by construction.

        The caller guarantees one row per vertex, bits in 0..n-1, no loop
        bit, and both ends of every edge set; none of it is checked again.
        """
        g = object.__new__(Graph)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", tuple(rows))
        return g

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        """Build from an iterable of pairs; duplicates collapse, loops raise."""
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) outside 0..{n - 1}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return Graph._from_rows(n, rows)

    @property
    def m(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self.n and 0 <= v < self.n and bool((self.adj[u] >> v) & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as canonical pairs, lexicographically sorted."""
        return [(u, v) for u in range(self.n) for v in iter_bits(self.adj[u]) if v > u]


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph._from_rows(n, [full ^ (1 << v) for v in range(n)])


def path_graph(n: int) -> Graph:
    """Path on n vertices (n-1 edges)."""
    if n < 1:
        raise ValueError("a path needs at least 1 vertex")
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(leaves: int) -> Graph:
    """Star with the given number of leaves; vertex 0 is the center."""
    if leaves < 0:
        raise ValueError("leaf count must be non-negative")
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_multipartite(sizes) -> Graph:
    """Complete multipartite graph; parts are consecutive vertex ranges."""
    sizes = list(sizes)
    if any(s < 1 for s in sizes):
        raise ValueError("part sizes must be positive")
    n = sum(sizes)
    part = []
    for i, s in enumerate(sizes):
        part.extend([i] * s)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if part[u] != part[v]]
    return Graph.from_edges(n, edges)


def bfs_forest(g: Graph, roots) -> list[tuple[int, int]]:
    """(vertex, parent) pairs of a breadth-first forest of g, in visiting order.

    Each root that no earlier tree reached starts a new tree, with parent -1;
    a vertex's unseen neighbours are entered in ascending order.
    """
    adj = g.adj
    unseen = (1 << g.n) - 1
    order: list[tuple[int, int]] = []
    i = 0
    for root in roots:
        if not (unseen >> root) & 1:
            continue
        unseen ^= 1 << root
        order.append((root, -1))
        while i < len(order):
            u = order[i][0]
            i += 1
            new = adj[u] & unseen
            if new:
                unseen ^= new
                order.extend((w, u) for w in iter_bits(new))
    return order


def spanning_trees(g: Graph) -> list[list[tuple[int, int]]]:
    """A breadth-first spanning tree of each component of g, as bfs_forest's
    (vertex, parent) pairs, rooted at and ordered by its minimum vertex."""
    trees: list[list[tuple[int, int]]] = []
    for pair in bfs_forest(g, range(g.n)):
        if pair[1] < 0:
            trees.append([])
        trees[-1].append(pair)
    return trees


def connected_components(g: Graph) -> list[tuple[int, ...]]:
    """Vertex sets of the connected components, ordered by minimum vertex."""
    return [tuple(sorted(v for v, _ in tree)) for tree in spanning_trees(g)]


@dataclass(frozen=True)
class EdgeColoring:
    """A graph with its edges colored 1..t, held as one class graph per color.

    ``classes[c - 1]`` is the spanning subgraph of ``graph`` made of the
    edges of color c. The classes share no edge, and together they hold
    every edge of ``graph`` and no other. Build from an {edge: color} dict
    with ``EdgeColoring.of``.
    """

    graph: Graph
    classes: tuple[Graph, ...]

    def __post_init__(self):
        if not self.classes:
            raise ValueError("need at least one color")
        n = self.graph.n
        if any(cls.n != n for cls in self.classes):
            raise ValueError(f"class graphs must have the graph's {n} vertices")
        for v, want in enumerate(self.graph.adj):
            row = 0
            for cls in self.classes:
                if row & cls.adj[v]:
                    raise ValueError(f"an edge at vertex {v} has two colors")
                row |= cls.adj[v]
            if row != want:
                # the rows below v agree, so v is the smaller end of each
                # edge that differs here and the lowest bit names the first
                extra = row & ~want
                wrong = extra or want & ~row
                e = (v, (wrong & -wrong).bit_length() - 1)
                if extra:
                    raise ValueError(f"colored edge {e} is not an edge of the graph")
                raise ValueError(f"edge {e} of the graph has no color")

    @property
    def t(self) -> int:
        return len(self.classes)

    @staticmethod
    def of(g: Graph, colors: dict[tuple[int, int], int], t: int) -> "EdgeColoring":
        """Color g from {canonical edge: color}; the keys must be exactly E(g)."""
        rows = [[0] * g.n for _ in range(t)]
        for (u, v), c in colors.items():
            if not 0 <= u < v < g.n:
                raise ValueError(f"edge ({u},{v}) is not a canonical pair in 0..{g.n - 1}")
            if not 1 <= c <= t:
                raise ValueError(f"color {c} on edge ({u},{v}) outside 1..{t}")
            rows[c - 1][u] |= 1 << v
            rows[c - 1][v] |= 1 << u
        return EdgeColoring(g, tuple(Graph._from_rows(g.n, r) for r in rows))

    def color_of(self, u: int, v: int) -> int:
        e = canonical_edge(u, v)
        for c, cls in enumerate(self.classes, start=1):
            if cls.has_edge(u, v):
                return c
        raise ValueError(f"edge {e} has no color")

    def to_json(self) -> list[list[int]]:
        """[[u, v, c], ...] with u < v, sorted by edge."""
        return [[u, v, self.color_of(u, v)] for u, v in self.graph.edges()]

    @staticmethod
    def from_json(g: Graph, rows, t: int) -> "EdgeColoring":
        """Color g with 1..t from to_json's rows; ValueError on an edge colored
        twice, a color outside 1..t, a non-edge or an edge left uncolored."""
        colors = {}
        for row in json_list(rows):
            u, v, c = json_ints(row, 3)
            e = canonical_edge(u, v)
            if e in colors:
                raise ValueError(f"edge {e} colored twice")
            colors[e] = c
        return EdgeColoring.of(g, colors, t)


def check_partition(g: Graph, classes) -> list[str]:
    """Problems with classes, a vertex coloring, as a proper coloring of g:
    each class non-empty and independent, every vertex 0..n-1 in exactly one."""
    problems = []
    class_of: dict[int, int] = {}
    for i, cls in enumerate(classes):
        if not cls:
            problems.append(f"class {i} is empty")
        for v in cls:
            if v in class_of:
                problems.append(f"vertex {v} appears in two classes")
            class_of[v] = i
    if class_of.keys() != set(range(g.n)):
        problems.append("classes do not cover vertices 0..n-1 exactly")
        return problems
    masks = [0] * len(classes)
    for v, i in class_of.items():
        masks[i] |= 1 << v
    for u in range(g.n):
        i = class_of[u]
        if g.adj[u] & masks[i]:
            problems += [f"edge ({u},{v}) lies inside class {i}"
                         for v in iter_bits(g.adj[u] & masks[i]) if v > u]
    return problems


# ---------------------------------------------------------------------------
# text formats

def parse_graph(text: str, fmt: str = "edges") -> Graph:
    if not isinstance(text, str):
        raise ValueError(f"expected graph text, got {text!r:.60}")
    if fmt == "edges":
        return _parse_edge_list(text)
    if fmt == "dimacs":
        return _parse_dimacs(text)
    if fmt == "g6":
        return _parse_graph6(text)
    raise ValueError(f"unknown graph format {fmt!r}")


def write_graph(g: Graph, fmt: str = "edges") -> str:
    if fmt == "edges":
        lines = [f"# n {g.n}"] + [f"{u} {v}" for u, v in g.edges()]
        return "\n".join(lines) + "\n"
    if fmt == "dimacs":
        lines = [f"p edge {g.n} {g.m}"] + [f"e {u + 1} {v + 1}" for u, v in g.edges()]
        return "\n".join(lines) + "\n"
    if fmt == "g6":
        return _to_graph6(g) + "\n"
    raise ValueError(f"unknown graph format {fmt!r}")


def _parse_edge_list(text: str) -> Graph:
    ends: list[int] = []  # u, v of each edge line, in order
    declared = -1
    for ln, raw in enumerate(text.splitlines(), start=1):
        if "#" in raw:
            raw, _, comment = raw.partition("#")
            if not raw or raw.isspace():
                # "# n <count>" declares isolated trailing vertices
                parts = comment.split()
                if len(parts) == 2 and parts[0] == "n" and parts[1].isascii() and parts[1].isdigit():
                    declared = int(parts[1])
                continue
        toks = raw.split()
        if len(toks) != 2:
            if not toks:
                continue
            raise GraphParseError(f"expected 'u v', got {raw.strip()!r}", ln)
        try:
            u, v = int(toks[0]), int(toks[1])
        except ValueError:
            raise GraphParseError(f"non-integer vertex in {raw.strip()!r}", ln) from None
        if u < 0 or v < 0:
            raise GraphParseError(f"negative vertex in {raw.strip()!r}", ln)
        if u == v:
            raise GraphParseError(f"self-loop at vertex {u}", ln)
        ends += u, v
    n = max(ends, default=-1) + 1
    if declared >= 0:
        if n > declared:
            raise GraphParseError(
                f"vertex {n - 1} outside declared range 0..{declared - 1}"
            )
        n = declared
    pairs = iter(ends)
    return Graph.from_edges(n, zip(pairs, pairs))


def _parse_dimacs(text: str) -> Graph:
    n = -1
    edges = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        toks = line.split()
        if toks[0] == "p":
            if n >= 0:
                raise GraphParseError("duplicate problem line", ln)
            if len(toks) != 4 or toks[1] not in ("edge", "edges", "col"):
                raise GraphParseError(f"bad problem line {line!r}", ln)
            try:
                n = int(toks[2])
            except ValueError:
                raise GraphParseError(f"bad vertex count in {line!r}", ln) from None
            if n < 0:
                raise GraphParseError("negative vertex count", ln)
        elif toks[0] == "e":
            if n < 0:
                raise GraphParseError("edge before problem line", ln)
            if len(toks) != 3:
                raise GraphParseError(f"bad edge line {line!r}", ln)
            try:
                u, v = int(toks[1]), int(toks[2])
            except ValueError:
                raise GraphParseError(f"non-integer vertex in {line!r}", ln) from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphParseError(f"vertex outside 1..{n} in {line!r}", ln)
            if u == v:
                raise GraphParseError(f"self-loop at vertex {u}", ln)
            edges.append((u - 1, v - 1))
        else:
            raise GraphParseError(f"unrecognized line {line!r}", ln)
    if n < 0:
        raise GraphParseError("missing problem line")
    return Graph.from_edges(n, edges)


# graph6: 6-bit groups, each stored as a printable character (value + 63).
# The vertex count is one character for n <= 62, '~' + 3 up to 258047, then
# '~~' + 6. Edge bits run column by column over the upper triangle: column
# v holds the bits of edges uv, u < v, in ascending u.
_G6_GROUPS = {format(k, "06b"): chr(k + 63) for k in range(64)}
_G6_BITS = str.maketrans({ch: bits for bits, ch in _G6_GROUPS.items()})
_G6_CHARS = "".join(_G6_GROUPS.values())


def _g6_encode_n(n: int) -> str:
    if n <= 62:
        return chr(n + 63)
    if n <= 258047:
        return "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    if n <= 68719476735:
        return "~~" + "".join(chr(((n >> s) & 63) + 63) for s in (30, 24, 18, 12, 6, 0))
    raise ValueError("graph too large for graph6")


def _to_graph6(g: Graph) -> str:
    bits = "".join([format(g.adj[v] & ((1 << v) - 1), "b").zfill(v)[::-1] for v in range(1, g.n)])
    bits += "0" * (-len(bits) % 6)
    return _g6_encode_n(g.n) + "".join([_G6_GROUPS[bits[i:i + 6]] for i in range(0, len(bits), 6)])


def _parse_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise GraphParseError("empty graph6 string")
    if "\n" in s:
        raise GraphParseError("expected a single graph6 line")
    if bad := s.lstrip(_G6_CHARS):
        raise GraphParseError(f"invalid graph6 byte {bad[0]!r}")
    if s[0] != "~":
        n, i = ord(s[0]) - 63, 1
    elif len(s) >= 4 and s[1] != "~":
        n, i = int(s[1:4].translate(_G6_BITS), 2), 4
    elif len(s) >= 8:
        n, i = int(s[2:8].translate(_G6_BITS), 2), 8
    else:
        raise GraphParseError("truncated graph6 vertex count")
    need = (n * (n - 1) // 2 + 5) // 6
    if len(s) - i != need:
        raise GraphParseError(f"graph6 body has {len(s) - i} groups, expected {need}")
    bits = s[i:].translate(_G6_BITS)
    # column v padded to n is row v of a square matrix that holds each edge
    # once, at (v, u) with u < v; its column u, read with stride n, holds
    # the neighbours of u above u
    square = "".join([bits[v * (v - 1) // 2:v * (v + 1) // 2] + "0" * (n - v) for v in range(n)])
    return Graph._from_rows(n, [int(square[u * n:u * n + n][::-1], 2) | int(square[u::n][::-1], 2)
                                for u in range(n)])


def parse_edge_coloring(text: str, g: Graph, t: int | None = None) -> EdgeColoring:
    """Parse "u v c" lines (0-indexed vertices, colors 1..t) coloring every edge of g.

    t defaults to the largest color seen. Each line is checked as it is
    read; EdgeColoring.of then builds the classes, and the EdgeColoring
    constructor checks that every edge of g got a color.
    """
    n, adj = g.n, g.adj
    colors: dict[tuple[int, int], int] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        if "#" in raw:
            raw = raw.partition("#")[0]
        toks = raw.split()
        if len(toks) != 3:
            if not toks:
                continue
            raise GraphParseError(f"expected 'u v c', got {raw.strip()!r}", ln)
        try:
            u, v, c = int(toks[0]), int(toks[1]), int(toks[2])
        except ValueError:
            raise GraphParseError(f"non-integer field in {raw.strip()!r}", ln) from None
        if u < 0 or v < 0:
            raise GraphParseError(f"negative vertex in {raw.strip()!r}", ln)
        if u == v:
            raise GraphParseError(f"self-loop at vertex {u}", ln)
        if c < 1:
            raise GraphParseError(f"color {c} below 1", ln)
        if t is not None and c > t:
            raise GraphParseError(f"color {c} exceeds declared t={t}", ln)
        if u > v:
            u, v = v, u
        if v >= n or not (adj[u] >> v) & 1:
            raise GraphParseError(f"colored edge {(u, v)} is not an edge of the graph", ln)
        if (u, v) in colors:
            raise GraphParseError(f"edge {(u, v)} colored twice", ln)
        colors[u, v] = c
    return EdgeColoring.of(g, colors, max(colors.values(), default=1) if t is None else t)


# ---------------------------------------------------------------------------
# JSON shapes read back by the certificate readers

def json_fields(data, *keys) -> list:
    """Values of the given keys of a JSON object; ValueError on any other shape."""
    if not isinstance(data, dict) or not all(key in data for key in keys):
        raise ValueError(f"expected a JSON object with {', '.join(keys)}, got {data!r:.60}")
    return [data[key] for key in keys]


def json_list(value) -> list:
    if not isinstance(value, list):
        raise ValueError(f"expected a JSON list, got {value!r:.60}")
    return value


def json_int(value) -> int:
    """A non-negative JSON integer; booleans and floats are refused."""
    if type(value) is not int or value < 0:
        raise ValueError(f"expected a non-negative integer, got {value!r:.60}")
    return value


def json_ints(value, size: int | None = None) -> tuple[int, ...]:
    """A JSON list of non-negative integers, of length size when given."""
    if size is not None and len(json_list(value)) != size:
        raise ValueError(f"expected {size} integers, got {value!r:.60}")
    return tuple(json_int(x) for x in json_list(value))


def json_classes(value) -> tuple[tuple[int, ...], ...]:
    """A JSON list of vertex lists, such as the classes of a coloring."""
    return tuple(json_ints(cls) for cls in json_list(value))


def json_edges(value) -> tuple[tuple[int, int], ...]:
    """A JSON list of [u, v] pairs as canonical edges."""
    return tuple(canonical_edge(*json_ints(e, 2)) for e in json_list(value))
