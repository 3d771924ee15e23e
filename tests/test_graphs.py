import random

import pytest
from hypothesis import given, settings, strategies as st

import monocert as mc
from monocert.graphs import Graph, GraphParseError, bfs_forest, canonical_edge, iter_bits
from monocert.hunter import kneser_graph, mycielskian, random_graph

from helpers import coloring_text
from oracles import bfs_forest_fifo, components_union_find, partition_problems


@st.composite
def graphs(draw, max_n=12):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return Graph.from_edges(n, edges)


def test_iter_bits():
    assert list(iter_bits(0)) == []
    assert list(iter_bits(0b101001)) == [0, 3, 5]


def test_from_edges_dedup_and_bounds():
    g = Graph.from_edges(3, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 2)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(1, 1)])


def test_graph_validation_rejects_asymmetry():
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b00))
    with pytest.raises(ValueError):
        Graph(1, (0b1,))  # self-loop bit


def test_basic_accessors(c5):
    assert c5.n == 5 and c5.m == 5
    assert c5.adj[0].bit_count() == 2
    assert c5.has_edge(0, 4) and not c5.has_edge(0, 2)


def test_named_constructors():
    assert mc.complete_graph(4).m == 6
    assert mc.path_graph(4).edges() == [(0, 1), (1, 2), (2, 3)]
    assert mc.star_graph(3).edges() == [(0, 1), (0, 2), (0, 3)]
    k222 = mc.complete_multipartite([2, 2, 2])
    assert k222.n == 6 and k222.m == 12
    assert not k222.has_edge(0, 1) and k222.has_edge(0, 2)


def test_components_examples():
    g = Graph.from_edges(5, [(0, 1), (3, 4)])
    assert mc.connected_components(g) == [(0, 1), (2,), (3, 4)]
    assert mc.connected_components(Graph.from_edges(0, [])) == []


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_components_match_union_find(g):
    assert mc.connected_components(g) == components_union_find(g)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_bfs_forest_matches_fifo_oracle(data):
    # roots may repeat and may name a vertex an earlier tree already holds
    g = data.draw(graphs())
    vertex = st.integers(min_value=0, max_value=g.n - 1) if g.n else st.nothing()
    roots = data.draw(st.lists(vertex, max_size=2 * g.n))
    assert bfs_forest(g, roots) == bfs_forest_fifo(g, roots)
    assert bfs_forest(g, range(g.n)) == bfs_forest_fifo(g, range(g.n))


# ---------------------------------------------------------------------------
# edge colorings

def test_edge_coloring_validation():
    p3 = mc.path_graph(3)
    mc.EdgeColoring.of(p3, {(0, 1): 1, (1, 2): 2}, 2)
    with pytest.raises(ValueError):
        mc.EdgeColoring.of(p3, {(1, 0): 1, (1, 2): 1}, 2)  # not canonical
    with pytest.raises(ValueError):
        mc.EdgeColoring.of(p3, {(0, 1): 3, (1, 2): 1}, 2)  # out of range
    with pytest.raises(ValueError):
        mc.EdgeColoring.of(p3, {(0, 1): 0, (1, 2): 1}, 2)  # colors start at 1
    with pytest.raises(ValueError):
        mc.EdgeColoring.of(mc.path_graph(1), {}, 0)
    with pytest.raises(ValueError):
        mc.EdgeColoring.of(p3, {(0, 1): 1, (1, 3): 1}, 2)  # vertex outside 0..n-1
    red, blue = Graph.from_edges(3, [(0, 1)]), Graph.from_edges(3, [(1, 2)])
    assert mc.EdgeColoring(p3, (red, blue)).t == 2
    with pytest.raises(ValueError):
        mc.EdgeColoring(p3, ())  # at least one color
    with pytest.raises(ValueError):
        mc.EdgeColoring(p3, (red, Graph.from_edges(4, [(1, 2)])))  # the graph's vertex count
    with pytest.raises(ValueError):
        mc.EdgeColoring(p3, (red, blue, red))  # an edge with two colors
    with pytest.raises(ValueError, match=r"colored edge \(0, 2\) is not an edge of the graph"):
        mc.EdgeColoring(p3, (red, Graph.from_edges(3, [(1, 2), (0, 2)])))
    with pytest.raises(ValueError, match=r"edge \(1, 2\) of the graph has no color"):
        mc.EdgeColoring(p3, (red, Graph(3, (0, 0, 0))))


def test_edge_coloring_cover(c5):
    ec = mc.EdgeColoring.of(c5, {e: 1 for e in c5.edges()}, 2)
    assert ec.graph == c5
    with pytest.raises(ValueError, match=r"edge \(0, 4\) of the graph has no color"):
        mc.EdgeColoring.of(c5, {(0, 1): 1}, 2)
    with pytest.raises(ValueError):
        mc.EdgeColoring.of(c5, {**{e: 1 for e in c5.edges()}, (0, 2): 2}, 2)
    # a coloring file is read against its graph; a bad line is named
    text = coloring_text(ec)
    for bad, line, message in ((text + "0 2 2\n", 6, "not an edge of the graph"),
                               ("0 9 1\n" + text, 1, "not an edge of the graph"),
                               (text + "0 1\n", 6, "expected 'u v c'"),
                               ("0 x 1\n" + text, 1, "non-integer field"),
                               (text + "-1 2 1\n", 6, "negative vertex"),
                               ("3 3 1\n" + text, 1, "self-loop at vertex 3")):
        with pytest.raises(GraphParseError, match=message) as err:
            mc.parse_edge_coloring(bad, c5)
        assert err.value.line == line
    with pytest.raises(ValueError, match=r"edge \(0, 4\) of the graph has no color"):
        mc.parse_edge_coloring("0 1 1\n", c5)


def test_edge_coloring_json_round_trip(c5):
    ec = mc.EdgeColoring.of(c5, {(0, 1): 1, (1, 2): 2, (2, 3): 1, (3, 4): 2, (0, 4): 3}, 3)
    rows = ec.to_json()
    assert rows == [[0, 1, 1], [0, 4, 3], [1, 2, 2], [2, 3, 1], [3, 4, 2]]
    assert mc.EdgeColoring.from_json(c5, rows, 3) == ec
    refused = [
        (rows + [[1, 0, 2]], r"edge \(0, 1\) colored twice"),
        ([[0, 1, 4]] + rows[1:], r"color 4 on edge \(0,1\) outside 1..3"),
        (rows + [[0, 2, 1]], r"colored edge \(0, 2\) is not an edge of the graph"),
        (rows[:-1], r"edge \(3, 4\) of the graph has no color"),
    ]
    for bad, message in refused:
        with pytest.raises(ValueError, match=message):
            mc.EdgeColoring.from_json(c5, bad, 3)


@st.composite
def colored_graphs(draw, max_n=8, max_t=3):
    g = draw(graphs(max_n))
    t = draw(st.integers(min_value=1, max_value=max_t))
    colors = {e: draw(st.integers(min_value=1, max_value=t)) for e in g.edges()}
    return g, colors, t


@given(colored_graphs())
@settings(max_examples=80, deadline=None)
def test_edge_coloring_classes(case):
    g, colors, t = case
    ec = mc.EdgeColoring.of(g, colors, t)
    # the coloring holds its host, and the classes partition E(g) by color
    assert ec.graph is g and ec.t == t
    assert sum(cls.m for cls in ec.classes) == g.m
    assert {e: c for c, cls in enumerate(ec.classes, 1) for e in cls.edges()} == colors
    assert all(ec.color_of(v, u) == c for (u, v), c in colors.items())
    text = coloring_text(ec)
    assert mc.parse_edge_coloring(text, g, t) == ec
    assert mc.parse_edge_coloring(text, g).t == max(colors.values(), default=1)
    assert mc.EdgeColoring.from_json(g, ec.to_json(), t) == ec
    if colors:
        e = g.edges()[0]
        for bad in (0, t + 1):  # colors run 1..t
            with pytest.raises(ValueError):
                mc.EdgeColoring.of(g, {**colors, e: bad}, t)
    # each reduced pair takes the least (color, edge) over its crossing edges
    ri = mc.kiraly_reduce(ec, mc.greedy_upper(g).witness)
    side = {v: i for i, cls in enumerate(ri.classes) for v in cls}
    crossing: dict = {}
    for (u, v), c in colors.items():
        i, j = sorted((side[u], side[v]))
        crossing.setdefault((i, j), []).append((c, (u, v)))
    assert {pair: min(options) for pair, options in crossing.items()} == ri.pairs


@st.composite
def graphs_with_classes(draw):
    """A graph on at most 10 vertices and a class list for it: a random
    grouping of its vertices, then a few vertices added to or dropped from
    classes, so that classes may be improper, overlap, leave a vertex out,
    name a vertex outside the graph, or be empty."""
    g = draw(graphs(max_n=10))
    k = draw(st.integers(min_value=1, max_value=max(g.n, 1)))
    assign = draw(st.lists(st.integers(0, k - 1), min_size=g.n, max_size=g.n))
    classes = [[v for v in range(g.n) if assign[v] == c] for c in range(k)]
    edits = st.tuples(st.integers(0, k - 1), st.integers(-1, g.n), st.booleans())
    for i, v, add in draw(st.lists(edits, max_size=3)):
        if add:
            classes[i].append(v)
        elif v in classes[i]:
            classes[i].remove(v)
    return g, classes


@given(graphs_with_classes())
@settings(max_examples=300, deadline=None)
def test_check_partition_matches_oracle(case):
    g, classes = case
    assert mc.check_partition(g, classes) == partition_problems(g, classes)


# ---------------------------------------------------------------------------
# parsing and serialization

def test_parse_edge_list():
    g = mc.parse_graph("0 1\n1 2\n", "edges")
    assert g.n == 3 and g.edges() == [(0, 1), (1, 2)]
    g = mc.parse_graph("# comment\n0 1 # trailing\n\n# n 4\n", "edges")
    assert g.n == 4 and g.m == 1
    assert mc.parse_graph("", "edges").n == 0
    # a count that is not ASCII digits makes the line an ordinary comment
    for count in ("x", "\u00b2", "\uff13"):
        assert mc.parse_graph(f"# n {count}\n0 1\n", "edges").n == 2


def validated(g: Graph) -> Graph:
    """g itself, after the validating constructor accepted its rows."""
    assert Graph(g.n, g.adj) == g
    return g


@given(graphs(), st.data())
@settings(max_examples=100, deadline=None)
def test_edge_list_text_parses_to_from_edges(g, data):
    # each edge once or twice, either way round, some with a trailing
    # comment, among comment, blank and space-only lines
    lines = []
    for u, v in g.edges():
        for _ in range(data.draw(st.integers(1, 2))):
            a, b = data.draw(st.permutations((u, v)))
            lines.append(f"{a} {b}" + data.draw(st.sampled_from(["", " # note", "\t#"])))
    lines += data.draw(st.lists(st.sampled_from(["", "   ", "# x", " # n", "\t"]), max_size=4))
    lines = data.draw(st.permutations(lines))
    declare = data.draw(st.booleans())
    if declare:
        lines.insert(data.draw(st.integers(0, len(lines))), f"# n {g.n}")
    h = validated(mc.parse_graph("\n".join(lines), "edges"))
    n = g.n if declare else 1 + max((v for e in g.edges() for v in e), default=-1)
    assert h == Graph.from_edges(n, g.edges())
    # every other reader and builder hands back rows the validating
    # constructor accepts
    for fmt in ("edges", "dimacs", "g6"):
        assert validated(mc.parse_graph(mc.write_graph(g, fmt), fmt)) == g
    k = min(g.n, 6)
    builders = [mc.complete_graph(k), mc.path_graph(k + 1), mc.star_graph(k),
                mc.complete_multipartite([1, 2, k + 1]), mycielskian(mc.complete_graph(k)),
                kneser_graph(k + 2, 2), random_graph(g.n, 0.5, random.Random(g.n))]
    for built in builders:
        validated(built)
    ec = mc.EdgeColoring.of(g, {e: 1 + (e[0] + e[1]) % 2 for e in g.edges()}, 2)
    for cls in ec.classes:
        validated(cls)


def test_parse_edge_list_errors():
    with pytest.raises(GraphParseError) as e:
        mc.parse_graph("0 1\n0\n", "edges")
    assert e.value.line == 2
    with pytest.raises(GraphParseError):
        mc.parse_graph("0 a\n", "edges")
    with pytest.raises(GraphParseError):
        mc.parse_graph("-1 2\n", "edges")
    with pytest.raises(GraphParseError):
        mc.parse_graph("3 3\n", "edges")
    with pytest.raises(GraphParseError):
        mc.parse_graph("# n 2\n0 5\n", "edges")


def test_parse_dimacs():
    g = mc.parse_graph("c comment\np edge 3 2\ne 1 2\ne 2 3\n", "dimacs")
    assert g.n == 3 and g.edges() == [(0, 1), (1, 2)]
    with pytest.raises(GraphParseError):
        mc.parse_graph("e 1 2\n", "dimacs")  # edge before header
    with pytest.raises(GraphParseError):
        mc.parse_graph("p edge 2 1\ne 1 3\n", "dimacs")  # out of range
    with pytest.raises(GraphParseError):
        mc.parse_graph("p edge 2 1\ne 1 1\n", "dimacs")  # loop
    with pytest.raises(GraphParseError):
        mc.parse_graph("p edge 2 0\nx 1 2\n", "dimacs")


def test_graph6_known_strings():
    k2 = mc.parse_graph("A_", "g6")
    assert k2.n == 2 and k2.m == 1
    assert mc.write_graph(mc.complete_graph(2), "g6").strip() == "A_"
    assert mc.parse_graph(">>graph6<<A_", "g6").m == 1
    with pytest.raises(GraphParseError):
        mc.parse_graph("A_X", "g6")  # trailing garbage
    with pytest.raises(GraphParseError):
        mc.parse_graph("A" + chr(30), "g6")


def test_graph6_against_reference_codec(rng):
    nx = pytest.importorskip("networkx")
    from monocert.hunter import random_graph

    # one draw in six has n of 63 or more, where graph6 takes the long header;
    # the explicit draws reach both sides of the header switch at 63 and pad
    # a last group of ones, from complete hosts, as well as zeros
    draws = [(n, p) for n in (0, 1, 2, 62, 63, 64) for p in (0.0, 1.0)]
    for i in range(60):
        draws.append((rng.randint(0, 20) if i % 6 else rng.randint(63, 130),
                      rng.choice([0.2, 0.5, 0.8])))
    for n, p in draws:
        g = random_graph(n, p, rng)
        ours = mc.write_graph(g, "g6").strip()
        assert ours.startswith("~") == (n >= 63)
        G = nx.Graph()
        G.add_nodes_from(range(g.n))
        G.add_edges_from(g.edges())
        theirs = nx.to_graph6_bytes(G, header=False).decode().strip()
        assert ours == theirs
        assert mc.parse_graph(theirs, "g6") == g


@given(graphs())
@settings(max_examples=60, deadline=None)
def test_round_trip_all_formats(g):
    for fmt in ("edges", "dimacs", "g6"):
        assert mc.parse_graph(mc.write_graph(g, fmt), fmt) == g


def test_edge_coloring_files():
    p3 = mc.path_graph(3)
    ec = mc.parse_edge_coloring("0 1 1\n1 2 2\n", p3)
    assert ec.t == 2 and ec.color_of(1, 0) == 1
    text = coloring_text(ec)
    assert mc.parse_edge_coloring(text, p3) == ec
    with pytest.raises(GraphParseError):
        mc.parse_edge_coloring("0 1 0\n1 2 1\n", p3)  # colors start at 1
    with pytest.raises(GraphParseError):
        mc.parse_edge_coloring("0 1 1\n1 0 2\n", p3)  # same edge twice
    with pytest.raises(GraphParseError):
        mc.parse_edge_coloring("0 1 5\n1 2 1\n", p3, t=2)
    ec3 = mc.parse_edge_coloring("0 1 1\n", mc.path_graph(2), t=3)
    assert ec3.t == 3


@given(colored_graphs(), st.data())
@settings(max_examples=100, deadline=None)
def test_coloring_text_round_trip(case, data):
    # "u v c" lines in any order, either way round, some with a trailing
    # comment, read back as EdgeColoring.of reads the {edge: color} dict
    g, colors, t = case
    lines = [f"{a} {b} {c}" + data.draw(st.sampled_from(["", " # c", "  #1 2 3"]))
             for (u, v), c in colors.items()
             for a, b in [data.draw(st.permutations((u, v)))]]
    lines += data.draw(st.lists(st.sampled_from(["", "  ", "# 0 1 1"]), max_size=3))
    text = "\n".join(data.draw(st.permutations(lines)))
    assert mc.parse_edge_coloring(text, g, t) == mc.EdgeColoring.of(g, colors, t)
    ec = mc.parse_edge_coloring(text, g)
    assert ec == mc.EdgeColoring.of(g, colors, max(colors.values(), default=1))
    for cls in ec.classes:
        validated(cls)


def test_readers_skip_the_symmetry_walk(monkeypatch):
    # a seeded G(2000, 8000) host and a 3-coloring of it are read without a
    # single validating Graph construction: a class graph checked again
    # would walk every one of its bits
    rng, edges = random.Random(7), set()
    while len(edges) < 8000:
        u, v = rng.sample(range(2000), 2)
        edges.add((min(u, v), max(u, v)))
    colors = {e: rng.randint(1, 3) for e in sorted(edges)}
    graph_text = "# n 2000\n" + "".join(f"{u} {v}\n" for u, v in colors)
    colors_text = "".join(f"{v} {u} {c}\n" for (u, v), c in colors.items())
    walks = []
    validate = Graph.__post_init__

    def counted(self):
        walks.append(self.n)
        validate(self)

    monkeypatch.setattr(Graph, "__post_init__", counted)
    g = mc.parse_graph(graph_text, "edges")
    ec = mc.parse_edge_coloring(colors_text, g, 3)
    assert walks == []
    assert Graph(2, (0b10, 0b01)).m == 1 and walks == [2]  # the count does count
    monkeypatch.undo()
    assert validated(g) == Graph.from_edges(2000, edges)
    assert ec == mc.EdgeColoring.of(g, colors, 3)
    for cls in ec.classes:
        validated(cls)


def test_canonical_edge():
    assert canonical_edge(3, 1) == (1, 3)
    with pytest.raises(ValueError):
        canonical_edge(2, 2)
