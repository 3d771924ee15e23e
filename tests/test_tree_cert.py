from itertools import combinations, product

import pytest
from hypothesis import example, given, settings, strategies as st

import monocert as mc
from monocert import tree_cert
from monocert.cli import main
from monocert.graphs import Graph, InternalInconsistencyError, check_partition
from monocert.tree_cert import BLUE, RED, edge_color_dual, mono_tree_certificate
from monocert.verify import check_tree_certificate

from helpers import coloring_text
from oracles import edges_connect, max_mono_component_size


def oracle_max_comp(g, ec):
    colors = {(u, v): c for u, v, c in ec.to_json()}
    return max(max_mono_component_size(g, colors, c) for c in (RED, BLUE))


def dual_links(ec, monkeypatch):
    """The links mono_tree_certificate hands to edge_color_dual for ec."""
    seen = []

    def spy(links):
        seen.append([tuple(link) for link in links])
        return edge_color_dual(links)

    monkeypatch.setattr(tree_cert, "edge_color_dual", spy)
    mono_tree_certificate(ec)
    (links,) = seen
    return links


def node_degrees(links):
    """Link counts of the left and of the right nodes of the dual."""
    left = [0] * (1 + max(li for li, _ in links))
    right = [0] * (1 + max(ri for _, ri in links))
    for li, ri in links:
        left[li] += 1
        right[ri] += 1
    return left, right


def all_two_colorings(g):
    edges = g.edges()
    for bits in product((RED, BLUE), repeat=len(edges)):
        yield mc.EdgeColoring.of(g, dict(zip(edges, bits)), 2)


def test_dual_links_all_red(c5, monkeypatch):
    ec = mc.EdgeColoring.of(c5, {e: RED for e in c5.edges()}, 2)
    assert node_degrees(dual_links(ec, monkeypatch)) == ([5], [1] * 5)
    cert, derived = mono_tree_certificate(ec)
    assert cert.vertices == (0, 1, 2, 3, 4) and len(derived) == 5


def test_dual_links_k4_split(k4, monkeypatch):
    # red perfect matching, blue 4-cycle on the rest
    ec = mc.EdgeColoring.of(k4, {
        (0, 1): RED, (2, 3): RED,
        (0, 2): BLUE, (0, 3): BLUE, (1, 2): BLUE, (1, 3): BLUE,
    }, 2)
    links = dual_links(ec, monkeypatch)
    assert links == [(0, 0), (0, 0), (1, 0), (1, 0)]
    assert node_degrees(links) == ([2, 2], [4])


def test_edge_color_dual_parallel_links(monkeypatch):
    # triangle, edges 01 and 12 red, 02 blue: vertices 0 and 2 share both
    # their red and their blue component, giving two parallel links
    g = mc.complete_graph(3)
    ec = mc.EdgeColoring.of(g, {(0, 1): RED, (1, 2): RED, (0, 2): BLUE}, 2)
    links = dual_links(ec, monkeypatch)
    assert links == [(0, 0), (0, 1), (0, 0)]
    assert sorted(edge_color_dual(links)) == [1, 2, 3]


def test_edge_color_dual_proper_with_max_degree_colors(rng):
    # random bipartite multigraphs, parallel links included: every node
    # sees each color at most once, and exactly the colors 1..Delta occur
    for _ in range(300):
        nl, nr = rng.randint(1, 6), rng.randint(1, 6)
        links = [(rng.randrange(nl), rng.randrange(nr)) for _ in range(rng.randint(1, 30))]
        colors = edge_color_dual(links)
        left, right = node_degrees(links)
        assert set(colors) == set(range(1, max(left + right) + 1))
        at_left = {(li, c) for (li, _), c in zip(links, colors)}
        at_right = {(ri, c) for (_, ri), c in zip(links, colors)}
        assert len(at_left) == len(at_right) == len(links)


def test_edge_color_dual_requires_two_colors(c5):
    ec3 = mc.EdgeColoring.of(c5, {e: 1 for e in c5.edges()}, 3)
    with pytest.raises(ValueError):
        mono_tree_certificate(ec3)


def test_improper_link_colors_are_an_internal_inconsistency(tmp_path, monkeypatch, capsys):
    # the path 0-1-2-3 in red beside an isolated vertex 4: the largest
    # component has 4 vertices, so the dual needs exactly 4 link colors
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3)])
    ec = mc.EdgeColoring.of(g, {e: RED for e in g.edges()}, 2)
    gf, cf = tmp_path / "g.txt", tmp_path / "c.txt"
    gf.write_text(mc.write_graph(g, "edges"))
    cf.write_text(coloring_text(ec))
    for forged, named in (((1, 1, 1, 1, 1), "exactly max_degree colors"),
                          ((1, 1, 2, 3, 4), r"edge \(0,1\) lies inside class 0")):
        monkeypatch.setattr(tree_cert, "edge_color_dual", lambda links, c=forged: c)
        with pytest.raises(InternalInconsistencyError, match=named):
            mono_tree_certificate(ec)
        # the code is wrong, not the input: a fault, with its traceback
        assert main(["tree-cert", str(gf), "--coloring", str(cf)]) == 4
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" in err and "InternalInconsistencyError" in err


def test_pipeline_exhaustive_small(c5, k4):
    for g in (c5, k4):
        for ec in all_two_colorings(g):
            cert, derived = mono_tree_certificate(ec)
            assert len(cert.vertices) == len(derived) == oracle_max_comp(g, ec)
            assert check_partition(g, derived) == []
            assert check_tree_certificate(ec, cert, derived) == []


def test_max_mono_component_matches_oracle(petersen, rng, random_coloring):
    for _ in range(200):
        ec = random_coloring(petersen, 2, rng)
        cert, _ = mono_tree_certificate(ec)
        assert cert.color in (RED, BLUE)
        assert len(cert.vertices) == oracle_max_comp(petersen, ec)


def test_max_mono_component_tie_break(k4):
    # red and blue both induce one spanning component: prefer lowest vertex,
    # then red
    ec = mc.EdgeColoring.of(k4, {
        (0, 1): RED, (1, 2): RED, (2, 3): RED,
        (0, 2): BLUE, (0, 3): BLUE, (1, 3): BLUE,
    }, 2)
    cert, _ = mono_tree_certificate(ec)
    assert cert.color == RED and cert.vertices == (0, 1, 2, 3)


def test_mono_tree_certificate_valid(grotzsch, rng, random_coloring):
    for _ in range(50):
        ec = random_coloring(grotzsch, 2, rng)
        cert, derived = mono_tree_certificate(ec)
        assert check_tree_certificate(ec, cert, derived) == []
        assert len(derived) == len(cert.vertices)
        assert len(cert.vertices) >= 4
        assert len(cert.edges) == len(cert.vertices) - 1
    # a path is 2-chromatic; alternate its colors so every monochromatic
    # component has 2 vertices
    g = mc.path_graph(6)
    ec = mc.EdgeColoring.of(g, {e: RED if e[0] % 2 == 0 else BLUE for e in g.edges()}, 2)
    cert, derived = mono_tree_certificate(ec)
    assert len(cert.vertices) == len(derived) == 2
    assert check_tree_certificate(ec, cert, derived) == []


def test_tree_certificate_json_round_trip(c5):
    ec = mc.EdgeColoring.of(c5, {e: RED for e in c5.edges()}, 2)
    cert, _ = mono_tree_certificate(ec)
    again = mc.TreeCertificate.from_json(cert.to_json())
    assert again == cert


def test_check_tree_certificate_catches_tampering(c5):
    ec = mc.EdgeColoring.of(c5, {e: RED for e in c5.edges()}, 2)
    cert, derived = mono_tree_certificate(ec)
    assert check_tree_certificate(ec, cert, derived) == []

    wrong_color = mc.TreeCertificate(BLUE, cert.edges, cert.vertices)
    assert check_tree_certificate(ec, wrong_color, derived)

    cyclic = mc.TreeCertificate(RED, tuple(sorted(cert.edges + ((0, 4),))), cert.vertices)
    assert any("cycle" in p or "|V|-1" in p for p in check_tree_certificate(ec, cyclic, derived))

    fake_edge = mc.TreeCertificate(RED, ((0, 2),) + cert.edges[1:], cert.vertices)
    assert check_tree_certificate(ec, fake_edge, derived)

    # a smaller tree than its derived classes, and derived classes that
    # lack a vertex or hold an edge
    shrunk = mc.TreeCertificate(RED, cert.edges[:2], (0, 1, 2))
    assert any("more than" in p for p in check_tree_certificate(ec, shrunk, derived))
    assert any("cover" in p for p in check_tree_certificate(ec, cert, derived[1:]))
    joined = ((0, 1),) + tuple(c for c in derived if 0 not in c and 1 not in c)
    assert any("inside class 0" in p for p in check_tree_certificate(ec, cert, joined))


@st.composite
def forged_tree_certificates(draw):
    """A tree on some of the vertices of a host of 2 to 7, then up to two
    forgeries, each putting 0 to 2 pairs in place of one edge, or 0 to 2
    vertices in place of one vertex, drawn from the tree's vertices or from
    -1..n. The host's vertex pairs are uncolored, color 1 or color 2; the
    certificate's are mostly color 1."""
    n = draw(st.integers(2, 7))
    vertices = draw(st.permutations(range(n)))[:draw(st.integers(1, n))]
    edges = [(v, vertices[draw(st.integers(0, i - 1))]) for i, v in enumerate(vertices) if i]
    near = st.sampled_from(vertices) | st.integers(-1, n)
    for _ in range(draw(st.integers(0, 2))):
        part = draw(st.sampled_from([edges, vertices]))
        i = draw(st.integers(0, len(part)))
        part[i:i + 1] = draw(st.lists(st.tuples(near, near) if part is edges else near,
                                      max_size=2))
    claimed = {tuple(sorted(e)) for e in edges}
    colors = {e: c for e in combinations(range(n), 2) if (c := draw(
        st.sampled_from([1, 1, 1, 2]) if e in claimed else st.integers(0, 2)))}
    ec = mc.EdgeColoring.of(Graph.from_edges(n, colors), colors, 2)
    return ec, mc.TreeCertificate(1, tuple(edges), tuple(vertices))


TRIANGLE = ((0, 1), (0, 2), (1, 2))


@given(forged_tree_certificates())
# |V|-1 edges that do not connect V: a triangle beside a vertex
@example((mc.EdgeColoring.of(Graph.from_edges(4, TRIANGLE), dict.fromkeys(TRIANGLE, 1), 2),
          mc.TreeCertificate(1, TRIANGLE, (0, 1, 2, 3))))
@settings(max_examples=400, deadline=None)
def test_check_tree_certificate_accepts_only_connected_edges(case):
    # the checker has no connectivity test of its own: with no other tree
    # problem, |V|-1 edges inside V that close no cycle join V into one
    ec, cert = case
    derived = tuple((v,) for v in range(ec.graph.n))
    problems = check_tree_certificate(ec, cert, derived)
    if not [p for p in problems if not p.startswith("derived coloring")]:
        assert edges_connect(cert.vertices, cert.edges)


def test_check_tree_certificate_rejects_forest():
    g = Graph.from_edges(5, [(0, 1), (0, 4), (1, 2), (2, 3)])
    ec = mc.EdgeColoring.of(g, {e: RED for e in g.edges()}, 2)
    split = mc.TreeCertificate(RED, ((0, 1), (2, 3)), (0, 1, 2, 3))
    derived = ((0, 2), (1, 3), (4,))
    assert any("|V|-1" in p for p in check_tree_certificate(ec, split, derived))
