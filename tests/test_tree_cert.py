from itertools import product

import pytest

import monocert as mc
from monocert.graphs import Graph, check_partition
from monocert.tree_cert import (
    BLUE,
    RED,
    DualMultigraph,
    build_dual,
    edge_color_dual,
    mono_tree_certificate,
    vertex_coloring_from_dual,
)
from monocert.verify import check_tree_certificate

from oracles import max_mono_component_size


def oracle_max_comp(g, ec):
    colors = {(u, v): c for u, v, c in ec.to_json()}
    return max(max_mono_component_size(g, colors, c) for c in (RED, BLUE))


def certify(ec):
    """The tree certificate of ec and its derived classes."""
    dual = build_dual(ec)
    derived = vertex_coloring_from_dual(ec.graph, dual, edge_color_dual(dual))
    return mono_tree_certificate(ec, dual), derived


def all_two_colorings(g):
    edges = g.edges()
    for bits in product((RED, BLUE), repeat=len(edges)):
        yield mc.EdgeColoring.of(g, dict(zip(edges, bits)), 2)


def test_build_dual_all_red(c5):
    ec = mc.EdgeColoring.of(c5, {e: RED for e in c5.edges()}, 2)
    dual = build_dual(ec)
    assert len(dual.left) == 1 and len(dual.right) == 5
    assert dual.max_degree() == 5


def test_build_dual_k4_split(k4):
    # red perfect matching, blue 4-cycle on the rest
    ec = mc.EdgeColoring.of(k4, {
        (0, 1): RED, (2, 3): RED,
        (0, 2): BLUE, (0, 3): BLUE, (1, 2): BLUE, (1, 3): BLUE,
    }, 2)
    dual = build_dual(ec)
    assert [len(c) for c in dual.left] == [2, 2]
    assert [len(c) for c in dual.right] == [4]
    assert dual.max_degree() == 4


def test_dual_validation():
    DualMultigraph(((0, 1),), ((0,), (1,)), ((0, 0), (0, 1)))
    # vertex 1's link names blue component 0, which lacks vertex 1
    with pytest.raises(ValueError, match="not containing it"):
        DualMultigraph(((0, 1),), ((0,), (1,)), ((0, 0), (0, 0)))
    with pytest.raises(ValueError, match="not containing it"):
        DualMultigraph(((0,), (1,)), ((0, 1),), ((0, 0), (0, 0)))
    # components out of order by minimum vertex
    with pytest.raises(ValueError, match="ordered"):
        DualMultigraph(((1,), (0,)), ((0, 1),), ((1, 0), (0, 0)))
    # a component holding a vertex no link names: degree below its size
    with pytest.raises(ValueError, match="degree"):
        DualMultigraph(((0, 1),), ((0, 1),), ((0, 0),))


def test_edge_color_dual_parallel_links():
    # triangle, edges 01 and 12 red, 02 blue: vertices 0 and 2 share both
    # their red and their blue component, giving two parallel links
    g = mc.complete_graph(3)
    ec = mc.EdgeColoring.of(g, {(0, 1): RED, (1, 2): RED, (0, 2): BLUE}, 2)
    dual = build_dual(ec)
    assert len(dual.links) != len(set(dual.links))
    colors = edge_color_dual(dual)
    assert set(colors) == set(range(1, dual.max_degree() + 1))
    assert check_partition(g, vertex_coloring_from_dual(g, dual, colors)) == []


def test_edge_color_dual_requires_two_colors(c5):
    ec3 = mc.EdgeColoring.of(c5, {e: 1 for e in c5.edges()}, 3)
    with pytest.raises(ValueError):
        build_dual(ec3)


def test_vertex_coloring_from_dual_rejects_improper(c5):
    ec = mc.EdgeColoring.of(c5, {e: RED for e in c5.edges()}, 2)
    dual = build_dual(ec)
    bad = (1,) * 5  # one color at a degree-5 left node
    with pytest.raises(ValueError):
        vertex_coloring_from_dual(c5, dual, bad)
    with pytest.raises(ValueError):
        vertex_coloring_from_dual(c5, dual, tuple(range(1, 5)))
    # proper on the dual of the path 0-1-2, but not on the triangle over it
    p3 = mc.EdgeColoring.of(mc.path_graph(3), {(0, 1): RED, (1, 2): BLUE}, 2)
    with pytest.raises(ValueError, match=r"not come from this graph's dual: "
                       r"edge \(0,2\) lies inside class 0$"):
        vertex_coloring_from_dual(mc.complete_graph(3), build_dual(p3), (1, 2, 1))


def test_pipeline_exhaustive_small(c5, k4):
    for g in (c5, k4):
        for ec in all_two_colorings(g):
            dual = build_dual(ec)
            delta = dual.max_degree()
            assert delta == oracle_max_comp(g, ec)
            colors = edge_color_dual(dual)
            assert set(colors) == set(range(1, delta + 1))
            derived = vertex_coloring_from_dual(g, dual, colors)
            assert check_partition(g, derived) == []
            assert len(derived) == delta


def test_max_mono_component_matches_oracle(petersen, rng, random_coloring):
    for _ in range(200):
        ec = random_coloring(petersen, 2, rng)
        cert = mono_tree_certificate(ec, build_dual(ec))
        assert cert.color in (RED, BLUE)
        assert len(cert.vertices) == oracle_max_comp(petersen, ec)


def test_max_mono_component_tie_break(k4):
    # red and blue both induce one spanning component: prefer lowest vertex,
    # then red
    ec = mc.EdgeColoring.of(k4, {
        (0, 1): RED, (1, 2): RED, (2, 3): RED,
        (0, 2): BLUE, (0, 3): BLUE, (1, 3): BLUE,
    }, 2)
    cert = mono_tree_certificate(ec, build_dual(ec))
    assert cert.color == RED and cert.vertices == (0, 1, 2, 3)


def test_mono_tree_certificate_valid(grotzsch, rng, random_coloring):
    for _ in range(50):
        ec = random_coloring(grotzsch, 2, rng)
        cert, derived = certify(ec)
        assert check_tree_certificate(ec, cert, derived) == []
        assert len(derived) == len(cert.vertices)
        assert len(cert.vertices) >= 4
        assert len(cert.edges) == len(cert.vertices) - 1


def test_mono_tree_certificate_rejects_foreign_dual():
    # a path is 2-chromatic; alternate its colors so every monochromatic
    # component has 2 vertices
    g = mc.path_graph(6)
    ec = mc.EdgeColoring.of(g, {e: RED if e[0] % 2 == 0 else BLUE for e in g.edges()}, 2)
    cert, derived = certify(ec)
    assert len(cert.vertices) == len(derived) == 2
    assert check_tree_certificate(ec, cert, derived) == []
    # the dual of another coloring names a component this one lacks
    all_red = mc.EdgeColoring.of(g, {e: RED for e in g.edges()}, 2)
    with pytest.raises(ValueError, match="not a component"):
        mono_tree_certificate(ec, build_dual(all_red))


def test_tree_certificate_json_round_trip(c5):
    ec = mc.EdgeColoring.of(c5, {e: RED for e in c5.edges()}, 2)
    cert = mono_tree_certificate(ec, build_dual(ec))
    again = mc.TreeCertificate.from_json(cert.to_json())
    assert again == cert


def test_check_tree_certificate_catches_tampering(c5):
    ec = mc.EdgeColoring.of(c5, {e: RED for e in c5.edges()}, 2)
    cert, derived = certify(ec)
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


def test_check_tree_certificate_rejects_forest():
    g = Graph.from_edges(5, [(0, 1), (0, 4), (1, 2), (2, 3)])
    ec = mc.EdgeColoring.of(g, {e: RED for e in g.edges()}, 2)
    split = mc.TreeCertificate(RED, ((0, 1), (2, 3)), (0, 1, 2, 3))
    derived = ((0, 2), (1, 3), (4,))
    assert any("|V|-1" in p for p in check_tree_certificate(ec, split, derived))
