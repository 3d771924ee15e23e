from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

import monocert as mc
from monocert.graphs import Graph, InternalInconsistencyError
from monocert.matching import (
    MatchingTargets,
    ReducedInstance,
    find_mono_matching,
    find_mono_matching_kiraly,
    kiraly_reduce,
    lift_matching,
    maximum_matching,
    miss_witness,
    ramsey_matching_number,
)
from monocert.hunter import random_graph
from monocert.verify import check_matching_certificate, check_reduced_instance

from oracles import first_fit_merge, matching_number_recursive, matching_number_subsets


def test_targets_validation():
    MatchingTargets((3, 2, 2))
    with pytest.raises(ValueError):
        MatchingTargets((2, 3))
    with pytest.raises(ValueError):
        MatchingTargets((2, 0))
    with pytest.raises(ValueError):
        MatchingTargets(())
    assert MatchingTargets.of([1, 3, 2]).targets == (3, 2, 1)


def test_ramsey_matching_number_values():
    assert ramsey_matching_number(MatchingTargets((1,))) == 2
    assert ramsey_matching_number(MatchingTargets((2, 2))) == 5
    assert ramsey_matching_number(MatchingTargets((3, 2))) == 7
    assert ramsey_matching_number(MatchingTargets((3, 3))) == 8
    assert ramsey_matching_number(MatchingTargets((2, 2, 2))) == 6


def test_maximum_matching_examples(c5, petersen):
    assert maximum_matching(mc.complete_graph(4)) == [(0, 1), (2, 3)]
    assert len(maximum_matching(c5)) == 2
    assert len(maximum_matching(petersen)) == 5
    assert maximum_matching(Graph.from_edges(3, [])) == []
    # two triangles joined by a bridge: odd components force blossoms
    g = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)])
    assert len(maximum_matching(g)) == 3


def test_maximum_matching_is_a_matching(rng):
    for _ in range(100):
        g = random_graph(rng.randint(0, 12), rng.choice([0.2, 0.5, 0.8]), rng)
        mm = maximum_matching(g)
        ends = [v for e in mm for v in e]
        assert len(ends) == len(set(ends))
        assert all(g.has_edge(u, v) for u, v in mm)
        assert len(mm) == matching_number_recursive(g)


def test_maximum_matching_matches_subset_oracle(rng):
    for _ in range(30):
        g = random_graph(rng.randint(1, 8), 0.5, rng)
        if g.m <= 16:
            assert len(maximum_matching(g)) == matching_number_subsets(g)


def test_maximum_matching_atlas(atlas7):
    for g in atlas7:
        assert len(maximum_matching(g)) == matching_number_recursive(g)


def test_find_mono_matching_exhaustive_k5():
    # chi(K5) = 5 = ramsey number of (2,2), so every 2-coloring carries
    # a monochromatic 2-matching
    g = mc.complete_graph(5)
    targets = MatchingTargets((2, 2))
    edges = g.edges()
    for bits in product((1, 2), repeat=len(edges)):
        ec = mc.EdgeColoring.of(g, dict(zip(edges, bits)), 2)
        cert = find_mono_matching(ec, targets)
        assert cert is not None
        assert len(cert.edges) == cert.target == 2
        assert check_matching_certificate(ec, cert, targets) == []


def test_find_mono_matching_none_when_avoidable():
    # a star has matching number 1 regardless of the coloring
    h = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    hec = mc.EdgeColoring.of(h, {(0, 1): 1, (0, 2): 1, (0, 3): 2}, 2)
    assert find_mono_matching(hec, MatchingTargets((2, 2))) is None
    assert find_mono_matching(hec, MatchingTargets((1, 1))) is not None


def test_miss_witness_refuses_classes_reaching_ramsey():
    h = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    hec = mc.EdgeColoring.of(h, {(0, 1): 1, (0, 2): 1, (0, 3): 2}, 2)
    targets = MatchingTargets((2, 2))
    ri = kiraly_reduce(hec, mc.greedy_upper(h).witness)
    assert miss_witness(ri, targets) == ((0,), (1, 2, 3))
    # K5 has R(2,2) = 5 classes that no merge can join, so no miss may
    # ever be reported on it
    k5 = mc.complete_graph(5)
    ec = mc.EdgeColoring.of(k5, {e: 1 for e in k5.edges()}, 2)
    with pytest.raises(InternalInconsistencyError, match="reach the matching Ramsey number 5"):
        miss_witness(kiraly_reduce(ec, mc.greedy_upper(k5).witness), targets)
    with pytest.raises(ValueError):
        find_mono_matching(hec, MatchingTargets((2, 2, 2)))


def test_certificate_json_round_trip():
    cert = mc.MatchingCertificate(2, 2, ((0, 1), (2, 3)))
    assert mc.MatchingCertificate.from_json(cert.to_json()) == cert


def test_check_matching_certificate_catches_tampering(c5):
    ec = mc.EdgeColoring.of(c5, {e: 1 for e in c5.edges()}, 2)
    targets = MatchingTargets((2, 2))
    good = mc.MatchingCertificate(1, 2, ((0, 1), (2, 3)))
    assert check_matching_certificate(ec, good, targets) == []
    for bad in (
        mc.MatchingCertificate(2, 2, ((0, 1), (2, 3))),  # wrong color
        mc.MatchingCertificate(1, 2, ((0, 1), (1, 2))),  # shared endpoint
        mc.MatchingCertificate(1, 2, ((0, 1),)),  # too few edges
        mc.MatchingCertificate(1, 1, ((0, 1),)),  # target below the color's
        mc.MatchingCertificate(3, 2, ((0, 1), (2, 3))),  # color past t
        mc.MatchingCertificate(1, 2, ((0, 2), (1, 3))),  # not edges of C5
    ):
        assert check_matching_certificate(ec, bad, targets), bad


# ---------------------------------------------------------------------------
# reduction route

def test_kiraly_reduce_c5(c5):
    ec = mc.EdgeColoring.of(c5, {e: 1 if e[0] == 0 else 2 for e in c5.edges()}, 2)
    ri = kiraly_reduce(ec, ((0, 2), (1, 3), (4,)))
    assert ri.k == 3 and ri.t == 2
    assert set(ri.pairs) == {(0, 1), (0, 2), (1, 2)}
    for color, (u, v) in ri.pairs.values():
        assert c5.has_edge(u, v)
        assert color == ec.color_of(u, v)
    assert check_reduced_instance(ec, ri) == []
    assert ReducedInstance.from_json(ri.to_json()) == ri
    bad = ri.to_json()
    bad["pairs"][0]["j"] = 3  # names a class that does not exist
    with pytest.raises(ValueError):
        ReducedInstance.from_json(bad)


def test_kiraly_reduce_merges_disconnected_classes():
    # two disjoint edges, 2-colored; the two classes of the proper coloring
    # that pair non-adjacent vertices get merged down to k=1 ... build a
    # case where classes {0,2} and {1,3} cross, but {0,1} vs {2,3} do not
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    ec = mc.EdgeColoring.of(g, {(0, 1): 1, (2, 3): 1}, 1)
    ri = kiraly_reduce(ec, ((0, 2), (1, 3)))
    assert ri.k == 2
    assert ri.pairs == {(0, 1): (1, (0, 1))}
    # now a coloring whose classes have no crossing edges at all
    with pytest.raises(ValueError, match=r"not proper: edge \(0,1\) lies inside class 0$"):
        kiraly_reduce(ec, ((0, 1), (2, 3)))


def test_kiraly_reduce_merge_to_single_class():
    g = Graph.from_edges(2, [])
    ec = mc.EdgeColoring.of(g, {}, 1)
    ri = kiraly_reduce(ec, ((0,), (1,)))
    assert ri.k == 1 and ri.pairs == {}


def test_kiraly_reduce_picks_smallest_color():
    # both edges of P3 cross the same class pair; the smaller color wins
    p3 = mc.path_graph(3)
    ec = mc.EdgeColoring.of(p3, {(0, 1): 2, (1, 2): 1}, 2)
    ri = kiraly_reduce(ec, ((0, 2), (1,)))
    assert ri.k == 2
    assert ri.pairs == {(0, 1): (1, (1, 2))}


@st.composite
def sparse_graphs(draw, max_n=14):
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=n)
                 if pairs else st.just([]))
    return Graph.from_edges(n, edges)


def merge_with_restart(g, classes):
    """The merge rule written out: merge the first pair with no crossing edge,
    then scan again from (0, 1)."""
    classes = [list(c) for c in classes]
    while True:
        pair = next(((i, j) for i in range(len(classes)) for j in range(i + 1, len(classes))
                     if not any(g.has_edge(u, v) for u in classes[i] for v in classes[j])),
                    None)
        if pair is None:
            return tuple(tuple(c) for c in classes)
        i, j = pair
        classes[i] = sorted(classes[i] + classes.pop(j))


@given(sparse_graphs())
@settings(max_examples=150, deadline=None)
def test_kiraly_reduce_merges_like_restart(g):
    # singleton classes on a sparse graph leave many pairs to merge
    ec = mc.EdgeColoring.of(g, {e: 1 for e in g.edges()}, 1)
    singletons = tuple((v,) for v in range(g.n))
    assert kiraly_reduce(ec, singletons).classes == merge_with_restart(g, singletons)


@st.composite
def shuffled_proper_colorings(draw, max_n=12):
    """A graph and a proper coloring of it: vertices take, in a drawn order,
    a color no earlier neighbor has (at most one above those in use); then
    the classes and the vertices within each are shuffled."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = list(combinations(range(n), 2))
    g = Graph.from_edges(n, draw(st.lists(st.sampled_from(pairs), unique=True)
                                 if pairs else st.just([])))
    color: dict[int, int] = {}
    for v in draw(st.permutations(range(n))):
        taken = {color[u] for u in color if g.has_edge(u, v)}
        color[v] = draw(st.sampled_from(
            [c for c in range(max(color.values(), default=-1) + 2) if c not in taken]))
    classes = [[v for v in range(n) if color[v] == c] for c in set(color.values())]
    return g, tuple(tuple(draw(st.permutations(cls))) for cls in draw(st.permutations(classes)))


@given(shuffled_proper_colorings())
@settings(max_examples=200, deadline=None)
def test_kiraly_reduce_merges_first_fit(case):
    g, coloring = case
    ec = mc.EdgeColoring.of(g, {e: 1 for e in g.edges()}, 1)
    ri = kiraly_reduce(ec, coloring)
    assert ri.classes == first_fit_merge(g, coloring)
    # every two merged classes are joined by an edge
    for a, b in combinations(ri.classes, 2):
        assert any(g.has_edge(u, v) for u in a for v in b)


def test_lift_matching_validation():
    g = mc.complete_graph(4)
    ec = mc.EdgeColoring.of(g, {e: 1 for e in g.edges()}, 2)
    ri = kiraly_reduce(ec, ((0,), (1,), (2,), (3,)))
    assert lift_matching(ri, [(0, 1), (2, 3)], 1) == [(0, 1), (2, 3)]
    assert lift_matching(ri, [(1, 0)], 1) == [(0, 1)]
    with pytest.raises(ValueError):
        lift_matching(ri, [(0, 1), (1, 2)], 1)  # class 1 reused
    with pytest.raises(ValueError):
        lift_matching(ri, [(0, 1)], 2)  # wrong color
    with pytest.raises(ValueError):
        lift_matching(ri, [(0, 9)], 1)


def test_reduction_route_end_to_end(rng, random_coloring):
    g = mc.complete_graph(7)
    targets = MatchingTargets((3, 2))
    for _ in range(100):
        ec = random_coloring(g, 2, rng)
        vc = mc.greedy_upper(g).witness
        cert = find_mono_matching_kiraly(kiraly_reduce(ec, vc), targets)
        assert cert is not None
        assert check_matching_certificate(ec, cert, targets) == []
        direct = find_mono_matching(ec, targets)
        assert direct is not None
        assert check_matching_certificate(ec, direct, targets) == []


def test_reduction_route_agrees_with_direct(rng, random_coloring):
    # on arbitrary hosts neither route may find anything, but when the
    # reduction route succeeds its certificate must verify
    targets = MatchingTargets((2, 2))
    for _ in range(60):
        g = random_graph(8, 0.6, rng)
        r = mc.greedy_upper(g)
        if r.upper < 2:
            continue
        ec = random_coloring(g, 2, rng)
        cert = find_mono_matching_kiraly(kiraly_reduce(ec, r.witness), targets)
        if cert is not None:
            assert check_matching_certificate(ec, cert, targets) == []
