import random

import monocert as mc
from monocert.chromatic import _greedy_clique, greedy_upper
from monocert.graphs import Graph, check_partition
from monocert.hunter import mycielskian, random_graph

from helpers import cycle_graph
from oracles import chromatic_number_dp


def test_verify_proper(c5):
    assert check_partition(c5, ((0, 2), (1, 3), (4,))) == []
    assert check_partition(c5, ((0, 2), (1, 3, 4))) == ["edge (3,4) lies inside class 1"]
    assert check_partition(c5, ((0,), (1,))) == [
        "classes do not cover vertices 0..n-1 exactly"
    ]


def test_greedy_upper_orders(petersen):
    r = greedy_upper(petersen)
    assert check_partition(petersen, r.witness) == []
    assert r.lower <= 3 <= r.upper
    assert not r.exact or r.lower == r.upper


def test_clique_lower_examples(c5, k4, petersen, grotzsch):
    # chi_exact starts its search from this clique as its lower bound
    def clique_lower(g):
        return len(_greedy_clique(g))

    assert clique_lower(mc.complete_graph(6)) == 6
    assert clique_lower(c5) == 2
    assert clique_lower(k4) == 4
    assert clique_lower(petersen) == 2
    assert clique_lower(grotzsch) == 2  # triangle-free but chromatic number 4
    assert clique_lower(Graph.from_edges(3, [])) == 1
    assert clique_lower(Graph.from_edges(0, [])) == 0


def test_exact_on_named_graphs(c5, k4, petersen, grotzsch):
    cases = [
        (Graph.from_edges(0, []), 0),
        (Graph.from_edges(4, []), 1),
        (mc.path_graph(5), 2),
        (c5, 3),
        (k4, 4),
        (petersen, 3),
        (grotzsch, 4),
        (mc.complete_multipartite([3, 3, 3]), 3),
        (cycle_graph(6), 2),
    ]
    for g, want in cases:
        r = mc.chi_exact(g)
        assert r.exact
        assert r.lower == r.upper == want
        if want:
            assert check_partition(g, r.witness) == [] and len(r.witness) == want


def test_exact_matches_subset_dp(rng):
    for _ in range(40):
        g = random_graph(rng.randint(1, 11), rng.choice([0.2, 0.4, 0.7]), rng)
        r = mc.chi_exact(g)
        assert r.exact
        assert r.upper == chromatic_number_dp(g)
        assert check_partition(g, r.witness) == []


def test_mycielski_chain():
    g = mc.complete_graph(2)
    for want in (2, 3, 4, 5):
        r = mc.chi_exact(g)
        assert r.exact and r.upper == want
        g = mycielskian(g)


def test_budget_honesty(grotzsch):
    r = mc.chi_exact(grotzsch, budget=1)
    assert not r.exact
    assert r.lower <= 4 <= r.upper
    assert check_partition(grotzsch, r.witness) == []
    # the inexact answer still brackets the truth
    full = mc.chi_exact(grotzsch)
    assert r.lower <= full.upper <= r.upper


def test_budget_cuts_at_the_same_node():
    # (lower, upper) at budgets 1, 10, 100, 1,000 and 10,000, recorded from
    # the recursive search the loop replaced: a search that counts nodes
    # differently, or branches in another order, stops elsewhere
    m5 = mc.complete_graph(2)
    for _ in range(4):
        m5 = mycielskian(m5)
    cases = [
        (m5, [(2, 6)] * 5),
        (random_graph(30, 0.5, random.Random(9)),
         [(6, 8), (6, 8), (6, 7), (7, 7), (7, 7)]),
        (random_graph(30, 0.5, random.Random(12)),
         [(6, 8), (6, 8), (6, 8), (7, 7), (7, 7)]),
    ]
    for g, want in cases:
        got = [mc.chi_exact(g, budget=b) for b in (1, 10, 100, 1_000, 10_000)]
        assert [(r.lower, r.upper) for r in got] == want


def test_chi_result_json(c5):
    r = mc.chi_exact(c5)
    d = r.to_json()
    assert d["lower"] == d["upper"] == 3 and d["exact"] is True
    assert sorted(v for cls in d["classes"] for v in cls) == list(range(5))
