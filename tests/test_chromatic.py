import hashlib
import random

from hypothesis import example, given, settings, strategies as st

import monocert as mc
from monocert.chromatic import DEFAULT_BUDGET, _dsatur, _greedy_clique, greedy_upper
from monocert.graphs import Graph, check_partition
from monocert.hunter import mycielskian, random_graph

from helpers import cycle_graph
from oracles import chromatic_number_dp, dsatur_reference, partition_problems


@st.composite
def hosts(draw, max_n):
    """G(m, p) on m of n vertices, the rest isolated, labels shuffled."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    m = draw(st.integers(min_value=0, max_value=n))
    p = draw(st.sampled_from([0.1, 0.3, 0.5, 0.8]))
    rng = draw(st.randoms(use_true_random=False))
    label = list(range(n))
    rng.shuffle(label)
    pairs = [(u, v) for u in range(m) for v in range(u + 1, m)]
    return Graph.from_edges(n, [(label[u], label[v]) for u, v in pairs if rng.random() < p])


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


@given(hosts(max_n=40))
@settings(max_examples=100, deadline=None)
# regular graphs: every degree ties, so the lowest index decides each pick
@example(cycle_graph(7))
@example(mc.kneser_graph(5, 2))
@example(mc.complete_multipartite([3, 3]))
@example(Graph.from_edges(8, [(u, u | 1 << i) for u in range(8) for i in range(3) if not u >> i & 1]))
@example(Graph.from_edges(11, [(u, (u + j) % 11) for u in range(11) for j in (1, 3, 4)]))
def test_dsatur_matches_the_scan(g):
    # the bit-sliced picks are what a scan over all vertices would pick:
    # most colors seen, then highest degree, then lowest index
    assert _dsatur(g) == dsatur_reference(g)


def test_greedy_upper_on_a_large_sparse_host():
    # G(10^4, 4*10^4): a pick is a few big-int operations, not a Python scan
    n, rng, edges = 10_000, random.Random(1), set()
    while len(edges) < 4 * n:
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    g = Graph.from_edges(n, edges)
    r = greedy_upper(g)
    assert check_partition(g, r.witness) == []


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


@given(hosts(max_n=12))
@settings(max_examples=60, deadline=None)
def test_budget_brackets_chi(g):
    chi = chromatic_number_dp(g)
    for budget in (1, 10, 100, DEFAULT_BUDGET):
        r = mc.chi_exact(g, budget=budget)
        assert r.lower <= chi <= r.upper
        assert partition_problems(g, r.witness) == []
        assert not r.exact or r.upper == chi


def test_exact_on_a_long_path_plus_c5():
    # P10000 plus a disjoint C5: the search goes 10^4 levels deep
    n = 10_000
    path = [(i, i + 1) for i in range(n - 1)]
    cycle = [(n + i, n + (i + 1) % 5) for i in range(5)]
    g = Graph.from_edges(n + 5, path + cycle)
    r = mc.chi_exact(g)
    assert (r.lower, r.upper, r.exact) == (3, 3, True)
    assert check_partition(g, r.witness) == []


def test_budget_cuts_at_the_same_node():
    # (lower, upper) at budgets 1, 10, 100, 1,000 and 10,000, recorded from
    # the recursive search the loop replaced: a search that counts nodes
    # differently, or branches in another order, stops elsewhere. The
    # witness classes at each budget were recorded before the greedy
    # coloring became the search's first leaf.
    m5 = mc.complete_graph(2)
    for _ in range(4):
        m5 = mycielskian(m5)
    m5_greedy = ((0, 2, 11, 13, 16, 18, 39, 41), (1, 3, 12, 14, 17, 19, 21, 46),
                 (4, 15, 20, 40, 43), (5, 6, 7, 8, 9, 22, 28, 29, 30, 31, 32, 45),
                 (10, 23, 24, 25, 26, 27, 33, 34, 35, 36, 37, 38, 44), (42,))
    g9_greedy = ((0, 13, 15, 27), (1, 8, 17, 19, 20), (2, 9, 12), (3, 10, 22, 29),
                 (4, 18, 23, 24), (5, 6, 7, 11, 16), (14, 21, 25, 28), (26,))
    g9_at_100 = ((0, 13, 15, 28), (1, 8, 17, 19, 20), (2, 24, 25), (3, 10, 21, 26),
                 (4, 16, 18, 23, 27), (5, 6, 7, 11), (9, 12, 14, 22, 29))
    g9_optimal = ((0, 13, 15, 28), (1, 8, 19, 20), (2, 24, 25), (3, 10, 21, 26),
                  (4, 17, 18, 23, 27), (5, 6, 7, 11, 16), (9, 12, 14, 22, 29))
    g12_greedy = ((0, 8, 16, 29), (1, 22, 26), (2, 13, 15, 27), (3, 19, 23, 25),
                  (4, 14, 20, 28), (5, 6, 7, 12, 21, 24), (9, 11), (10, 17, 18))
    g12_optimal = ((0, 3, 18, 20), (1, 12, 19, 25, 26), (2, 4, 13, 15, 27),
                   (5, 16, 22, 29), (6, 9, 11, 21, 23), (7, 24, 28), (8, 10, 14, 17))
    cases = [
        (m5, [(2, 6)] * 5, [m5_greedy] * 5),
        (random_graph(30, 0.5, random.Random(9)),
         [(6, 8), (6, 8), (6, 7), (7, 7), (7, 7)],
         [g9_greedy, g9_greedy, g9_at_100, g9_optimal, g9_optimal]),
        (random_graph(30, 0.5, random.Random(12)),
         [(6, 8), (6, 8), (6, 8), (7, 7), (7, 7)],
         [g12_greedy] * 3 + [g12_optimal] * 2),
    ]
    for g, want, witnesses in cases:
        got = [mc.chi_exact(g, budget=b) for b in (1, 10, 100, 1_000, 10_000)]
        assert [(r.lower, r.upper) for r in got] == want
        assert [r.witness for r in got] == witnesses


def test_search_sweep_matches_the_parent():
    # one digest of (lower, witness) over 100 seeded G(n, p), n <= 40, at
    # five budgets, and greedy_upper on 40 more with n <= 60, recorded from
    # the saturation-queue search: a search that counts nodes, branches or
    # breaks ties differently changes some witness or where a budget cuts
    ps = (0.1, 0.3, 0.5, 0.7, 0.9)
    results = []
    for i in range(100):
        rng = random.Random(i)
        g = random_graph(rng.randint(1, 40), ps[i % 5], rng)
        for budget in (1, 10, 100, 1_000, 100_000):
            r = mc.chi_exact(g, budget)
            results.append((r.lower, r.witness))
    for i in range(40):
        rng = random.Random(1_000 + i)
        r = greedy_upper(random_graph(rng.randint(1, 60), ps[i % 5], rng))
        results.append((r.lower, r.witness))
    digest = hashlib.sha256(repr(results).encode()).hexdigest()
    assert digest == "228ae1445479e9326c3df6e151db71556934fb5f2ec8ca3eea30931ebf3d393d"


def test_chi_result_json(c5):
    r = mc.chi_exact(c5)
    d = r.to_json()
    assert d["lower"] == d["upper"] == 3 and d["exact"] is True
    assert sorted(v for cls in d["classes"] for v in cls) == list(range(5))
