import inspect
import io
import sys
from itertools import combinations, combinations_with_replacement

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import monocert as mc
from monocert import hunter
from monocert.graphs import Graph, canonical_edge
from monocert.hunter import (
    AcyclicPattern,
    HuntReport,
    check_hunt_counterexample,
    contains_forest,
    generate_candidates,
    hunt,
    kneser_graph,
    matching_pattern,
    mycielskian,
    path_pattern,
    ramsey_bruteforce,
    random_graph,
    star_pattern,
)

from helpers import cycle_graph
from oracles import (
    GOODNESS_REGRESSIONS,
    burr_roberts,
    contains_injection,
    directed_edge_orbits,
    first_avoiding_coloring,
    gerencser_gyarfas,
    matching_number_recursive,
)


def test_pattern_validation():
    with pytest.raises(ValueError):
        AcyclicPattern(cycle_graph(3))
    with pytest.raises(ValueError):
        AcyclicPattern(mc.complete_graph(4))
    with pytest.raises(ValueError, match="pattern contains a cycle"):
        AcyclicPattern(Graph.from_edges(8, [(0, 1), (5, 6), (3, 5), (6, 3)]))
    with pytest.raises(ValueError):
        matching_pattern(0)


def test_contains_forest_examples(c5, k4, petersen):
    assert contains_forest(c5, path_pattern(5)) is not None
    assert contains_forest(c5, star_pattern(3)) is None
    assert contains_forest(k4, star_pattern(3)) is not None
    assert contains_forest(c5, matching_pattern(2)) is not None
    assert contains_forest(c5, matching_pattern(3)) is None
    assert contains_forest(petersen, matching_pattern(5)) is not None
    assert contains_forest(mc.path_graph(3), path_pattern(4)) is None
    assert contains_forest(mc.complete_graph(2), AcyclicPattern(Graph.from_edges(0, []))) == ()


def test_contains_forest_returns_real_embedding(k4):
    p = path_pattern(4)
    images = contains_forest(k4, p)
    assert images is not None and len(set(images)) == 4
    for u, v in p.graph.edges():
        assert k4.has_edge(images[u], images[v])


def test_contains_forest_matches_injection_oracle(rng):
    # matchings, relabelled ones included, take the blossom; the rest embed
    # depth first; either way a find is a real embedding
    patterns = [
        path_pattern(3), path_pattern(4), star_pattern(3),
        matching_pattern(2), matching_pattern(3),
        AcyclicPattern(Graph.from_edges(6, [(0, 5), (1, 3), (2, 4)])),
        AcyclicPattern(Graph.from_edges(5, [(0, 1), (0, 2), (3, 4)])),
    ]
    for _ in range(40):
        g = random_graph(rng.randint(2, 7), rng.choice([0.3, 0.6]), rng)
        for p in patterns:
            images = contains_forest(g, p)
            assert (images is not None) == contains_injection(g, p.graph)
            if images is not None:
                assert len(set(images)) == p.graph.n
                assert all(g.has_edge(images[u], images[v]) for u, v in p.graph.edges())


@st.composite
def forests(draw, max_n=10):
    """A forest on relabelled vertices: each vertex after the first joins an
    earlier one or starts a new tree."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    label = draw(st.permutations(range(n)))
    edges = []
    for i in range(1, n):
        j = draw(st.integers(min_value=-1, max_value=i - 1))
        if j >= 0:
            edges.append((label[i], label[j]))
    return Graph.from_edges(n, edges)


@given(forests(), st.data())
@settings(max_examples=200, deadline=None)
def test_embedding_order_places_every_vertex_once(p, data):
    seed = data.draw(st.sampled_from(p.edges()) | st.none()) if p.m else None
    order = hunter._embedding_order(p, hunter._embedding_roots(p), seed)
    placed = list(seed or ())
    for v, parent in order:
        assert v not in placed
        assert parent == -1 or (p.has_edge(v, parent) and parent in placed)
        placed.append(v)
    assert sorted(placed) == list(range(p.n))
    # parent links and the seed edge are all of the pattern's edges, so an
    # embedding that keeps each link keeps the pattern
    links = {canonical_edge(v, parent) for v, parent in order if parent >= 0}
    if seed:
        links.add(canonical_edge(*seed))
    assert links == set(p.edges())


# ---------------------------------------------------------------------------
# search kernel

PATTERN_MAKERS = {
    "matching:1": lambda: matching_pattern(1),
    "matching:2": lambda: matching_pattern(2),
    "path:3": lambda: path_pattern(3),
    "star:2": lambda: star_pattern(2),
}


@st.composite
def small_hosts(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), max_size=8, unique=True)) if pairs else []
    return Graph.from_edges(n, edges)


@st.composite
def pattern_lists(draw):
    names = draw(st.lists(st.sampled_from(sorted(PATTERN_MAKERS)), min_size=1, max_size=3))
    if draw(st.booleans()):
        # one object per name, as hunt's [pattern] * t
        made = {name: PATTERN_MAKERS[name]() for name in names}
        return [made[name] for name in names]
    # equal patterns as distinct objects, as ramsey builds them
    return [PATTERN_MAKERS[name]() for name in names]


@given(small_hosts(), pattern_lists())
@example(mc.complete_graph(4), [matching_pattern(2) for _ in range(3)])
@example(mc.complete_graph(4), [matching_pattern(2), matching_pattern(1)])
@example(mc.complete_graph(4), [path_pattern(3), star_pattern(2), path_pattern(3)])
# two star:2 colors leave each vertex room for 2 edges: K4 has a vertex over
# it, K3 and C5 fill every vertex exactly with an odd vertex count
@example(mc.complete_graph(4), [star_pattern(2), star_pattern(2)])
@example(mc.complete_graph(3), [star_pattern(2), star_pattern(2)])
@example(cycle_graph(5), [star_pattern(2), star_pattern(2)])
# a path:4 color has no degree limit, so the count must not settle this
@example(mc.complete_graph(4), [star_pattern(2), path_pattern(4)])
@settings(max_examples=200, deadline=None)
def test_search_avoiding_finds_the_first_avoiding_coloring(g, patterns):
    order = hunter._bfs_edge_order(g)
    want = first_avoiding_coloring(g, patterns, order)
    got, exhausted, nodes = hunter._search_avoiding(g, patterns)
    assert nodes >= 1
    if want is None:
        assert got is None and exhausted
    else:
        assert got is not None and not exhausted and got.graph == g
        assert tuple(got.color_of(u, v) for u, v in order) == want


@st.composite
def forest_patterns(draw):
    """Forests of at most 7 vertices with an edge. Half are built symmetric
    from one forest of at most 3 vertices: two copies side by side, joined
    root to root, or hung from a new center."""
    shape = draw(st.sampled_from(["any", "twins", "mirror", "center"]))
    if shape == "any":
        p = draw(forests(max_n=7))
    else:
        half = draw(forests(max_n=3))
        k = half.n
        edges = [e for u, v in half.edges() for e in ((u, v), (k + u, k + v))]
        if shape == "mirror":
            edges.append((0, k))
        elif shape == "center":
            edges += [(0, 2 * k), (k, 2 * k)]
        p = Graph.from_edges(2 * k + (shape == "center"), edges)
    assume(p.m > 0)
    return AcyclicPattern(p)


@given(small_hosts(), forest_patterns(), forest_patterns(), st.integers(1, 3))
@example(mc.complete_graph(5), AcyclicPattern(Graph.from_edges(4, [(0, 1), (2, 3)])),
         path_pattern(3), 2)
@settings(max_examples=200, deadline=None)
def test_forest_patterns_one_plan_per_orbit(g, p, q, t):
    # each plan stands for one orbit of directed pattern edges, so a plan
    # too few would miss copies and the search would part from the oracle
    reps = hunter._edge_orbits(p.graph)
    orbits = directed_edge_orbits(p.graph)
    assert len(reps) == len(orbits)
    assert {next(o for o in orbits if e in o) for e in reps} == orbits
    patterns = [p, q, p][:t]
    order = hunter._bfs_edge_order(g)
    want = first_avoiding_coloring(g, patterns, order)
    got, exhausted, _ = hunter._search_avoiding(g, patterns)
    assert (got is None) == (want is None) == exhausted
    if got is not None:
        assert tuple(got.color_of(u, v) for u, v in order) == want


def test_plan_counts():
    def plans(h):
        return len(hunter._edge_orbits(h.graph))

    for k in (2, 3, 30, 1200):
        assert plans(star_pattern(k)) == 2
    for k in range(3, 10):
        assert plans(path_pattern(k)) == k - 1
    p3, p4 = [(0, 1), (1, 2)], [(3, 4), (4, 5), (5, 6)]
    # two isomorphic components share their plans; unlike ones do not
    assert plans(AcyclicPattern(Graph.from_edges(6, p3 + [(3, 4), (4, 5)]))) == 2
    assert plans(AcyclicPattern(Graph.from_edges(7, p3 + p4))) == 2 + 3
    assert plans(AcyclicPattern(Graph.from_edges(10, [(0, i) for i in range(1, 4)]
                                                  + [(4, i) for i in range(5, 8)]))) == 2


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_exists_matching_matches_oracle(data):
    n = data.draw(st.integers(min_value=0, max_value=10))
    pairs = list(combinations(range(n), 2))
    g = Graph.from_edges(n, data.draw(st.lists(st.sampled_from(pairs), max_size=20))
                         if pairs else [])
    excl = sum(1 << v for v in data.draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=3)))
    excl &= (1 << n) - 1
    rest = Graph.from_edges(n, [(u, v) for u, v in g.edges() if not (excl >> u | excl >> v) & 1])
    nu = matching_number_recursive(rest)
    for k in range(n // 2 + 2):
        assert hunter._exists_matching(g.adj, excl, k, n) == (k <= nu)


def test_search_avoiding_work_counts():
    # interchangeable colors open in order; visiting every relabelling
    # instead reads 281,458 and 3,334 for the two path anchors. K8's degree
    # 7 exceeds the 3 * 2 edges that three star:3 colors leave each vertex,
    # so that refutation is settled by the root's degree count
    k8 = hunter._search_avoiding(mc.complete_graph(8), [star_pattern(3)] * 3)
    assert k8 == (None, True, 1)
    k6 = hunter._search_avoiding(mc.complete_graph(6), [path_pattern(4)] * 3)
    assert k6 == (None, True, 558)
    p6 = hunter._search_avoiding(mc.complete_graph(8), [path_pattern(6)] * 2)
    assert p6 == (None, True, 4339)
    # equal patterns are interchangeable whether or not they are one object
    apart = ramsey_bruteforce([matching_pattern(2) for _ in range(3)], 6)
    shared = ramsey_bruteforce([matching_pattern(2)] * 3, 6)
    assert apart.colorings_examined == shared.colorings_examined == 181


@pytest.mark.parametrize("cap", [0, 1, 5])
def test_search_avoiding_memo_cap(cap, monkeypatch):
    # the memo only saves work: cleared past any cap, the finds, exhaustion
    # flags and node counts stay those of the default cap
    cases = [(8, star_pattern(3), 3), (6, path_pattern(4), 3), (8, path_pattern(6), 2),
             (7, matching_pattern(3), 2), (5, star_pattern(3), 2)]

    def runs():
        for n, p, t in cases:
            found, exhausted, nodes = hunter._search_avoiding(mc.complete_graph(n), [p] * t)
            yield found and found.to_json(), exhausted, nodes

    default = list(runs())
    assert [nodes for _, _, nodes in default] == [1, 558, 4339, 22, 17]
    monkeypatch.setattr(hunter, "_MEMO_CAP", cap)
    assert list(runs()) == default


def test_search_avoiding_pattern_deeper_than_the_stack():
    # the embedder keeps its own stack: a star:40 embeds into K_{1,40} 40
    # levels deep, and a 3,000-edge matching is sought 3,000 levels deep,
    # both under a stack 20 frames deep. The kernel settles star:40 on
    # K_{1,40} at the root, since the center's degree 40 exceeds 39
    g = mc.complete_multipartite([1, 40])
    n = 6000
    rows = [1 << (v ^ 1) for v in range(n)]
    limit = sys.getrecursionlimit()
    depth = len(inspect.stack(0))
    try:
        sys.setrecursionlimit(depth + 20)
        star = contains_forest(g, star_pattern(40))
        whole = hunter._exists_matching(rows, 0, n // 2, n)
        beyond = hunter._exists_matching(rows, 0, n // 2 + 1, n)
    finally:
        sys.setrecursionlimit(limit)
    assert star == tuple(range(41))
    assert hunter._search_avoiding(g, [star_pattern(40)]) == (None, True, 1)
    assert whole is True and beyond is False


# every star tuple with at most 3 colors and 5 leaves (R <= 10 for 3
# colors), and every pair of paths on 2..7 vertices
STAR_TUPLES = [ks for t in (1, 2, 3) for ks in combinations_with_replacement(range(1, 6), t)
               if t < 3 or burr_roberts(ks) <= 10]
PATH_PAIRS = [(n, m) for n in range(2, 8) for m in range(2, n + 1)]


@pytest.mark.parametrize("patterns, r, at_root", [
    *(pytest.param([star_pattern(k) for k in ks], burr_roberts(ks), True,
                   id="star:" + ",".join(map(str, ks))) for ks in STAR_TUPLES),
    *(pytest.param([path_pattern(n), path_pattern(m)], gerencser_gyarfas(n, m), False,
                   id=f"path:{n},{m}") for n, m in PATH_PAIRS),
])
def test_search_avoiding_meets_known_ramsey_numbers(patterns, r, at_root):
    # K_{R-1} has an avoiding coloring and K_R has none, by theorem. On K_R
    # the degree count settles every star tuple: the degree R - 1 exceeds
    # the room sum(k_i - 1) when theta is 2, and equals it with R odd and
    # some k_i - 1 odd when theta is 1
    below, _, _ = hunter._search_avoiding(mc.complete_graph(r - 1), patterns, 2_000_000)
    assert below is not None
    assert all(contains_forest(cls, p) is None for cls, p in zip(below.classes, patterns))
    found, exhausted, nodes = hunter._search_avoiding(mc.complete_graph(r), patterns, 2_000_000)
    assert found is None and exhausted and (nodes == 1 or not at_root)


# ---------------------------------------------------------------------------
# exhaustive arrowing

def test_ramsey_bruteforce_path3():
    p = path_pattern(3)
    below = ramsey_bruteforce([p, p], 2)
    assert not below.arrowing and below.avoiding is not None
    at = ramsey_bruteforce([p, p], 3)
    assert at.arrowing and at.avoiding is None
    assert at.colorings_examined > 0


def test_ramsey_bruteforce_two_matchings():
    p = matching_pattern(2)
    assert not ramsey_bruteforce([p, p], 4).arrowing
    assert ramsey_bruteforce([p, p], 5).arrowing


def test_ramsey_bruteforce_path4():
    p = path_pattern(4)
    r4 = ramsey_bruteforce([p, p], 4)
    assert not r4.arrowing
    assert r4.avoiding.graph == mc.complete_graph(4)
    for sub in r4.avoiding.classes:
        assert contains_forest(sub, p) is None
    assert ramsey_bruteforce([p, p], 5).arrowing


def test_ramsey_bruteforce_asymmetric():
    # one color forbids P3, the other a single edge: K2 already arrows,
    # since the only edge is the second pattern in color 2 and a bare
    # vertex pair has no color-1 escape
    p3 = path_pattern(3)
    e1 = matching_pattern(1)
    r = ramsey_bruteforce([p3, e1], 3)
    assert r.arrowing
    r2 = ramsey_bruteforce([e1, p3], 1)
    assert not r2.arrowing  # no edges to color at all


def test_ramsey_bruteforce_guard():
    p = path_pattern(3)
    with pytest.raises(ValueError):
        ramsey_bruteforce([p, p], 50)
    with pytest.raises(ValueError):
        ramsey_bruteforce([], 3)


# ---------------------------------------------------------------------------
# candidate generators

def test_mycielskian_step():
    m = mycielskian(mc.complete_graph(2))
    # a connected 2-regular graph on 5 vertices is the 5-cycle
    assert m.n == 5 and all(m.adj[v].bit_count() == 2 for v in range(5))
    assert len(mc.connected_components(m)) == 1
    g11 = mycielskian(m)
    assert g11.n == 11 and g11.m == 20
    assert contains_forest(g11, AcyclicPattern(mc.path_graph(3))) is not None
    assert mc.chi_exact(g11).upper == 4


def test_generate_mycielski_stream():
    got = list(generate_candidates("mycielski:3"))
    assert [g.n for g in got] == [2, 5, 11]
    with pytest.raises(ValueError):
        list(generate_candidates("mycielski:0"))


def test_generate_kneser(petersen):
    got = list(generate_candidates("kneser:5,2"))
    assert got == [petersen]
    assert kneser_graph(4, 2).m == 3  # perfect matching on the 6 pairs
    with pytest.raises(ValueError):
        kneser_graph(2, 3)


def test_generate_complete_multipartite():
    got = list(generate_candidates("multipartite:2,2,2"))
    assert len(got) == 1 and got[0].n == 6 and got[0].m == 12


def test_generate_random_with_chi_filter():
    got = list(generate_candidates("random:n=8,p=0.5,count=5,seed=7,chi_min=3"))
    assert len(got) == 5
    for g in got:
        r = mc.chi_exact(g)
        assert r.exact and r.lower >= 3
    assert list(generate_candidates("random:n=8,p=0.5,count=5,chi_min=3", seed=7)) == got
    # a seed in the spec overrides the argument
    assert list(generate_candidates("random:n=8,p=0.5,count=5,seed=7,chi_min=3", seed=1)) == got
    # the filter asks only for a proven chi >= chi_min: at a budget of one
    # node a clique of 3 counts, though chi is left unresolved
    got = list(generate_candidates("random:n=20,p=0.25,count=4,chi_min=3", seed=1, chi_budget=1))
    results = [mc.chi_exact(g, budget=1) for g in got]
    assert len(got) == 4 and all(r.lower >= 3 for r in results)
    assert not all(r.exact for r in results)


@pytest.mark.parametrize("pattern, spec", [
    (path_pattern(4), "random:n=8,p=0.5,count=2,chi_min=3,seed=7"),
    (matching_pattern(2), "random:n=9,p=0.7,count=2,chi_min=5,seed=3"),
    # K2, skipped, then C5, a find at ramsey_value 3 whose check reads chi
    (path_pattern(4), "mycielski:2"),
])
def test_chi_min_draws_are_searched_once(pattern, spec, monkeypatch):
    # generate_candidates runs chi_exact for its filter; neither hunt nor
    # the check of a find may redo it
    searched = []

    def counting_chi_exact(g, budget):
        searched.append(g)
        return mc.chi_exact(g, budget=budget)

    monkeypatch.setattr(hunter, "chi_exact", counting_chi_exact)
    hunter._chi_once.cache_clear()
    find = spec == "mycielski:2"
    report = hunt(pattern, 2, 3 if find else 5, generate_candidates(spec))
    assert (report.counterexample is not None) == find and len(report.candidates) == 2
    assert len(searched) == len(set(searched)) >= 2


def test_generate_graph6_stream(tmp_path, monkeypatch, c5):
    text = mc.write_graph(c5, "g6") + "\n" + mc.write_graph(mc.complete_graph(4), "g6")
    path = tmp_path / "hosts.g6"
    path.write_text(text)
    got = list(generate_candidates(f"g6:{path}"))
    assert got[0] == c5 and got[1].n == 4
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert list(generate_candidates("g6:-")) == got
    with pytest.raises(ValueError):
        list(generate_candidates("nonsense"))


# ---------------------------------------------------------------------------
# the hunt

def test_hunt_finds_planted_counterexample(c5, k4):
    # ramsey_value 3 for two colors of P4 is deliberately too low: C5 is
    # 3-chromatic yet 2-colorable without a monochromatic P4
    report = hunt(path_pattern(4), 2, 3, [c5, k4])
    assert report.counterexample is not None
    ec = report.counterexample
    assert ec.graph == c5
    assert check_hunt_counterexample(path_pattern(4), 3, ec) == []
    assert len(report.candidates) == 1  # stopped at the first hit
    assert report.candidates[0].counterexample


def test_hunt_skips_low_chromatic_candidates(c5):
    bipartite = cycle_graph(6)
    report = hunt(path_pattern(4), 2, 3, [bipartite, c5])
    assert report.candidates[0].skipped_reason is not None
    assert not report.candidates[0].searched
    assert report.counterexample is not None


def test_hunt_records_unresolved_chi(grotzsch):
    report = hunt(path_pattern(4), 2, 5, [grotzsch], chi_budget=1)
    out = report.candidates[0]
    assert not out.searched
    assert "unresolved" in out.skipped_reason
    assert report.counterexample is None


def test_hunt_exhausts_when_no_counterexample():
    # K5 arrows two colors of P4, so at the correct ramsey value the hunt
    # comes back empty-handed with the search space fully covered
    report = hunt(path_pattern(4), 2, 5, [mc.complete_graph(5)])
    out = report.candidates[0]
    assert out.searched and out.exhausted and not out.counterexample
    assert report.counterexample is None
    assert report.colorings_examined == out.colorings_examined > 0


def test_hunt_budget_honesty(k4):
    report = hunt(path_pattern(4), 2, 4, [k4], colorings_budget=1)
    out = report.candidates[0]
    assert out.searched and not out.exhausted and not out.counterexample
    assert report.counterexample is None
    assert out.colorings_examined <= 2


def test_hunt_report_json(c5):
    report = hunt(path_pattern(4), 2, 3, [c5])
    d = report.to_json()
    assert d["t"] == 2 and d["ramsey_value"] == 3
    assert d["candidates_examined"] == 1
    assert d["counterexample"]["graph6"] == mc.write_graph(c5, "g6").strip()
    triples = d["counterexample"]["coloring"]
    assert len(triples) == 5 and all(c in (1, 2) for _, _, c in triples)
    assert HuntReport.from_json(d) == report
    # with the counterexample gone, the candidate still flagged as the find
    # is one hunt never writes
    d["counterexample"] = None
    with pytest.raises(ValueError, match="candidates"):
        HuntReport.from_json(d)


def test_check_hunt_counterexample_rejects_bad_claims(c5):
    ec = mc.EdgeColoring.of(c5, {e: 1 for e in c5.edges()}, 2)
    assert check_hunt_counterexample(path_pattern(4), 3, ec)  # mono P4
    ok_ec = mc.EdgeColoring.of(c5, {
        (0, 1): 1, (1, 2): 1, (2, 3): 2, (3, 4): 1, (0, 4): 2,
    }, 2)
    problems = check_hunt_counterexample(path_pattern(4), 3, ok_ec)
    assert problems == []
    assert check_hunt_counterexample(path_pattern(4), 4, ok_ec)  # chi too low


def test_goodness_regression_table():
    names = [name for name, *_ in GOODNESS_REGRESSIONS]
    assert names == ["star-2", "star-3", "path-4", "path-4-t3"]
    for _, pattern, t, rv in GOODNESS_REGRESSIONS:
        assert pattern.graph.m == pattern.graph.n - 1
        assert t >= 2 and rv >= 3
