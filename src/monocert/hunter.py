"""Counterexample hunting for monochromatic acyclic patterns.

Core pieces: forest containment, an exhaustive arrowing check on complete
graphs, candidate-graph generators, and ``hunt``, which searches candidate
hosts for an edge coloring avoiding a pattern in every color.

Every search here is a loop with its own stack. The shared kernel backtracks
over edges in a BFS-derived order, assigning one color at a time in ascending
order; a branch dies as soon as every color choice would complete a copy
of that color's pattern. Colors forbidding equal patterns are
interchangeable, so each may open only after the one before it holds an
edge, and every coloring is visited once up to relabelling them.
Containment tests are incremental: along a live branch each class was
pattern-free before the new edge arrived, so only copies through the new
edge need to be sought. The kernel memoizes each pattern's answers by the
class's edge set and asks before it touches the class, so a known answer
costs one lookup. When every color forbids a star, a degree count at the
root may settle the search. Work is metered in partial colorings visited
(one per search node entered, interchangeable colors opened in order), which
is the deterministic "colorings examined" unit reported everywhere; budgets
cap that count and exhaustion flags are set honestly: "exhausted" means
proved, by search or by the degree count. A report stores only what
``hunt`` measured and derives the rest; ``HuntReport.from_json`` derives it
the same way and refuses anything ``hunt`` never writes.
"""

from __future__ import annotations

import json
import random
import sys
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import combinations
from math import comb, log2

from .graphs import (
    EdgeColoring,
    Graph,
    InternalInconsistencyError,
    bfs_forest,
    complete_graph,
    complete_multipartite,
    connected_components,
    json_edges,
    json_fields,
    json_int,
    json_list,
    parse_graph,
    path_graph,
    star_graph,
    write_graph,
)
from . import chromatic
from .chromatic import chi_exact
from .matching import maximum_matching


@dataclass(frozen=True)
class AcyclicPattern:
    """A forest to be forbidden monochromatically."""

    graph: Graph

    def __post_init__(self):
        # union-find over the edges: linear in n, where a component search
        # over n-bit rows is quadratic
        edges = self.graph.edges()
        parent = {x: x for e in edges for x in e}
        for u, v in edges:
            while parent[u] != u:
                parent[u] = u = parent[parent[u]]
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            if u == v:
                raise ValueError("pattern contains a cycle")
            parent[u] = v


def path_pattern(k: int) -> AcyclicPattern:
    return AcyclicPattern(path_graph(k))


def star_pattern(leaves: int) -> AcyclicPattern:
    return AcyclicPattern(star_graph(leaves))


def matching_pattern(k: int) -> AcyclicPattern:
    """k pairwise disjoint edges."""
    if k < 1:
        raise ValueError("need at least one edge")
    return AcyclicPattern(Graph.from_edges(2 * k, [(2 * i, 2 * i + 1) for i in range(k)]))


# ---------------------------------------------------------------------------
# containment

def _embedding_roots(p: Graph) -> list[int]:
    """One root per component of p, largest component first, each a vertex
    of largest degree (the lowest on ties)."""
    deg = [row.bit_count() for row in p.adj]
    comps = sorted(connected_components(p), key=lambda c: (-len(c), c))
    return [max(comp, key=lambda z: (deg[z], -z)) for comp in comps]


def _embedding_order(p: Graph, roots, seed: tuple[int, int] | None = None):
    """(vertex, parent) placement order; parent -1 means free placement.

    Components are taken in the order of roots, from _embedding_roots(p);
    within a component placement follows BFS, so every non-root vertex has
    exactly one already-placed neighbor (patterns are forests). With a seed
    edge its component comes first, both endpoints are assumed placed and
    neither is listed.
    """
    seed = seed or ()
    return tuple(x for x in bfs_forest(p, [*seed, *roots]) if x[0] not in seed)


def _dfs_embed(rows, n: int, pdeg, order, used: int, images) -> bool:
    """Extend images to order: each vertex on an unused host vertex of its degree
    or more, beside its parent's image if it has a parent. True on success.
    untried[i] holds the host vertices order[i] has yet to try."""
    untried = [0] * len(order)
    i, fresh = 0, True
    while 0 <= i < len(order):
        pv, parent = order[i]
        if fresh:
            untried[i] = (rows[images[parent]] if parent >= 0 else (1 << n) - 1) & ~used
        else:
            used ^= 1 << images[pv]
        cand = untried[i]
        while cand:
            low = cand & -cand
            cand ^= low
            if rows[low.bit_length() - 1].bit_count() >= pdeg[pv]:
                break
        else:
            i, fresh = i - 1, False
            continue
        untried[i] = cand
        images[pv] = low.bit_length() - 1
        used |= low
        i, fresh = i + 1, True
    return i == len(order)


def contains_forest(g: Graph, h: AcyclicPattern) -> tuple[int, ...] | None:
    """Injective embedding of h into g preserving edges, or None.

    A matching (every pattern vertex of degree 1) is answered by the blossom,
    which shares no code with the kernel: the pattern's edges go in order
    onto the first edges of a maximum matching of g. Other forests are
    embedded depth first by _dfs_embed.
    """
    p = h.graph
    if p.n > g.n:
        return None
    pdeg = [p.adj[v].bit_count() for v in range(p.n)]
    images = [-1] * p.n
    if all(d == 1 for d in pdeg):
        mm = maximum_matching(g)
        if len(mm) < p.m:
            return None
        for (a, b), (x, y) in zip(p.edges(), mm):
            images[a], images[b] = x, y
        return tuple(images)
    order = _embedding_order(p, _embedding_roots(p))
    if _dfs_embed(g.adj, g.n, pdeg, order, 0, images):
        return tuple(images)
    return None


# ---------------------------------------------------------------------------
# search kernel

_MEMO_CAP = 1_000_000  # entries a memo may hold before the kernel clears it


def _pattern_test(pattern: AcyclicPattern, host_n: int):
    """test(rows, u, v): does the class rows, pattern-free until it gained
    edge (u, v), now contain the pattern, that is, a copy through (u, v)?
    Matchings get a direct search for enough disjoint edges; other forests
    a seeded embedding of one pattern edge onto (u, v), with one plan per
    orbit of directed pattern edges, since an automorphism carries a copy
    with a on u and b on v to one for any (a, b) of the same orbit."""
    p = pattern.graph
    if p.m == 0:
        raise ValueError("pattern needs at least one edge")
    pdeg = [p.adj[v].bit_count() for v in range(p.n)]
    if all(d == 1 for d in pdeg):
        k = p.m - 1
        return lambda rows, u, v: _exists_matching(rows, (1 << u) | (1 << v), k, host_n)
    roots = _embedding_roots(p)
    plans = [(a, b, _embedding_order(p, roots, seed=(a, b))) for a, b in _edge_orbits(p)]

    def embeds(rows, u: int, v: int) -> bool:
        du, dv = rows[u].bit_count(), rows[v].bit_count()
        images = [-1] * p.n
        for a, b, order in plans:
            if pdeg[a] <= du and pdeg[b] <= dv:
                images[a], images[b] = u, v
                if _dfs_embed(rows, host_n, pdeg, order, (1 << u) | (1 << v), images):
                    return True
        return False

    return embeds


def _edge_orbits(p: Graph) -> list[tuple[int, int]]:
    """One directed edge (a, b) of the forest p per orbit of its
    automorphisms, the first in the order of p.edges(), (a, b) before (b, a).

    Cutting ab leaves a's side, rooted at a, and b's side, rooted at b; two
    directed edges share an orbit exactly when their sides are isomorphic as
    rooted trees, a's to a's and b's to b's. Sides are named by AHU ids (Aho,
    Hopcroft and Ullman 1974): the multiset of a root's child ids is
    interned, so equal ids mean isomorphic rooted trees. side[x, y] is the
    id of x's side of edge xy. A pass up each BFS tree names every vertex's
    side away from its parent; a pass down names the parent's side away from
    each child, from the parent's whole multiset less that child's id, once
    per distinct id, so a star costs O(k).
    """
    forest = bfs_forest(p, range(p.n))
    kids: list[list[int]] = [[] for _ in range(p.n)]
    for v, parent in forest:
        if parent >= 0:
            kids[parent].append(v)
    ids: dict[tuple[int, ...], int] = {}
    side: dict[tuple[int, int], int] = {}
    for v, parent in reversed(forest):
        if parent >= 0:
            side[v, parent] = ids.setdefault(tuple(sorted(side[w, v] for w in kids[v])), len(ids))
    for v, parent in forest:
        around = sorted([side[w, v] for w in kids[v]] + ([side[parent, v]] if parent >= 0 else []))
        without: dict[int, int] = {}
        for w in kids[v]:
            x = side[w, v]
            if x not in without:
                j = around.index(x)
                without[x] = ids.setdefault((*around[:j], *around[j + 1:]), len(ids))
            side[v, w] = without[x]
    orbits: dict[tuple[int, int], tuple[int, int]] = {}
    for a, b in p.edges():
        orbits.setdefault((side[a, b], side[b, a]), (a, b))
        orbits.setdefault((side[b, a], side[a, b]), (b, a))
    return list(orbits.values())


def _exists_matching(rows, excl: int, k: int, n: int) -> bool:
    """k disjoint edges avoiding excl vertices.

    Only matchings through the first vertex v with a free neighbor are
    tried, which loses nothing: a largest matching that misses v covers
    every free neighbor x of v (else it would grow by vx), and trading x's
    edge for vx keeps its size. So at most k levels are kept, each [excl
    above it, v, v's free neighbors left]. A level's v comes after its
    parent's, since excl only grows.
    """
    levels = []
    while len(levels) < k:
        for v in range(levels[-1][1] + 1 if levels else 0, n):
            free = rows[v] & ~excl
            if free and not (excl >> v) & 1:
                levels.append([excl, v, free])
                break
        while levels and not levels[-1][2]:
            levels.pop()
        if not levels:
            return False
        level = levels[-1]
        low = level[2] & -level[2]
        level[2] ^= low
        excl = level[0] | (1 << level[1]) | low
    return True


def _bfs_edge_order(g: Graph) -> list[tuple[int, int]]:
    """Edges sorted so each BFS-discovered vertex brings its back edges."""
    pos = [0] * g.n
    for i, (v, _) in enumerate(bfs_forest(g, range(g.n))):
        pos[v] = i
    return sorted(
        g.edges(),
        key=lambda e: (max(pos[e[0]], pos[e[1]]), min(pos[e[0]], pos[e[1]])),
    )


def _degrees_refute(g: Graph, patterns) -> bool:
    """Whether degrees prove that no coloring of g avoids the patterns, all
    stars K_{1,k_c} (m = n - 1 edges, a vertex of degree m), as in Burr and
    Roberts (1973). Class c meets a vertex at most k_c - 1 times, so a
    vertex of degree above cap = sum(k_c - 1) refutes (pigeonhole), and so
    does every vertex at cap with n(k_c - 1) odd for some c, since class c
    would be (k_c - 1)-regular (handshake)."""
    ks = [p.graph.m for p in patterns]
    if any(p.graph.n != k + 1 or k not in map(int.bit_count, p.graph.adj)
           for p, k in zip(patterns, ks)):
        return False
    cap = sum(k - 1 for k in ks)
    deg = [row.bit_count() for row in g.adj]
    return max(deg, default=0) > cap or (
        all(d == cap for d in deg) and any(g.n * (k - 1) % 2 for k in ks))


def _search_avoiding(
    g: Graph, patterns, budget: int | None = None
) -> tuple[EdgeColoring | None, bool, int]:
    """Find a t-coloring of E(g) with no pattern monochromatic.

    A backtracking loop over the edges in BFS order: ``held[i]`` is the
    color edge i holds (-1 for none yet), and colors are tried in ascending
    order. A color whose pattern equals (``Graph`` equality) an earlier
    color's is interchangeable with it, and may open on an edge only once
    the previous such color holds one. The coloring found is still the
    lexicographically first avoiding one, because that one opens
    interchangeable colors in order: were it not so, swapping two of them
    would give a smaller one.

    When every pattern is a star, _degrees_refute may settle the search as
    its root node; it fires only when no avoiding coloring exists. No node
    below needs a capacity prune: on a live branch class c meets v at most
    k_c - 1 times, so v's uncolored edges outgrow the room its colors have
    left only when deg(v) > sum(k_c - 1), which the root already tested.

    Colors with equal patterns share one _pattern_test and one memo of its
    answers by the class's edge-index mask. The kernel asks the memo before
    it touches the class rows and clears it past _MEMO_CAP entries.

    Returns (coloring or None, exhausted, partial colorings visited). The
    count is of search nodes entered, each a partial coloring with
    interchangeable colors opened in order: it is budget + 1 when the budget
    stops the search, and 1..budget otherwise. exhausted is True only when
    no avoiding coloring exists and that was proved, by search or by the
    degree count.
    """
    n = g.n
    t = len(patterns)
    shared: dict[Graph, tuple] = {}
    tests, memos, opener = [], [], []  # opener: the previous color with an equal pattern, or -1
    for c, p in enumerate(patterns):
        test, memo, prev = shared.get(p.graph) or (_pattern_test(p, n), {}, -1)
        shared[p.graph] = test, memo, c
        tests.append(test)
        memos.append(memo)
        opener.append(prev)
    limit = float("inf") if budget is None else budget
    if limit >= 1 and _degrees_refute(g, patterns):
        return None, True, 1
    edges = _bfs_edge_order(g)
    E = len(edges)
    rows = [[0] * n for _ in range(t)]
    masks = [0] * t
    held = [-1] * E
    nodes = 1
    i = 0
    while nodes <= limit:
        if i == E:
            classes = tuple(Graph._from_rows(n, rc) for rc in rows)
            return EdgeColoring(g, classes), False, nodes
        u, v = edges[i]
        ub, vb, eb = 1 << u, 1 << v, 1 << i
        c = held[i]
        if c >= 0:
            rows[c][u] &= ~vb
            rows[c][v] &= ~ub
            masks[c] &= ~eb
        for c in range(c + 1, t):
            prev = opener[c]
            if prev >= 0 and not masks[prev]:
                continue
            key = masks[c] | eb
            memo = memos[c]
            found = memo.get(key)
            if found:
                continue
            rc = rows[c]
            rc[u] |= vb
            rc[v] |= ub
            if found is None:
                found = memo[key] = tests[c](rc, u, v)
                if len(memo) > _MEMO_CAP:
                    memo.clear()
            if found:
                rc[u] ^= vb
                rc[v] ^= ub
                continue
            masks[c] = key
            held[i] = c
            i += 1
            nodes += 1
            break
        else:
            held[i] = -1
            if i == 0:
                return None, True, nodes
            i -= 1
    return None, False, nodes


@dataclass(frozen=True)
class ArrowingResult:
    arrowing: bool
    avoiding: EdgeColoring | None
    colorings_examined: int


def ramsey_bruteforce(patterns, n: int, guard_bits: int = 28) -> ArrowingResult:
    """Exhaustively decide whether K_n forces some pattern monochromatic.

    Refuses instances whose raw search space exceeds 2**guard_bits
    (C(n,2) * log2(t) bits); within the guard the answer is always
    definitive, with an explicit avoiding coloring on the negative side.
    """
    patterns = list(patterns)
    t = len(patterns)
    if t < 1:
        raise ValueError("need at least one pattern")
    bits = comb(n, 2) * (log2(t) if t > 1 else 0.0)
    if bits > guard_bits:
        raise ValueError(
            f"search space is 2^{bits:.1f}, above the 2^{guard_bits} guard"
        )
    found, exhausted, nodes = _search_avoiding(complete_graph(n), patterns, None)
    assert exhausted or found is not None
    return ArrowingResult(found is None, found, nodes)


# ---------------------------------------------------------------------------
# candidate generators

def mycielskian(g: Graph) -> Graph:
    """Mycielski step: chi rises by exactly 1, triangle-freeness is kept."""
    n = g.n
    edges = list(g.edges())
    out = list(edges)
    for u, v in edges:
        out.append((n + u, v))
        out.append((n + v, u))
    apex = 2 * n
    out.extend((n + i, apex) for i in range(n))
    return Graph.from_edges(2 * n + 1, out)


def kneser_graph(n: int, k: int) -> Graph:
    """k-subsets of an n-set, adjacent when disjoint."""
    if not 0 < k <= n:
        raise ValueError("need 0 < k <= n")
    subsets = list(combinations(range(n), k))
    masks = []
    for s in subsets:
        m = 0
        for x in s:
            m |= 1 << x
        masks.append(m)
    edges = [
        (i, j)
        for i in range(len(subsets))
        for j in range(i + 1, len(subsets))
        if not masks[i] & masks[j]
    ]
    return Graph.from_edges(len(subsets), edges)


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    """G(n, p) drawn edge by edge in lexicographic order."""
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph.from_edges(n, edges)


@lru_cache(maxsize=1)
def _chi_once(g: Graph, budget: int):
    """chi_exact, remembering the latest answer: generate_candidates reads
    a chi_min draw's proven lower bound, hunt asks again as soon as the draw
    is yielded, and check_hunt_counterexample once more for a find."""
    return chi_exact(g, budget=budget)


def generate_candidates(spec: str, seed: int = 0, chi_budget: int = chromatic.DEFAULT_BUDGET):
    """Stream the candidate hosts a spec names; the spec is read on the first draw.

    ``mycielski:STEPS`` gives K2 and its next STEPS-1 Mycielskians,
    ``kneser:N,K`` and ``multipartite:A,B,...`` one graph each, and
    ``g6:PATH`` or ``g6:-`` one graph per non-blank graph6 line of a file or
    of stdin. ``random:n=..,p=..,count=..[,chi_min=..]`` gives count seeded
    G(n,p) draws; with chi_min, only draws with a proven chi >= chi_min
    within chi_budget count, and at most 200 draws are made per
    graph asked for. The key ``seed`` overrides the argument.
    """
    kind, _, arg = spec.partition(":")
    if kind == "mycielski":
        steps = int(arg)
        if steps < 1:
            raise ValueError("steps must be at least 1")
        g = complete_graph(2)
        yield g
        for _ in range(steps - 1):
            g = mycielskian(g)
            yield g
    elif kind == "kneser":
        n, k = (int(x) for x in arg.split(","))
        yield kneser_graph(n, k)
    elif kind == "multipartite":
        yield complete_multipartite([int(x) for x in arg.split(",")])
    elif kind == "random":
        params = {"seed": seed}
        for key, _, val in (item.partition("=") for item in arg.split(",")):
            if key not in ("n", "p", "count", "chi_min", "seed"):
                raise ValueError(f"unknown key {key!r} in {spec!r}")
            params[key] = val
        for key in ("n", "p", "count"):
            if key not in params:
                raise ValueError(f"{spec!r} lacks {key}")
        n, p, count = int(params["n"]), float(params["p"]), int(params["count"])
        chi_min = int(params["chi_min"]) if "chi_min" in params else None
        rng = random.Random(int(params["seed"]))
        produced = attempts = 0
        while produced < count and attempts < 200 * max(count, 1):
            attempts += 1
            g = random_graph(n, p, rng)
            if chi_min is not None:
                r = _chi_once(g, chi_budget)
                if r.lower < chi_min:
                    continue
            produced += 1
            yield g
    elif kind == "g6":
        with nullcontext(sys.stdin) if arg in ("", "-") else open(arg) as lines:
            yield from (parse_graph(line, "g6") for line in lines if line.strip())
    else:
        raise ValueError(f"bad candidate spec {spec!r}")


# ---------------------------------------------------------------------------
# the hunt

@dataclass(frozen=True)
class CandidateOutcome:
    """What hunt measured of one host; the rest of its JSON is derived."""

    graph6: str
    chi_lower: int
    chi_upper: int
    ramsey_value: int
    colorings_examined: int = 0
    exhausted: bool = False
    counterexample: bool = False

    @property
    def chi_is_exact(self) -> bool:
        return self.chi_lower == self.chi_upper

    @property
    def searched(self) -> bool:  # a find is searched, whatever chi bound it states
        return self.counterexample or self.chi_lower >= self.ramsey_value

    @property
    def skipped_reason(self) -> str | None:
        if self.searched:
            return None
        if self.chi_is_exact:
            return f"chi={self.chi_lower} below ramsey_value={self.ramsey_value}"
        return "chromatic number unresolved within budget"

    def to_json(self) -> dict:
        keys = ("graph6", "chi_lower", "chi_upper", "chi_is_exact", "searched", "skipped_reason",
                "colorings_examined", "exhausted", "counterexample")
        return {key: getattr(self, key) for key in keys}


def _check_hunt_args(pattern: AcyclicPattern, t: int, ramsey_value: int) -> None:
    """Refuse what hunt never searches, and so never reports."""
    if t < 1:
        raise ValueError("need at least one color")
    if ramsey_value < 1:
        raise ValueError("ramsey_value must be positive")
    if not any(pattern.graph.adj):
        raise ValueError("pattern needs at least one edge")


@dataclass(frozen=True)
class HuntReport:
    pattern: AcyclicPattern
    t: int
    ramsey_value: int
    colorings_budget: int
    candidates: tuple[CandidateOutcome, ...]
    counterexample: EdgeColoring | None

    @property
    def colorings_examined(self) -> int:
        return sum(c.colorings_examined for c in self.candidates)

    def to_json(self) -> dict:
        p, ec = self.pattern.graph, self.counterexample
        cex = None if ec is None else {"graph6": write_graph(ec.graph, "g6").strip(),
                                       "coloring": ec.to_json()}
        return {
            "pattern": {"n": p.n, "edges": [list(e) for e in p.edges()]},
            "t": self.t,
            "ramsey_value": self.ramsey_value,
            "colorings_budget": self.colorings_budget,
            **self._derived(),
            "counterexample": cex,
        }

    def _derived(self) -> dict:  # the fields of to_json that the candidates give
        return {"candidates_examined": len(self.candidates),
                "candidates": [c.to_json() for c in self.candidates],
                "colorings_examined": self.colorings_examined}

    @staticmethod
    def from_json(data) -> "HuntReport":
        """Inverse of to_json: each candidate is built from what hunt measured,
        in hunt's two steps, the find last and never exhausted. ValueError on
        what hunt never writes: a missing key, a wrong type, a negative count,
        a pattern that is no forest with an edge, t or ramsey_value below 1, a
        bad graph6, chi bounds beyond chi_lower <= chi_upper <= n, a derived
        field that the measured ones do not give, or a searched candidate's
        count that its budget does not give."""
        pattern, t, ramsey_value, budget, _, rows, _, cex = json_fields(
            data, "pattern", "t", "ramsey_value", "colorings_budget", "candidates_examined",
            "candidates", "colorings_examined", "counterexample")
        n, edges = json_fields(pattern, "n", "edges")
        pattern = AcyclicPattern(Graph.from_edges(json_int(n), json_edges(edges)))
        t, ramsey_value = json_int(t), json_int(ramsey_value)
        _check_hunt_args(pattern, t, ramsey_value)
        rows, candidates = json_list(rows), []
        for i, row in enumerate(rows, start=1):
            graph6, lower, upper, nodes, exhausted = json_fields(
                row, "graph6", "chi_lower", "chi_upper", "colorings_examined", "exhausted")
            out = CandidateOutcome(graph6, json_int(lower), json_int(upper), ramsey_value,
                                   counterexample=cex is not None and i == len(rows))
            if not lower <= upper <= parse_graph(graph6, "g6").n:
                raise ValueError(f"chi bounds {lower}, {upper} do not fit host {graph6}")
            if out.searched:
                out = replace(out, colorings_examined=json_int(nodes),
                              exhausted=exhausted is True and not out.counterexample)
            candidates.append(out)
        if cex is not None:
            graph6, coloring = json_fields(cex, "graph6", "coloring")
            if not candidates or candidates[-1].graph6 != graph6:
                raise ValueError(f"the counterexample's host {graph6!r:.20} is not the find's")
            cex = EdgeColoring.from_json(parse_graph(graph6, "g6"), coloring, t)
        report = HuntReport(pattern, t, ramsey_value, json_int(budget), tuple(candidates), cex)
        for key, value in report._derived().items():  # as JSON text, so that 1 is not true
            if json.dumps(value, sort_keys=True) != json.dumps(data[key], sort_keys=True):
                raise ValueError(f"{key} differs from what the measured fields give")
        for out in report.candidates:  # as _search_avoiding counts
            nodes = out.colorings_examined
            if out.searched and not (1 <= nodes <= budget if out.exhausted or out.counterexample
                                     else nodes == budget + 1):
                raise ValueError(f"{nodes} colorings examined on {out.graph6} do not fit "
                                 f"colorings_budget {budget}")
        return report


def check_hunt_counterexample(
    pattern: AcyclicPattern,
    ramsey_value: int,
    ec: EdgeColoring,
    chi_budget: int = chromatic.DEFAULT_BUDGET,
) -> list[str]:
    """Problems with a claimed counterexample, none when it holds. chi is
    read through _chi_once, so hunt's self-check reuses the bound its gate
    proved; each class is searched for the pattern afresh."""
    problems = []
    r = _chi_once(ec.graph, chi_budget)
    if r.lower < ramsey_value:
        chi = f"chi={r.lower}" if r.exact else f"proven chi>={r.lower} (budget ran out)"
        problems.append(f"{chi} is below ramsey_value={ramsey_value}")
    for c, cls in enumerate(ec.classes, start=1):
        if contains_forest(cls, pattern) is not None:
            problems.append(f"color {c} contains the pattern")
    return problems


def hunt(
    pattern: AcyclicPattern,
    t: int,
    ramsey_value: int,
    candidates,
    colorings_budget: int = 10_000_000,
    chi_budget: int = chromatic.DEFAULT_BUDGET,
) -> HuntReport:
    """Search candidate hosts for a coloring avoiding the pattern everywhere.

    A candidate is searched when chi_exact proves chi >= ramsey_value
    within chi_budget; the lower bound it reports is always proven, a clique
    or the exact value. Other candidates are skipped (recorded, never
    assumed). Any find is checked by check_hunt_counterexample before it is
    reported: its classes are searched for the pattern afresh, and chi is
    the bound the gate proved. The hunt stops at the first checked
    counterexample.
    """
    _check_hunt_args(pattern, t, ramsey_value)
    if colorings_budget < 0:
        raise ValueError("colorings_budget must be non-negative")
    outcomes = []
    counterexample = None
    for g in candidates:
        r = _chi_once(g, chi_budget)
        out = CandidateOutcome(write_graph(g, "g6").strip(), r.lower, r.upper, ramsey_value)
        if out.searched:
            coloring, exhausted, nodes = _search_avoiding(g, [pattern] * t, colorings_budget)
            out = replace(out, colorings_examined=nodes, exhausted=exhausted,
                          counterexample=coloring is not None)
        outcomes.append(out)
        if out.counterexample:
            problems = check_hunt_counterexample(pattern, ramsey_value, coloring, chi_budget)
            if problems:
                raise InternalInconsistencyError(
                    "search produced a coloring that failed re-verification: "
                    + "; ".join(problems)
                )
            counterexample = coloring
            break
    return HuntReport(pattern, t, ramsey_value, colorings_budget, tuple(outcomes), counterexample)
