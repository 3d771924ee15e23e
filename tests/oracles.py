"""Brute-force oracles, independent of the library's algorithms.

Each oracle favors transparency over speed and shares no code path with the
implementation it checks: chromatic number by subset DP over independent
sets, the DSATUR greedy coloring by scanning every vertex for each pick,
matching number by memoized take-or-skip recursion (with a literal
edge-subset variant for tiny graphs), components by union-find, a
breadth-first forest by a FIFO queue over vertex pairs, whether edges
connect a vertex set by a breadth-first search over a neighbour dict, forest
containment by trying every injection, the orbits of a pattern's directed
edges by trying every vertex permutation, the first avoiding edge coloring by
listing every coloring in order, a Turan number by trying every edge subset
of K_n, and a coloring's problems by looking
at every vertex pair. The goodness table below is the one
list of hunts whose verdict a theorem settles; the Ramsey numbers of stars,
of path pairs and of matchings come from their closed formulas.
"""

from collections import deque
from itertools import combinations, permutations, product

from monocert.graphs import Graph, iter_bits
from monocert.hunter import path_pattern, star_pattern

# Goodness regressions: (name, pattern, t, ramsey value), settled by theorem
# so that no hunt may find a counterexample. The path-4 entry for t=3 is
# carried as a config only; no outcome is asserted for it.
GOODNESS_REGRESSIONS = (
    ("star-2", star_pattern(2), 2, 3),
    ("star-3", star_pattern(3), 2, 6),
    ("path-4", path_pattern(4), 2, 5),
    ("path-4-t3", path_pattern(4), 3, 6),
)


def burr_roberts(ks) -> int:
    """R(K_{1,k_1}, ..., K_{1,k_t}) = sum(k_i - 1) + theta, where theta is 1
    when the number of even k_i is positive and even, and 2 otherwise (Burr
    and Roberts, "On Ramsey numbers for stars", 1973)."""
    evens = sum(k % 2 == 0 for k in ks)
    return sum(k - 1 for k in ks) + (1 if evens and evens % 2 == 0 else 2)


def gerencser_gyarfas(n: int, m: int) -> int:
    """R(P_n, P_m) = n + floor(m / 2) - 1 for paths on n >= m >= 2 vertices
    (Gerencser and Gyarfas, "On Ramsey-type problems", 1967)."""
    if not n >= m >= 2:
        raise ValueError("need n >= m >= 2")
    return n + m // 2 - 1


def cockayne_lorimer(ks) -> int:
    """R(k_1 K_2, ..., k_t K_2) = max(k_i) + 1 + sum(k_i - 1) (Cockayne and
    Lorimer, "The Ramsey number for stripes", 1975)."""
    return max(ks) + 1 + sum(k - 1 for k in ks)


def ex_bruteforce(n: int, pattern) -> int:
    """The most edges of an n-vertex graph with no copy of the pattern: the
    largest edge subset of K_n that contains_injection finds pattern-free,
    trying every subset from the largest down; only for n <= 6."""
    if n > 6:
        raise ValueError("oracle meant for n <= 6")
    edges = list(combinations(range(n), 2))
    for size in range(len(edges), 0, -1):
        for subset in combinations(edges, size):
            if not contains_injection(Graph.from_edges(n, subset), pattern.graph):
                return size
    return 0


def chromatic_number_dp(g: Graph) -> int:
    """Subset DP: peel one independent set containing the lowest vertex."""
    n = g.n
    if n == 0:
        return 0
    if n > 16:
        raise ValueError("oracle meant for n <= 16")
    adj = g.adj
    size = 1 << n
    dp = [0] * size
    for mask in range(1, size):
        v = (mask & -mask).bit_length() - 1
        best = n + 1

        def grow(chosen: int, cand: int) -> None:
            nonlocal best
            rest = dp[mask & ~chosen] + 1
            if rest < best:
                best = rest
            c = cand
            while c:
                u = c & -c
                c ^= u
                ub = u.bit_length() - 1
                grow(chosen | u, c & ~adj[ub])

        grow(1 << v, mask & ~(1 << v) & ~adj[v])
        dp[mask] = best
    return dp[size - 1]


def dsatur_reference(g: Graph) -> list[int]:
    """DSATUR by a full scan per pick: the uncolored vertex whose colored
    neighbors show the most colors, then of highest degree, then of lowest
    index, takes the lowest color none of them has."""
    n = g.n
    nbrs = [list(iter_bits(row)) for row in g.adj]
    assign = [-1] * n
    for _ in range(n):
        seen = [{assign[u] for u in nbrs[v] if assign[u] >= 0} for v in range(n)]
        pick = min(
            (v for v in range(n) if assign[v] < 0),
            key=lambda v: (-len(seen[v]), -len(nbrs[v]), v),
        )
        c = 0
        while c in seen[pick]:
            c += 1
        assign[pick] = c
    return assign


def matching_number_recursive(g: Graph) -> int:
    """Memoized take-or-skip recursion on the lowest remaining vertex."""
    adj = g.adj
    memo: dict[int, int] = {0: 0}

    def nu(mask: int) -> int:
        hit = memo.get(mask)
        if hit is not None:
            return hit
        v = (mask & -mask).bit_length() - 1
        best = nu(mask & ~(1 << v))
        for u in iter_bits(adj[v] & mask):
            cand = 1 + nu(mask & ~(1 << v) & ~(1 << u))
            if cand > best:
                best = cand
        memo[mask] = best
        return best

    return nu((1 << g.n) - 1)


def matching_number_subsets(g: Graph) -> int:
    """Literal check of every edge subset; only for very small graphs."""
    edges = g.edges()
    if len(edges) > 16:
        raise ValueError("oracle meant for m <= 16")
    best = 0
    for size in range(len(edges), 0, -1):
        if size <= best:
            break
        for subset in combinations(edges, size):
            seen = set()
            ok = True
            for u, v in subset:
                if u in seen or v in seen:
                    ok = False
                    break
                seen.add(u)
                seen.add(v)
            if ok:
                best = size
                break
    return best


def partition_problems(g: Graph, classes) -> list[str]:
    """The problems graphs.check_partition should report, worked out
    naively: the cover by counting, then every vertex pair in turn. A vertex
    listed twice counts in the last class that lists it."""
    problems = []
    for i, cls in enumerate(classes):
        if not cls:
            problems.append(f"class {i} is empty")
        for k, v in enumerate(cls):
            if any(v in c for c in classes[:i]) or v in cls[:k]:
                problems.append(f"vertex {v} appears in two classes")
    listed = [v for cls in classes for v in cls]
    if sorted(set(listed)) != list(range(g.n)):
        problems.append("classes do not cover vertices 0..n-1 exactly")
        return problems
    last = {v: max(i for i, cls in enumerate(classes) if v in cls) for v in range(g.n)}
    for u, v in combinations(range(g.n), 2):
        if g.has_edge(u, v) and last[u] == last[v]:
            problems.append(f"edge ({u},{v}) lies inside class {last[u]}")
    return problems


def first_fit_merge(g: Graph, classes) -> tuple[tuple[int, ...], ...]:
    """Each class in turn joins the first merged class that has no edge to
    it, vertex pair by vertex pair, or opens a new one; sorted classes."""
    merged: list[list[int]] = []
    for cls in classes:
        for m in merged:
            if not any(g.has_edge(u, v) for u in m for v in cls):
                m.extend(cls)
                break
        else:
            merged.append(list(cls))
    return tuple(tuple(sorted(m)) for m in merged)


def components_union_find(g: Graph) -> list[tuple[int, ...]]:
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in g.edges():
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    groups: dict[int, list[int]] = {}
    for v in range(g.n):
        groups.setdefault(find(v), []).append(v)
    return sorted((tuple(sorted(vs)) for vs in groups.values()), key=lambda c: c[0])


def bfs_forest_fifo(g: Graph, roots) -> list[tuple[int, int]]:
    """(vertex, parent) in visiting order of a textbook queue BFS from each
    unvisited root in turn; neighbours are found by asking about every
    vertex in ascending order."""
    visited = set()
    order = []
    for root in roots:
        if root in visited:
            continue
        visited.add(root)
        order.append((root, -1))
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in range(g.n):
                if g.has_edge(u, w) and w not in visited:
                    visited.add(w)
                    order.append((w, u))
                    queue.append(w)
    return order


def edges_connect(vertices, edges) -> bool:
    """Whether the edges join the vertices, and nothing else, into one
    component; no vertex is not one component."""
    neighbours: dict[int, set[int]] = {v: set() for v in vertices}
    for u, v in edges:
        neighbours.setdefault(u, set()).add(v)
        neighbours.setdefault(v, set()).add(u)
    if not vertices:
        return False
    seen = {vertices[0]}
    queue = deque(seen)
    while queue:
        for w in neighbours[queue.popleft()] - seen:
            seen.add(w)
            queue.append(w)
    return seen == set(neighbours) == set(vertices)


def contains_injection(g: Graph, h: Graph) -> bool:
    """Try every injective vertex map; only for tiny patterns."""
    if h.n > g.n:
        return False
    hedges = h.edges()
    for image in permutations(range(g.n), h.n):
        if all(g.has_edge(image[u], image[v]) for u, v in hedges):
            return True
    return False


def directed_edge_orbits(h: Graph) -> set[frozenset]:
    """The orbits of h's automorphisms on its directed edges, each a set of
    (a, b) pairs; every vertex permutation is tried, so only for tiny h."""
    edges = h.edges()
    autos = [pi for pi in permutations(range(h.n))
             if all(h.has_edge(pi[u], pi[v]) for u, v in edges)]
    return {frozenset((pi[a], pi[b]) for pi in autos)
            for u, v in edges for a, b in ((u, v), (v, u))}


def first_avoiding_coloring(g: Graph, patterns, order):
    """The first coloring of the edges in ``order`` (colors 1..t, compared
    lexicographically along ``order``) in which no class contains its
    color's pattern, as a tuple aligned with ``order``; None if none.

    Lists all t^m colorings; containment answers are remembered per class
    edge set and pattern, since the same classes recur across colorings.
    """
    known: dict = {}

    def contains(edges, h: Graph) -> bool:
        key = (edges, h)
        if key not in known:
            known[key] = contains_injection(Graph.from_edges(g.n, edges), h)
        return known[key]

    for colors in product(range(1, len(patterns) + 1), repeat=len(order)):
        if not any(
            contains(tuple(e for e, c in zip(order, colors) if c == k), p.graph)
            for k, p in enumerate(patterns, start=1)
        ):
            return colors
    return None


def max_mono_component_size(g: Graph, colors: dict, color: int) -> int:
    """Largest component of one color class, via union-find."""
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (u, v), c in colors.items():
        if c == color:
            ru, rv = find(u), find(v)
            if ru != rv:
                parent[ru] = rv
    sizes: dict[int, int] = {}
    for v in range(g.n):
        r = find(v)
        sizes[r] = sizes.get(r, 0) + 1
    return max(sizes.values(), default=0)
