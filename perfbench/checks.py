"""Output checks that do not come from the code under test.

Each function returns a list of problems; an empty list means the output
agrees with what is known independently: the planted clique, pinned
chromatic numbers, theorems with closed-form answers, and direct
re-checks of every certificate written here from scratch.
"""

from __future__ import annotations

from itertools import combinations

from instances import matching_ramsey, parse_graph6


class Host:
    def __init__(self, n: int, edges):
        self.n = n
        self.edges = [tuple(e) for e in edges]
        self.edge_set = set(self.edges)
        self.adj = [set() for _ in range(n)]
        for u, v in self.edges:
            self.adj[u].add(v)
            self.adj[v].add(u)

    def has(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edge_set

    def max_degree(self) -> int:
        return max((len(a) for a in self.adj), default=0)


def _find(parent, x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def largest_mono_component(host: Host, colors: dict) -> int:
    best = 1 if host.n else 0
    for c in set(colors.values()):
        parent = list(range(host.n))
        for e in host.edges:
            if colors[e] == c:
                a, b = _find(parent, e[0]), _find(parent, e[1])
                if a != b:
                    parent[a] = b
        sizes: dict[int, int] = {}
        for v in range(host.n):
            r = _find(parent, v)
            sizes[r] = sizes.get(r, 0) + 1
        best = max(best, max(sizes.values()))
    return best


def partition_problems(host: Host, classes, what: str) -> list[str]:
    """classes must partition 0..n-1 into non-empty independent sets."""
    where: dict[int, int] = {}
    for i, cls in enumerate(classes):
        if not cls:
            return [f"{what}: class {i} is empty"]
        for v in cls:
            if v in where:
                return [f"{what}: vertex {v} in two classes"]
            where[v] = i
    if set(where) != set(range(host.n)):
        return [f"{what}: classes do not cover the vertex set"]
    for u, v in host.edges:
        if where[u] == where[v]:
            return [f"{what}: edge ({u},{v}) inside class {where[u]}"]
    return []


def check_chi(doc: dict, code: int, host: Host, planted: int, pinned: int | None) -> list[str]:
    p = partition_problems(host, doc["classes"], "chi witness")
    lower, upper, exact = doc["lower"], doc["upper"], doc["exact"]
    if len(doc["classes"]) != upper:
        p.append(f"chi witness has {len(doc['classes'])} classes, upper is {upper}")
    if lower > upper or (exact and lower != upper):
        p.append(f"inconsistent bounds lower={lower} upper={upper} exact={exact}")
    if code != (0 if exact else 3):
        p.append(f"chi exit code {code} with exact={exact}")
    if planted > lower:
        p.append(f"planted K_{planted} exceeds chi lower bound {lower}")
    if pinned is not None and not lower <= pinned <= upper:
        p.append(f"pinned chi {pinned} outside reported [{lower},{upper}]")
    if pinned is not None and exact and lower != pinned:
        p.append(f"exact chi {lower} differs from pinned {pinned}")
    return p


def check_tree(doc: dict, code: int, host: Host, colors: dict, chi_floor: int) -> list[str]:
    if code != 0:
        return [f"tree-cert exit code {code}"]
    cert = doc["certificate"]
    verts = cert["vertices"]
    vset = set(verts)
    color = cert["color"]
    p = []
    if len(vset) != len(verts) or len(cert["edges"]) != len(verts) - 1:
        p.append("tree certificate is not |V|-1 edges on distinct vertices")
    parent = {v: v for v in vset}
    for u, v in cert["edges"]:
        if u not in vset or v not in vset or not host.has(u, v):
            p.append(f"tree edge ({u},{v}) is not a host edge inside the vertex set")
            continue
        if colors[(min(u, v), max(u, v))] != color:
            p.append(f"tree edge ({u},{v}) is not of color {color}")
        a, b = _find(parent, u), _find(parent, v)
        if a == b:
            p.append(f"tree edge ({u},{v}) closes a cycle")
        parent[a] = b
    if p:
        return p
    best = largest_mono_component(host, colors)
    if len(verts) != best:
        p.append(f"tree spans {len(verts)} vertices; largest monochromatic "
                 f"component has {best}")
    if len(verts) < chi_floor:
        p.append(f"tree spans {len(verts)} vertices, below the known chi floor {chi_floor}")
    derived = doc["derived_classes"]
    p += partition_problems(host, derived, "derived coloring")
    if len(derived) != doc["dual"]["max_degree"] or len(derived) != best:
        p.append(f"derived coloring has {len(derived)} classes; dual max degree "
                 f"{doc['dual']['max_degree']}, largest component {best}")
    return p


def check_match(doc: dict, code: int, host: Host, colors: dict, targets,
                chi_known: int) -> list[str]:
    need = matching_ramsey(targets)
    if doc.get("ramsey_value") != need:
        return [f"ramsey_value {doc.get('ramsey_value')} != formula {need}"]
    cert = doc.get("certificate")
    if cert is None:
        if chi_known >= need or code != 1:
            return [f"no matching certificate (exit {code}) although chi >= {chi_known}"
                    f" and R = {need}"]
        return []
    if code != 0:
        return [f"match-cert exit code {code} with a certificate"]
    ts = sorted(targets, reverse=True)
    color = cert["color"]
    if not 1 <= color <= len(ts) or cert["target"] != ts[color - 1]:
        return [f"matching certificate target {cert['target']} for color {color}"]
    if len(cert["edges"]) != cert["target"]:
        return [f"matching has {len(cert['edges'])} edges, target {cert['target']}"]
    used: set[int] = set()
    for u, v in cert["edges"]:
        if not host.has(u, v) or colors[(min(u, v), max(u, v))] != color:
            return [f"matching edge ({u},{v}) is not a host edge of color {color}"]
        if u in used or v in used:
            return [f"matching edge ({u},{v}) shares an endpoint"]
        used |= {u, v}
    return []


def check_reduce(doc: dict, code: int, host: Host, colors: dict) -> list[str]:
    if code != 0:
        return [f"reduce exit code {code}"]
    inst = doc["instance"]
    classes = inst["classes"]
    p = partition_problems(host, classes, "reduced classes")
    if p:
        return p
    where = {v: i for i, cls in enumerate(classes) for v in cls}
    best: dict[tuple[int, int], tuple[int, tuple[int, int]]] = {}
    for e in host.edges:
        i, j = sorted((where[e[0]], where[e[1]]))
        cand = (colors[e], e)
        if (i, j) not in best or cand < best[(i, j)]:
            best[(i, j)] = cand
    k = len(classes)
    if len(best) != k * (k - 1) // 2:
        return [f"{k} classes but only {len(best)} class pairs carry an edge"]
    got = {(q["i"], q["j"]): (q["color"], tuple(q["provenance"])) for q in inst["pairs"]}
    if got != best:
        return ["reduced pairs differ from the smallest crossing color and edge"]
    return []


def check_verify(doc: dict, code: int, kind: str) -> list[str]:
    if code != 0 or doc.get("ok") is not True or doc.get("problems") or doc.get("kind") != kind:
        return [f"verify of {kind}: exit {code}, {doc}"]
    return []


# ---------------------------------------------------------------------------
# hunt queries

def pattern_free(kind: str, size: int, n: int, edges) -> bool:
    """True when the graph on these edges has no copy of the pattern."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    if kind == "star":
        return all(len(a) < size for a in adj)
    if kind == "matching":
        return _matching_number(list(edges)) < size
    if kind == "path":
        return not any(_path_from(adj, [v], size) for v in range(n))
    raise ValueError(kind)


def _matching_number(edges) -> int:
    if not edges:
        return 0
    (u, v), rest = edges[0], edges[1:]
    skip = _matching_number(rest)
    take = 1 + _matching_number([e for e in rest if u not in e and v not in e])
    return max(skip, take)


def _path_from(adj, path: list[int], size: int) -> bool:
    if len(path) == size:
        return True
    return any(
        _path_from(adj, path + [w], size) for w in adj[path[-1]] if w not in path
    )


def check_avoiding(kind: str, sizes, n: int, host_edges, coloring) -> list[str]:
    """coloring: [[u, v, c], ...] must cover the host and avoid per color."""
    got = {(min(u, v), max(u, v)): c for u, v, c in coloring}
    if set(got) != set(host_edges):
        return ["avoiding coloring does not cover the host edges exactly"]
    for c, size in enumerate(sizes, start=1):
        cls = [e for e, col in got.items() if col == c]
        if not pattern_free(kind, size, n, cls):
            return [f"color {c} contains {kind}:{size}"]
    if any(not 1 <= col <= len(sizes) for col in got.values()):
        return ["avoiding coloring uses a color outside 1..t"]
    return []


# ---------------------------------------------------------------------------
# chromatic number: a Bron-Kerbosch maximum clique gives the starting k, and
# a forward-checking k-colorability search (smallest domain first, new
# colors opened in order) decides each k in turn

def max_clique(adj: list[int]) -> int:
    best = 0

    def expand(size: int, cand: int, excl: int) -> None:
        nonlocal best
        if not cand:
            if not excl:
                best = max(best, size)
            return
        if size + cand.bit_count() <= best:
            return
        pivot_from = cand | excl
        u = max(_bits(pivot_from), key=lambda x: (adj[x] & cand).bit_count())
        for v in _bits(cand & ~adj[u]):
            expand(size + 1, cand & adj[v], excl & adj[v])
            cand &= ~(1 << v)
            excl |= 1 << v

    expand(0, (1 << len(adj)) - 1, 0)
    return best


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def colorable(adj: list[int], k: int) -> bool:
    n = len(adj)
    full = (1 << k) - 1
    domain = [full] * n
    color = [-1] * n

    def search(left: int, used: int) -> bool:
        if left == 0:
            return True
        v = min(
            (x for x in range(n) if color[x] < 0),
            key=lambda x: (domain[x].bit_count(), -adj[x].bit_count()),
        )
        options = domain[v] & ((1 << min(used + 1, k)) - 1)
        for c in _bits(options):
            bit = 1 << c
            touched = []
            ok = True
            for u in _bits(adj[v]):
                if color[u] < 0 and domain[u] & bit:
                    domain[u] &= ~bit
                    touched.append(u)
                    if not domain[u]:
                        ok = False
            color[v] = c
            if ok and search(left - 1, max(used, c + 1)):
                return True
            color[v] = -1
            for u in touched:
                domain[u] |= bit
        return False

    return search(n, 0)


def chromatic_number(n: int, edges) -> tuple[int, int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    omega = max_clique(adj)
    k = max(omega, 1)
    while not colorable(adj, k):
        k += 1
    return k, omega


def check_hunt(doc: dict, code: int, query: dict) -> tuple[list[str], bool]:
    """Returns (problems, unsettled)."""
    kind, size, t = query["kind"], query["size"], query["t"]
    cands = doc["candidates"]
    # budget-inconclusive: a search cut short, or chi left unresolved
    unsettled = any(
        (c["searched"] and not c["exhausted"] and not c["counterexample"])
        or (not c["searched"] and not c["chi_is_exact"])
        for c in cands
    )
    p = []
    rv = query["ramsey_value"]
    for c in cands:
        n, edges = parse_graph6(c["graph6"])
        chi, _ = chromatic_number(n, edges)
        if c["chi_is_exact"] and c["chi_lower"] != chi:
            p.append(f"{c['graph6']}: chi {c['chi_lower']}, independent solver says {chi}")
        if c["searched"] != (chi >= rv):
            p.append(f"{c['graph6']}: searched={c['searched']} with chi {chi}, "
                     f"ramsey value {rv}")
        if not c["searched"] or not (c["exhausted"] or c["counterexample"]):
            continue
        expect = _expected_avoids(query, n, edges)
        if expect is not None and expect != c["counterexample"]:
            p.append(f"{c['graph6']}: counterexample={c['counterexample']}, "
                     f"expected {expect} ({query['source']})")
    cex = doc["counterexample"]
    if cex is not None:
        n, edges = parse_graph6(cex["graph6"])
        p += check_avoiding(kind, [size] * t, n, edges, cex["coloring"])
    want_code = 1 if cex is not None else (3 if unsettled else 0)
    if code != want_code:
        p.append(f"hunt exit code {code}, expected {want_code}")
    if query.get("host_n") is not None and [c["graph6"] for c in cands] != [query["host_g6"]]:
        p.append("hunt did not search exactly the given host")
    return p, unsettled


def _expected_avoids(query: dict, n: int, edges) -> bool | None:
    """Independent verdict: does an avoiding coloring exist on this host?"""
    if query.get("ramsey") is not None:
        complete = len(edges) == n * (n - 1) // 2
        if complete:
            return n < query["ramsey"]
    rule = query.get("rule")
    if rule == "petersen":
        # star:k with k-1 even: by Petersen's 2-factor theorem a graph of
        # max degree <= t(k-1) splits into t parts of max degree <= k-1, and
        # a vertex of larger degree has k edges of one color.
        return Host(n, edges).max_degree() <= query["t"] * (query["size"] - 1)
    if rule == "chi-theorem":
        return False
    return None


def check_ramsey(doc: dict, code: int, query: dict) -> list[str]:
    targets, n = query["targets"], query["n"]
    need = matching_ramsey(targets)
    arrows = n >= need
    p = []
    if doc.get("R") != need:
        p.append(f"R={doc.get('R')}, formula gives {need}")
    if doc.get("arrowing") is not arrows or code != (0 if arrows else 1):
        p.append(f"K_{n} arrowing={doc.get('arrowing')} exit {code}; formula says {arrows}")
    if not arrows and doc.get("avoiding") is None:
        p.append(f"K_{n} avoids the targets but no avoiding coloring was given")
    elif not arrows:
        ts = sorted(targets, reverse=True)
        edges = list(combinations(range(n), 2))
        p += check_avoiding("matching", ts, n, edges, doc["avoiding"])
    return p
