"""Seeded inputs for the benchmark workloads.

Everything here is written without monocert: hosts, colorings and graph6
strings come from this file, so the program under test only ever sees the
generated files.
"""

from __future__ import annotations

import hashlib
import math
import random

# certify-sparse: G(n, d/n) plus a planted K_k. The floor on k keeps k above
# the greedy DSATUR color count of the random part (4-5 colors for d < 8, 6
# for d < 12, 7 up to d = 16, measured on 300- and 800-vertex draws), so the
# chromatic number is settled at the root of the search, as the workload
# intends.
SPARSE_POOL = 8
SPARSE_N = (300, 800)
SPARSE_D = (4.0, 16.0)
SPARSE_K_MAX = 10
SPARSE_TARGETS = (2, 2, 2)

# certify-dense: G(n, 1/2) hosts with n = 45..55 from a fixed pool whose
# chromatic numbers are pinned in dense_pool.json.
DENSE_POOL = 8
DENSE_TARGETS = (3, 3, 2)

CHI_BUDGET = 1_000_000
HUNT_BUDGET = 2_000_000


def matching_ramsey(targets) -> int:
    """n_1 + 1 + sum(n_i - 1) for targets sorted in non-increasing order."""
    ts = sorted(targets, reverse=True)
    return ts[0] + 1 + sum(x - 1 for x in ts)


def sparse_k_min(d: float) -> int:
    if d < 8:
        return 6
    if d < 12:
        return 7
    return 8


def gnp_sparse(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    """G(n, p) by geometric skipping (Batagelj and Brandes 2005)."""
    edges = []
    lp = math.log(1.0 - p)
    v, w = 1, -1
    while v < n:
        w += 1 + int(math.log(1.0 - rng.random()) / lp)
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            edges.append((w, v))
    return edges


def gnp_dense(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    """G(n, p) drawn pair by pair in lexicographic order."""
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def complete_edges(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def mycielski_edges(steps: int) -> tuple[int, list[tuple[int, int]]]:
    """Mycielski steps applied to K2: 2 -> 5 -> 11 -> 23 -> 47 vertices."""
    n, edges = 2, [(0, 1)]
    for _ in range(steps):
        out = list(edges)
        for u, v in edges:
            out += [(u, n + v), (v, n + u)]
        out += [(n + i, 2 * n) for i in range(n)]
        n, edges = 2 * n + 1, out
    return n, sorted((min(e), max(e)) for e in edges)


# Which d stratum goes with the i-th n stratum. Fixed, so that every seed
# gets the same spread of host sizes and only the draws inside each stratum
# change; run-to-run differences then come from the program, not the mix.
SPARSE_D_STRATUM = (3, 6, 1, 4, 7, 0, 5, 2)


def sparse_host(seed: int, i: int) -> dict:
    """Pool entry i: n and d stratified over their ranges, jitter from seed."""
    rng = random.Random(f"certify-sparse:{seed}:{i}")
    lo, hi = SPARSE_N
    n = lo + int((hi - lo) * (i + rng.random()) / SPARSE_POOL)
    dlo, dhi = SPARSE_D
    d = dlo + (dhi - dlo) * (SPARSE_D_STRATUM[i] + rng.random()) / SPARSE_POOL
    k = rng.randint(sparse_k_min(d), SPARSE_K_MAX)
    edges = set(gnp_sparse(n, d / n, rng))
    clique = sorted(rng.sample(range(n), k))
    edges.update((a, b) for x, a in enumerate(clique) for b in clique[x + 1:])
    return {"n": n, "d": d, "k": k, "edges": sorted(edges)}


def dense_host(i: int) -> dict:
    n = 45 + round(10 * i / (DENSE_POOL - 1))
    rng = random.Random(f"certify-dense:pool:{i}")
    return {"n": n, "k": 0, "edges": gnp_dense(n, 0.5, rng)}


def edge_digest(n: int, edges) -> str:
    return hashlib.sha256(edge_text(n, edges).encode()).hexdigest()


def edge_text(n: int, edges) -> str:
    return f"# n {n}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def coloring_text(edges, colors) -> str:
    return "".join(f"{u} {v} {c}\n" for (u, v), c in zip(edges, colors))


def graph6(n: int, edges) -> str:
    """graph6 for n <= 62: upper-triangle bits column by column."""
    if n > 62:
        raise ValueError("hunt hosts stay below 63 vertices")
    es = set(edges)
    bits = [1 if (u, v) in es else 0 for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    body = "".join(
        chr(63 + int("".join(map(str, bits[i:i + 6])), 2)) for i in range(0, len(bits), 6)
    )
    return chr(63 + n) + body


def parse_graph6(s: str) -> tuple[int, list[tuple[int, int]]]:
    s = s.strip()
    n = ord(s[0]) - 63
    if not 0 <= n <= 62:
        raise ValueError(f"graph6 string {s!r} outside the small-graph form")
    bits = []
    for ch in s[1:]:
        x = ord(ch) - 63
        bits += [(x >> k) & 1 for k in range(5, -1, -1)]
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    if len(bits) < len(pairs):
        raise ValueError(f"graph6 string {s!r} is truncated")
    return n, sorted(p for p, b in zip(pairs, bits) if b)
