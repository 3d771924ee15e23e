"""Chromatic-number bounds and an exact solver with verifiable witnesses.

The exact solver is DSATUR-ordered branch and bound: a greedy clique pins
its vertices to distinct colors, a greedy DSATUR coloring seeds the upper
bound, and the search only ever tries used colors plus one fresh color per
node, which kills color-permutation symmetry. One loop, ``_search``, with
its own per-depth stack, does both: the greedy coloring is the search's
first leaf. Its state is vertex bitmasks, after San Segundo's bitboard
DSATUR (2012): the free vertices, per color the vertices that see it, and
bit-sliced counters of saturation and degree, so a node costs a fixed
number of big-int operations and walks no neighbor list. Work is metered
in node expansions so results are budget-honest: on exhaustion the result
degrades to (clique lower bound, best coloring found) with exact=False,
never to a wrong claim.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, iter_bits

DEFAULT_BUDGET = 5_000_000


@dataclass(frozen=True)
class ChiResult:
    """A lower bound plus a proper coloring, as classes, of upper colors."""

    lower: int
    witness: tuple[tuple[int, ...], ...]

    @property
    def upper(self) -> int:
        return len(self.witness)

    @property
    def exact(self) -> bool:
        return self.lower == self.upper

    def to_json(self) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "exact": self.exact,
            "classes": [list(c) for c in self.witness],
        }


def _classes(assign) -> tuple[tuple[int, ...], ...]:
    """Group a class id per vertex into classes, in order of first vertex."""
    groups: dict[int, list[int]] = {}
    for v, c in enumerate(assign):
        groups.setdefault(c, []).append(v)
    return tuple(map(tuple, groups.values()))


def _dsatur(g: Graph) -> list[int]:
    """DSATUR greedy coloring: a color 0..k-1 per vertex, all k used.

    It is the search's first leaf: with lower bound n the search stops there.
    """
    return _search(g, (), g.n, g.n + 1, None, g.n + 1)[0]


def greedy_upper(g: Graph) -> ChiResult:
    """DSATUR greedy coloring: an upper bound with its proper witness."""
    return ChiResult(2 if any(g.adj) else min(g.n, 1), _classes(_dsatur(g)))


def _greedy_clique(g: Graph) -> list[int]:
    """Grow a clique greedily from each seed vertex; keep the largest. Seeds
    come by (-degree, index), so the first whose degree + 1 cannot beat the
    best clique ends the walk: no later seed can."""
    deg = [row.bit_count() for row in g.adj]
    best: list[int] = []
    for v in sorted(range(g.n), key=lambda u: (-deg[u], u)):
        if deg[v] + 1 <= len(best):
            break
        clique = [v]
        cand = g.adj[v]
        while cand:
            pick, pkey = -1, (-1, 0)
            for u in iter_bits(cand):
                key = ((g.adj[u] & cand).bit_count(), -u)
                if key > pkey:
                    pick, pkey = u, key
            clique.append(pick)
            cand &= g.adj[pick]
        if len(clique) > len(best):
            best = clique
    return best


def chi_exact(g: Graph, budget: int = DEFAULT_BUDGET) -> ChiResult:
    """Exact chromatic number within a node-expansion budget.

    Returns exact bounds when the search finishes; on budget exhaustion the
    lower bound falls back to the greedy clique and exact is False.
    """
    if g.n == 0:
        return ChiResult(0, ())
    clique = _greedy_clique(g)
    lb = max(1, len(clique))
    best_assign = _dsatur(g)
    best_k = max(best_assign) + 1
    if lb >= best_k:
        return ChiResult(best_k, _classes(best_assign))
    best_assign, done = _search(g, clique, lb, best_k, best_assign, budget)
    witness = _classes(best_assign)
    return ChiResult(len(witness) if done else lb, witness)


def _slices(counts: list[int]) -> list[int]:
    """Bit-sliced counters: bit v of slice j is bit j of counts[v]."""
    return [int("".join(["1" if k >> j & 1 else "0" for k in reversed(counts)]), 2)
            for j in range(max(counts, default=0).bit_length())]


def _plus_one(counters: list[int], mask: int) -> list[int]:
    """Bit-sliced counters with 1 added at the vertices of mask, by ripple carry."""
    out = counters[:]
    j = 0
    while mask:
        out[j], mask = out[j] ^ mask, out[j] & mask
        j += 1
    return out


def _search(
    g: Graph, clique, lb: int, best_k: int, best_assign, budget: int,
) -> tuple[list[int], bool]:
    """DSATUR branch and bound for a coloring with fewer than best_k colors.

    The clique's vertices are pinned to colors 0, 1, ...; the search stops
    at a leaf with at most lb colors, when the tree is covered, or after
    budget node expansions. Returns the best coloring found (a color per
    vertex) and whether the search stopped before the budget ran out.

    A pick narrows the free vertices slice by slice from the top, to those
    seeing the most colors, then of highest degree, and takes the lowest
    index. Each node saves the mask of its color and the saturation slices
    it replaces, and puts them back before its next color or on backing up.
    """
    n, adj = g.n, g.adj
    deg = _slices(list(map(int.bit_count, adj)))
    colors = [-1] * n
    seen = [0] * n  # seen[c]: the vertices with a neighbor colored c
    free = (1 << n) - 1  # neither colored nor picked
    for c, v in enumerate(clique):
        colors[v], seen[c] = c, adj[v]
        free ^= 1 << v
    # saturation never exceeds degree, so it fits in as many slices
    sat = [0] * len(deg)
    for v in clique:
        sat = _plus_one(sat, adj[v] & free)
    # Node d branches on vertex picks[d] with colors 0..used[d]-1 in use;
    # saved[d] holds seen[c] and sat from before it took its color c.
    depth = n - len(clique)
    picks, used, saved = [0] * depth, [0] * depth, [None] * depth
    nodes, d, u = 0, 0, len(clique)
    while True:
        nodes += 1
        if nodes > budget:
            return best_assign, False
        if d < depth:
            cand = free
            for level in reversed(sat):
                if x := cand & level:
                    cand = x
            for level in reversed(deg):
                if x := cand & level:
                    cand = x
            low = cand & -cand
            free ^= low
            picks[d], used[d] = low.bit_length() - 1, u
        else:
            best_k, best_assign = u, colors[:]
            if best_k <= lb:
                break
            d -= 1
        # move node d to its next color, backing up past nodes with none left
        while d >= 0:
            v = picks[d]
            c = colors[v]
            if c >= 0:
                seen[c], sat = saved[d]
            last = used[d] if used[d] < best_k - 1 else best_k - 2
            # the lowest color above c that no colored neighbor has
            c += 1
            while c <= last and seen[c] >> v & 1:
                c += 1
            if c <= last:
                break
            colors[v] = -1
            free |= 1 << v
            d -= 1
        else:
            break  # the whole tree is covered: best_k is optimal
        colors[v] = c
        row = adj[v]
        saved[d] = seen[c], sat
        # row & free & ~seen[c], without ~'s negative temporary of n bits
        new = row & free
        sat = _plus_one(sat, new ^ (new & seen[c]))
        seen[c] |= row
        u = used[d] + (c == used[d])
        d += 1
    return best_assign, True
