"""Chromatic-number bounds and an exact solver with verifiable witnesses.

The exact solver is DSATUR-ordered branch and bound: a greedy clique pins
its vertices to distinct colors, a greedy DSATUR coloring seeds the upper
bound, and the search only ever tries used colors plus one fresh color per
node, which kills color-permutation symmetry. One loop, ``_search``, with
its own per-depth stack, does both: the greedy coloring is the search's
first leaf. It picks from a saturation queue: one bitmask per saturation
level over the vertices' ranks by (-degree, index), so a pick is the lowest
bit of the highest non-empty level, and a vertex moves one level when a
neighbor's color newly saturates it or that color is undone. Work is
metered in node expansions so results are budget-honest: on exhaustion the
result degrades to (clique lower bound, best coloring found) with
exact=False, never to a wrong claim.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, iter_bits, lowest_zero_bit

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


def _ranks(g: Graph) -> tuple[list[int], list[int]]:
    """order[r] is the r-th vertex by (-degree, index); rank[order[r]] == r."""
    order = sorted(range(g.n), key=lambda v: (-g.adj[v].bit_count(), v))
    rank = [0] * g.n
    for r, v in enumerate(order):
        rank[v] = r
    return order, rank


def _dsatur(g: Graph, order: list[int], rank: list[int]) -> list[int]:
    """DSATUR greedy coloring: a color 0..k-1 per vertex, all k used.

    It is the search's first leaf: with lower bound n the search stops there.
    """
    return _search(g, order, rank, (), g.n, g.n + 1, None, g.n + 1)[0]


def greedy_upper(g: Graph) -> ChiResult:
    """DSATUR greedy coloring: an upper bound with its proper witness."""
    return ChiResult(2 if any(g.adj) else min(g.n, 1), _classes(_dsatur(g, *_ranks(g))))


def _greedy_clique(g: Graph, order: list[int]) -> list[int]:
    """Grow a clique greedily from every seed vertex, in order; keep the largest."""
    best: list[int] = []
    for v in order:
        if g.adj[v].bit_count() + 1 <= len(best):
            continue
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
    order, rank = _ranks(g)
    clique = _greedy_clique(g, order)
    lb = max(1, len(clique))
    best_assign = _dsatur(g, order, rank)
    best_k = max(best_assign) + 1
    if lb >= best_k:
        return ChiResult(best_k, _classes(best_assign))
    best_assign, done = _search(g, order, rank, clique, lb, best_k, best_assign, budget)
    witness = _classes(best_assign)
    return ChiResult(len(witness) if done else lb, witness)


def _search(
    g: Graph, order: list[int], rank: list[int], clique, lb: int, best_k: int,
    best_assign, budget: int,
) -> tuple[list[int], bool]:
    """DSATUR branch and bound for a coloring with fewer than best_k colors.

    order and rank are _ranks(g), the queue's tie order. The clique's
    vertices are pinned to colors 0, 1, ...; the search stops at a leaf
    with at most lb colors, when the tree is covered, or after budget node
    expansions. Returns the best coloring found (a color per vertex)
    and whether the search stopped before the budget ran out.
    """
    n, adj = g.n, g.adj
    colors = [-1] * n
    neigh = [0] * n  # bitmask of colors seen on colored neighbors
    for i, v in enumerate(clique):
        colors[v] = i
        for w in iter_bits(adj[v]):
            neigh[w] |= 1 << i
    # levels[s]: ranks of the uncolored vertices seeing s colors; none above hi
    levels = [0] * (n + 1)
    for w in range(n):
        if colors[w] < 0:
            levels[neigh[w].bit_count()] |= 1 << rank[w]
    hi = len(clique)
    # Node d branches on vertex picks[d] with colors 0..used[d]-1 in use; its
    # current color colors[picks[d]] (-1 at first) newly saturated the
    # vertices listed in changed[d].
    depth = n - len(clique)
    picks, used, changed = [0] * depth, [0] * depth, [None] * depth
    nodes, d, u = 0, 0, len(clique)
    while True:
        nodes += 1
        if nodes > budget:
            return best_assign, False
        if d < depth:
            while not levels[hi]:
                hi -= 1
            q = levels[hi]
            low = q & -q
            levels[hi] = q ^ low
            picks[d], used[d] = order[low.bit_length() - 1], u
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
                keep = ~(1 << c)
                for w in changed[d]:
                    neigh[w] &= keep
                    s = neigh[w].bit_count()
                    rb = 1 << rank[w]
                    levels[s + 1] ^= rb
                    levels[s] |= rb
            last = used[d] if used[d] < best_k - 1 else best_k - 2
            # the lowest color above c that no colored neighbor has
            c = lowest_zero_bit(neigh[v] | ((1 << (c + 1)) - 1))
            if c <= last:
                break
            colors[v] = -1
            s = neigh[v].bit_count()
            levels[s] |= 1 << rank[v]
            if s > hi:
                hi = s
            d -= 1
        else:
            break  # the whole tree is covered: best_k is optimal
        colors[v] = c
        bit = 1 << c
        new = []
        row = adj[v]
        while row:
            low = row & -row
            row ^= low
            w = low.bit_length() - 1
            if colors[w] < 0 and not (neigh[w] & bit):
                s = neigh[w].bit_count()
                neigh[w] |= bit
                rb = 1 << rank[w]
                levels[s] ^= rb
                levels[s + 1] |= rb
                if s == hi:
                    hi += 1
                new.append(w)
        changed[d] = new
        u = used[d] + (c == used[d])
        d += 1
    return best_assign, True
