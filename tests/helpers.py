"""Graphs and file text that only the tests need: a cycle host and coloring lines."""

from monocert.graphs import Graph


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def coloring_text(ec) -> str:
    """An edge coloring as the "u v c" lines that coloring files hold."""
    return "".join(f"{u} {v} {c}\n" for u, v, c in ec.to_json())
