import random

import pytest

import monocert as mc

from helpers import cycle_graph


@pytest.fixture(scope="session")
def c5():
    return cycle_graph(5)


@pytest.fixture(scope="session")
def k4():
    return mc.complete_graph(4)


@pytest.fixture(scope="session")
def petersen():
    return mc.kneser_graph(5, 2)


@pytest.fixture(scope="session")
def grotzsch():
    return mc.mycielskian(mc.mycielskian(mc.complete_graph(2)))


@pytest.fixture()
def rng():
    return random.Random(20240817)


@pytest.fixture(scope="session")
def random_coloring():
    def make(g, t, rng):
        return mc.EdgeColoring.of(g, {e: rng.randint(1, t) for e in g.edges()}, t)

    return make


@pytest.fixture(scope="session")
def atlas7():
    """All 1044 non-isomorphic graphs on 7 vertices, via our graph6 parser."""
    nx = pytest.importorskip("networkx")
    out = []
    for G in nx.graph_atlas_g():
        if G.number_of_nodes() == 7:
            g6 = nx.to_graph6_bytes(G, header=False).decode().strip()
            out.append(mc.parse_graph(g6, "g6"))
    assert len(out) == 1044
    return out
