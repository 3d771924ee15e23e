"""Both theorems as either/or statements, run through the CLI on small graphs.

Every ``tree-cert`` and ``match-cert`` answer must pass ``verify``, and the
side it lands on must agree with the chromatic number from the subset-DP
oracle: the tree reaches chi, and a matching is found whenever chi >= R.
"""

import contextlib
import io
import json
import tempfile
from itertools import combinations
from pathlib import Path

from hypothesis import given, settings, strategies as st

import monocert as mc
from monocert.cli import main

from helpers import coloring_text
from oracles import chromatic_number_dp


@st.composite
def colored_graphs(draw, t=None):
    n = draw(st.integers(min_value=1, max_value=8))
    pairs = list(combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [e for e, k in zip(pairs, keep) if k]
    t = t or draw(st.integers(min_value=1, max_value=3))
    colors = draw(st.lists(st.integers(min_value=1, max_value=t),
                           min_size=len(edges), max_size=len(edges)))
    g = mc.Graph.from_edges(n, edges)
    return g, mc.EdgeColoring.of(g, dict(zip(edges, colors)), t)


def cli(argv) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, json.loads(out.getvalue())


def run_and_verify(tmp: Path, g, ec, argv) -> tuple[int, dict]:
    gf, cf, out = tmp / "g.txt", tmp / "c.txt", tmp / "out.json"
    gf.write_text(mc.write_graph(g, "edges"))
    cf.write_text(coloring_text(ec))
    code, doc = cli([argv[0], str(gf), "--coloring", str(cf), "--json-out", str(out),
                     *argv[1:]])
    vcode, vdoc = cli(["verify", str(out), str(gf), "--coloring", str(cf)])
    assert vcode == 0 and vdoc["ok"] is True, vdoc
    return code, doc


@given(colored_graphs(), st.data())
@settings(max_examples=60, deadline=None)
def test_match_cert_dichotomy(colored, data):
    g, ec = colored
    targets = data.draw(st.lists(st.integers(min_value=1, max_value=3),
                                 min_size=ec.t, max_size=ec.t))
    need = mc.ramsey_matching_number(mc.MatchingTargets.of(targets))
    chi = chromatic_number_dp(g)
    spec = ",".join(map(str, targets))
    with tempfile.TemporaryDirectory() as tmp:
        for route in ([], ["--kiraly"]):
            code, doc = run_and_verify(Path(tmp), g, ec,
                                       ["match-cert", "--targets", spec, *route])
            assert code == (1 if doc["certificate"] is None else 0)
            if chi >= need:
                assert code == 0


@given(colored_graphs(t=2))
@settings(max_examples=60, deadline=None)
def test_tree_cert_dichotomy(colored):
    g, ec = colored
    with tempfile.TemporaryDirectory() as tmp:
        code, doc = run_and_verify(Path(tmp), g, ec, ["tree-cert"])
    assert code == 0
    size = len(doc["certificate"]["vertices"])
    assert len(doc["derived_classes"]) == size >= chromatic_number_dp(g)
