import io
import json
import time
from pathlib import Path

import pytest

import monocert as mc
from monocert import cli
from monocert.cli import main

from helpers import coloring_text, cycle_graph


def write_graph_file(tmp_path, g, name="graph.txt", fmt="edges"):
    path = tmp_path / name
    path.write_text(mc.write_graph(g, fmt))
    return str(path)


def write_coloring_file(tmp_path, ec, name="coloring.txt"):
    path = tmp_path / name
    path.write_text(coloring_text(ec))
    return str(path)


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out)


# ---------------------------------------------------------------------------
# chi

def test_chi_exact_exit_zero(tmp_path, capsys, c5):
    gf = write_graph_file(tmp_path, c5)
    rc, doc = run(capsys, ["chi", gf])
    assert rc == 0
    assert doc["lower"] == doc["upper"] == 3 and doc["exact"] is True
    assert doc["seed"] == 0


def test_chi_budget_exit_three(tmp_path, capsys, grotzsch):
    gf = write_graph_file(tmp_path, grotzsch)
    rc, doc = run(capsys, ["chi", gf, "--budget", "1"])
    assert rc == 3
    assert doc["exact"] is False and doc["lower"] <= 4 <= doc["upper"]


def test_chi_formats(tmp_path, capsys, petersen):
    for fmt in ("edges", "dimacs", "g6"):
        gf = write_graph_file(tmp_path, petersen, f"p.{fmt}", fmt)
        rc, doc = run(capsys, ["chi", gf, "--format", fmt])
        assert rc == 0 and doc["upper"] == 3


def test_chi_stdin(capsys, monkeypatch, k4):
    monkeypatch.setattr("sys.stdin", io.StringIO(mc.write_graph(k4, "edges")))
    rc, doc = run(capsys, ["chi", "-"])
    assert rc == 0 and doc["upper"] == 4


def test_chi_parse_error_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 x\n")
    assert main(["chi", str(bad)]) == 2
    capsys.readouterr()
    assert main(["chi", str(tmp_path / "missing.txt")]) == 2


def test_chi_long_path_exact(tmp_path, capsys):
    # P1200 plus a disjoint C5: the search keeps one level per vertex on
    # its own stack, so it settles chi = 3 whatever Python's stack depth
    path = [(i, i + 1) for i in range(1199)]
    cycle = [(1200 + i, 1200 + (i + 1) % 5) for i in range(5)]
    gf = write_graph_file(tmp_path, mc.Graph.from_edges(1205, path + cycle))
    out = tmp_path / "chi.json"
    rc, doc = run(capsys, ["chi", gf, "--json-out", str(out)])
    assert rc == 0
    assert (doc["lower"], doc["upper"], doc["exact"]) == (3, 3, True)
    rc, vdoc = run(capsys, ["verify", str(out), gf])
    assert rc == 0 and vdoc["ok"] is True


def test_json_out_matches_stdout(tmp_path, capsys, c5):
    gf = write_graph_file(tmp_path, c5)
    out_path = tmp_path / "result.json"
    rc, doc = run(capsys, ["chi", gf, "--json-out", str(out_path)])
    assert rc == 0
    assert json.loads(out_path.read_text()) == doc


def test_chi_deterministic(tmp_path, capsys, petersen):
    gf = write_graph_file(tmp_path, petersen)
    main(["chi", gf])
    first = capsys.readouterr().out
    main(["chi", gf])
    second = capsys.readouterr().out
    assert first == second


# ---------------------------------------------------------------------------
# tree-cert

def tree_coloring(g, rng):
    return mc.EdgeColoring.of(g, {e: rng.randint(1, 2) for e in g.edges()}, 2)


def test_tree_cert_end_to_end(tmp_path, capsys, grotzsch, rng):
    gf = write_graph_file(tmp_path, grotzsch)
    cf = write_coloring_file(tmp_path, tree_coloring(grotzsch, rng))
    out = tmp_path / "cert.json"
    rc, doc = run(capsys, ["tree-cert", gf, "--coloring", cf, "--json-out", str(out)])
    assert rc == 0
    cert = doc["certificate"]
    assert len(cert["vertices"]) >= 4
    assert len(cert["edges"]) == len(cert["vertices"]) - 1
    assert "chi" not in doc and doc["kind"] == "tree"
    dual = doc["dual"]
    assert dual["max_degree"] >= 4
    assert len(cert["vertices"]) == dual["max_degree"]
    assert len(doc["derived_classes"]) == dual["max_degree"]
    rc2, vdoc = run(capsys, ["verify", str(out), gf, "--coloring", cf])
    assert rc2 == 0 and vdoc["ok"] is True and vdoc["kind"] == "tree"
    assert vdoc["unchecked"] == []


def test_tree_cert_trusted_bound(tmp_path, capsys, c5):
    # no bound is taken on trust: the option is gone, and the derived
    # classes carry the proof instead
    gf = write_graph_file(tmp_path, c5)
    ec = mc.EdgeColoring.of(c5, {e: 1 for e in c5.edges()}, 2)
    cf = write_coloring_file(tmp_path, ec)
    for extra, named in ((["--chi-lower", "3"], "--chi-lower"),
                         (["--chi-lower=3"], "--chi-lower"),
                         (["-x"], "-x"),
                         (["--json", "out.json"], "--json"),  # no abbreviations
                         ([gf], gf)):  # a second graph
        with pytest.raises(SystemExit) as exc:
            main(["tree-cert", gf, "--coloring", cf, *extra])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: unrecognized arguments:" in err and named in err
    rc, doc = run(capsys, ["tree-cert", gf, "--coloring", cf])
    assert rc == 0 and "chi_lower_used" not in doc["certificate"]
    assert len(doc["derived_classes"]) == len(doc["certificate"]["vertices"]) == 5


def test_tree_cert_coloring_mismatch_exit_two(tmp_path, capsys, c5, k4):
    ec = mc.EdgeColoring.of(c5, {e: 1 for e in c5.edges()}, 2)
    cf = write_coloring_file(tmp_path, ec)
    assert main(["tree-cert", write_graph_file(tmp_path, k4), "--coloring", cf]) == 2
    assert "line 2" in capsys.readouterr().err  # (0, 4) names vertex 4 of K4
    gf = write_graph_file(tmp_path, c5)
    text = coloring_text(ec)
    for bad, named in ((text + "0 2 1\n", "line 6"),  # not an edge of C5
                       ("0 7 1\n" + text, "line 1"),  # vertex beyond n
                       (text.replace("0 1 1\n", ""), "(0, 1)")):  # edge left uncolored
        (tmp_path / "bad.txt").write_text(bad)
        assert main(["tree-cert", gf, "--coloring", str(tmp_path / "bad.txt")]) == 2
        assert named in capsys.readouterr().err


def test_verify_catches_tampered_tree_cert(tmp_path, capsys, grotzsch, rng):
    gf = write_graph_file(tmp_path, grotzsch)
    cf = write_coloring_file(tmp_path, tree_coloring(grotzsch, rng))
    out = tmp_path / "cert.json"
    run(capsys, ["tree-cert", gf, "--coloring", cf, "--json-out", str(out)])
    doc = json.loads(out.read_text())
    classes = doc["derived_classes"]
    u, v = grotzsch.edges()[0]
    cu, cv = (next(c for c in classes if x in c) for x in (u, v))
    joined = [c for c in classes if c not in (cu, cv)] + [sorted(cu + cv)]
    for name, derived in (("missing-class", classes[1:]), ("edge-inside", joined)):
        tampered = tmp_path / f"{name}.json"
        tampered.write_text(json.dumps({**doc, "derived_classes": derived}))
        rc, vdoc = run(capsys, ["verify", str(tampered), gf, "--coloring", cf])
        assert rc == 1 and vdoc["ok"] is False, name
        assert any("derived coloring" in p for p in vdoc["problems"]), name


def test_verify_holds_a_tree_to_the_graph_and_t(tmp_path, capsys):
    # the edgeless graph on two vertices, with its empty coloring (t = 1)
    gf = tmp_path / "g.txt"
    gf.write_text("# n 2\n")
    cf = tmp_path / "c.txt"
    cf.write_text("")
    doc = {"kind": "tree", "derived_classes": [[0, 1]],
           "certificate": {"color": 1, "edges": [], "vertices": [0]}}
    cert = tmp_path / "t.json"
    cert.write_text(json.dumps(doc))
    rc, vdoc = run(capsys, ["verify", str(cert), str(gf), "--coloring", str(cf)])
    assert rc == 0 and vdoc["ok"]
    # a tree's color runs 1..t, and its vertices are the graph's, each once;
    # a forest of two trees has too few edges
    for forged, named in (({"color": 7, "edges": [], "vertices": [0]}, "color 7"),
                          ({"color": 1, "edges": [], "vertices": [99]}, "vertex 99"),
                          ({"color": 1, "edges": [], "vertices": []}, "has no vertices"),
                          ({"color": 1, "edges": [], "vertices": [0, 0]}, "has duplicates"),
                          ({"color": 1, "edges": [], "vertices": [0, 1]},
                           "0 edges for 2 vertices")):
        cert.write_text(json.dumps({**doc, "certificate": forged}))
        rc, vdoc = run(capsys, ["verify", str(cert), str(gf), "--coloring", str(cf)])
        assert rc == 1 and not vdoc["ok"]
        assert named in vdoc["problems"][0]


# ---------------------------------------------------------------------------
# match-cert

def test_match_cert_direct_and_kiraly(tmp_path, capsys, rng):
    g = mc.complete_graph(5)
    gf = write_graph_file(tmp_path, g)
    ec = mc.EdgeColoring.of(g, {e: rng.randint(1, 2) for e in g.edges()}, 2)
    cf = write_coloring_file(tmp_path, ec)
    for extra in ([], ["--kiraly"]):
        out = tmp_path / "m.json"
        rc, doc = run(capsys, [
            "match-cert", gf, "--coloring", cf, "--targets", "2,2",
            "--json-out", str(out), *extra,
        ])
        assert rc == 0
        assert doc["ramsey_value"] == 5
        assert doc["route"] == ("reduction" if extra else "direct")
        assert doc["certificate"]["target"] == 2
        rc2, vdoc = run(capsys, ["verify", str(out), gf, "--coloring", cf])
        assert rc2 == 0 and vdoc["kind"] == "matching"


def test_match_cert_not_found_exit_one(tmp_path, capsys):
    g = mc.star_graph(4)
    gf = write_graph_file(tmp_path, g)
    ec = mc.EdgeColoring.of(g, {(0, 1): 1, (0, 2): 1, (0, 3): 2, (0, 4): 2}, 2)
    cf = write_coloring_file(tmp_path, ec)
    for extra in ([], ["--kiraly"]):
        out = tmp_path / "m.json"
        rc, doc = run(capsys, ["match-cert", gf, "--coloring", cf, "--targets", "2,2",
                               "--json-out", str(out), *extra])
        assert rc == 1 and doc["certificate"] is None
        assert doc["coloring"] == [[0], [1, 2, 3, 4]] and doc["targets"] == [2, 2]
        rc2, vdoc = run(capsys, ["verify", str(out), gf, "--coloring", cf])
        assert rc2 == 0 and vdoc["ok"] is True
        assert vdoc["unchecked"] == [
            "no matching on the reduced instance" if extra else "no color reaches its target"
        ]
        # a miss whose coloring reaches R = 5 classes proves nothing
        doc["coloring"] = [[0], [1], [2], [3], [4]]
        out.write_text(json.dumps(doc))
        rc3, vdoc3 = run(capsys, ["verify", str(out), gf, "--coloring", cf])
        assert rc3 == 1 and any("R = 5" in p for p in vdoc3["problems"])


def test_match_cert_kiraly_miss_claims_only_the_reduced_instance(tmp_path, capsys):
    # P4 with 01 and 23 colored 1 and 12 colored 2: color 1 holds {01, 23},
    # but the greedy classes merge to K_2, whose one edge matches nothing
    g = mc.path_graph(4)
    gf = write_graph_file(tmp_path, g)
    cf = write_coloring_file(tmp_path, mc.EdgeColoring.of(g, {(0, 1): 1, (1, 2): 2, (2, 3): 1}, 2))
    rc, doc = run(capsys, ["match-cert", gf, "--coloring", cf, "--targets", "2,2"])
    assert rc == 0 and doc["certificate"] == {"color": 1, "edges": [[0, 1], [2, 3]], "target": 2}
    out = tmp_path / "m.json"
    rc = main(["match-cert", gf, "--coloring", cf, "--targets", "2,2", "--kiraly",
               "--json-out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1 and json.loads(out.read_text())["coloring"] == [[0, 2], [1, 3]]
    assert "no matching on the reduced instance" in err
    assert "no color reaches its target" not in err
    rc, vdoc = run(capsys, ["verify", str(out), gf, "--coloring", cf])
    assert rc == 0 and vdoc["unchecked"] == ["no matching on the reduced instance"]


def test_match_cert_bad_targets_exit_two(tmp_path, capsys, c5):
    gf = write_graph_file(tmp_path, c5)
    ec = mc.EdgeColoring.of(c5, {e: 1 for e in c5.edges()}, 2)
    cf = write_coloring_file(tmp_path, ec)
    assert main(["match-cert", gf, "--coloring", cf, "--targets", "2,x"]) == 2
    capsys.readouterr()


def test_verify_catches_tampered_matching(tmp_path, capsys, rng):
    g = mc.complete_graph(5)
    gf = write_graph_file(tmp_path, g)
    ec = mc.EdgeColoring.of(g, {e: rng.randint(1, 2) for e in g.edges()}, 2)
    cf = write_coloring_file(tmp_path, ec)
    out = tmp_path / "m.json"
    run(capsys, ["match-cert", gf, "--coloring", cf, "--targets", "2,2",
                 "--json-out", str(out)])
    doc = json.loads(out.read_text())
    doc["certificate"]["edges"] = doc["certificate"]["edges"][:1]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc, vdoc = run(capsys, ["verify", str(bad), gf, "--coloring", cf])
    assert rc == 1 and not vdoc["ok"]


def test_verify_holds_a_matching_to_the_output_targets(tmp_path, capsys):
    # C4 colored 1,2,1,2 around the cycle: color 1 is the matching {01, 23}
    c4 = cycle_graph(4)
    gf = write_graph_file(tmp_path, c4)
    cf = write_coloring_file(tmp_path, mc.EdgeColoring.of(
        c4, {(0, 1): 1, (1, 2): 2, (2, 3): 1, (0, 3): 2}, 2))
    doc = {"kind": "matching", "ramsey_value": 5, "route": "direct", "targets": [2, 2],
           "certificate": {"color": 1, "target": 2, "edges": [[0, 1], [2, 3]]}}
    cert = tmp_path / "m.json"
    cert.write_text(json.dumps(doc))
    rc, vdoc = run(capsys, ["verify", str(cert), gf, "--coloring", cf])
    assert rc == 0 and vdoc["ok"]
    # a certificate may not lower its color's target, name a color past t,
    # or a pair of vertices outside the graph
    for forged, named in (({"color": 1, "target": 1, "edges": [[0, 1]]}, "target 1"),
                          ({"color": 3, "target": 1, "edges": [[0, 1]]}, "color 3"),
                          ({"color": 1, "target": 2, "edges": [[0, 1], [7, 9]]}, "(7,9)")):
        cert.write_text(json.dumps({**doc, "certificate": forged}))
        rc, vdoc = run(capsys, ["verify", str(cert), gf, "--coloring", cf])
        assert rc == 1 and not vdoc["ok"]
        assert named in vdoc["problems"][0]


# ---------------------------------------------------------------------------
# ramsey

def test_ramsey_formula_only(capsys):
    rc, doc = run(capsys, ["ramsey", "--targets", "3,2"])
    assert rc == 0 and doc["R"] == 7 and doc["targets"] == [3, 2]
    assert "arrowing" not in doc


def test_ramsey_bruteforce_negative(capsys):
    rc, doc = run(capsys, ["ramsey", "--targets", "2,2", "--n", "4"])
    assert rc == 1 and doc["arrowing"] is False
    colors = {(u, v): c for u, v, c in doc["avoiding"]}
    ec = mc.EdgeColoring.of(mc.complete_graph(4), colors, 2)
    from monocert.hunter import contains_forest, matching_pattern
    for cls in ec.classes:
        assert contains_forest(cls, matching_pattern(2)) is None


def test_ramsey_bruteforce_positive(capsys):
    rc, doc = run(capsys, ["ramsey", "--targets", "2,2", "--n", "5"])
    assert rc == 0 and doc["arrowing"] is True and doc["avoiding"] is None
    assert doc["colorings_examined"] > 0


def test_ramsey_guard_exit_two(capsys):
    assert main(["ramsey", "--targets", "2,2", "--n", "40"]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# reduce

def test_reduce_end_to_end(tmp_path, capsys, rng):
    g = mc.complete_graph(6)
    gf = write_graph_file(tmp_path, g)
    ec = mc.EdgeColoring.of(g, {e: rng.randint(1, 3) for e in g.edges()}, 3)
    cf = write_coloring_file(tmp_path, ec)
    out = tmp_path / "r.json"
    rc, doc = run(capsys, ["reduce", gf, "--coloring", cf, "--json-out", str(out)])
    assert rc == 0
    inst = doc["instance"]
    assert inst["t"] == 3 and len(inst["classes"]) == 6
    assert len(inst["pairs"]) == 15
    rc2, vdoc = run(capsys, ["verify", str(out), gf, "--coloring", cf])
    assert rc2 == 0 and vdoc["kind"] == "reduced"
    # the instance must keep the coloring's t
    out.write_text(json.dumps({**doc, "instance": {**inst, "t": 99}}))
    rc2, vdoc = run(capsys, ["verify", str(out), gf, "--coloring", cf])
    assert rc2 == 1 and vdoc["problems"] == ["instance has t = 99, but the coloring has t = 3"]
    # forged instances: an edge inside a class, a class pair left out, and a
    # provenance edge between two other classes
    path = mc.path_graph(3)
    pf = write_graph_file(tmp_path, path, "path.txt")
    pcf = write_coloring_file(tmp_path, mc.EdgeColoring.of(path, {(0, 1): 1, (1, 2): 1}, 1), "pc.txt")
    k3 = mc.complete_graph(3)
    kf = write_graph_file(tmp_path, k3, "k3.txt")
    kcf = write_coloring_file(tmp_path, mc.EdgeColoring.of(k3, {e: 1 for e in k3.edges()}, 1), "kc.txt")
    forged = (
        (mc.ReducedInstance(1, ((0, 1), (2,)), {(0, 1): (1, (1, 2))}), pf, pcf,
         "edge (0,1) lies inside class 0"),
        (mc.ReducedInstance(1, ((0,), (1,), (2,)), {(0, 1): (1, (0, 1))}), kf, kcf,
         "2 class pairs have no color"),
        (mc.ReducedInstance(1, ((0,), (1,), (2,)), {
            (0, 1): (1, (0, 1)), (0, 2): (1, (1, 2)), (1, 2): (1, (1, 2))}), kf, kcf,
         "provenance (1,2) does not join classes 0 and 2"),
    )
    for ri, graph_file, coloring_file, problem in forged:
        out.write_text(json.dumps({"kind": "reduced", "instance": ri.to_json()}))
        rc3, vdoc3 = run(capsys, ["verify", str(out), graph_file, "--coloring", coloring_file])
        assert rc3 == 1 and any(problem in p for p in vdoc3["problems"])


# ---------------------------------------------------------------------------
# hunt

def test_hunt_counterexample_exit_one(tmp_path, capsys):
    out = tmp_path / "hunt.json"
    rc, doc = run(capsys, [
        "hunt", "--pattern", "path:4", "--t", "2", "--ramsey-value", "3",
        "--candidates", "mycielski:2", "--json-out", str(out),
    ])
    assert rc == 1
    assert doc["counterexample"] is not None
    # the report is self-contained: verify re-checks it from scratch
    rc2, vdoc = run(capsys, ["verify", str(out)])
    assert rc2 == 0 and vdoc["kind"] == "hunt" and vdoc["ok"] is True


def test_verify_hunt_report_with_a_huge_pattern_n(tmp_path, capsys):
    # the stated n builds n empty rows and nothing grows faster: the cycle
    # check is union-find over the pattern's edges, and a pattern larger
    # than the host embeds in no class
    golden = Path(__file__).parent / "golden" / "expected.json"
    doc = json.loads(json.loads(golden.read_text())["hunt-g6-file"]["stdout"])
    doc["pattern"]["n"] = 2_000_000
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    rc, vdoc = run(capsys, ["verify", str(path)])
    assert time.perf_counter() - start < 10
    assert rc == 0 and vdoc["ok"] is True
    # a star report whose n disagrees with its edge count is no star to the
    # degree count, which compares the two before reading any edge
    doc = json.loads(json.loads(golden.read_text())["hunt-mycielski"]["stdout"])
    doc["pattern"]["n"] = 2_000_000
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    rc, vdoc = run(capsys, ["verify", str(path)])
    assert time.perf_counter() - start < 10
    assert rc == 0 and "no avoiding coloring of JkLTAQGK?N_" in vdoc["unchecked"]


def test_hunt_settled_exit_zero(capsys):
    rc, doc = run(capsys, [
        "hunt", "--pattern", "path:4", "--t", "2", "--ramsey-value", "5",
        "--candidates", "multipartite:1,1,1,1,1",
    ])
    assert rc == 0
    assert doc["counterexample"] is None
    assert doc["candidates"][0]["exhausted"] is True


def test_hunt_settles_a_star_refutation_at_the_root(tmp_path, capsys):
    # K10's degree 9 exceeds the 2 * 4 edges two star:5 colors leave each
    # vertex; a search without the count ran out of 2,000,000 nodes
    path = tmp_path / "k10.g6"
    path.write_text(mc.write_graph(mc.complete_graph(10), "g6"))
    start = time.perf_counter()
    rc = main(["hunt", "--pattern", "star:5", "--t", "2", "--ramsey-value", "10",
               "--budget", "2000000", "--candidates", f"g6:{path}"])
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    doc = json.loads(out)
    assert rc == 0 and "all candidates settled" in err
    assert doc["candidates"][0]["exhausted"] is True
    assert doc["colorings_examined"] == 1


def test_verify_rederives_star_refutations(tmp_path, capsys):
    # two star:2 colors: K4 has a vertex of degree 3 > 2 (pigeonhole), every
    # vertex of C5 has degree 2 and 5 is odd (handshake); the triangle beside
    # a lone vertex is exhausted by search, which verify does not repeat
    hosts = [mc.complete_graph(4), cycle_graph(5),
             mc.Graph.from_edges(4, [(0, 1), (1, 2), (0, 2)])]
    k4, c5, k3k1 = (mc.write_graph(g, "g6").strip() for g in hosts)
    path, out = tmp_path / "hosts.g6", tmp_path / "hunt.json"
    path.write_text("".join(mc.write_graph(g, "g6") for g in hosts))
    rc, doc = run(capsys, ["hunt", "--pattern", "star:2", "--t", "2", "--ramsey-value", "3",
                           "--candidates", f"g6:{path}", "--json-out", str(out)])
    assert rc == 0 and [c["exhausted"] for c in doc["candidates"]] == [True] * 3
    assert [c["colorings_examined"] for c in doc["candidates"]][:2] == [1, 1]
    rc2, vdoc = run(capsys, ["verify", str(out)])
    assert rc2 == 0 and vdoc["ok"] is True
    assert vdoc["unchecked"] == [f"chi of {k4}", f"chi of {c5}", f"chi of {k3k1}",
                                 f"no avoiding coloring of {k3k1}"]
    # the count is made for the report's pattern and t, not the hunt's:
    # with three colors, or a path:4, nothing is refuted by degrees
    for edit in ({"t": 3}, {"pattern": {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]}}):
        out.write_text(json.dumps({**doc, **edit}))
        rc3, vdoc3 = run(capsys, ["verify", str(out)])
        assert rc3 == 0 and f"no avoiding coloring of {c5}" in vdoc3["unchecked"]


def test_hunt_inconclusive_exit_three(capsys):
    rc, doc = run(capsys, [
        "hunt", "--pattern", "path:4", "--t", "2", "--ramsey-value", "5",
        "--candidates", "multipartite:1,1,1,1,1", "--budget", "1",
    ])
    assert rc == 3
    assert doc["candidates"][0]["exhausted"] is False


def test_hunt_and_verify_a_matching_pattern_on_k13(tmp_path, capsys):
    # the find and its re-check test each class for a 5-edge matching with
    # the blossom; an ordered embedding took seconds per class here
    out = tmp_path / "hunt.json"
    argv = ["hunt", "--pattern", "matching:5", "--t", "2", "--ramsey-value", "13",
            "--candidates", "multipartite:" + ",".join(["1"] * 13), "--json-out", str(out)]
    start = time.perf_counter()
    rc, doc = run(capsys, argv)
    assert time.perf_counter() - start < 2
    assert rc == 1 and doc["counterexample"] is not None
    start = time.perf_counter()
    rc2, vdoc = run(capsys, ["verify", str(out)])
    assert time.perf_counter() - start < 2
    assert rc2 == 0 and vdoc["ok"] is True


# K3 beside the Grötzsch graph: chi is 4 and its largest clique has 3
# vertices, so one node of chi_exact proves chi >= 3 and no more
K3_GROTZSCH = "MkLTAQGK?N_??@?@_"


def test_hunt_searches_a_host_with_proven_chi_at_least_r(tmp_path, capsys):
    path = tmp_path / "hosts.g6"
    path.write_text(K3_GROTZSCH + "\n")
    rc, doc = run(capsys, ["hunt", "--pattern", "path:3", "--t", "1", "--ramsey-value", "3",
                           "--chi-budget", "1", "--candidates", f"g6:{path}"])
    (cand,) = doc["candidates"]
    assert (cand["chi_lower"], cand["chi_upper"], cand["chi_is_exact"]) == (3, 4, False)
    assert rc == 0 and cand["searched"] and cand["exhausted"]


def test_verify_hunt_from_proven_chi_at_least_r(tmp_path, capsys):
    path, out = tmp_path / "hosts.g6", tmp_path / "hunt.json"
    path.write_text(K3_GROTZSCH + "\n")
    rc, doc = run(capsys, ["hunt", "--pattern", "star:6", "--t", "1", "--ramsey-value", "3",
                           "--candidates", f"g6:{path}", "--json-out", str(out)])
    assert rc == 1 and doc["counterexample"] is not None
    rc2, vdoc = run(capsys, ["verify", str(out), "--budget", "1"])
    assert rc2 == 0 and vdoc["ok"] is True
    # above the proven bound the check fails, and says whether chi resolved
    out.write_text(json.dumps({**doc, "ramsey_value": 5}))
    for budget, problem in (("1", "proven chi>=3 (budget ran out) is below ramsey_value=5"),
                            ("1000000", "chi=4 is below ramsey_value=5")):
        rc3, vdoc3 = run(capsys, ["verify", str(out), "--budget", budget])
        assert rc3 == 1 and vdoc3["problems"] == [problem]


def test_hunt_settles_a_host_deeper_than_the_stack(tmp_path, capsys):
    # 1620 edges, more than Python's stack has frames: the kernel is a loop,
    # so it colors them all; no star:60 fits a host of degree 54
    argv = ["hunt", "--pattern", "star:60", "--t", "1", "--ramsey-value", "1",
            "--candidates", "multipartite:" + ",".join(["6"] * 10)]
    out = tmp_path / "hunt.json"
    rc, doc = run(capsys, argv + ["--json-out", str(out)])
    assert rc == 1 and doc["counterexample"] is not None
    rc2, vdoc = run(capsys, ["verify", str(out)])
    assert rc2 == 0 and vdoc["ok"] is True
    # the same host with a budget of one node runs out of budget instead
    assert main(argv + ["--budget", "1"]) == 3
    assert "budget hit" in capsys.readouterr().err


def test_hunt_candidates_from_g6_file(tmp_path, capsys, c5, k4):
    path = tmp_path / "hosts.g6"
    path.write_text(mc.write_graph(k4, "g6") + mc.write_graph(c5, "g6"))
    rc, doc = run(capsys, [
        "hunt", "--pattern", "path:4", "--t", "2", "--ramsey-value", "3",
        "--candidates", f"g6:{path}",
    ])
    assert rc == 1
    assert doc["candidates_examined"] >= 1


def test_hunt_candidates_stdin(capsys, monkeypatch, c5):
    monkeypatch.setattr("sys.stdin", io.StringIO(mc.write_graph(c5, "g6")))
    rc, doc = run(capsys, [
        "hunt", "--pattern", "path:4", "--t", "2", "--ramsey-value", "3",
    ])
    assert rc == 1 and doc["counterexample"] is not None


def test_hunt_tree_file_pattern(tmp_path, capsys):
    tree = tmp_path / "tree.txt"
    tree.write_text(mc.write_graph(mc.path_graph(4), "edges"))
    rc, doc = run(capsys, [
        "hunt", "--pattern", f"tree-file:{tree}", "--t", "2",
        "--ramsey-value", "5", "--candidates", "multipartite:1,1,1,1,1",
    ])
    assert rc == 0 and doc["counterexample"] is None


def test_hunt_bad_specs_exit_two(capsys):
    assert main(["hunt", "--pattern", "blob:4", "--t", "2",
                 "--ramsey-value", "3", "--candidates", "mycielski:2"]) == 2
    capsys.readouterr()
    assert main(["hunt", "--pattern", "path:4", "--t", "2",
                 "--ramsey-value", "3", "--candidates", "weird:2"]) == 2
    capsys.readouterr()
    for spec, named in (("random:n=6,p=0.5,count=1,bogus=3", "bogus"),
                        ("random:n=8,p=0.5,count=1,chi_budget=5", "unknown key"),
                        ("random:n=6,p=0.5", "count")):
        assert main(["hunt", "--pattern", "path:4", "--t", "2",
                     "--ramsey-value", "3", "--candidates", spec]) == 2
        assert named in capsys.readouterr().err
    # an edgeless pattern is refused even when no candidate gets searched
    assert main(["hunt", "--pattern", "star:0", "--t", "2",
                 "--ramsey-value", "3", "--candidates", "multipartite:1,1"]) == 2
    capsys.readouterr()
    assert main(["hunt", "--pattern", "path:4", "--t", "2", "--ramsey-value", "3",
                 "--candidates", "kneser:5,2", "--budget", "-1"]) == 2
    assert capsys.readouterr() == ("", "error: colorings_budget must be non-negative\n")


def test_hunt_deterministic(capsys):
    argv = ["hunt", "--pattern", "star:3", "--t", "2", "--ramsey-value", "6",
            "--candidates", "multipartite:1,1,1,1,1,1"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


# ---------------------------------------------------------------------------
# verify odds and ends

def test_verify_chi_witness(tmp_path, capsys, petersen):
    gf = write_graph_file(tmp_path, petersen)
    out = tmp_path / "chi.json"
    run(capsys, ["chi", gf, "--json-out", str(out)])
    rc, vdoc = run(capsys, ["verify", str(out), gf])
    assert rc == 0 and vdoc["kind"] == "chi"
    doc = json.loads(out.read_text())
    doc["classes"][0] = doc["classes"][0][:-1] if len(doc["classes"][0]) > 1 else [99]
    bad = tmp_path / "badchi.json"
    bad.write_text(json.dumps(doc))
    rc2, vdoc2 = run(capsys, ["verify", str(bad), gf])
    assert rc2 == 1 and not vdoc2["ok"]
    # a lower bound above 2 is listed as unchecked; up to 2 it is re-derived
    assert vdoc["unchecked"] == ["chi lower bound"]
    edgeless = write_graph_file(tmp_path, mc.Graph.from_edges(2, []), "edgeless.txt")
    for lower, exact, named in ((1, False, None),
                                (2, True, "lower bound 2 on a graph with no edge"),
                                (3, False, "lower bound exceeds upper bound"),
                                (1, True, "exact result with lower != upper")):
        out.write_text(json.dumps({"kind": "chi", "lower": lower, "upper": 2,
                                   "exact": exact, "classes": [[0], [1]]}))
        rc, vdoc = run(capsys, ["verify", str(out), edgeless])
        assert vdoc["problems"][:1] == ([named] if named else []) and vdoc["unchecked"] == []
        assert rc == (0 if named is None else 1) and vdoc["ok"] is (named is None)


def test_verify_needs_graph_exit_two(tmp_path, capsys, c5):
    gf = write_graph_file(tmp_path, c5)
    out = tmp_path / "chi.json"
    run(capsys, ["chi", gf, "--json-out", str(out)])
    assert main(["verify", str(out)]) == 2
    capsys.readouterr()


def test_verify_needs_coloring_exit_two(tmp_path, capsys, grotzsch, rng):
    gf = write_graph_file(tmp_path, grotzsch)
    cf = write_coloring_file(tmp_path, tree_coloring(grotzsch, rng))
    out = tmp_path / "cert.json"
    run(capsys, ["tree-cert", gf, "--coloring", cf, "--json-out", str(out)])
    assert main(["verify", str(out), gf]) == 2
    capsys.readouterr()


def test_verify_rederives_stated_numbers(tmp_path, capsys):
    # every document is the honest output of its command with one number
    # or one entry forged; verify must refuse each
    def forged(argv, forge):
        out = tmp_path / "doc.json"
        run(capsys, [*argv, "--json-out", str(out)])
        doc = json.loads(out.read_text())
        forge(doc)
        out.write_text(json.dumps(doc))
        return str(out)

    def refused(argv, named):
        rc, vdoc = run(capsys, argv)
        assert rc == 1 and vdoc["ok"] is False
        assert any(named in p for p in vdoc["problems"]), vdoc["problems"]

    k3 = mc.complete_graph(3)
    kf = write_graph_file(tmp_path, k3, "k3.txt")
    kcf = write_coloring_file(
        tmp_path, mc.EdgeColoring.of(k3, {(0, 1): 1, (1, 2): 2, (0, 2): 3}, 3), "k3.col")
    k5 = mc.complete_graph(5)
    k5f = write_graph_file(tmp_path, k5, "k5.txt")
    k5cf = write_coloring_file(
        tmp_path, mc.EdgeColoring.of(k5, {e: 1 + e[0] % 2 for e in k5.edges()}, 2), "k5.col")
    chorded = mc.Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)])
    cf = write_graph_file(tmp_path, chorded, "c5chord.txt")
    ccf = write_coloring_file(tmp_path, mc.EdgeColoring.of(
        chorded, {e: 1 + (e[0] + e[1]) % 2 for e in chorded.edges()}, 2), "c5chord.col")

    # a reduced instance naming the class pair (0, 1) twice, the first time
    # with a color its provenance edge does not have
    def pair_twice(doc):
        pairs = doc["instance"]["pairs"]
        pairs.insert(0, {**pairs[0], "color": 3})
    doc = forged(["reduce", kf, "--coloring", kcf], pair_twice)
    assert main(["verify", doc, kf, "--coloring", kcf]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "pair (0,1) appears twice" in err

    doc = forged(["match-cert", k5f, "--coloring", k5cf, "--targets", "2,2"],
                 lambda d: d.update(ramsey_value=99))
    refused(["verify", doc, k5f, "--coloring", k5cf], "R = 99 is stated")
    doc = forged(["tree-cert", cf, "--coloring", ccf],
                 lambda d: d.update(dual={"max_degree": 99}))
    refused(["verify", doc, cf, "--coloring", ccf], "dual max_degree 99 is not 5")
    doc = forged(["ramsey", "--targets", "2,2", "--n", "5"], lambda d: d.update(R=3))
    refused(["verify", doc], "targets [2, 2] give R = 5")
    # arrowing verdicts that contradict Cockayne-Lorimer, K_n forcing the
    # targets exactly when n >= R: a forcing verdict with its avoiding
    # coloring left in place, and a K_5 that "does not force" 2,2
    doc = forged(["ramsey", "--targets", "2,2", "--n", "4"], lambda d: d.update(arrowing=True))
    refused(["verify", doc], "K_4 does not force the targets, as R = 5")
    refused(["verify", doc], "a forcing verdict carries an avoiding coloring")
    doc = forged(["ramsey", "--targets", "2,2", "--n", "4"], lambda d: d.update(n=5))
    refused(["verify", doc], "K_5 forces the targets, as R = 5")


def test_verify_unknown_shape_exit_two(tmp_path, capsys):
    blob = tmp_path / "blob.json"
    blob.write_text(json.dumps({"hello": 1}))
    assert main(["verify", str(blob)]) == 2
    capsys.readouterr()
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{")
    assert main(["verify", str(notjson)]) == 2
    capsys.readouterr()


# reports hunt wrote: a path:4 refutation, a find on K4, a star:2 hunt
# that skips two hosts and a path:4 search that its budget stops; and a K_4
# that does not force 2,2
RECORDED = json.loads((Path(__file__).parent / "golden" / "expected.json").read_text())
KNESER, FIND, MYCIELSKI, BUDGET_HIT, ARROWING = (json.loads(RECORDED[name]["stdout"]) for name in (
    "hunt-kneser", "hunt-g6-file", "hunt-mycielski", "hunt-multipartite-budget", "ramsey-n4"))
KNESER_HOST = KNESER["candidates"][0]

MALFORMED = {
    "matching-edge-not-a-pair": ({"kind": "matching", "targets": [1, 1], "certificate": {
        "color": 1, "target": 1, "edges": [1]}}, True),
    # a negative vertex is no vertex of any graph: the reader refuses it
    "matching-vertex-out-of-range": ({"kind": "matching", "targets": [1, 1], "certificate": {
        "color": 1, "target": 1, "edges": [[-1, 0]]}}, True),
    "matching-hit-without-targets": ({"kind": "matching", "certificate": {
        "color": 1, "target": 1, "edges": [[0, 1]]}}, True),
    "matching-miss-without-targets": ({"kind": "matching", "certificate": None,
                                       "coloring": [[0, 2], [1, 3], [4]]}, True),
    "matching-route-not-a-string": ({"kind": "matching", "certificate": None, "route": [],
                                     "coloring": [[0], [1]], "targets": [2]}, True),
    "tree-without-derived-classes": ({"kind": "tree", "certificate": {
        "color": 1, "edges": [[0, 1]], "vertices": [0, 1]}}, True),
    "bare-number": (5, False),
    "certificate-without-kind": ({"color": 1, "target": 1, "edges": [[0, 1]]}, True),
    "hunt-coloring-not-a-list": ({**FIND, "counterexample": {"graph6": "C~", "coloring": 5}},
                                 False),
    "hunt-coloring-misses-an-edge": ({**FIND, "counterexample": {
        "graph6": "C~", "coloring": [[0, 1, 1]]}}, False),
    "hunt-coloring-edge-twice": ({**FIND, "counterexample": {"graph6": "C~", "coloring": [
        [0, 1, 1], [0, 1, 2], [0, 2, 1], [0, 3, 2], [1, 2, 1], [1, 3, 2], [2, 3, 2]]}}, False),
    "chi-classes-not-a-list": ({"kind": "chi", "classes": 5, "upper": 1, "lower": 1}, True),
    "chi-without-lower": ({"kind": "chi", "classes": [[0, 2], [1, 3], [4]], "upper": 3}, True),
    "chi-without-exact": ({"kind": "chi", "classes": [[0, 2], [1, 3], [4]], "upper": 3,
                           "lower": 2}, True),
    "chi-exact-not-a-boolean": ({"kind": "chi", "classes": [[0, 2], [1, 3], [4]], "upper": 3,
                                 "lower": 2, "exact": 0}, True),
    "hunt-candidate-without-graph6": ({**KNESER, "candidates": [
        {k: v for k, v in KNESER_HOST.items() if k != "graph6"}]}, False),
    "arrowing-verdict-not-a-boolean": ({"kind": "arrowing", "n": 5, "arrowing": 1}, False),
    "reduced-pair-twice": ({"kind": "reduced", "instance": {
        "t": 2, "classes": [[0, 2], [1, 3], [4]], "pairs": [
            {"i": 0, "j": 1, "color": 1, "provenance": [0, 1]},
            {"i": 0, "j": 1, "color": 1, "provenance": [0, 1]},
        ]}}, True),
    # edits of a report hunt wrote, each read whether or not it claims a find
    "hunt-triangle-pattern": ({**KNESER, "pattern": {"n": 3, "edges": [[0, 1], [1, 2], [0, 2]]}},
                              False),
    "hunt-pattern-edge-outside-n": ({**KNESER, "pattern": {"n": 2, "edges": [[0, 7]]}}, False),
    "hunt-edgeless-pattern": ({**KNESER, "pattern": {"n": 4, "edges": []}}, False),
    "hunt-no-colors": ({**KNESER, "t": 0}, False),
    "hunt-negative-colorings-examined": ({**KNESER, "colorings_examined": -5}, False),
    "hunt-candidates-examined-miscounted": ({**KNESER, "candidates_examined": 9}, False),
    "hunt-candidate-graph6-does-not-parse": ({**KNESER, "candidates": [
        {**KNESER_HOST, "graph6": "~~~"}]}, False),
    "hunt-chi-lower-not-an-integer": ({**KNESER, "candidates": [
        {**KNESER_HOST, "chi_lower": "x"}]}, False),
    "hunt-without-ramsey-value": ({k: v for k, v in KNESER.items() if k != "ramsey_value"},
                                  False),
    # edits of fields a report derives from what hunt measured, or of
    # measured ones that no host allows
    "hunt-chi-lower-above-n": ({**KNESER, "candidates": [{**KNESER_HOST, "chi_lower": 99}]},
                               False),
    "hunt-chi-lower-above-upper": ({**KNESER, "candidates": [
        {**KNESER_HOST, "chi_lower": 7, "chi_upper": 3}]}, False),
    "hunt-exhausted-host-not-searched": ({**KNESER, "candidates": [
        {**KNESER_HOST, "searched": False}]}, False),
    "hunt-ramsey-value-raised": ({**KNESER, "ramsey_value": 99}, False),
    "hunt-total-miscounted": ({**KNESER, "colorings_examined": 73}, False),
    "hunt-find-flag-without-find": ({**KNESER, "candidates": [
        {**KNESER_HOST, "counterexample": True}]}, False),
    "hunt-skipped-reason-edited": ({**MYCIELSKI, "candidates": [
        {**MYCIELSKI["candidates"][0], "skipped_reason": "not needed"},
        *MYCIELSKI["candidates"][1:]]}, False),
    "hunt-negative-budget": ({**KNESER, "colorings_budget": -1}, False),
    # the budget stops a search at colorings_budget + 1, and no sooner
    "hunt-budget-hit-miscounted": ({**BUDGET_HIT, "colorings_examined": 7, "candidates": [
        {**BUDGET_HIT["candidates"][0], "colorings_examined": 7}]}, False),
    "hunt-exhausted-past-budget": ({**KNESER, "colorings_budget": 10}, False),
    "hunt-find-on-another-host": ({**FIND, "candidates": [
        {**FIND["candidates"][0], "graph6": "D~{"}]}, False),
    # an avoiding coloring that is no coloring of K_4 with 2 colors
    **{f"arrowing-avoiding-{name}": ({**ARROWING, "avoiding": avoiding}, False)
       for name, avoiding in (("number", 5), ("string", "x"), ("color-7", [[0, 1, 7]]),
                              ("one-edge", [[0, 1, 1]]), ("null", None),
                              ("every-edge-color-7", [[*e[:2], 7] for e in ARROWING["avoiding"]]))},
    # raw text, not an object to dump: nested deeper than the decoder's stack
    "deeply-nested": ("[" * 200_000 + "]" * 200_000, False),
}


@pytest.mark.parametrize("name", list(MALFORMED))
def test_verify_malformed_json_exit_two(name, tmp_path, capsys, c5):
    data, needs_graph = MALFORMED[name]
    cert = tmp_path / "cert.json"
    cert.write_text(data if isinstance(data, str) else json.dumps(data))
    argv = ["verify", str(cert)]
    if needs_graph:
        cf = write_coloring_file(tmp_path, mc.EdgeColoring.of(c5, {e: 1 for e in c5.edges()}, 2))
        argv += [write_graph_file(tmp_path, c5), "--coloring", cf]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


def test_verify_one_exit_code_per_outcome(tmp_path, capsys, monkeypatch, c5):
    # a verdict is 0 or 1 with the JSON on stdout; input that cannot be used
    # is 2 with one error line; a fault of the program is 4 with a traceback
    gf = write_graph_file(tmp_path, c5)
    cert = tmp_path / "chi.json"
    run(capsys, ["chi", gf, "--json-out", str(cert)])
    doc = json.loads(cert.read_text())
    rc, vdoc = run(capsys, ["verify", str(cert), gf])
    assert rc == 0 and vdoc["ok"] is True
    cert.write_text(json.dumps({**doc, "upper": 4, "exact": False}))
    rc, vdoc = run(capsys, ["verify", str(cert), gf])
    assert rc == 1 and vdoc["problems"] == ["witness uses 3 classes but upper is 4"]
    for bad in ({**doc, "upper": "3"}, {**doc, "classes": None}):
        cert.write_text(json.dumps(bad))
        assert main(["verify", str(cert), gf]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: expected") and err.count("\n") == 1
    (tmp_path / "bad.txt").write_text("0 1\n1 x\n")
    assert main(["verify", str(cert), str(tmp_path / "bad.txt")]) == 2
    assert capsys.readouterr() == ("", "error: line 2: non-integer vertex in '1 x'\n")

    def boom(g, data):
        raise mc.InternalInconsistencyError("forged guarantee")

    monkeypatch.setattr(cli.verify, "check_chi_witness", boom)
    assert main(["verify", str(cert), gf]) == 4
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" in err
    assert "InternalInconsistencyError: forged guarantee" in err


# ---------------------------------------------------------------------------
# the argument grammar

GRAMMAR = {
    "chi": ["graph", "--format", "--budget", "--seed", "--json-out"],
    "tree-cert": ["graph", "--format", "--coloring", "--budget", "--seed", "--json-out"],
    "match-cert": ["graph", "--format", "--coloring", "--budget", "--seed", "--json-out",
                   "--targets", "--kiraly"],
    "ramsey": ["--targets", "--n", "--guard-bits", "--seed", "--json-out"],
    "reduce": ["graph", "--format", "--coloring", "--budget", "--seed", "--json-out"],
    "hunt": ["--pattern", "--t", "--ramsey-value", "--candidates", "--budget",
             "--chi-budget", "--seed", "--json-out"],
    "verify": ["certificate", "graph", "--format", "--coloring", "--budget", "--seed",
               "--json-out"],
}


def test_help_lists_every_command_and_argument(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert all(cmd in out for cmd in GRAMMAR)
    for cmd, names in GRAMMAR.items():
        for flag in ("-h", "--help"):
            with pytest.raises(SystemExit) as exc:
                main([cmd, flag])
            assert exc.value.code == 0
            out = capsys.readouterr().out
            assert cmd in out and [n for n in names if n not in out] == []


def test_options_in_either_form_and_any_place(tmp_path, capsys, petersen):
    gf = write_graph_file(tmp_path, petersen, "p.g6", "g6")
    out = tmp_path / "chi.json"
    rc, doc = run(capsys, ["chi", gf, "--format", "g6", "--seed", "4"])
    assert rc == 0 and doc["seed"] == 4
    for argv in (["chi", "--format=g6", gf, "--seed=4"],
                 ["chi", "--seed", "4", "--format", "g6", gf],
                 ["chi", "--json-out", str(out), "--format=g6", "--seed", "4", gf]):
        assert run(capsys, argv) == (rc, doc)
    assert json.loads(out.read_text()) == doc
    rc, vdoc = run(capsys, ["verify", "--budget=100", str(out), gf, "--format", "g6"])
    assert rc == 0 and vdoc["ok"] is True
    rc, vdoc = run(capsys, ["ramsey", "--n=4", "--targets=2,2", "--guard-bits=20"])
    assert rc == 1 and vdoc["n"] == 4


def test_candidates_repeat_and_verify_without_graph(tmp_path, capsys):
    out = tmp_path / "hunt.json"
    rc, doc = run(capsys, ["hunt", "--candidates", "multipartite:1,1,1,1,1", "--pattern",
                           "path:4", "--t=2", "--ramsey-value", "5",
                           "--candidates=multipartite:1,1,1,1,1,1", "--json-out", str(out)])
    assert rc == 0 and doc["candidates_examined"] == 2
    rc, vdoc = run(capsys, ["verify", str(out)])
    assert rc == 0 and vdoc["ok"] is True and vdoc["kind"] == "hunt"


def test_unexpected_exception_exit_four(capsys, monkeypatch):
    # a fault of the program is no verdict: exit 1 means a negative answer
    def boom(targets):
        raise RuntimeError("boom")

    monkeypatch.setattr(mc.matching, "ramsey_matching_number", boom)
    assert main(["ramsey", "--targets", "2,2"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" in captured.err and "RuntimeError: boom" in captured.err


@pytest.mark.parametrize("argv, named", [
    (["match-cert", "@g", "--coloring", "@g"], "--targets"),
    (["tree-cert", "@g"], "--coloring"),
    (["hunt", "--pattern", "path:4", "--t", "2"], "--ramsey-value"),
    (["chi"], "graph"),
    (["verify"], "certificate"),
    (["chi", "@g", "--budget", "abc"], "--budget"),
    (["hunt", "--pattern", "path:4", "--t", "two", "--ramsey-value", "3"], "--t"),
    (["chi", "@g", "--format", "xyz"], "--format"),
    (["chi", "@g", "--seed"], "--seed"),
    (["chi", "@g", "--seed", "--budget", "5"], "--seed"),
    (["bogus"], "bogus"),
    ([], "command"),
])
def test_usage_errors_exit_two(argv, named, tmp_path, capsys, c5):
    gf = write_graph_file(tmp_path, c5)
    with pytest.raises(SystemExit) as exc:
        main([gf if a == "@g" else a for a in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage: monocert" in captured.err and "error:" in captured.err
    assert named in captured.err.split("error:")[1]
