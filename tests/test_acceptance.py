"""Acceptance gate: one test and one printed pass/fail line per criterion.

Run with ``pytest -v tests/test_acceptance.py -s`` to see the lines as the
criteria complete. Every check is exact; there are no tolerances anywhere.
"""

import random
from itertools import product

import monocert as mc
from monocert.graphs import Graph, check_partition
from monocert.hunter import (
    contains_forest,
    generate_candidates,
    hunt,
    matching_pattern,
    ramsey_bruteforce,
    random_graph,
)
from monocert.matching import (
    MatchingTargets,
    find_mono_matching,
    find_mono_matching_kiraly,
    kiraly_reduce,
    maximum_matching,
    ramsey_matching_number,
)
from monocert.tree_cert import mono_tree_certificate
from monocert.verify import check_matching_certificate, check_tree_certificate

from helpers import cycle_graph
from oracles import (
    GOODNESS_REGRESSIONS,
    chromatic_number_dp,
    matching_number_recursive,
    max_mono_component_size,
)


def _finish(num: int, desc: str, problems: list) -> None:
    status = "PASS" if not problems else "FAIL"
    print(f"criterion {num} ({desc}): {status}")
    assert not problems, f"criterion {num}: " + "; ".join(str(p) for p in problems[:10])


def _all_two_colorings(g):
    edges = g.edges()
    for bits in product((1, 2), repeat=len(edges)):
        yield mc.EdgeColoring.of(g, dict(zip(edges, bits)), 2)


def _color_dict(ec):
    return {(u, v): c for u, v, c in ec.to_json()}


def _mycielski_23v():
    return list(generate_candidates("mycielski:4"))[-1]


def test_criterion_1_formula_vs_search():
    problems = []
    for pair in [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3)]:
        targets = MatchingTargets.of(pair)
        r = ramsey_matching_number(targets)
        patterns = [matching_pattern(k) for k in targets.targets]
        below = ramsey_bruteforce(patterns, r - 1)
        if below.arrowing:
            problems.append(f"{pair}: K_{r - 1} unexpectedly forces the targets")
        elif r - 1 > 0:
            if below.avoiding.graph != mc.complete_graph(r - 1):
                problems.append(f"{pair}: avoiding coloring does not color K_{r - 1}")
            for c, want in enumerate(targets.targets, start=1):
                sub = below.avoiding.classes[c - 1]
                if matching_number_recursive(sub) >= want:
                    problems.append(f"{pair}: avoiding coloring has {want}K2 in color {c}")
        at = ramsey_bruteforce(patterns, r)
        if not at.arrowing:
            problems.append(f"{pair}: K_{r} fails to force the targets")
    _finish(1, "matching Ramsey thresholds match exhaustive search", problems)


def test_criterion_2_tree_theorem_exhaustive():
    problems = []
    for g, chi in ((cycle_graph(5), 3), (mc.complete_graph(4), 4)):
        count = 0
        for ec in _all_two_colorings(g):
            count += 1
            biggest = max(
                max_mono_component_size(g, _color_dict(ec), c) for c in (1, 2)
            )
            if biggest < chi:
                problems.append(f"{g.n}-vertex host: component {biggest} < chi {chi}")
                continue
            cert, derived = mono_tree_certificate(ec)
            bad = check_tree_certificate(ec, cert, derived)
            if bad:
                problems.append(f"{g.n}-vertex host: {bad[0]}")
        if count != 2 ** g.m:
            problems.append(f"enumerated {count} colorings, expected {2 ** g.m}")
    _finish(2, "every 2-coloring of C5 and K4 yields a verified tree", problems)


def test_criterion_3_dual_witness(petersen, grotzsch):
    problems = []

    def check(g, ec, chi):
        cert, derived = mono_tree_certificate(ec)
        delta = len(derived)  # one class per link color of the dual
        oracle = max(max_mono_component_size(g, _color_dict(ec), c) for c in (1, 2))
        if delta != oracle:
            problems.append(f"{delta} link colors != component size {oracle}")
            return
        if check_partition(g, derived) != []:
            problems.append("derived vertex coloring is not proper")
        if len(cert.vertices) != delta:
            problems.append(f"tree spans {len(cert.vertices)} vertices, not {delta}")
        if delta < chi:
            problems.append(f"max component {delta} below chi {chi}")

    for g, chi in ((cycle_graph(5), 3), (mc.complete_graph(4), 4)):
        for ec in _all_two_colorings(g):
            check(g, ec, chi)
    rng = random.Random(311)
    for g, chi in ((petersen, 3), (grotzsch, 4)):
        exact = mc.chi_exact(g)
        if not exact.exact or exact.lower != chi:
            problems.append(f"host chi resolved to {exact.lower}, expected {chi}")
        for _ in range(1000):
            ec = mc.EdgeColoring.of(g, {e: rng.randint(1, 2) for e in g.edges()}, 2)
            check(g, ec, chi)
    _finish(3, "dual edge coloring always yields a proper chi-sized witness", problems)


def test_criterion_4_matching_both_routes():
    problems = []
    lanes = [
        (2, MatchingTargets((2, 2)), 5, [
            mc.complete_graph(5),
            mc.complete_multipartite([2] * 5),
            _mycielski_23v(),
        ]),
        (3, MatchingTargets((2, 2, 2)), 7, [
            mc.complete_graph(7),
            mc.complete_multipartite([2] * 7),
            mc.complete_multipartite([1] + [2] * 6),
        ]),
    ]
    rng = random.Random(412)
    for t, targets, chi_min, hosts in lanes:
        witnesses = {}
        for g in hosts:
            r = mc.chi_exact(g)
            if not r.exact or r.lower < chi_min:
                problems.append(f"host on {g.n} vertices has chi {r.lower} < {chi_min}")
            witnesses[id(g)] = mc.greedy_upper(g).witness
        for i in range(500):
            g = hosts[i % len(hosts)]
            ec = mc.EdgeColoring.of(g, {e: rng.randint(1, t) for e in g.edges()}, t)
            direct = find_mono_matching(ec, targets)
            if direct is None:
                problems.append(f"direct route came up empty on {g.n} vertices")
                continue
            bad = check_matching_certificate(ec, direct, targets)
            if bad:
                problems.append(f"direct: {bad[0]}")
            lifted = find_mono_matching_kiraly(kiraly_reduce(ec, witnesses[id(g)]), targets)
            if lifted is None:
                problems.append(f"reduction route came up empty on {g.n} vertices")
                continue
            bad = check_matching_certificate(ec, lifted, targets)
            if bad:
                problems.append(f"reduction: {bad[0]}")
    _finish(4, "both matching routes verify on 1000 seeded colorings", problems)


def test_criterion_5_matching_oracle(atlas7):
    problems = []
    for g in atlas7:
        if len(maximum_matching(g)) != matching_number_recursive(g):
            problems.append(f"mismatch on 7-vertex graph {mc.write_graph(g, 'g6').strip()}")
    rng = random.Random(555)
    for _ in range(200):
        g = random_graph(10, rng.choice([0.2, 0.5, 0.8]), rng)
        if len(maximum_matching(g)) != matching_number_recursive(g):
            problems.append(f"mismatch on seeded 10-vertex graph {mc.write_graph(g, 'g6').strip()}")
    _finish(5, "blossom equals brute force on 1044 + 200 graphs", problems)


def test_criterion_6_chromatic_oracle(c5, petersen, grotzsch):
    problems = []
    rng = random.Random(606)
    cases = [c5, petersen, grotzsch, mc.complete_multipartite([3, 3])]
    for _ in range(200):
        cases.append(random_graph(rng.randint(1, 12), rng.choice([0.3, 0.5, 0.7]), rng))
    for g in cases:
        r = mc.chi_exact(g)
        want = chromatic_number_dp(g)
        if not r.exact or r.lower != want:
            problems.append(
                f"{g.n}-vertex graph: exact={r.exact}, got {r.lower}, oracle {want}"
            )
        elif check_partition(g, r.witness) != []:
            problems.append(f"{g.n}-vertex graph: witness is improper")
    _finish(6, "chi_exact equals the subset-DP oracle on 204 graphs", problems)


def test_criterion_7_folklore_embedding(c5, grotzsch):
    problems = []
    hosts = {
        2: mc.complete_graph(2),
        3: c5,
        4: grotzsch,
        5: _mycielski_23v(),
        6: mc.complete_multipartite([2] * 6),
    }
    for k, g in hosts.items():
        r = mc.chi_exact(g)
        if not r.exact or r.lower < k:
            problems.append(f"host for size {k} has chi {r.lower}")
    # chi(host) >= k, so the folklore minimum-degree argument puts every
    # k-vertex tree inside the host
    rng = random.Random(707)
    for _ in range(100):
        k = rng.randint(2, 6)
        tree = Graph.from_edges(k, [(rng.randrange(v), v) for v in range(1, k)])
        pattern = mc.AcyclicPattern(tree)
        host = hosts[k]
        images = contains_forest(host, pattern)
        if images is None:
            problems.append(f"size-{k} tree is not a subgraph of its host")
        elif len(set(images)) != k:
            problems.append(f"size-{k} embedding reuses a host vertex")
        else:
            for u, v in tree.edges():
                if not host.has_edge(images[u], images[v]):
                    problems.append(f"size-{k} embedding drops edge ({u},{v})")
    _finish(7, "100 seeded random trees embed into high-chromatic hosts", problems)


def test_criterion_8_goodness_regressions():
    problems = []
    candidate_pool = (
        [cycle_graph(k) for k in (5, 7, 9, 11, 13)]
        + [
            mc.complete_graph(5),
            mc.complete_graph(6),
            mc.complete_multipartite([2] * 5),
            mc.complete_multipartite([2] * 6),
        ]
        + list(generate_candidates("mycielski:4"))
    )
    # the t=3 row of the table is a config only
    configs = [row for row in GOODNESS_REGRESSIONS if row[2] == 2]
    for name, pattern, t, rv in configs:
        report = hunt(pattern, t, rv, candidate_pool, colorings_budget=10_000_000)
        if report.counterexample is not None:
            host = report.counterexample.graph
            problems.append(
                f"{name}: counterexample on {mc.write_graph(host, 'g6').strip()} "
                "(re-verified; this would be a discovery, not a bug)"
            )
        searched = [c for c in report.candidates if c.searched]
        if not searched:
            problems.append(f"{name}: no candidate was eligible to search")
        for c in searched:
            if not c.exhausted and not c.counterexample:
                problems.append(f"{name}: search on {c.graph6} hit the budget")
        for c in report.candidates:
            if not c.searched and c.chi_is_exact and c.chi_lower >= rv:
                problems.append(f"{name}: eligible candidate {c.graph6} skipped")
    _finish(8, "no counterexamples for the three settled patterns", problems)


def test_criterion_8_sanity_patterns_embed():
    # the regression table's positive side: each pattern really does sit
    # inside every eligible candidate (otherwise criterion 8 is vacuous)
    for _, pattern, _, rv in GOODNESS_REGRESSIONS:
        host = mc.complete_graph(rv)
        assert contains_forest(host, pattern) is not None
