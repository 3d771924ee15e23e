"""Command-line interface.

Batch semantics: every subcommand writes exactly one JSON object to stdout
(sorted keys, seed recorded) and human-oriented notes to stderr. Exit codes:
0 success or definitive positive, 1 legitimate negative (avoiding coloring
exists, counterexample found, or no matching reaches its target: on the
direct route no color of the host, with ``--kiraly`` no color of the reduced
instance, which says nothing of the host's own classes), 2 input error, 3
budget-inconclusive. Every output that ``verify`` reads names its
kind under ``"kind"``: chi, tree, matching, reduced, hunt or arrowing.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import chromatic, hunter, matching, tree_cert, verify
from .graphs import (
    EdgeColoring,
    Graph,
    GraphParseError,
    InternalInconsistencyError,
    json_classes,
    json_fields,
    json_int,
    json_ints,
    parse_edge_coloring,
    parse_graph,
)

_PROG = "monocert"


def _emit(args, payload: dict) -> None:
    doc = {"seed": getattr(args, "seed", 0)}
    doc.update(payload)
    text = json.dumps(doc, sort_keys=True)
    print(text)
    path = getattr(args, "json_out", None)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _load_graph(args) -> Graph:
    if args.graph == "-":
        text = sys.stdin.read()
    else:
        with open(args.graph) as fh:
            text = fh.read()
    return parse_graph(text, args.format)


def _load_coloring(args, g: Graph, t: int | None = None) -> EdgeColoring:
    with open(args.coloring) as fh:
        return parse_edge_coloring(fh.read(), g, t=t)


def _parse_targets(spec: str) -> matching.MatchingTargets:
    try:
        values = [int(x) for x in spec.split(",") if x.strip() != ""]
    except ValueError:
        raise ValueError(f"bad targets {spec!r}; expected e.g. 2,2") from None
    return matching.MatchingTargets.of(values)


def _parse_pattern(spec: str) -> hunter.AcyclicPattern:
    kind, _, arg = spec.partition(":")
    if kind == "path":
        return hunter.path_pattern(int(arg))
    if kind == "star":
        return hunter.star_pattern(int(arg))
    if kind == "matching":
        return hunter.matching_pattern(int(arg))
    if kind == "tree-file":
        with open(arg) as fh:
            return hunter.AcyclicPattern(parse_graph(fh.read(), "edges"))
    raise ValueError(
        f"bad pattern {spec!r}; expected path:K, star:K, matching:K or tree-file:PATH"
    )


def _candidate_stream(specs, seed: int, chi_budget: int):
    for spec in specs or ["g6:-"]:
        yield from hunter.generate_candidates(spec, seed=seed, chi_budget=chi_budget)


def _cmd_chi(args) -> int:
    g = _load_graph(args)
    r = chromatic.chi_exact(g, budget=args.budget)
    _emit(args, {"kind": "chi", **r.to_json()})
    _note(f"chi in [{r.lower},{r.upper}] exact={r.exact} on {g.n} vertices")
    return 0 if r.exact else 3


def _cmd_tree_cert(args) -> int:
    g = _load_graph(args)
    cert, derived = tree_cert.mono_tree_certificate(_load_coloring(args, g, t=2))
    _emit(args, {
        "kind": "tree",
        "certificate": cert.to_json(),
        "dual": {"max_degree": len(derived)},
        "derived_classes": derived,
    })
    _note(
        f"color {cert.color} tree on {len(cert.vertices)} vertices; "
        f"derived proper coloring with {len(derived)} classes"
    )
    return 0


def _reduce_greedy(ec: EdgeColoring) -> matching.ReducedInstance:
    return matching.kiraly_reduce(ec, chromatic.greedy_upper(ec.graph).witness)


# what a miss shows on each route: the reduction route searched only the
# reduced instance, so the host's own classes may still hold a target
_MISS = {"direct": "no color reaches its target",
         "reduction": "no matching on the reduced instance"}


def _cmd_match_cert(args) -> int:
    g = _load_graph(args)
    targets = _parse_targets(args.targets)
    ec = _load_coloring(args, g, t=targets.t)
    need = matching.ramsey_matching_number(targets)
    ri = _reduce_greedy(ec) if args.kiraly else None
    if ri is None:
        cert = matching.find_mono_matching(ec, targets)
    else:
        cert = matching.find_mono_matching_kiraly(ri, targets)
    payload = {
        "kind": "matching",
        "ramsey_value": need,
        "route": "reduction" if args.kiraly else "direct",
        "targets": list(targets.targets),
        "certificate": cert.to_json() if cert else None,
    }
    if cert:
        _note(f"{payload['route']} route: color {cert.color} matching of {cert.target} edges")
    else:
        classes = matching.miss_witness(ri or _reduce_greedy(ec), targets)
        payload["coloring"] = [list(c) for c in classes]
        _note(
            f"{_MISS[payload['route']]}; the {len(classes)} merged classes are a "
            f"proper coloring with fewer than {need} colors, so nothing is guaranteed"
        )
    _emit(args, payload)
    return 0 if cert else 1


def _cmd_ramsey(args) -> int:
    targets = _parse_targets(args.targets)
    value = matching.ramsey_matching_number(targets)
    payload: dict = {"R": value, "targets": list(targets.targets)}
    code = 0
    if args.n is not None:
        patterns = [hunter.matching_pattern(k) for k in targets.targets]
        res = hunter.ramsey_bruteforce(patterns, args.n, guard_bits=args.guard_bits)
        payload["kind"] = "arrowing"
        payload["n"] = args.n
        payload["arrowing"] = res.arrowing
        payload["colorings_examined"] = res.colorings_examined
        payload["avoiding"] = None if res.avoiding is None else res.avoiding.to_json()
        code = 0 if res.arrowing else 1
        _note(
            f"K_{args.n} {'forces' if res.arrowing else 'does not force'} the "
            f"targets ({res.colorings_examined} partial colorings examined)"
        )
    else:
        _note(f"matching Ramsey number: {value}")
    _emit(args, payload)
    return code


def _cmd_reduce(args) -> int:
    g = _load_graph(args)
    ri = _reduce_greedy(_load_coloring(args, g))
    _emit(args, {"kind": "reduced", "instance": ri.to_json()})
    _note(f"reduced to {ri.k} classes, {len(ri.edge_color)} colored pairs")
    return 0


def _cmd_hunt(args) -> int:
    pattern = _parse_pattern(args.pattern)
    stream = _candidate_stream(args.candidates, args.seed, args.chi_budget)
    report = hunter.hunt(
        pattern,
        args.t,
        args.ramsey_value,
        stream,
        colorings_budget=args.budget,
        chi_budget=args.chi_budget,
    )
    _emit(args, {"kind": "hunt", **report.to_json()})
    for c in report.candidates:
        state = c.skipped_reason or (
            "counterexample" if c.counterexample
            else "exhausted" if c.exhausted
            else "budget hit"
        )
        _note(f"{c.graph6}  chi>={c.chi_lower}  {state}")
    if report.counterexample is not None:
        _note("counterexample found and re-verified")
        return 1
    inconclusive = any(
        (c.searched and not c.exhausted) or (not c.searched and not c.chi_is_exact)
        for c in report.candidates
    )
    if inconclusive:
        _note("no counterexample, but some candidates were not settled")
        return 3
    _note("no counterexample; all candidates settled")
    return 0


def _check_stated_ramsey(data: dict, key: str, targets) -> list[str]:
    """Problems with the matching Ramsey number data states under key, if any."""
    if key not in data:
        return []
    return verify.check_ramsey_value(json_int(data[key]), targets)


def _cmd_verify(args) -> int:
    with open(args.certificate) as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError("certificate JSON nests too deeply") from None
    (kind,) = json_fields(data, "kind")
    unchecked: list[str] = []
    if kind == "hunt":
        claim = hunter.HuntReport.counterexample_from_json(data)
        problems = [] if claim is None else hunter.check_hunt_counterexample(
            *claim, chi_budget=args.budget
        )
        unchecked = hunter.HuntReport.unchecked_from_json(data)
    elif kind == "arrowing":
        # the exhaustive search is not repeated; its verdict is taken on trust
        n, arrowing, targets = json_fields(data, "n", "arrowing", "targets")
        if type(arrowing) is not bool:
            raise ValueError(f"expected true or false for arrowing, got {arrowing!r:.60}")
        problems = _check_stated_ramsey(
            data, "R", matching.MatchingTargets.of(json_ints(targets))
        )
        unchecked.append(
            f"K_{json_int(n)} {'forces' if arrowing else 'does not force'} the targets"
        )
    elif kind not in ("chi", "tree", "matching", "reduced"):
        raise ValueError(f"unknown certificate kind {kind!r}")
    elif args.graph is None:
        raise ValueError(f"a {kind} certificate needs the graph it talks about")
    elif kind == "chi":
        problems = verify.check_chi_witness(_load_graph(args), data)
        # no problem means check_chi_witness read lower as an integer
        if not problems and data["lower"] > 2:
            unchecked.append("chi lower bound")
    elif args.coloring is None:
        raise ValueError(f"a {kind} certificate needs --coloring")
    else:
        ec = _load_coloring(args, _load_graph(args))
        if kind == "tree":
            cert, derived = json_fields(data, "certificate", "derived_classes")
            problems = verify.check_tree_certificate(
                ec, tree_cert.TreeCertificate.from_json(cert), json_classes(derived)
            )
            if "dual" in data:
                (max_degree,) = json_fields(data["dual"], "max_degree")
                problems += verify.check_dual_degree(ec, json_int(max_degree))
        elif kind == "matching":
            cert, targets = json_fields(data, "certificate", "targets")
            targets = matching.MatchingTargets.of(json_ints(targets))
            if cert is not None:
                problems = verify.check_matching_certificate(
                    ec, matching.MatchingCertificate.from_json(cert), targets
                )
            else:
                coloring, route = json_fields(data, "coloring", "route")
                if route not in _MISS:
                    raise ValueError(f"unknown matching route {route!r:.60}")
                problems = verify.check_matching_miss(
                    ec.graph, json_classes(coloring), targets
                )
                unchecked.append(_MISS[route])
            problems += _check_stated_ramsey(data, "ramsey_value", targets)
        else:
            (instance,) = json_fields(data, "instance")
            problems = verify.check_reduced_instance(
                ec, matching.ReducedInstance.from_json(instance)
            )
    _emit(args, {"kind": kind, "ok": not problems, "problems": problems,
                 "unchecked": unchecked})
    _note("certificate holds" if not problems else "; ".join(problems))
    return 0 if not problems else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=_PROG,
        description="certificates for monochromatic trees and matchings, "
        "plus a counterexample hunter",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, graph=True, coloring=False):
        if graph:
            p.add_argument("graph", help="graph file, or - for stdin")
            p.add_argument(
                "--format", default="edges", choices=["edges", "dimacs", "g6"],
                help="graph file format (default: edges)",
            )
        if coloring:
            p.add_argument("--coloring", required=True, help="edge-coloring file (u v c lines)")
        p.add_argument("--budget", type=int, default=chromatic.DEFAULT_BUDGET,
                       help="node-expansion budget of chi's exact search; tree-cert, "
                       "match-cert and reduce run no search and ignore it")
        p.add_argument("--seed", type=int, default=0, help="seed recorded in the output")
        p.add_argument("--json-out", default=None, help="also write the JSON to this file")

    p = sub.add_parser("chi", help="chromatic bounds with a coloring witness")
    common(p)
    p.set_defaults(func=_cmd_chi)

    p = sub.add_parser("tree-cert", help="monochromatic-tree certificate and dual witness")
    common(p, coloring=True)
    p.set_defaults(func=_cmd_tree_cert)

    p = sub.add_parser("match-cert", help="monochromatic-matching certificate")
    common(p, coloring=True)
    p.add_argument("--targets", required=True, help="matching sizes, e.g. 2,2")
    p.add_argument("--kiraly", action="store_true",
                   help="use the contraction route instead of per-color matching")
    p.set_defaults(func=_cmd_match_cert)

    p = sub.add_parser("ramsey", help="matching Ramsey number, optionally brute-forced")
    p.add_argument("--targets", required=True, help="matching sizes, e.g. 2,2")
    p.add_argument("--n", type=int, default=None,
                   help="also decide arrowing on K_n exhaustively")
    p.add_argument("--guard-bits", type=int, default=28,
                   help="refuse exhaustive searches above 2^guard-bits")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json-out", default=None)
    p.set_defaults(func=_cmd_ramsey)

    p = sub.add_parser("reduce", help="contract a colored graph onto its color classes")
    common(p, coloring=True)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("hunt", help="search candidate hosts for an avoiding coloring")
    p.add_argument("--pattern", required=True,
                   help="path:K | star:K | matching:K | tree-file:PATH")
    p.add_argument("--t", type=int, required=True, help="number of colors")
    p.add_argument("--ramsey-value", type=int, required=True,
                   help="chromatic threshold candidates must reach")
    p.add_argument("--candidates", action="append", default=[],
                   help="mycielski:STEPS | kneser:N,K | multipartite:A,B,... | "
                        "random:n=..,p=..,count=..[,chi_min=..] | g6:PATH "
                        "(default: graph6 lines on stdin)")
    p.add_argument("--budget", type=int, default=10_000_000,
                   help="partial-coloring budget per candidate")
    p.add_argument("--chi-budget", type=int, default=chromatic.DEFAULT_BUDGET)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json-out", default=None)
    p.set_defaults(func=_cmd_hunt)

    p = sub.add_parser("verify", help="re-check a certificate JSON")
    p.add_argument("certificate", help="certificate JSON file")
    p.add_argument("graph", nargs="?", default=None, help="graph file, or - for stdin")
    p.add_argument("--format", default="edges", choices=["edges", "dimacs", "g6"])
    p.add_argument("--coloring", default=None, help="edge-coloring file")
    p.add_argument("--budget", type=int, default=chromatic.DEFAULT_BUDGET)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json-out", default=None)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GraphParseError as e:
        _note(f"parse error: {e}")
        return 2
    except InternalInconsistencyError as e:
        _note(f"internal inconsistency: {e}")
        return 2
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as e:
        _note(f"error: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
