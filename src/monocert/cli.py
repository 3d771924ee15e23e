"""Command-line interface.

Batch semantics: every subcommand writes exactly one JSON object to stdout
(sorted keys, seed recorded) and human-oriented notes to stderr. Exit codes:
0 success or definitive positive, 1 legitimate negative (avoiding coloring
exists, counterexample found, a certificate that ``verify`` finds does not
hold, or no matching reaches its target: on the direct route no color of the
host, with ``--kiraly`` no color of the reduced instance, which says nothing
of the host's own classes), 2 unusable input or a usage error (one ``error:``
line on stderr, nothing on stdout), 3 budget-inconclusive, 4 a fault of the
program, ``InternalInconsistencyError`` included (traceback on stderr).
Every output that ``verify`` reads names its kind under ``"kind"``: chi,
tree, matching, reduced, hunt or arrowing.
"""

from __future__ import annotations

import importlib.util
import json
import re
import sys
from types import SimpleNamespace

from . import chromatic, hunter, matching, tree_cert
from .graphs import (EdgeColoring, Graph, complete_graph, json_classes, json_fields, json_int,
                     json_ints, json_list, parse_edge_coloring, parse_graph)

# registered now and run on first use: only the verify subcommand reads it.
# The package attribute is set too, as an import would, so that
# monocert.verify resolves without loading it.
if (verify := sys.modules.get(f"{__package__}.verify")) is None:
    _spec = importlib.util.find_spec(f"{__package__}.verify")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    verify = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(verify)
    setattr(sys.modules[__package__], "verify", verify)
_PROG = "monocert"
_ABOUT = "certificates for monochromatic trees and matchings, plus a counterexample hunter"


def _emit(args, payload: dict) -> None:
    text = json.dumps({"seed": args.seed, **payload}, sort_keys=True)
    print(text)
    if args.json_out:
        with open(args.json_out, "w") as fh:
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
    raise ValueError(f"bad pattern {spec!r}; expected path:K, star:K, matching:K or tree-file:PATH")


def _cmd_chi(args) -> int:
    g = _load_graph(args)
    r = chromatic.chi_exact(g, budget=args.budget)
    _emit(args, {"kind": "chi", **r.to_json()})
    _note(f"chi in [{r.lower},{r.upper}] exact={r.exact} on {g.n} vertices")
    return 0 if r.exact else 3


def _cmd_tree_cert(args) -> int:
    g = _load_graph(args)
    cert, derived = tree_cert.mono_tree_certificate(_load_coloring(args, g, t=2))
    _emit(args, {"kind": "tree", "certificate": cert.to_json(),
                 "dual": {"max_degree": len(derived)}, "derived_classes": derived})
    _note(f"color {cert.color} tree on {len(cert.vertices)} vertices; "
          f"derived proper coloring with {len(derived)} classes")
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
    cert = (matching.find_mono_matching_kiraly(ri, targets) if ri
            else matching.find_mono_matching(ec, targets))
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
        _note(f"{_MISS[payload['route']]}; the {len(classes)} merged classes are a "
              f"proper coloring with fewer than {need} colors, so nothing is guaranteed")
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
        payload.update(kind="arrowing", n=args.n, arrowing=res.arrowing,
                       colorings_examined=res.colorings_examined,
                       avoiding=None if res.avoiding is None else res.avoiding.to_json())
        code = 0 if res.arrowing else 1
        _note(f"K_{args.n} {'forces' if res.arrowing else 'does not force'} the "
              f"targets ({res.colorings_examined} partial colorings examined)")
    else:
        _note(f"matching Ramsey number: {value}")
    _emit(args, payload)
    return code


def _cmd_reduce(args) -> int:
    g = _load_graph(args)
    ri = _reduce_greedy(_load_coloring(args, g))
    _emit(args, {"kind": "reduced", "instance": ri.to_json()})
    _note(f"reduced to {ri.k} classes, {len(ri.pairs)} colored pairs")
    return 0


def _cmd_hunt(args) -> int:
    pattern = _parse_pattern(args.pattern)
    stream = (c for spec in args.candidates or ["g6:-"] for c in hunter.generate_candidates(
        spec, seed=args.seed, chi_budget=args.chi_budget))
    report = hunter.hunt(pattern, args.t, args.ramsey_value, stream,
                         colorings_budget=args.budget, chi_budget=args.chi_budget)
    _emit(args, {"kind": "hunt", **report.to_json()})
    for c in report.candidates:
        state = c.skipped_reason or (
            "counterexample" if c.counterexample
            else "exhausted" if c.exhausted
            else "budget hit"
        )
        _note(f"{c.graph6}  chi>={c.chi_lower}  {state}")
    if report.counterexample is not None:
        _note("counterexample found and checked")
        return 1
    if any(not c.exhausted and (c.searched or not c.chi_is_exact) for c in report.candidates):
        _note("no counterexample, but some candidates were not settled")
        return 3
    _note("no counterexample; all candidates settled")
    return 0


def _cmd_verify(args) -> int:
    with open(args.certificate) as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError("certificate JSON nests too deeply") from None
    (kind,) = json_fields(data, "kind")
    unchecked: list[str] = []
    if kind == "hunt":
        report = hunter.HuntReport.from_json(data)
        problems = [] if report.counterexample is None else hunter.check_hunt_counterexample(
            report.pattern, report.ramsey_value, report.counterexample, chi_budget=args.budget)
        unchecked = verify.hunt_unchecked(report)
    elif kind == "arrowing":
        # the exhaustive search is not repeated, but its verdict must agree
        # with Cockayne-Lorimer: K_n forces the targets exactly when n >= R
        n, arrowing, targets = json_fields(data, "n", "arrowing", "targets")
        if type(arrowing) is not bool:
            raise ValueError(f"expected true or false for arrowing, got {arrowing!r:.60}")
        targets = matching.MatchingTargets.of(json_ints(targets))
        n, need = json_int(n), matching.ramsey_matching_number(targets)
        problems = verify.check_ramsey_value(data, "R", targets)
        if arrowing != (n >= need):
            problems.append(
                f"K_{n} {'forces' if n >= need else 'does not force'} the targets, as R = {need}")
        elif not arrowing:  # rows are counted first, so a forged n builds no K_n
            if len(avoiding := json_list(data.get("avoiding"))) != n * (n - 1) // 2:
                raise ValueError(f"avoiding has {len(avoiding)} rows, not the edges of K_{n}")
            EdgeColoring.from_json(complete_graph(n), avoiding, targets.t)
        if arrowing and data.get("avoiding") is not None:
            problems.append("a forcing verdict carries an avoiding coloring")
        unchecked.append(f"K_{n} {'forces' if arrowing else 'does not force'} the targets")
    elif kind not in ("chi", "tree", "matching", "reduced"):
        raise ValueError(f"unknown certificate kind {kind!r}")
    elif args.graph is None:
        raise ValueError(f"a {kind} certificate needs the graph it talks about")
    elif kind == "chi":
        problems = verify.check_chi_witness(_load_graph(args), data)
        # check_chi_witness refuses a lower that is not an integer
        if not problems and data["lower"] > 2:
            unchecked.append("chi lower bound")
    elif args.coloring is None:
        raise ValueError(f"a {kind} certificate needs --coloring")
    else:
        ec = _load_coloring(args, _load_graph(args))
        if kind == "tree":
            cert, derived = json_fields(data, "certificate", "derived_classes")
            problems = verify.check_tree_certificate(
                ec, tree_cert.TreeCertificate.from_json(cert), json_classes(derived))
            if "dual" in data:
                (max_degree,) = json_fields(data["dual"], "max_degree")
                problems += verify.check_dual_degree(ec, json_int(max_degree))
        elif kind == "matching":
            cert, targets = json_fields(data, "certificate", "targets")
            targets = matching.MatchingTargets.of(json_ints(targets))
            if cert is not None:
                problems = verify.check_matching_certificate(
                    ec, matching.MatchingCertificate.from_json(cert), targets)
            else:
                coloring, route = json_fields(data, "coloring", "route")
                if not isinstance(route, str) or route not in _MISS:
                    raise ValueError(f"unknown matching route {route!r:.60}")
                problems = verify.check_matching_miss(ec.graph, json_classes(coloring), targets)
                unchecked.append(_MISS[route])
            problems += verify.check_ramsey_value(data, "ramsey_value", targets)
        else:
            (instance,) = json_fields(data, "instance")
            problems = verify.check_reduced_instance(
                ec, matching.ReducedInstance.from_json(instance))
    _emit(args, {"kind": kind, "ok": not problems, "problems": problems,
                 "unchecked": unchecked})
    _note("certificate holds" if not problems else "; ".join(problems))
    return 0 if not problems else 1


# The grammar: each subcommand's handler, help line and arguments, each
# mapping its name to (kind, default, help). Names without dashes are
# positionals, in order. kind is str, int, a tuple of choices, "flag" or
# "append" (repeatable); a default of ... makes the argument required.
_OUTPUT = {"--seed": (int, 0, "seed recorded in the output"),
           "--json-out": (str, None, "also write the JSON to this file")}
_CHI = {"graph": (str, ..., "graph file, or - for stdin"),
        "--format": (("edges", "dimacs", "g6"), "edges", "graph file format (default: edges)"),
        "--budget": (int, chromatic.DEFAULT_BUDGET, "node-expansion budget of chi's exact "
                     "search; tree-cert, match-cert and reduce run no search and ignore it"),
        **_OUTPUT}
_CERTIFY = {**_CHI, "--coloring": (str, ..., "edge-coloring file (u v c lines)")}
_TARGETS = {"--targets": (str, ..., "matching sizes, e.g. 2,2")}
_COMMANDS = {
    "chi": (_cmd_chi, "chromatic bounds with a coloring witness", _CHI),
    "tree-cert": (_cmd_tree_cert, "monochromatic-tree certificate and dual witness", _CERTIFY),
    "match-cert": (_cmd_match_cert, "monochromatic-matching certificate", {**_CERTIFY, **_TARGETS,
        "--kiraly": ("flag", False, "use the contraction route instead of per-color matching")}),
    "ramsey": (_cmd_ramsey, "matching Ramsey number, optionally brute-forced", {**_TARGETS,
        "--n": (int, None, "also decide arrowing on K_n exhaustively"),
        "--guard-bits": (int, 28, "refuse exhaustive searches above 2^guard-bits"), **_OUTPUT}),
    "reduce": (_cmd_reduce, "contract a colored graph onto its color classes", _CERTIFY),
    "hunt": (_cmd_hunt, "search candidate hosts for an avoiding coloring", {
        "--pattern": (str, ..., "path:K | star:K | matching:K | tree-file:PATH"),
        "--t": (int, ..., "number of colors"),
        "--ramsey-value": (int, ..., "chromatic threshold candidates must reach"),
        "--candidates": ("append", (), "mycielski:STEPS | kneser:N,K | multipartite:A,B,... | "
                         "random:n=..,p=..,count=..[,chi_min=..] | g6:PATH, repeatable "
                         "(default: graph6 lines on stdin)"),
        "--budget": (int, 10_000_000, "partial-coloring budget per candidate"),
        "--chi-budget": (int, chromatic.DEFAULT_BUDGET, "node-expansion budget of chi"),
        **_OUTPUT}),
    "verify": (_cmd_verify, "re-check a certificate JSON", {
        "certificate": (str, ..., "certificate JSON file"), **_CERTIFY,
        "graph": (str, None, "graph file, or - for stdin"),
        "--coloring": (str, None, "edge-coloring file (u v c lines)")}),
}


def _metavar(name: str, kind) -> str:
    value = "{%s}" % ",".join(kind) if isinstance(kind, tuple) else name[2:].upper()
    return name if name[0] != "-" or kind == "flag" else f"{name} {value}"


def _usage(cmd: str | None) -> str:
    if cmd is None:
        return f"usage: {_PROG} [-h] {{{','.join(_COMMANDS)}}} ..."
    words = [_metavar(name, kind) if default is ... else f"[{_metavar(name, kind)}]"
             for name, (kind, default, _) in _COMMANDS[cmd][2].items()]
    return f"usage: {_PROG} {cmd} [-h] " + " ".join(words)


def _help(cmd: str | None):
    if cmd is None:
        about, rows = _ABOUT, [(name, c[1]) for name, c in _COMMANDS.items()]
    else:
        about, spec = _COMMANDS[cmd][1:]
        rows = [(_metavar(name, a[0]), a[2]) for name, a in spec.items()]
    width = 2 + max(len(r[0]) for r in rows)
    print(_usage(cmd), "", about, "", *(f"  {r[0]:<{width}}{r[1]}" for r in rows), sep="\n")
    raise SystemExit(0)


def _error(cmd: str | None, msg: str):
    sys.stderr.write(f"{_usage(cmd)}\n{_PROG}{' ' + cmd if cmd else ''}: error: {msg}\n")
    raise SystemExit(2)


def _is_option(tok: str) -> bool:
    # as argparse reads a token: "-" alone and negative numbers are values
    return tok[:1] == "-" and tok != "-" and not re.fullmatch(r"-\d+|-\d*\.\d+", tok)


def _parse(argv: list[str]):
    """The handler and arguments argv names. An option is spelled in full,
    as --opt value or --opt=value, before or after the positionals."""
    cmd = argv[0] if argv else None
    if cmd in ("-h", "--help"):
        _help(None)
    if cmd not in _COMMANDS:
        _error(None, f"argument command: invalid choice: {cmd!r} (choose from "
               f"{', '.join(map(repr, _COMMANDS))})" if argv
               else "the following arguments are required: command")
    func, _, spec = _COMMANDS[cmd]
    given, loose, unknown, rest = {}, [], [], iter(argv[1:])
    for tok in rest:
        name, eq, text = tok.partition("=")
        kind = spec[name][0] if name in spec else None
        if tok == "--":
            loose += rest
        elif tok in ("-h", "--help"):
            _help(cmd)
        elif not _is_option(tok):
            loose.append(tok)
        elif kind is None or (kind == "flag" and eq):
            unknown.append(tok)
        elif kind == "flag":
            given[name] = True
        else:
            text = text if eq else next(rest, None)
            if text is None or (not eq and _is_option(text)):
                _error(cmd, f"argument {name}: expected one argument")
            if isinstance(kind, tuple) and text not in kind:
                _error(cmd, f"argument {name}: invalid choice: {text!r} (choose from "
                       f"{', '.join(map(repr, kind))})")
            try:
                value = int(text) if kind is int else text
            except ValueError:
                _error(cmd, f"argument {name}: invalid int value: {text!r}")
            given[name] = [*given.get(name, ()), value] if kind == "append" else value
    positionals = [name for name in spec if name[0] != "-"]
    given.update(zip(positionals, loose))
    if missing := [name for name, a in spec.items() if a[1] is ... and name not in given]:
        _error(cmd, "the following arguments are required: " + ", ".join(missing))
    if unknown := unknown + loose[len(positionals):]:
        _error(cmd, "unrecognized arguments: " + " ".join(unknown))
    return func, SimpleNamespace(**{
        name.lstrip("-").replace("-", "_"): given.get(name, a[1]) for name, a in spec.items()})


def main(argv=None) -> int:
    func, args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return func(args)
    except (ValueError, OSError) as e:  # input the program cannot use
        _note(f"error: {e}")
        return 2
    except Exception:  # a fault of the program, not of its input
        import traceback
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
