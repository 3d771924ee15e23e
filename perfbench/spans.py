"""Spans around monocert's public functions, installed from outside src/.

A traced child rebinds every public module-level function of each layer,
in every monocert namespace that imported it, to a wrapper that records
(name, start, end, parent, job, attrs). Spans stay in memory until the
child ends and are then written to one JSON file per CLI call.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("cli", "graphs", "chromatic", "tree_cert", "matching", "hunter", "verify")
# Helpers called once per edge or bit: a span there would time the wrapper.
SKIP = {"iter_bits", "canonical_edge"}
# hunter.hunt self time: kernel plus candidate generation.
HUNT_CHILDREN_EXCLUDED = {
    "chromatic.chi_exact", "graphs.write_graph", "hunter.check_hunt_counterexample",
}


def _attrs(name: str, args, result):
    if name == "chromatic.chi_exact":
        g = args[0]
        return {"exact": result.exact, "graph": hash((g.n, g.adj))}
    if name == "matching.maximum_matching":
        return {"size": len(result)}
    if name == "hunter.hunt":
        return {
            "nodes": result.colorings_examined,
            "candidates": len(result.candidates),
            "searched": sum(1 for c in result.candidates if c.searched),
        }
    if name == "hunter.ramsey_bruteforce":
        return {"nodes": result.colorings_examined}
    if name.startswith("verify.check_"):
        return {"problems": len(result)}
    return None


class Tracer:
    def __init__(self, job: str):
        self.job = job
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1,
               self.job, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
            rec[5] = _attrs(name, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "monocert" or name.startswith("monocert.")}
        wrapped = {}
        for layer in LAYERS[1:]:
            mod = mods[f"monocert.{layer}"]
            for name, obj in vars(mod).items():
                if (name.startswith("_") or name in SKIP or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(obj)):
                    continue
                wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj))
        for mod in mods.values():
            for name, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def layer_metrics(calls: list[list], passes: int) -> dict[str, float]:
    """Per-layer metrics per traced pass from the spans of every call.

    calls holds one span list per CLI call; parents index into that list.
    busy_s sums span durations; a layer's self_s sums each of its spans'
    duration minus the time its child spans cover.
    """
    busy: dict[str, float] = defaultdict(float)
    count: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    attrs: dict[str, list] = defaultdict(list)
    hunt_self = 0.0
    chi_seen: dict[str, set] = defaultdict(set)
    chi_repeats = 0
    for spans in calls:
        covered = [0.0] * len(spans)
        hunt_excluded = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
                if name in HUNT_CHILDREN_EXCLUDED:
                    hunt_excluded[parent] += end - start
        for i, (name, start, end, parent, job, extra) in enumerate(spans):
            dur = end - start
            busy[name] += dur
            count[name] += 1
            self_s[name.split(".")[0]] += dur - covered[i]
            if extra is not None:
                attrs[name].append(extra)
            if name == "hunter.hunt":
                hunt_self += dur - hunt_excluded[i]
            if name == "chromatic.chi_exact":
                if extra["graph"] in chi_seen[job]:
                    chi_repeats += 1
                chi_seen[job].add(extra["graph"])

    def total(name: str, key: str) -> int:
        return sum(a[key] for a in attrs[name])

    chi_calls = count["chromatic.chi_exact"]
    nodes = total("hunter.hunt", "nodes") + total("hunter.ramsey_bruteforce", "nodes")
    kernel_s = hunt_self + busy["hunter.ramsey_bruteforce"]
    candidates = total("hunter.hunt", "candidates")
    out: dict[str, float] = {
        f"cli.{sub}.busy_s": busy[f"cli.{sub}"]
        for sub in ("chi", "tree-cert", "match-cert", "reduce", "verify", "hunt", "ramsey")
    }
    out["cli.calls"] = float(len(calls))
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
    for name in (
        "graphs.parse_graph", "graphs.parse_edge_coloring", "graphs.color_subgraph",
        "graphs.write_graph", "chromatic.chi_exact", "tree_cert.mono_tree_certificate",
        "tree_cert.build_dual", "tree_cert.edge_color_dual",
        "tree_cert.vertex_coloring_from_dual", "matching.maximum_matching",
        "matching.find_mono_matching", "matching.find_mono_matching_kiraly",
        "matching.kiraly_reduce", "hunter.hunt", "hunter.ramsey_bruteforce",
        "hunter.check_hunt_counterexample", "verify.check_chi_witness",
        "verify.check_tree_certificate", "verify.check_matching_certificate",
        "verify.check_reduced_instance",
    ):
        out[f"{name}.busy_s"] = busy[name]
    for name in ("graphs.color_subgraph", "chromatic.chi_exact", "matching.maximum_matching"):
        out[f"{name}.calls"] = float(count[name])
    out["matching.edges_matched"] = float(total("matching.maximum_matching", "size"))
    out["hunter.hunt.self_s"] = hunt_self
    out["hunter.nodes"] = float(nodes)
    out["verify.problems"] = float(sum(
        total(n, "problems") for n in list(attrs) if n.startswith("verify.check_")
    ))
    out = {k: v / passes for k, v in out.items()}
    exact = sum(1 for a in attrs["chromatic.chi_exact"] if a["exact"])
    out["chromatic.chi_exact.exact_ratio"] = exact / chi_calls if chi_calls else 0.0
    out["chromatic.chi_exact.repeat_ratio"] = chi_repeats / chi_calls if chi_calls else 0.0
    out["hunter.nodes_per_s"] = nodes / kernel_s if kernel_s > 0 else 0.0
    out["hunter.candidates_searched_ratio"] = (
        total("hunter.hunt", "searched") / candidates if candidates else 0.0
    )
    return out
