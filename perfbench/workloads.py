"""The three workloads: their jobs, the CLI calls of a job, and its checks.

A job is one certify chain (ten CLI calls on one host) or one hunt/ramsey
query (plus a ``verify`` of any counterexample it finds). Constructing a
workload is pure in the seed; ``write`` puts the inputs the program reads
on disk.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import checks
import instances as inst

HERE = Path(__file__).resolve().parent


class Certify:
    """certify-sparse and certify-dense: one host and its colorings per job."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.name = name
        self.dir = workdir
        self.targets = inst.SPARSE_TARGETS if name == "certify-sparse" else inst.DENSE_TARGETS
        rng = random.Random(f"{name}:{seed}:colorings")
        if name == "certify-sparse":
            hosts = [inst.sparse_host(seed, i) for i in range(inst.SPARSE_POOL)]
            pinned = [None] * len(hosts)
        else:
            pool = json.loads((HERE / "dense_pool.json").read_text())["hosts"]
            hosts = [inst.dense_host(h["index"]) for h in pool]
            for h, pin in zip(hosts, pool):
                if inst.edge_digest(h["n"], h["edges"]) != pin["edges_sha256"]:
                    raise RuntimeError(f"dense host {pin['index']} no longer matches its pin")
            pinned = [h["chi"] for h in pool]
        self.jobs = []
        for i, (h, chi) in enumerate(zip(hosts, pinned)):
            m = len(h["edges"])
            self.jobs.append({
                "index": i,
                "label": f"{name} host {i}: n={h['n']} m={m} "
                         + (f"pinned chi={chi}" if chi else f"planted K_{h['k']}"),
                "host": checks.Host(h["n"], h["edges"]),
                "planted": h["k"],
                "pinned": chi,
                "c2": [rng.randint(1, 2) for _ in range(m)],
                "c3": [rng.randint(1, 3) for _ in range(m)],
            })
        self.order = list(range(len(self.jobs)))
        rng.shuffle(self.order)

    def _files(self, job: dict) -> tuple[str, str, str]:
        base = self.dir / f"host{job['index']}"
        return f"{base}.txt", f"{base}.c2.txt", f"{base}.c3.txt"

    def write(self) -> None:
        for job in self.jobs:
            host = job["host"]
            g, c2, c3 = self._files(job)
            Path(g).write_text(inst.edge_text(host.n, host.edges))
            Path(c2).write_text(inst.coloring_text(host.edges, job["c2"]))
            Path(c3).write_text(inst.coloring_text(host.edges, job["c3"]))

    def run(self, job: dict, call) -> tuple[list[str], bool, list]:
        host = job["host"]
        g, c2, c3 = self._files(job)
        col2 = dict(zip(host.edges, job["c2"]))
        col3 = dict(zip(host.edges, job["c3"]))
        floor = max(job["planted"], job["pinned"] or 0)
        budget = ["--budget", str(inst.CHI_BUDGET)]
        targets = ",".join(map(str, self.targets))
        problems: list[str] = []
        docs: list = []
        inexact = False

        def step(tag, argv, check):
            nonlocal inexact
            doc, code, path = call(argv, f"{job['index']}-{tag}")
            docs.append(doc)
            if doc is None:
                problems.append(f"{tag}: exit {code} and no JSON output")
                return path
            try:
                problems.extend(f"{tag}: {p}" for p in check(doc, code))
                chi = doc.get("chi") if "chi" in doc else doc
                if isinstance(chi, dict) and chi.get("exact") is False:
                    inexact = True
            except (KeyError, TypeError, ValueError, IndexError) as e:
                problems.append(f"{tag}: malformed output ({e!r})")
            return path

        def verified(tag, argv, kind, check, coloring=None):
            out = step(tag, argv + budget, check)
            extra = ["--coloring", coloring] if coloring else []
            step(f"{tag}-verify", ["verify", out, g, *extra, *budget],
                 lambda doc, code: checks.check_verify(doc, code, kind))

        verified("chi", ["chi", g], "chi",
                 lambda d, c: checks.check_chi(d, c, host, job["planted"], job["pinned"]))
        verified("tree", ["tree-cert", g, "--coloring", c2], "tree",
                 lambda d, c: checks.check_tree(d, c, host, col2, floor), c2)
        for route, flag in (("direct", []), ("reduction", ["--kiraly"])):
            verified(f"match-{route}",
                     ["match-cert", g, "--coloring", c3, "--targets", targets, *flag],
                     "matching",
                     lambda d, c, r=route: checks.check_match(d, c, host, col3, self.targets, floor)
                     + ([] if d.get("route") == r else [f"route {d.get('route')}"]), c3)
        verified("reduce", ["reduce", g, "--coloring", c3], "reduced",
                 lambda d, c: checks.check_reduce(d, c, host, col3), c3)
        return problems, inexact, docs

    @staticmethod
    def counts(docs: list) -> dict:
        chi, tree, direct, reduction, reduce_ = docs[0], docs[2], docs[4], docs[6], docs[8]
        return {
            "chi": [chi["lower"], chi["upper"], chi["exact"]],
            "tree_vertices": len(tree["certificate"]["vertices"]),
            "matching_edges": [len(direct["certificate"]["edges"]),
                               len(reduction["certificate"]["edges"])],
            "reduced_classes": len(reduce_["instance"]["classes"]),
        }


# Complete-host hunts: (pattern kind, size, t, Ramsey number R, host
# sizes). K_n avoids the pattern iff n < R. Sources: stars, Burr and Roberts
# 1973; two-color paths, Gerencser and Gyarfas 1967; R(P4,P4,P4) = 6 from
# the small Ramsey numbers survey (Radziszowski, dynamic survey DS1);
# matchings, Cockayne and Lorimer 1975.
#
# Host sizes shape the latency mix. Each K_{R-1} find costs two calls (hunt,
# verify), about twice a small refutation, and the refutations on K_{R+1}
# balance the small queries. The median job then sits inside the two-call
# group, not on the step between groups, and the two star:3, t=3 anchors
# (K8 and K9, 281,458 nodes each) supply the tail.
COMPLETE_HUNTS = (
    ("star", 3, 3, 8, (7, 8, 9)), ("path", 4, 3, 6, (5, 6)), ("path", 4, 2, 5, (4, 5)),
    ("path", 5, 2, 6, (5, 6)), ("star", 3, 2, 6, (5, 6)), ("star", 4, 2, 7, (6, 7, 8)),
    ("matching", 2, 3, 6, (5, 6)), ("matching", 3, 2, 8, (7, 8, 9)),
    ("path", 6, 2, 8, (7, 8, 9)), ("star", 2, 5, 7, (6, 7, 8)),
)
RAMSEY_QUERIES = (((3, 2), 6), ((3, 2), 7), ((2, 2, 2), 5), ((2, 2, 2), 6),
                  ((3, 3), 7), ((3, 3), 8), ((4, 2), 8), ((4, 2), 9))
# random: hosts drawn by the CLI from a seed the benchmark picks. star:3
# verdicts follow from max degree (Petersen); matching hosts are filtered
# to chi >= R, so the matching theorem forbids any avoiding coloring.
RANDOM_HUNTS = (
    ("star", 3, 2, 2, "n=10,p=0.5,count=4", "petersen"),
    ("matching", 2, 2, 5, "n=9,p=0.7,count=2,chi_min=5", "chi-theorem"),
    ("matching", 2, 3, 6, "n=9,p=0.8,count=2,chi_min=6", "chi-theorem"),
)


class Hunt:
    def __init__(self, name: str, seed: int, workdir: Path):
        self.name = name
        self.dir = workdir
        rng = random.Random(f"hunt:{seed}")
        budget = ["--budget", str(inst.HUNT_BUDGET)]
        jobs = []
        for kind, size, t, r, sizes in COMPLETE_HUNTS:
            for n in sizes:
                jobs.append({
                    "label": f"hunt {kind}:{size} t={t} on K{n} (R={r})",
                    "argv": ["hunt", "--pattern", f"{kind}:{size}", "--t", str(t),
                             "--ramsey-value", str(n), *budget,
                             "--candidates", f"g6:{workdir / f'K{n}.g6'}"],
                    "kind": kind, "size": size, "t": t, "ramsey": r, "ramsey_value": n,
                    "host_n": n, "host_g6": inst.graph6(n, inst.complete_edges(n)),
                    "source": f"R={r}",
                })
        for targets, n in RAMSEY_QUERIES:
            spec = ",".join(map(str, targets))
            jobs.append({"label": f"ramsey {spec} on K{n}", "targets": targets, "n": n,
                         "argv": ["ramsey", "--targets", spec, "--n", str(n),
                                  "--guard-bits", "40"]})
        for kind, size, t, rv, spec, rule in RANDOM_HUNTS:
            s = rng.randrange(2**31)
            jobs.append({
                "label": f"hunt {kind}:{size} t={t} random:{spec},seed={s}",
                "argv": ["hunt", "--pattern", f"{kind}:{size}", "--t", str(t),
                         "--ramsey-value", str(rv), *budget,
                         "--candidates", f"random:{spec},seed={s}"],
                "kind": kind, "size": size, "t": t, "rule": rule, "source": rule,
                "ramsey_value": rv,
            })
        for i, job in enumerate(jobs):
            job["index"] = i
        self.jobs = jobs
        self.order = list(range(len(jobs)))
        rng.shuffle(self.order)

    def write(self) -> None:
        for n in sorted({j["host_n"] for j in self.jobs if "host_n" in j}):
            (self.dir / f"K{n}.g6").write_text(inst.graph6(n, inst.complete_edges(n)) + "\n")

    def run(self, job: dict, call) -> tuple[list[str], bool, list]:
        tag = str(job["index"])
        doc, code, path = call(job["argv"], tag)
        if doc is None:
            return [f"exit {code} and no JSON output"], False, [None]
        docs = [doc]
        unsettled = False
        try:
            if "targets" in job:
                problems = checks.check_ramsey(doc, code, job)
            else:
                problems, unsettled = checks.check_hunt(doc, code, job)
                if doc["counterexample"] is not None:
                    vdoc, vcode, _ = call(["verify", path], f"{tag}-verify")
                    docs.append(vdoc)
                    problems += checks.check_verify(vdoc or {}, vcode, "hunt")
        except (KeyError, TypeError, ValueError, IndexError) as e:
            problems = [f"malformed output ({e!r})"]
        return problems, unsettled, docs

    @staticmethod
    def counts(docs: list) -> dict:
        return {"nodes": docs[0]["colorings_examined"]}


WORKLOADS = {"certify-sparse": Certify, "certify-dense": Certify, "hunt": Hunt}
