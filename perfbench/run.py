"""monocert benchmark: seeded CLI workloads with checked outputs.

    python3 perfbench/run.py --workload certify-sparse --seed 1 --seconds 30 --trace 0

One client runs jobs back to back (a closed loop, one CLI call at a time).
Every CLI call is a fork of a parent that has imported monocert, so no
in-process state carries over between calls. Jobs run in whole passes over
the workload's seeded job list until --seconds have elapsed.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced passes, prints the per-layer metrics, the tracing overhead and the
baseline probes. The last stdout line is the result JSON; the line before
it carries sample counts, deterministic counts and the output digest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import instances as inst  # noqa: E402
from forkrun import cli_target, fork_call  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 9
# No job starts after this many seconds, so every run ends within 180 s;
# a traced run keeps room for its probes.
DEADLINE_S = {0: 150.0, 1: 90.0}
# ROADMAP open item 1 baselines the probes compare against.
ANCHOR_NODES = {"hunt_star3_t3_K8": 281_458, "hunt_path4_t3_K6": 3_334}


class JobRecord:
    def __init__(self, job: dict):
        self.index = job["index"]
        self.label = job["label"]
        self.latency = 0.0
        self.rss_kib = 0
        self.problems: list[str] = []
        self.unsettled = False
        self.digest = ""
        self.counts = None
        self.spans: list[list] = []
        self.input_bytes = 0


def run_job(wl, job: dict, outdir: Path, trace: bool, pass_no: int) -> JobRecord:
    rec = JobRecord(job)

    def call(argv: list[str], tag: str):
        out, err, spans = (outdir / f"{tag}{ext}" for ext in (".json", ".err", ".spans"))
        tracer = Tracer(f"{pass_no}:{job['index']}") if trace else None
        spans.unlink(missing_ok=True)
        wall, code, rss = fork_call(cli_target(argv, tracer, spans), out, err)
        rec.latency += wall
        rec.rss_kib = max(rec.rss_kib, rss)
        rec.input_bytes += sum(
            p.stat().st_size for p in (Path(a.removeprefix("g6:")) for a in argv)
            if p.is_absolute() and p.is_file()
        )
        errtext = err.read_text(errors="replace")
        if "Traceback (most recent call last)" in errtext:
            rec.problems.append(f"{tag}: traceback: {errtext.strip().splitlines()[-1]}")
        if trace and spans.exists():
            rec.spans.append(json.loads(spans.read_text()))
        try:
            doc = json.loads(out.read_text())
        except ValueError:
            doc = None
        return doc, code, str(out)

    problems, rec.unsettled, docs = wl.run(job, call)
    rec.problems += problems
    canon = json.dumps(docs, sort_keys=True, separators=(",", ":"))
    rec.digest = hashlib.sha256(canon.encode()).hexdigest()
    if not rec.problems:
        rec.counts = wl.counts(docs)
    return rec


def run_pass(wl, outdir: Path, trace: bool, pass_no: int, stop_at: float) -> list[JobRecord]:
    recs = []
    for i in wl.order:
        if time.perf_counter() > stop_at:
            break
        recs.append(run_job(wl, wl.jobs[i], outdir, trace, pass_no))
    return recs


def _probe_target(name: str, path: Path):
    def run() -> int:
        from monocert import chromatic, graphs, hunter, matching

        if name.startswith("hunt_"):
            pattern, t, n = {
                "hunt_star3_t3_K8": (hunter.star_pattern(3), 3, 8),
                "hunt_path4_t3_K6": (hunter.path_pattern(4), 3, 6),
            }[name]
            host = graphs.complete_graph(n)
            t0 = time.perf_counter()
            rep = hunter.hunt(pattern, t, n, [host], colorings_budget=inst.HUNT_BUDGET)
            res = {"nodes": rep.colorings_examined, "exhausted": rep.candidates[0].exhausted,
                   "counterexample": rep.counterexample is not None}
        elif name.startswith("chi_"):
            if name == "chi_mycielski47":
                n, edges = inst.mycielski_edges(4)
            else:
                n, edges = 60, inst.gnp_dense(60, 0.5, random.Random(1))
            g = graphs.Graph.from_edges(n, edges)
            t0 = time.perf_counter()
            r = chromatic.chi_exact(g)
            res = {"chi": r.lower, "exact": r.exact, "n": n, "m": len(edges)}
        else:
            g = graphs.Graph.from_edges(1000, inst.gnp_sparse(1000, 0.01, random.Random(1)))
            t0 = time.perf_counter()
            res = {"size": len(matching.maximum_matching(g))}
        res["s"] = time.perf_counter() - t0
        path.write_text(json.dumps(res))
        return 0

    return run


def run_probes(workdir: Path) -> tuple[dict, dict, list[str]]:
    """Baseline probes, each in a fresh child, outside the timed loop.

    A probe that fails reports 0 for its metrics and a problem, which makes
    the run incorrect."""
    metrics, detail, problems = {}, {}, []
    for name in ("hunt_star3_t3_K8", "hunt_path4_t3_K6", "chi_mycielski47",
                 "chi_gnp60_seed1", "maximum_matching_gnp1000"):
        metrics[f"probe.{name}.s"] = 0.0
        if name in ANCHOR_NODES:
            metrics[f"probe.{name}.nodes"] = 0.0
        path = workdir / f"probe-{name}.json"
        _, code, _ = fork_call(_probe_target(name, path), None, workdir / f"probe-{name}.err")
        if code != 0 or not path.exists():
            problems.append(f"probe {name}: exit {code}")
            continue
        res = json.loads(path.read_text())
        detail[name] = res
        metrics[f"probe.{name}.s"] = res["s"]
        if name in ANCHOR_NODES:
            metrics[f"probe.{name}.nodes"] = float(res["nodes"])
            res["baseline_nodes"] = ANCHOR_NODES[name]
            if not res["exhausted"] or res["counterexample"]:
                problems.append(f"probe {name}: K_n at the Ramsey number was not refuted")
    myc = detail.get("chi_mycielski47")
    # Mycielski 1955: each step raises chi by one, so K2 after four steps has chi 6.
    if myc is not None and ((myc["n"], myc["m"]) != (47, 236) or myc["exact"] and myc["chi"] != 6):
        problems.append(f"probe chi_mycielski47: {myc}, expected 47 vertices, 236 edges, chi 6")
    return metrics, detail, problems


def summarize(passes: list[list[JobRecord]]) -> dict:
    """Marks non-repeating outputs as failures and returns run-level counts."""
    first = {r.index: r.digest for r in passes[0]}
    for recs in passes[1:]:
        for r in recs:
            if r.digest != first[r.index] and not r.problems:
                r.problems.append("output differs from the first pass over the same input")
    recs = [r for p in passes for r in p]
    failed = [r for r in recs if r.problems]
    ordered = sorted(passes[0], key=lambda r: r.index)
    digest = hashlib.sha256("".join(r.digest for r in ordered).encode()).hexdigest()
    return {
        "passes": len(passes),
        "attempted": len(recs),
        "failed": len(failed),
        "failed_ratio": len(failed) / len(recs),
        "unsettled_ratio": sum(r.unsettled for r in recs) / len(recs),
        "output_digest": digest,
        "pass_seconds": [round(sum(r.latency for r in p), 4) for p in passes],
        "hunter_nodes_per_pass": sum((r.counts or {}).get("nodes", 0) for r in ordered),
        "counts": {r.label: r.counts for r in ordered},
        "failures": [{"job": r.label, "problems": r.problems[:3]} for r in failed[:20]],
    }


def end_to_end(passes: list[list[JobRecord]], setup_s: float) -> tuple[dict, dict]:
    """Each input runs once per pass. Its typical latency is its median over
    passes, and job_p50_ms is the median of those, so a few seconds of
    host-level slowdown cannot move it. Throughput and the tail use every
    sample."""
    recs = [r for p in passes for r in p]
    by_input: dict[int, list[float]] = {}
    for r in recs:
        by_input.setdefault(r.index, []).append(r.latency * 1000)
    typical = [statistics.median(v) for v in by_input.values()]
    ok = sum(1 for r in recs if not r.problems)
    lat = sorted(r.latency * 1000 for r in recs)
    n = len(lat)
    # highest percentile with at least ten samples beyond it
    tail, pct = (lat[n - 11], 100.0 * (n - 10) / n) if n > 10 else (lat[-1], 100.0)
    metrics = {
        "jobs_per_s": (1000 * ok / sum(lat), "1/s"),
        "job_p50_ms": (statistics.median(typical), "ms"),
        "job_tail_ms": (tail, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (max(r.rss_kib for r in recs) / 1024, "MB"),
    }
    return metrics, {"latency_samples": n, "inputs": len(typical),
                     "tail_percentile": round(pct, 3)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.perf_counter()
    if not (SRC / "monocert" / "cli.py").is_file():
        print(f"perfbench: no monocert sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    outdir = workdir / "out"
    outdir.mkdir(parents=True)
    cls = WORKLOADS[args.workload]

    def setup() -> int:
        import monocert.cli  # noqa: F401

        cls(args.workload, args.seed, workdir).write()
        return 0

    setup_times = []
    for _ in range(SETUP_REPS):
        wall, code, _ = fork_call(setup, None, workdir / "setup.err")
        if code != 0:
            sys.stderr.write((workdir / "setup.err").read_text())
            print("perfbench: set-up failed", file=sys.stderr)
            return 2
        setup_times.append(wall)
    setup_s = statistics.median(setup_times)

    import monocert

    if Path(monocert.__file__).resolve().parent != (SRC / "monocert").resolve():
        print(f"perfbench: imported monocert from {monocert.__file__}", file=sys.stderr)
        return 2
    wl = cls(args.workload, args.seed, workdir)
    stop_at = started + DEADLINE_S[args.trace]

    untraced: list[list[JobRecord]] = []
    traced: list[list[JobRecord]] = []
    t0 = time.perf_counter()
    while True:
        untraced.append(run_pass(wl, outdir, False, len(untraced), stop_at))
        if args.trace:
            traced.append(run_pass(wl, outdir, True, len(traced), stop_at))
        now = time.perf_counter()
        # Stop when less than half a round is left, so a run lasts --seconds
        # on average while every input keeps the same number of samples.
        per_round = (now - t0) / len(untraced)
        if now - t0 + per_round / 2 >= args.seconds or now > stop_at:
            break

    summary = summarize(untraced + traced)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "setup_s_samples": setup_times, **summary}
    probe_problems: list[str] = []
    if args.trace:
        calls = [s for p in traced for r in p for s in r.spans]
        per_layer = layer_metrics(calls, len(traced))
        per_layer["graphs.input_bytes"] = sum(r.input_bytes for p in traced for r in p) / len(traced)
        plain = statistics.mean(sum(r.latency for r in p) for p in untraced)
        with_spans = statistics.mean(sum(r.latency for r in p) for p in traced)
        per_layer["trace.overhead_s"] = with_spans - plain
        per_layer["trace.overhead_ratio"] = (with_spans - plain) / plain
        per_layer["run.failed_ratio"] = summary["failed_ratio"]
        per_layer["run.unsettled_ratio"] = summary["unsettled_ratio"]
        probe_metrics, detail["probes"], probe_problems = run_probes(workdir)
        per_layer.update(probe_metrics)
        detail["probe_problems"] = probe_problems
        with open(workdir / "spans.jsonl", "w") as fh:
            for spans in calls:
                fh.write(json.dumps(spans) + "\n")
        units = {m["name"]: m["unit"] for m in
                 json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        metrics = {k: {"value": per_layer[k], "unit": u} for k, u in units.items()}
    else:
        e2e, samples = end_to_end(untraced, setup_s)
        detail.update(samples)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}

    report = dict(detail, latency_ms={
        r.label: [round(x.latency * 1000, 3) for p in untraced for x in p if x.index == r.index]
        for r in untraced[0]})
    (workdir / "report.json").write_text(json.dumps(report, indent=1) + "\n")
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": summary["failed"] == 0 and not probe_problems,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
