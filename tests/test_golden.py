"""Every subcommand on fixed inputs, checked byte for byte.

Each case runs ``monocert`` through ``cli.main`` and compares its exit code
and stdout with ``golden/expected.json``. Arguments starting with ``@`` name
a file in ``golden/``; ``%NAME`` names a file holding the recorded stdout of
case NAME, so ``verify`` re-reads exactly what the writers printed.

After a deliberate output change, re-record with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from monocert import chromatic
from monocert.cli import main
from monocert.hunter import HuntReport

GOLDEN = Path(__file__).parent / "golden"
EXPECTED = GOLDEN / "expected.json"

HUNT_P4 = ["hunt", "--pattern", "path:4", "--t", "2"]

CASES = {
    "chi-edges": ["chi", "@grotzsch.txt"],
    "chi-dimacs": ["chi", "@petersen.dimacs", "--format", "dimacs", "--seed", "4"],
    "chi-g6": ["chi", "@petersen.g6", "--format", "g6"],
    "chi-mycielski4": ["chi", "@mycielski4.txt"],
    "chi-budget": ["chi", "@mycielski4.txt", "--budget", "1"],
    "tree-cert": ["tree-cert", "@grotzsch.txt", "--coloring", "@grotzsch-2.col"],
    "tree-cert-tie": ["tree-cert", "@k4.txt", "--coloring", "@k4-tie.col"],
    "match-direct": ["match-cert", "@k5.txt", "--coloring", "@k5-2.col", "--targets", "2,2"],
    "match-kiraly": ["match-cert", "@k5.txt", "--coloring", "@k5-2.col", "--targets", "2,2",
                     "--kiraly"],
    "match-3colors": ["match-cert", "@k7.txt", "--coloring", "@k7-3.col",
                      "--targets", "2,2,2"],
    "match-3colors-kiraly": ["match-cert", "@k7.txt", "--coloring", "@k7-3.col",
                             "--targets", "2,2,2", "--kiraly"],
    "match-none": ["match-cert", "@star4.txt", "--coloring", "@star4-2.col",
                   "--targets", "2,2"],
    "match-none-kiraly": ["match-cert", "@star4.txt", "--coloring", "@star4-2.col",
                          "--targets", "2,2", "--kiraly"],
    "reduce": ["reduce", "@k7.txt", "--coloring", "@k7-3.col"],
    "ramsey-formula": ["ramsey", "--targets", "3,2"],
    "ramsey-n4": ["ramsey", "--targets", "2,2", "--n", "4"],
    "ramsey-n5": ["ramsey", "--targets", "2,2", "--n", "5"],
    "hunt-kneser": [*HUNT_P4, "--ramsey-value", "3", "--candidates", "kneser:5,2"],
    "hunt-multipartite": [*HUNT_P4, "--ramsey-value", "5",
                          "--candidates", "multipartite:1,1,1,1,1"],
    "hunt-multipartite-budget": [*HUNT_P4, "--ramsey-value", "5", "--budget", "1",
                                 "--candidates", "multipartite:1,1,1,1,1"],
    "hunt-k6-budget": ["hunt", "--pattern", "path:4", "--t", "3", "--ramsey-value", "6",
                       "--budget", "1", "--candidates", "multipartite:1,1,1,1,1,1"],
    "hunt-mycielski": ["hunt", "--pattern", "star:2", "--t", "2", "--ramsey-value", "4",
                       "--candidates", "mycielski:3"],
    "hunt-random-seeded": ["hunt", "--pattern", "matching:2", "--t", "2",
                           "--ramsey-value", "3", "--seed", "5", "--candidates",
                           "random:n=8,p=0.5,count=2,chi_min=3,seed=7"],
    "hunt-random-cli-seed": ["hunt", "--pattern", "star:3", "--t", "2",
                             "--ramsey-value", "2", "--seed", "3",
                             "--candidates", "random:n=7,p=0.6,count=3"],
    "hunt-g6-file": [*HUNT_P4, "--ramsey-value", "3", "--candidates", "g6:@hosts.g6"],
    "hunt-g6-dash": [*HUNT_P4, "--ramsey-value", "3", "--candidates", "g6:-"],
    "hunt-stdin": [*HUNT_P4, "--ramsey-value", "3"],
    "hunt-several": [*HUNT_P4, "--ramsey-value", "5", "--candidates", "multipartite:2,2",
                     "--candidates", "kneser:5,2", "--candidates", "mycielski:2"],
    "hunt-tree-file": ["hunt", "--pattern", "tree-file:@path4.txt", "--t", "2",
                       "--ramsey-value", "5", "--candidates", "multipartite:1,1,1,1,1"],
    "hunt-bad-pattern": ["hunt", "--pattern", "blob:4", "--t", "2", "--ramsey-value", "3",
                         "--candidates", "mycielski:2"],
    "hunt-bad-candidates": [*HUNT_P4, "--ramsey-value", "3", "--candidates", "weird:2"],
    "verify-chi": ["verify", "%chi-edges", "@grotzsch.txt"],
    "verify-tree": ["verify", "%tree-cert", "@grotzsch.txt", "--coloring", "@grotzsch-2.col"],
    "verify-match-direct": ["verify", "%match-direct", "@k5.txt", "--coloring", "@k5-2.col"],
    "verify-match-kiraly": ["verify", "%match-kiraly", "@k5.txt", "--coloring", "@k5-2.col"],
    "verify-match-none": ["verify", "%match-none", "@star4.txt", "--coloring", "@star4-2.col"],
    "verify-match-none-kiraly": ["verify", "%match-none-kiraly", "@star4.txt",
                                 "--coloring", "@star4-2.col"],
    "verify-reduce": ["verify", "%reduce", "@k7.txt", "--coloring", "@k7-3.col"],
    "verify-hunt-counterexample": ["verify", "%hunt-g6-file"],
    "verify-hunt-settled": ["verify", "%hunt-kneser"],
    "verify-ramsey-n5": ["verify", "%ramsey-n5"],
}
STDIN = {"hunt-g6-dash": "hosts.g6", "hunt-stdin": "hosts.g6"}


def _resolve(arg: str, tmp: Path, recorded: dict) -> str:
    if arg.startswith("%"):
        path = tmp / (arg[1:] + ".json")
        path.write_text(recorded[arg[1:]]["stdout"])
        return str(path)
    head, at, name = arg.partition("@")
    return head + str(GOLDEN / name) if at else arg


def run_case(name: str, tmp: Path, recorded: dict) -> dict:
    argv = [_resolve(a, tmp, recorded) for a in CASES[name]]
    stdin = STDIN.get(name)
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO((GOLDEN / stdin).read_text() if stdin else "")
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        sys.stdin = saved
    return {"exit": code, "stdout": out.getvalue()}


@pytest.mark.parametrize("name", list(CASES))
def test_golden(name, tmp_path):
    recorded = json.loads(EXPECTED.read_text())
    assert run_case(name, tmp_path, recorded) == recorded[name]


@pytest.mark.parametrize("name", [name for name, argv in CASES.items()
                                  if argv[0] == "hunt" and "bad" not in name])
def test_hunt_report_round_trip(name):
    # from_json reads every field to_json writes, and nothing else
    doc = json.loads(json.loads(EXPECTED.read_text())[name]["stdout"])
    del doc["kind"], doc["seed"]
    assert HuntReport.from_json(doc).to_json() == doc


def test_certificates_skip_chi_search(tmp_path, monkeypatch):
    # tree-cert, match-cert (both routes, hit and miss) and reduce certify
    # without the exact chromatic search
    def refuse(*args, **kwargs):
        raise AssertionError("chi_exact was called")

    monkeypatch.setattr(chromatic, "chi_exact", refuse)
    recorded = json.loads(EXPECTED.read_text())
    names = [name for name, argv in CASES.items()
             if argv[0] in ("tree-cert", "match-cert", "reduce")]
    assert {"match-direct", "match-kiraly", "match-none", "match-none-kiraly",
            "reduce", "tree-cert"} <= set(names)
    for name in names:
        assert run_case(name, tmp_path, recorded) == recorded[name], name


if __name__ == "__main__":
    import tempfile

    recorded: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in CASES:
            recorded[name] = run_case(name, Path(tmp), recorded)
    EXPECTED.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} cases in {EXPECTED}")
