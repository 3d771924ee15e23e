"""Hypothesis fuzz of ``monocert verify`` on damaged certificates.

Each example takes one document that a ``verify-*`` golden case reads (the
recorded stdout of a writer), with the case's graph and coloring files, and
replaces or deletes one to three of its subtrees. Whatever the damage,
``verify`` must answer with a verdict (0 or 1) or refuse the input (2):
exit 4 would mean a fault of the program.
"""

import contextlib
import copy
import io
import json
from functools import reduce
from operator import getitem

from hypothesis import given, settings, strategies as st

from monocert.cli import main

from test_golden import CASES, EXPECTED, GOLDEN

RECORDED = json.loads(EXPECTED.read_text())
# (document, the arguments after it) of each verify case
BASES = [(json.loads(RECORDED[argv[1][1:]]["stdout"]),
          [str(GOLDEN / a[1:]) if a.startswith("@") else a for a in argv[2:]])
         for name, argv in CASES.items() if name.startswith("verify-")]


def _paths(node, path=()):
    """The path of every subtree of a JSON document, the root's first."""
    yield path
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield from _paths(child, (*path, key))


KEYS = sorted({p[-1] for doc, _ in BASES for p in _paths(doc) if p and isinstance(p[-1], str)})
# integers stay at 50 or below, so no reader allocates in proportion to a
# forged count such as a hunt pattern's n
LEAVES = (st.none() | st.booleans() | st.integers(-2, 50) | st.just(0.5)
          | st.sampled_from(["", "direct", "A_"]))


def _values(depth: int):
    """JSON values nested at most depth lists or objects deep, with keys
    drawn from the certificates' own field names."""
    if depth == 0:
        return LEAVES
    inner = _values(depth - 1)
    return (LEAVES | st.lists(inner, max_size=3)
            | st.dictionaries(st.sampled_from(KEYS), inner, max_size=3))


VALUES = _values(3)


def test_bases_are_the_ten_verify_cases():
    assert len(BASES) == 10
    assert {doc["kind"] for doc, _ in BASES} == {
        "chi", "tree", "matching", "reduced", "hunt", "arrowing"}


@settings(max_examples=600, deadline=None)
@given(st.data())
def test_verify_answers_or_refuses_a_damaged_document(tmp_path_factory, data):
    base, rest = data.draw(st.sampled_from(BASES))
    doc = copy.deepcopy(base)
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = data.draw(VALUES)
            continue
        parent = reduce(getitem, path[:-1], doc)
        if data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(VALUES)
    cert = tmp_path_factory.getbasetemp() / "fuzzed.json"
    cert.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", str(cert), *rest])
    assert code in (0, 1, 2), err.getvalue()
    if out.getvalue():
        assert json.loads(out.getvalue())["ok"] is (code == 0)
