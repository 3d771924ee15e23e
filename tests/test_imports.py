"""The package imports only the standard library and itself, every name it
exports or defines in public has a caller outside the tests, the checker
imports no builder, and no function calls itself."""

import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "monocert"


def test_src_imports_only_stdlib():
    foreign = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top != "monocert" and top not in sys.stdlib_module_names:
                    foreign.append(f"{path.name}:{node.lineno} imports {name}")
    assert len(list(SRC.glob("*.py"))) > 1
    assert foreign == []


def _referenced_names(path: Path) -> set[str]:
    """Every name a file reads or looks up as an attribute, except where a
    module-level def or class reads its own name."""
    names = set()
    for top in ast.parse(path.read_text(), str(path)).body:
        own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id != own:
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and node.attr != own:
                names.add(node.attr)
    return names


def test_every_export_has_a_caller():
    # a name the package exports, and every public module-level function or
    # class, must be used by the package itself or by the benchmark beyond
    # its own def; a name only the tests reach belongs in tests/
    import monocert

    callers = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    callers += (SRC.parent.parent / "perfbench").glob("*.py")
    used = set().union(*map(_referenced_names, callers))
    public = {
        node.name
        for path in SRC.glob("*.py")
        for node in ast.parse(path.read_text(), str(path)).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    public.update(
        name for name in monocert.__all__ if not inspect.ismodule(getattr(monocert, name))
    )
    assert "json_fields" in public  # reached only by the walk over defs
    assert sorted(public - used) == []


def test_verify_imports_no_builder():
    # the checker may share JSON readers, certificate and target types and
    # graph helpers with what it checks, never a routine that builds or
    # searches: moving the partition check into graphs must stay the only
    # shared piece of logic
    path = SRC / "verify.py"
    imported = {}
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            imported.update((alias.name, node.module) for alias in node.names)
    allowed = {
        "matching": {"MatchingCertificate", "MatchingTargets", "ReducedInstance",
                     "ramsey_matching_number"},
        "tree_cert": {"TreeCertificate"},
    }
    assert "check_partition" in imported
    assert [
        f"{module}.{name}" for name, module in imported.items()
        if module != "graphs" and name not in allowed.get(module, ())
    ] == []
    builders = {
        "chromatic", "chi_exact", "greedy_upper", "maximum_matching", "kiraly_reduce",
        "find_mono_matching", "find_mono_matching_kiraly", "lift_matching",
        "miss_witness", "edge_color_dual", "mono_tree_certificate", "hunt",
        "contains_forest", "connected_components", "bfs_forest", "spanning_trees",
    }
    assert builders & (_referenced_names(path) | set(imported)) == set()


def test_no_function_calls_itself():
    # every search keeps its own stack, so no input size can outgrow
    # Python's; a call to a def's own name, or to self.<name> or
    # cls.<name> in a method, is recursion
    recursive = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                f = call.func
                if (isinstance(f, ast.Name) and f.id == node.name) or (
                    isinstance(f, ast.Attribute) and f.attr == node.name
                    and isinstance(f.value, ast.Name) and f.value.id in ("self", "cls")
                ):
                    recursive.append(f"{path.name}:{call.lineno} {node.name}")
    assert recursive == []


def test_cli_loads_no_parser_library_and_verify_only_for_verify(tmp_path):
    # every CLI call pays for what cli runs: argparse is not used at all, and
    # verify.py runs only in the one subcommand that reads it. Until then
    # sys.modules holds a lazy module, whose type is not yet ModuleType, and
    # the package's verify attribute is that module all along.
    graph, chi = tmp_path / "triangle.txt", tmp_path / "chi.json"
    graph.write_text("0 1\n1 2\n2 0\n")
    script = f"""
import json, sys, types
import monocert
from monocert.cli import main
seen = []
for argv in (["ramsey", "--targets", "2,2"], ["chi", {str(graph)!r}, "--json-out", {str(chi)!r}],
             ["verify", {str(chi)!r}, {str(graph)!r}]):
    assert main(argv) == 0
    ran = type(sys.modules.get("monocert.verify")) is types.ModuleType
    seen.append(["argparse" in sys.modules, ran,
                 getattr(monocert, "verify", None) is sys.modules.get("monocert.verify")])
sys.stderr.write("loaded: " + json.dumps(seen) + "\\n")
"""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    line = [x for x in proc.stderr.splitlines() if x.startswith("loaded: ")][-1]
    assert json.loads(line[len("loaded: "):]) == [
        [False, False, True], [False, False, True], [False, True, True]]
