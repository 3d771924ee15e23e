"""The package imports only the standard library and itself."""

import ast
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
