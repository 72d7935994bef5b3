import ast
from pathlib import Path

import coxstokes


def private_sibling_imports(package: Path):
    """'module: name' for each underscore name imported from a sibling module."""
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level or (node.module or "").split(".")[0] == "coxstokes":
                found += [f"{path.stem}: {a.name}" for a in node.names if a.name.startswith("_")]
    return found


def test_no_module_imports_a_private_sibling_name():
    # a private name is a decision its module keeps; a sibling needing it should get a public one
    assert private_sibling_imports(Path(coxstokes.__file__).parent) == []
