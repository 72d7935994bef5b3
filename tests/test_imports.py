import ast
import re
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


ELEMENT_API = {"e", "h", "add", "scale", "bracket"}


def element_api_calls(package: Path):
    """'module: receiver.method' for each call of the dict element API outside chevalley.

    e, h, scale and bracket count on any receiver; add counts only on a receiver
    whose text names the algebra (alg, algebra, chevalley), since sets and numpy
    have an add of their own.
    """
    found = []
    for path in sorted(package.glob("*.py")):
        if path.stem == "chevalley":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            name, receiver = node.func.attr, ast.unparse(node.func.value)
            if name in ELEMENT_API and (
                name != "add" or re.search(r"\balg\b|algebra|chevalley", receiver)
            ):
                found.append(f"{path.stem}: {receiver}.{name}")
    return found


def test_no_module_outside_chevalley_calls_the_element_api():
    # every ad matrix on the run path comes from ChevalleyAlgebra.ad and its integer tables
    assert element_api_calls(Path(coxstokes.__file__).parent) == []


def test_element_api_guard_sees_algebra_calls_only(tmp_path):
    body = (
        "el = alg.add(alg.e(r, c), self.alg.h(x))\n"
        "m = build_chevalley(t).bracket(x, y)\n"
        "seen.add(r)\n"
        "np.add(a, b, out=a)\n"
    )
    (tmp_path / "user.py").write_text(body)
    (tmp_path / "chevalley.py").write_text(body)
    assert sorted(element_api_calls(tmp_path)) == [
        "user: alg.add", "user: alg.e", "user: build_chevalley(t).bracket", "user: self.alg.h",
    ]
