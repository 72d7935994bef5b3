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


def reference_imports(package: Path):
    """'module: name' for each import of the test-side character reference, or of a name it defines."""
    reference = Path(__file__).with_name("character_reference.py")
    defined = {
        node.name
        for node in ast.parse(reference.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                found += [f"{path.stem}: {a.name}" for a in node.names if "character_reference" in a.name]
            elif isinstance(node, ast.ImportFrom):
                if "character_reference" in (node.module or ""):
                    found.append(f"{path.stem}: {node.module}")
                found += [f"{path.stem}: {a.name}" for a in node.names if a.name in defined]
    return found


def test_no_module_imports_the_character_reference(tmp_path):
    # fundamental_traces, back-substitution and the exact derivation of the
    # closed-form tables are the tests' reference; the run path reads the tables
    assert reference_imports(Path(coxstokes.__file__).parent) == []
    (tmp_path / "user.py").write_text(
        "import character_reference\nfrom .steinberg import fundamental_traces\n"
    )
    assert reference_imports(tmp_path) == ["user: character_reference", "user: fundamental_traces"]


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


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def bench_harness_names(bench: Path):
    """(module, name) for each coxstokes name the bench harness reaches by name.

    These are the functions perfbench/spans.py wraps (its TIMED and COUNTED
    tables, read as literals) and every name a perfbench file imports from
    coxstokes or one of its modules.  The files are parsed, not imported or
    edited.
    """
    names = []
    for node in ast.parse((bench / "spans.py").read_text()).body:
        if isinstance(node, ast.Assign) and [ast.unparse(t) for t in node.targets] in (
            ["TIMED"],
            ["COUNTED"],
        ):
            for module, fns in ast.literal_eval(node.value).items():
                names += [(f"coxstokes.{module}", fn) for fn in fns]
    for path in sorted(bench.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if (node.module or "").split(".")[0] == "coxstokes":
                names += [(node.module, a.name) for a in node.names]
    return names


def test_every_name_the_bench_harness_reaches_exists():
    # spans.install getattr()s each listed name, so a rename in src would
    # crash a traced bench run instead of failing here
    import importlib

    names = bench_harness_names(PERFBENCH)
    assert ("coxstokes.steinberg", "steinberg_section") in names
    assert ("coxstokes.steinberg", "FACTOR_TOL") in names
    for module, name in names:
        # a name imported from the package itself may be a submodule
        if module == "coxstokes" and not hasattr(importlib.import_module(module), name):
            importlib.import_module(f"{module}.{name}")
    missing = [
        f"{module}.{name}"
        for module, name in names
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []
