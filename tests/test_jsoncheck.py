"""The in-package schema checker against jsonschema, the reference implementation."""

import copy
import json
import math
import tempfile
from functools import lru_cache
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coxstokes import cli
from coxstokes.jsoncheck import DIALECT, TYPES, SchemaError, SchemaViolation, compile_schema

KINDS = ("describe", "plane", "verify", "verify_all", "stokes", "slack", "monodromy")

# The documents mutated below: (schema kind, argv) of each command on a few types.
ARGVS = (
    [("describe", ["describe", "--type", t]) for t in ("A2", "G2", "E6")]
    + [("plane", ["plane", "--type", t]) for t in ("A2", "G2", "E6")]
    + [("verify", ["verify", "--type", t]) for t in ("A2", "G2", "E6")]
    + [
        ("stokes", ["stokes", "--type", "A2", "--m", "1/3,-1/5"]),
        ("stokes", ["stokes", "--type", "G2", "--m=-1/2,-1/3"]),
        ("monodromy", ["monodromy", "--rank", "2", "--k", "0,1,1"]),
        ("verify_all", ["verify", "--all"]),
        ("slack", ["stokes", "--type", "A2", "--m=-5,0"]),
    ]
)


def _schema(kind):
    return json.loads(
        resources.files("coxstokes.schemas").joinpath(f"{kind}.schema.json").read_text()
    )


@lru_cache(maxsize=None)
def _reference(kind):
    schema = _schema(kind)
    return jsonschema.validators.validator_for(schema)(schema)


@lru_cache(maxsize=None)
def _documents():
    docs = []
    with tempfile.TemporaryDirectory() as tmp:
        for i, (kind, argv) in enumerate(ARGVS):
            out = Path(tmp) / f"{i}.json"
            # the slack report comes with the domain error of an inadmissible m
            want = cli.EXIT_DOMAIN if kind == "slack" else cli.EXIT_OK
            assert cli.main(argv + ["--json-out", str(out)]) == want, argv
            docs.append((kind, json.loads(out.read_text())))
    return tuple(docs)


def _accepts(kind, doc) -> bool:
    try:
        cli._validate(kind, doc)
    except SchemaViolation:
        return False
    return True


def _agree(kind, doc) -> bool:
    ours = _accepts(kind, doc)
    assert ours == _reference(kind).is_valid(doc), (kind, doc)
    return ours


@pytest.mark.parametrize("kind", KINDS)
def test_shipped_schemas_are_valid_2020_12(kind):
    schema = _schema(kind)
    assert schema["$schema"] == DIALECT
    jsonschema.validators.validator_for(schema).check_schema(schema)
    compile_schema(schema)


def test_emitted_documents_pass_both():
    for kind, doc in _documents():
        assert _agree(kind, doc), kind


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | st.floats(allow_nan=True)
    | st.sampled_from([0.0, 1.0, 2.0, 1.5]) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["a", "b", "k1"]) | st.text(max_size=3), inner, max_size=3),
    max_leaves=5,
)
# values around every const (1, 2) and minimum (1, 2, 3) of the schemas
near_bounds = st.sampled_from([-1, 0, 1, 2, 3, 0.5, 1.0, 2.0, 2.5, True, False, "1", math.nan])


@st.composite
def mutated(draw):
    kind, doc = draw(st.sampled_from(_documents()))
    holder = {"doc": copy.deepcopy(doc)}
    # a random walk from the root, so shallow (schema-bearing) nodes are drawn most
    parent, key = holder, "doc"
    while isinstance(parent[key], (dict, list)) and parent[key] and draw(st.booleans()):
        node = parent[key]
        parent, key = node, draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                                 else range(len(node))))
    node = parent[key]
    how = draw(st.sampled_from(["drop", "replace", "bool", "integral", "bounds", "resize"]))
    if how == "drop":
        if isinstance(node, dict) and node:
            del node[draw(st.sampled_from(sorted(node)))]
        elif parent is not holder:
            del parent[key]
    elif how == "replace":
        parent[key] = draw(json_values)
    elif how == "bool":
        parent[key] = draw(st.booleans())
    elif how == "integral":
        parent[key] = float(node) if isinstance(node, int) else 1.0
    elif how == "bounds":
        parent[key] = draw(near_bounds)
    elif isinstance(node, list):
        size = draw(st.integers(0, 4))
        pad = node[-1] if node else 0.0
        parent[key] = (node + [copy.deepcopy(pad) for _ in range(size)])[:size]
    return kind, holder["doc"]


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated())
def test_checker_agrees_with_jsonschema_on_mutated_documents(case):
    _agree(*case)


# Each keyword without a type beside it, so that it meets values of every JSON type.
KEYWORD_ALONE = [{"type": name} for name in TYPES] + [
    {"minimum": 2},
    {"minimum": 0.5},
    {"required": ["a"]},
    {"properties": {"a": {"type": "integer"}}},
    {"items": {"type": "number"}},
    {"minItems": 2},
    {"maxItems": 1},
    {"const": 1},
    {"const": [1, {"a": True}]},
]


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(KEYWORD_ALONE), json_values | near_bounds)
def test_each_keyword_alone_agrees_with_jsonschema(schema, value):
    schema = {"$schema": DIALECT, **schema}
    try:
        compile_schema(schema)(value)
        ours = True
    except SchemaViolation:
        ours = False
    assert ours == jsonschema.validators.validator_for(schema)(schema).is_valid(value)


def _find(kind):
    return copy.deepcopy(next(doc for k, doc in _documents() if k == kind))


_DROP = object()


def _set(doc, path, value):
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is _DROP:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc

# (kind, JSON path, new value, accepted) in the 2020-12 reading
CASES = [
    ("describe", ("rank",), True, False),           # a bool is not an integer
    ("describe", ("rank",), 6.0, True),             # an integral float is one
    ("describe", ("rank",), 6.5, False),
    ("describe", ("rank",), 1, False),              # minimum 2
    ("describe", ("schema_version",), True, False),  # const 1 rejects true
    ("describe", ("schema_version",), 1.0, True),
    ("describe", ("schema_version",), 2, False),
    ("describe", ("bipartition", "i1"), _DROP, False),
    ("describe", ("exponents", 0), False, False),
    ("plane", ("rays", 0, "index"), 0, False),       # minimum 1
    ("plane", ("rays", 0, "angle"), True, False),    # a bool is not a number
    ("plane", ("rays", 0, "angle"), math.nan, True),  # NaN is a number
    ("plane", ("rays", 0, "roots", 0, "coords", 0), 1.0, True),
    ("verify", ("checks", 0, "passed"), 1, False),
    ("verify", ("checks", 0, "detail"), 3, False),
    ("stokes", ("t", 0), [0.5], False),              # minItems 2
    ("stokes", ("t", 0), [0.5, 0.0, 1.0], False),    # maxItems 2
    ("stokes", ("t", 0, 1), True, False),
    ("stokes", ("class_residual",), _DROP, False),
    ("stokes", ("class_residual",), "0", False),     # a string is not a number
    ("stokes", ("support_residuals", "k2"), _DROP, False),
    ("stokes", ("support_residuals", "k1"), None, False),
    ("stokes", ("spectrum_check", "ok"), 1, False),
    ("stokes", ("spectrum_check", "charpoly_residual"), _DROP, False),
    ("stokes", ("spectrum_check", "eigenvalue_residual"), "any", True),
    ("monodromy", ("passed",), 0, False),
    ("monodromy", ("z",), 2, True),                  # an integer is a number
    ("monodromy", ("formal_solution",), [], False),
    ("verify_all", ("results",), [], False),         # minItems 2
    ("verify_all", ("results",), {}, False),
    ("verify_all", ("results", 0, "checks"), _DROP, True),  # entries: verify schema
    ("slack", ("alcove", "admissible"), True, False),  # const false
    ("slack", ("alcove", "admissible"), 0, False),
    ("slack", ("rep",), "A2-hw10-dim3", True),
    ("stokes", ("schema_version",), 2, False),       # const 3
    ("stokes", ("character_residual",), _DROP, False),
    ("stokes", ("character_residual",), "0", False),
    ("stokes", ("multipliers", "k2"), _DROP, False),
    ("stokes", ("multipliers", "k1", 0), [1.0], False),  # minItems 2
    ("stokes", ("m0",), [], True),                   # the dense matrices are optional
]


@pytest.mark.parametrize("kind,path,value,accepted", CASES)
def test_checker_on_the_2020_12_edge_cases(kind, path, value, accepted):
    doc = _set(_find(kind), path, value)
    assert _agree(kind, doc) is accepted


def test_violation_names_path_and_keyword():
    doc = _set(_find("plane"), ("rays", 3, "index"), 0)
    with pytest.raises(SchemaViolation, match=r"coxstokes/plane/v1: \$\.rays\[3\]\.index "
                                              r"fails minimum"):
        cli._validate("plane", doc)
    with pytest.raises(SchemaViolation, match=r"\$\.spectrum_check fails required: 'ok'"):
        cli._validate("stokes", _set(_find("stokes"), ("spectrum_check", "ok"), _DROP))


@pytest.mark.parametrize("schema", [
    {"type": "integer", "enum": [1, 2]},
    {"type": "object", "additionalProperties": False},
    {"type": "object", "properties": {"a": {"type": "object", "additionalProperties": False}}},
    {"type": "array", "items": {"enum": ["x"]}},
    {"$schema": "http://json-schema.org/draft-07/schema#", "type": "object"},
    {"type": ["integer", "null"]},
    {"type": "array", "items": [{"type": "integer"}]},
    {"type": "array", "minItems": True},
    {"type": "object", "required": ["a", "a"]},
])
def test_unsupported_schemas_are_rejected_when_loaded(schema):
    with pytest.raises(SchemaError):
        compile_schema({"$schema": DIALECT, **schema})
