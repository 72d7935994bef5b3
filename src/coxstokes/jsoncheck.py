"""JSON Schema checking for the keywords the CLI's schemas use.

The documents of the ``coxstokes`` commands are checked against the schemas
in ``coxstokes/schemas`` with the JSON Schema 2020-12 meaning of ``type``,
``properties``, ``required``, ``items``, ``const``, ``minimum``,
``minItems`` and ``maxItems``; ``$schema`` and ``$id`` are annotations.
As in 2020-12, a bool is neither ``integer`` nor ``number``, an integral
float such as ``1.0`` is an ``integer``, NaN is a ``number``, ``const: 1``
rejects ``true``, and each keyword applies only to the JSON type it is about
(``minimum`` to numbers, ``items`` and the item counts to arrays,
``properties`` and ``required`` to objects).

A schema that uses any other keyword, or a supported one in another form, is
rejected when it is compiled, so a schema edit cannot be ignored silently.
"""

from __future__ import annotations

import numbers
from typing import Callable

DIALECT = "https://json-schema.org/draft/2020-12/schema"
KEYWORDS = frozenset({
    "$schema", "$id", "type", "properties", "required", "items", "const",
    "minimum", "minItems", "maxItems",
})


class SchemaError(ValueError):
    """A schema that this checker cannot apply as JSON Schema 2020-12 would."""


class SchemaViolation(ValueError):
    """A document that does not match its schema."""


def _is_integer(x) -> bool:
    if isinstance(x, bool):
        return False
    return isinstance(x, int) or (isinstance(x, float) and x.is_integer())


def _is_number(x) -> bool:
    return isinstance(x, numbers.Number) and not isinstance(x, bool)


TYPES = {
    "array": lambda x: isinstance(x, list),
    "boolean": lambda x: isinstance(x, bool),
    "integer": _is_integer,
    "null": lambda x: x is None,
    "number": _is_number,
    "object": lambda x: isinstance(x, dict),
    "string": lambda x: isinstance(x, str),
}


def _equal(a, b) -> bool:
    """JSON equality: true is not 1, and arrays and objects compare entry by entry."""
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_equal, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_equal(a[k], b[k]) for k in a)
    return a == b


def _short(x) -> str:
    text = repr(x)
    return text if len(text) <= 60 else text[:57] + "..."


def _count(value, where: str) -> int:
    if not _is_integer(value) or value < 0:
        raise SchemaError(f"{where}: expected a non-negative integer, got {value!r}")
    return int(value)


Check = Callable[[object, str], None]


def _compile(schema, sid: str, where: str) -> Check:
    """One schema node as a function of (instance, JSON path) that raises on a mismatch."""
    if not isinstance(schema, dict):
        raise SchemaError(f"{where}: a schema must be an object, got {schema!r}")
    unknown = sorted(set(schema) - KEYWORDS)
    if unknown:
        raise SchemaError(f"{where}: unsupported keyword(s) {', '.join(unknown)}")

    def fail(path, keyword, detail):
        raise SchemaViolation(f"{sid}: {path} fails {keyword}: {detail}")

    if schema.get("$schema", DIALECT) != DIALECT:
        raise SchemaError(f"{where}: $schema must be {DIALECT}, got {schema['$schema']!r}")
    if not isinstance(schema.get("$id", ""), str):
        raise SchemaError(f"{where}: $id must be a string")

    checks = []
    if "type" in schema:
        name = schema["type"]
        if not isinstance(name, str) or name not in TYPES:
            raise SchemaError(f"{where}/type: expected one of {sorted(TYPES)}, got {name!r}")
        is_type = TYPES[name]

        def check_type(x, path):
            if not is_type(x):
                fail(path, "type", f"{_short(x)} is not of type {name!r}")

        checks.append(check_type)
    if "const" in schema:
        value = schema["const"]

        def check_const(x, path):
            if not _equal(x, value):
                fail(path, "const", f"{value!r} was expected, got {_short(x)}")

        checks.append(check_const)
    if "minimum" in schema:
        low = schema["minimum"]
        if not _is_number(low):
            raise SchemaError(f"{where}/minimum: expected a number, got {low!r}")

        def check_minimum(x, path):
            if _is_number(x) and x < low:
                fail(path, "minimum", f"{_short(x)} is less than {low!r}")

        checks.append(check_minimum)
    if "required" in schema:
        required = schema["required"]
        if (not isinstance(required, list) or not all(isinstance(k, str) for k in required)
                or len(set(required)) != len(required)):
            raise SchemaError(f"{where}/required: expected distinct strings, got {required!r}")

        def check_required(x, path):
            if isinstance(x, dict):
                for key in required:
                    if key not in x:
                        fail(path, "required", f"{key!r} is missing")

        checks.append(check_required)
    if "properties" in schema:
        if not isinstance(schema["properties"], dict):
            raise SchemaError(f"{where}/properties: expected an object")
        props = [
            (key, _compile(sub, sid, f"{where}/properties/{key}"))
            for key, sub in schema["properties"].items()
        ]

        def check_properties(x, path):
            if isinstance(x, dict):
                for key, sub in props:
                    if key in x:
                        sub(x[key], f"{path}.{key}")

        checks.append(check_properties)
    if "minItems" in schema:
        fewest = _count(schema["minItems"], f"{where}/minItems")

        def check_min_items(x, path):
            if isinstance(x, list) and len(x) < fewest:
                fail(path, "minItems", f"{len(x)} items, fewer than {fewest}")

        checks.append(check_min_items)
    if "maxItems" in schema:
        most = _count(schema["maxItems"], f"{where}/maxItems")

        def check_max_items(x, path):
            if isinstance(x, list) and len(x) > most:
                fail(path, "maxItems", f"{len(x)} items, more than {most}")

        checks.append(check_max_items)
    if "items" in schema:
        item = _compile(schema["items"], sid, f"{where}/items")

        def check_items(x, path):
            if isinstance(x, list):
                for i, entry in enumerate(x):
                    item(entry, f"{path}[{i}]")

        checks.append(check_items)

    if not checks:
        return lambda x, path: None
    if len(checks) == 1:
        return checks[0]

    def check(x, path):
        for c in checks:
            c(x, path)

    return check


def compile_schema(schema: dict) -> Callable[[object], None]:
    """Compile a schema once into a check that raises SchemaViolation on a bad document.

    The message of a violation names the schema's ``$id``, the JSON path of
    the failing value (``$.rays[3].index``) and the keyword that fails.
    Raises SchemaError if the schema uses anything outside ``KEYWORDS``.
    """
    if not isinstance(schema, dict):
        raise SchemaError(f"a schema must be an object, got {schema!r}")
    check = _compile(schema, schema.get("$id", "schema"), "#")

    def validate(doc) -> None:
        check(doc, "$")

    return validate
