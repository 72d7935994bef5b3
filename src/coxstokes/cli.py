"""Command-line front end: describe, plane (SVG), verify, stokes, monodromy.

Exit codes: 0 pass, 1 usage error (also an unwritable --json-out or --svg-out
path), 2 domain error, 3 verification failure.
Every JSON document is validated against the versioned schema shipped with
the package before it is written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction as Q
from functools import lru_cache
from importlib import resources
from typing import List, Sequence

import numpy as np

from . import oracle
from .characters import CharacterScaleError, fundamental_dim
from .chevalley import InvariantViolation, build_chevalley
from .coxeter import (
    TheoremCheckError,
    bipartition,
    coxeter_plane,
    kostant_chain,
    singular_directions,
)
from .jsoncheck import SchemaViolation, compile_schema
from .oracle import (
    FORMAL_ORDER,
    IntegratorError,
    SystemError_,
    build_system,
    formal_solution,
    numerical_monodromy,
)
from .rootcore import AlgebraType, RankScaleError, UnsupportedTypeError, build_root_system
from .spectrum import SpectrumMismatch, ad_spectrum, build_e_plus, match_plane
from .steinberg import (
    ConsistencyError,
    InadmissibleError,
    alcove_map,
    check_character_cap,
    semisimple_spectrum_check,
    stokes_from_asymptotics,
    verify_factor_supports,
)
from .weightrep import (
    UnsupportedRepresentationError,
    fundamental_representation,
    registered_index,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_VERIFY = 3

STANDARD_TYPES = (
    "A2", "A3", "A4", "A5", "A6", "B2", "B3", "B4", "C3",
    "D4", "D5", "G2", "F4", "E6", "E7", "E8",
)
# largest dim(g) whose apposition spectrum verify computes: a scale guard
# above E8 (248), the largest standard type
SPEC_DIM_CAP = 250

DOMAIN_ERRORS = (
    UnsupportedTypeError,
    InadmissibleError,
    SystemError_,
    CharacterScaleError,
    RankScaleError,
    UnsupportedRepresentationError,
)
VERIFY_ERRORS = (
    TheoremCheckError,
    SpectrumMismatch,
    ConsistencyError,
    InvariantViolation,
    IntegratorError,
    SchemaViolation,
)


class OutputPathError(Exception):
    """An output path cannot be written: a usage error."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


@lru_cache(maxsize=None)
def _validator(kind: str):
    """The compiled check of one schema kind, read and compiled once."""
    schema = json.loads(
        resources.files("coxstokes.schemas").joinpath(f"{kind}.schema.json").read_text()
    )
    return compile_schema(schema)


def _validate(kind: str, doc: dict) -> dict:
    """Return doc, or raise SchemaViolation naming the failing JSON path and keyword."""
    _validator(kind)(doc)
    return doc


def _write(path: str, text: str):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise OutputPathError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _claim(path: str) -> bool:
    """Refuse an unwritable output path before any work, as _write would; True if it was created.

    The path is opened to append, so an existing file keeps its contents
    until the document is written.
    """
    existed = os.path.lexists(path)
    try:
        open(path, "a").close()
    except OSError as exc:
        raise OutputPathError(f"cannot write {path}: {exc.strerror or exc}") from exc
    return not existed


def _emit(doc: dict, path: str | None):
    text = json.dumps(doc, indent=1, sort_keys=True)
    if path:
        _write(path, text + "\n")
    else:
        print(text)


def _fractions(text: str) -> List[Q]:
    """Comma-separated rationals: the argparse type of --m, --k and --c."""
    try:
        return [Q(part.strip()) for part in text.split(",") if part.strip()]
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not comma-separated rationals: {text!r}") from exc


# -- SVG rendering ---------------------------------------------------------------


def render_plane_svg(rs, plane, size: int = 640) -> str:
    """Deterministic SVG of the plane: spokes, wheels, roots, clockwise labels.

    The outermost wheel is normalized to the unit circle; the Pi_2 points on
    d_1 are highlighted.
    """
    s = rs.coxeter_number
    cx = cy = size / 2
    rmax = 0.42 * size
    outer = max(abs(c) for c in plane.coord.values())

    def pt(z: complex):
        return cx + rmax * z.real / outer, cy - rmax * z.imag / outer

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f"<!-- {rs.type}: {2*s} spokes, {len(plane.wheel_radii)} wheels -->",
    ]
    for radius in plane.wheel_radii:
        rr = rmax * radius / outer
        lines.append(
            f'<circle cx="{cx:.6f}" cy="{cy:.6f}" r="{rr:.6f}" '
            f'fill="none" stroke="#c8c8c8" stroke-width="1"/>'
        )
    for i, ang in enumerate(plane.ray_angles):
        x, y = pt(np.exp(1j * ang))
        lines.append(
            f'<line x1="{cx:.6f}" y1="{cy:.6f}" x2="{x:.6f}" y2="{y:.6f}" '
            f'stroke="#888888" stroke-width="0.8"/>'
        )
        lx, ly = pt(1.12 * np.exp(1j * ang))
        lines.append(
            f'<text x="{lx:.6f}" y="{ly:.6f}" font-size="{size/55:.2f}" '
            f'text-anchor="middle" fill="#444444">d{i+1}</text>'
        )
    head = plane.assignment[0]
    for root in sorted(plane.coord):
        x, y = pt(plane.coord[root])
        if root in head:
            lines.append(
                f'<circle cx="{x:.6f}" cy="{y:.6f}" r="5.0" fill="#d62728"/>'
            )
        else:
            fill = "#1f77b4" if sum(root) > 0 else "#7f7f7f"
            lines.append(f'<circle cx="{x:.6f}" cy="{y:.6f}" r="3.2" fill="{fill}"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


# -- subcommands -------------------------------------------------------------------


def cmd_describe(args) -> int:
    rs = build_root_system(args.type)
    bip = bipartition(rs)
    doc = {
        "schema_version": 1,
        "type": str(rs.type),
        "rank": rs.rank,
        "coxeter_number": rs.coxeter_number,
        "exponents": list(rs.exponents),
        "marks": list(rs.marks),
        "num_roots": len(rs.roots),
        "r_coeffs": [str(c) for c in rs.r_coeffs],
        "bipartition": {"i1": list(bip.i1), "i2": list(bip.i2)},
    }
    _emit(_validate("describe", doc), args.json_out)
    return EXIT_OK


def _plane_doc(rs, plane) -> dict:
    rays = []
    for i, ang in enumerate(plane.ray_angles):
        roots = []
        for root in sorted(plane.assignment[i]):
            z = plane.coord[root]
            roots.append(
                {"coords": list(root), "x": round(z.real, 12), "y": round(z.imag, 12)}
            )
        rays.append({"index": i + 1, "angle": round(ang, 12), "roots": roots})
    return {
        "schema_version": 1,
        "type": str(rs.type),
        "spokes": plane.num_rays,
        "wheels": len(plane.wheel_radii),
        "wheel_radii": [round(r, 12) for r in plane.wheel_radii],
        "rays": rays,
    }


def cmd_plane(args) -> int:
    rs = build_root_system(args.type)
    bip = bipartition(rs)
    plane = coxeter_plane(rs, bip)
    doc = _validate("plane", _plane_doc(rs, plane))
    _emit(doc, args.json_out)
    if args.svg_out:
        _write(args.svg_out, render_plane_svg(rs, plane))
    return EXIT_OK


def _verify_one(type_name: str) -> dict:
    rs = build_root_system(type_name)
    bip = bipartition(rs)
    checks = []

    def record(name, fn):
        try:
            fn()
            checks.append({"name": name, "passed": True})
        except (AssertionError, ArithmeticError) as exc:
            checks.append({"name": name, "passed": False, "detail": str(exc)})

    plane_holder = {}

    def build_plane():
        plane_holder["plane"] = coxeter_plane(rs, bip)

    record("coxeter_plane_rays", build_plane)
    if "plane" in plane_holder:
        record(
            "singular_directions",
            lambda: singular_directions(rs, bip, plane_holder["plane"]),
        )
    record("kostant_chain", lambda: kostant_chain(rs, rs.coxeter_number, bip))

    dim = rs.rank + len(rs.roots)
    if dim <= SPEC_DIM_CAP:
        def spectrum_check():
            alg = build_chevalley(type_name)
            sr = ad_spectrum(build_e_plus(alg))
            match_plane(sr, plane_holder["plane"])

        record("apposition_spectrum", spectrum_check)
    passed = all(c["passed"] for c in checks)
    doc = {
        "schema_version": 1,
        "type": type_name,
        "passed": passed,
        "checks": checks,
    }
    if dim > SPEC_DIM_CAP:
        doc["skipped"] = [{
            "name": "apposition_spectrum",
            "reason": f"dim g = {dim} is above SPEC_DIM_CAP = {SPEC_DIM_CAP}",
        }]
    return doc


def cmd_verify(args) -> int:
    types = STANDARD_TYPES if args.all else (str(AlgebraType.parse(args.type)),)
    docs = []
    ok = True
    for t in types:
        doc = _validate("verify", _verify_one(t))
        docs.append(doc)
        ok = ok and doc["passed"]
        line = "PASS" if doc["passed"] else "FAIL"
        skips = "".join(f" (skipped {c['name']}: {c['reason']})" for c in doc.get("skipped", ()))
        print(f"[{line}] {t}{skips}", file=sys.stderr)
    doc = docs[0] if len(docs) == 1 else _validate("verify_all", {"results": docs})
    _emit(doc, args.json_out)
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_stokes(args) -> int:
    rs = build_root_system(args.type)
    m = args.m or [Q(0)] * rs.rank
    if len(m) != rs.rank:
        raise UnsupportedTypeError(f"m must have {rs.rank} components")
    # every refusal comes before the representations are built, in the order
    # of the builds it guards: the class is solved in the registered
    # representation, so a type without one (E7, E8) fails first
    name = str(rs.type)
    registered_index(name)
    if args.rep is not None:
        if not 1 <= args.rep <= rs.rank:
            raise UnsupportedRepresentationError(
                f"--rep {args.rep} is outside 1..{rs.rank} for {rs.type}"
            )
        fundamental_dim(name, args.rep)
    pt = alcove_map(rs, m)
    alcove = {
        "admissible": pt.admissible,
        "slacks_simple": [str(c) for c in pt.slacks_simple],
        "slack_psi": str(pt.slack_psi),
        "sigma_fixed": pt.sigma_fixed,
    }
    if not pt.admissible:
        slack = {"schema_version": 1, "type": str(rs.type), "alcove": alcove}
        _emit(_validate("slack", slack), args.json_out)
        raise InadmissibleError(
            f"m = {','.join(map(str, m))} is not admissible (see slack report)"
        )
    check_character_cap(name)
    rep = None if args.rep is None else fundamental_representation(name, args.rep)
    sd = stokes_from_asymptotics(name, pt, rep=rep)
    supports = verify_factor_supports(sd)
    chk = semisimple_spectrum_check(sd)
    doc = sd.to_jsonable(matrices=args.matrices)
    doc["alcove"] = alcove
    doc["support_residuals"] = supports.residuals
    doc["multipliers"] = {
        name: [[z.real, z.imag] for z in coef.tolist()]
        for name, coef in supports.multipliers.items()
    }
    doc["spectrum_check"] = {
        "regular": chk.regular,
        "charpoly_residual": chk.charpoly_residual,
        "eigenvalue_residual": chk.eigenvalue_residual,
        "ok": chk.ok,
    }
    _emit(_validate("stokes", doc), args.json_out)
    return EXIT_OK if chk.ok else EXIT_VERIFY


def cmd_monodromy(args) -> int:
    k = args.k or [Q(0)] * (args.rank + 1)
    if len(k) == 1:
        k = k * (args.rank + 1)
    c = args.c or [Q(1)] * (args.rank + 1)
    sys_ = build_system(args.rank, [float(x) for x in c], k, args.z)
    fs = formal_solution(sys_, FORMAL_ORDER)
    rep = numerical_monodromy(sys_, radius=args.radius)
    doc = {
        "schema_version": 3,
        "rank": rep.n,
        "k": [str(x) for x in rep.k],
        "z": rep.z,
        "radius": rep.radius,
        "numerical_charpoly": [[c_.real, c_.imag] for c_ in rep.numerical_charpoly],
        "predicted_charpoly": [[c_.real, c_.imag] for c_ in rep.predicted_charpoly],
        "max_coeff_residual": rep.max_coeff_residual,
        "exponent_residual": rep.exponent_residual,
        "error_estimate": rep.error_estimate,
        "rounding_noise": rep.rounding_noise,
        "central_factor": [rep.central_factor.real, rep.central_factor.imag],
        "tolerance": oracle.MONODROMY_TOL,
        "passed": rep.ok,
        "nfev": rep.nfev,
        "steps": rep.steps,
        "formal_solution": {
            "order": fs.order,
            "lambda0_norm": fs.lambda0_norm,
            "residual_norms": list(fs.residual_norms),
        },
    }
    _emit(_validate("monodromy", doc), args.json_out)
    return EXIT_OK if doc["passed"] else EXIT_VERIFY


@lru_cache(maxsize=None)
def build_parser() -> _Parser:
    """The argument parser, built once per process and shared (callers must not modify it).

    parse_args returns a fresh namespace on every call.
    """
    p = _Parser(prog="coxstokes", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--json-out", default=None)

    d = sub.add_parser("describe", help="root data, marks, exponents, bipartition")
    d.add_argument("--type", required=True)
    common(d)
    d.set_defaults(fn=cmd_describe)

    pl = sub.add_parser("plane", help="Coxeter plane diagram (JSON + optional SVG)")
    pl.add_argument("--type", required=True)
    pl.add_argument("--svg-out", default=None)
    common(pl)
    pl.set_defaults(fn=cmd_plane)

    v = sub.add_parser("verify", help="run the theorem checks for one or all types")
    v.add_argument("--type", default="A2")
    v.add_argument("--all", action="store_true")
    common(v)
    v.set_defaults(fn=cmd_verify)

    st = sub.add_parser("stokes", help="Stokes data M0 = K1 K2 P0 from asymptotics m")
    st.add_argument("--type", required=True)
    st.add_argument("--m", type=_fractions, help="comma-separated rationals, H-basis coords")
    st.add_argument("--rep", type=int, default=None,
                    help="index 1..l of the fundamental representation M0 is assembled in")
    st.add_argument("--matrices", action="store_true",
                    help="also write the dense m0, k1, k2, a_gamma and p0")
    common(st)
    st.set_defaults(fn=cmd_stokes)

    mo = sub.add_parser("monodromy", help="numerical monodromy vs Stokes prediction")
    mo.add_argument("--rank", type=int, required=True, help="n for sl_{n+1}")
    mo.add_argument("--k", type=_fractions, help="comma-separated k_0..k_n (or one value)")
    mo.add_argument("--c", type=_fractions, help="comma-separated c_0..c_n")
    mo.add_argument("--z", type=float, default=1.0)
    mo.add_argument("--radius", type=float, default=1.0)
    common(mo)
    mo.set_defaults(fn=cmd_monodromy)
    return p


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    outputs = [p for p in (args.json_out, getattr(args, "svg_out", None)) if p]
    created = []
    try:
        created = [p for p in outputs if _claim(p)]
        return args.fn(args)
    except DOMAIN_ERRORS as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except VERIFY_ERRORS as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except OutputPathError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        # a path claimed for an op that failed before writing it is left as it was found
        for path in created:
            if os.path.getsize(path) == 0:
                os.remove(path)


if __name__ == "__main__":
    sys.exit(main())
