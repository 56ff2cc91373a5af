"""Bit-exact JSON encodings for every value type.

Schema: rationals are "p/q" strings with positive q; polynomials are
ascending coefficient arrays; a rational function is {"num": [...],
"den": [...]} in reduced monic-denominator form; a matrix is [[a,b],[c,d]];
a series is {"ring": ..., "val": v, "order": N | "exact", "coeffs": [...]}
listing coefficients from the valuation upward; a graded element is
{"terms": [{"c": "p/q", "mono": [[genIndex, derivOrder, exponent], ...]}]}
in canonical monomial order.  Parsing rejects malformed input with a
ParseError naming the offending field.  The graded types are imported
where they are parsed, so Q(z) input loads no graded module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any

from .errors import ParseError
from .ratfunc import QZ, GMatrix, RatFunc
from .series import EXACT, PDSeries

__all__ = [
    "frac_str", "parse_frac",
    "ratfunc_json", "parse_ratfunc",
    "gmatrix_json", "parse_gmatrix",
    "ring_json", "parse_ring",
    "graded_json", "parse_graded",
    "coeff_json", "parse_coeff",
    "series_json", "parse_series",
    "family_json", "parse_family",
]


def frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _is_int(v: Any) -> bool:
    """A JSON integer; ``bool`` is an ``int`` subclass, but ``true`` is not one."""
    return isinstance(v, int) and not isinstance(v, bool)


def parse_frac(v: Any, field: str) -> Fraction:
    if _is_int(v):
        return Fraction(v)
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError):
            raise ParseError(f"{field}: not a rational 'p/q' string: {v!r}") from None
    raise ParseError(f"{field}: expected a rational string, got {type(v).__name__}")


def _poly_json(coeffs) -> list[str]:
    return [frac_str(c) for c in coeffs]


def _parse_poly(v: Any, field: str) -> list[Fraction]:
    if not isinstance(v, list):
        raise ParseError(f"{field}: expected an ascending coefficient array")
    return [parse_frac(c, f"{field}[{i}]") for i, c in enumerate(v)]


def ratfunc_json(f: RatFunc) -> dict:
    return {"num": _poly_json(f.num), "den": _poly_json(f.den)}


def parse_ratfunc(v: Any, field: str = "ratfunc") -> RatFunc:
    if not isinstance(v, dict) or "num" not in v or "den" not in v:
        raise ParseError(f"{field}: expected an object with 'num' and 'den'")
    num = _parse_poly(v["num"], f"{field}.num")
    den = _parse_poly(v["den"], f"{field}.den")
    if not any(den):
        raise ParseError(f"{field}.den: zero denominator")
    return RatFunc(num, den)


def gmatrix_json(g: GMatrix) -> list:
    return [[frac_str(g.a), frac_str(g.b)], [frac_str(g.c), frac_str(g.d)]]


def parse_gmatrix(v: Any, field: str = "matrix") -> GMatrix:
    if (
        not isinstance(v, list)
        or len(v) != 2
        or any(not isinstance(row, list) or len(row) != 2 for row in v)
    ):
        raise ParseError(f"{field}: expected [[a,b],[c,d]]")
    a = parse_frac(v[0][0], f"{field}[0][0]")
    b = parse_frac(v[0][1], f"{field}[0][1]")
    c = parse_frac(v[1][0], f"{field}[1][0]")
    d = parse_frac(v[1][1], f"{field}[1][1]")
    if a * d - b * c != 1:
        raise ParseError(f"{field}: determinant must be 1")
    return GMatrix(a, b, c, d)


def spec_json(spec: GradedRingSpec) -> list:
    return [[g.name, g.weight, g.invertible] for g in spec.generators]


def parse_spec(v: Any, field: str = "generators") -> GradedRingSpec:
    from .graded import Generator, GradedRingSpec

    if not isinstance(v, list) or not v:
        raise ParseError(f"{field}: expected a nonempty list of [name, weight, invertible]")
    gens = []
    for i, item in enumerate(v):
        if not isinstance(item, list) or len(item) != 3:
            raise ParseError(f"{field}[{i}]: expected [name, weight, invertible]")
        name, weight, inv = item
        if not isinstance(name, str) or not _is_int(weight) or not isinstance(inv, bool):
            raise ParseError(f"{field}[{i}]: expected [str, int, bool]")
        gens.append(Generator(name, weight, inv))
    try:
        return GradedRingSpec(gens)
    except ValueError as exc:
        raise ParseError(f"{field}: {exc}") from None


def ring_json(ring) -> dict:
    if ring is QZ:
        return {"kind": "qz"}
    return {"kind": "graded", "generators": spec_json(ring)}


def parse_ring(v: Any, field: str = "ring"):
    if not isinstance(v, dict) or "kind" not in v:
        raise ParseError(f"{field}: expected an object with 'kind'")
    kind = v["kind"]
    if kind == "qz":
        return QZ
    if kind == "graded":
        return parse_spec(v.get("generators"), f"{field}.generators")
    raise ParseError(f"{field}.kind: unknown ring kind {kind!r}")


def graded_json(e: GradedElem) -> dict:
    terms = []
    for mono, c in sorted(e.terms.items()):
        terms.append({"c": frac_str(c), "mono": [list(t) for t in mono]})
    return {"terms": terms}


def parse_graded(v: Any, spec: GradedRingSpec, field: str = "elem") -> GradedElem:
    from .graded import GradedElem

    if not isinstance(v, dict) or "terms" not in v:
        raise ParseError(f"{field}: expected an object with 'terms'")
    if not isinstance(v["terms"], list):
        raise ParseError(f"{field}.terms: expected an array")
    elems = []
    for i, t in enumerate(v["terms"]):
        if not isinstance(t, dict) or "c" not in t or "mono" not in t:
            raise ParseError(f"{field}.terms[{i}]: expected 'c' and 'mono'")
        c = parse_frac(t["c"], f"{field}.terms[{i}].c")
        if not isinstance(t["mono"], list):
            raise ParseError(f"{field}.terms[{i}].mono: expected an array")
        mono = []
        for j, triple in enumerate(t["mono"]):
            if not isinstance(triple, list) or len(triple) != 3 or not all(map(_is_int, triple)):
                raise ParseError(f"{field}.terms[{i}].mono[{j}]: expected [genIndex, derivOrder, exponent]")
            mono.append(tuple(triple))
        try:
            elems.append(GradedElem(spec, {tuple(mono): c}))
        except ValueError as exc:
            raise ParseError(f"{field}.terms[{i}]: {exc}") from None
    # each term is validated and canonical on its own, and so is their sum
    return spec.sum(elems)


def coeff_json(ring, c) -> Any:
    if ring is QZ:
        return ratfunc_json(c)
    return graded_json(c)


def parse_coeff(v: Any, ring, field: str = "coeff"):
    if ring is QZ:
        return parse_ratfunc(v, field)
    return parse_graded(v, ring, field)


def series_json(q: PDSeries) -> dict:
    val = q.valuation
    if isinstance(val, float) and math.isinf(val):
        val = 0
    top = max(q.coeffs) + 1 if q.coeffs else val
    if q.order is not None:
        top = q.order
    coeffs = [coeff_json(q.ring, q.coeff(n)) for n in range(val, top)]
    return {
        "ring": ring_json(q.ring),
        "val": val,
        "order": "exact" if q.order is None else q.order,
        "coeffs": coeffs,
    }


def parse_series(v: Any, field: str = "series") -> PDSeries:
    if not isinstance(v, dict):
        raise ParseError(f"{field}: expected an object")
    for key in ("ring", "val", "order", "coeffs"):
        if key not in v:
            raise ParseError(f"{field}.{key}: missing")
    ring = parse_ring(v["ring"], f"{field}.ring")
    val = v["val"]
    if not _is_int(val):
        raise ParseError(f"{field}.val: expected an integer")
    order = v["order"]
    if order == "exact":
        order = EXACT
    elif not _is_int(order):
        raise ParseError(f"{field}.order: expected an integer or 'exact'")
    raw = v["coeffs"]
    if not isinstance(raw, list):
        raise ParseError(f"{field}.coeffs: expected an array")
    if order is not None and val + len(raw) > order:
        raise ParseError(f"{field}.coeffs: extends past the truncation order")
    coeffs = {
        val + i: parse_coeff(c, ring, f"{field}.coeffs[{i}]") for i, c in enumerate(raw)
    }
    return PDSeries(ring, coeffs, order)


def family_json(F: WeightedFamily) -> dict:
    return {
        "ring": ring_json(F.ring),
        "start": F.start,
        "components": {str(m): coeff_json(F.ring, f) for m, f in F.items()},
    }


def parse_family(v: Any, field: str = "family") -> WeightedFamily:
    from .lift import WeightedFamily

    if not isinstance(v, dict) or "components" not in v or "ring" not in v:
        raise ParseError(f"{field}: expected an object with 'ring' and 'components'")
    ring = parse_ring(v["ring"], f"{field}.ring")
    if not isinstance(v["components"], dict):
        raise ParseError(f"{field}.components: expected an object")
    comps = {}
    for key, val in v["components"].items():
        try:
            m = int(key)
        except ValueError:
            raise ParseError(f"{field}.components: non-integer weight key {key!r}") from None
        comps[m] = parse_coeff(val, ring, f"{field}.components[{key}]")
    start = v.get("start")
    if start is not None and not _is_int(start):
        raise ParseError(f"{field}.start: expected an integer or null")
    return WeightedFamily(ring, comps, start=start)
