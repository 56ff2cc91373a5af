import json
from fractions import Fraction as F

import pytest

from pdo.errors import ParseError
from pdo.graded import GradedRingSpec, Generator
from pdo.lift import WeightedFamily
from pdo.ratfunc import GMatrix, RatFunc
from pdo import QZ
from pdo.serialize import (
    family_json,
    frac_str,
    gmatrix_json,
    graded_json,
    parse_family,
    parse_frac,
    parse_gmatrix,
    parse_graded,
    parse_ratfunc,
    parse_ring,
    parse_series,
    parse_spec,
    ratfunc_json,
    ring_json,
    series_json,
    spec_json,
)
from pdo.series import EXACT, PDSeries

z = RatFunc.z()
spec = GradedRingSpec([Generator("chi", 2, True), Generator("xi", 1, True)])
GR = spec
chi = spec.gen("chi")
xi = spec.gen("xi")


def roundtrip(value, enc, dec):
    encoded = enc(value)
    # must survive an actual JSON text round trip
    return dec(json.loads(json.dumps(encoded)))


def test_frac_roundtrip():
    for x in (F(0), F(3, 2), F(-7, 5), F(12)):
        assert parse_frac(frac_str(x), "t") == x
    assert frac_str(F(-7, 5)) == "-7/5"
    with pytest.raises(ParseError):
        parse_frac("x/y", "field.q")
    with pytest.raises(ParseError):
        parse_frac(1.5, "field.q")


def test_ratfunc_roundtrip():
    cases = [z, 1 / (z - 1), (z**2 - 3) / (2 * z + 4), RatFunc.const(0), RatFunc.const(F(5, 3))]
    for f in cases:
        assert roundtrip(f, ratfunc_json, lambda v: parse_ratfunc(v, "f")) == f
    # canonical emitted form has monic denominator
    enc = ratfunc_json((z**2 - 3) / (2 * z + 4))
    assert enc["den"][-1] == "1/1"


def test_ratfunc_parse_errors():
    with pytest.raises(ParseError) as ei:
        parse_ratfunc({"num": ["1/1"]}, "f")
    assert "f" in str(ei.value)
    with pytest.raises(ParseError) as ei:
        parse_ratfunc({"num": ["1/1"], "den": ["0/1"]}, "f")
    assert "f.den" in str(ei.value)


def test_gmatrix_roundtrip():
    for g in (GMatrix(1, 1, 0, 1), GMatrix(2, 1, 3, 2), GMatrix(F(1, 2), 0, F(3, 2), 2)):
        assert roundtrip(g, gmatrix_json, lambda v: parse_gmatrix(v, "m")) == g
    with pytest.raises(ParseError) as ei:
        parse_gmatrix([[str(1), "1"], ["1", "1"]], "m")
    assert "determinant" in str(ei.value)
    with pytest.raises(ParseError):
        parse_gmatrix([["1/1", "0/1"]], "m")


def test_spec_and_ring_roundtrip():
    assert parse_spec(json.loads(json.dumps(spec_json(spec)))) == spec
    assert parse_ring(ring_json(QZ)) == QZ
    assert parse_ring(ring_json(GR)) == GR
    with pytest.raises(ParseError):
        parse_ring({"kind": "padic"}, "r")
    with pytest.raises(ParseError):
        parse_spec([["a", 1]], "g")


def test_graded_roundtrip():
    cases = [
        chi**2 - 3 * xi * spec.gen("chi", 1),
        spec.zero(),
        chi**-2 * spec.gen("xi", 3),
        spec.scalar(F(-5, 7)),
    ]
    for e in cases:
        assert roundtrip(e, graded_json, lambda v: parse_graded(v, spec, "e")) == e


def test_graded_parse_errors():
    with pytest.raises(ParseError) as ei:
        parse_graded({"terms": [{"c": "1/1", "mono": [[2, 0, -1]]}]}, spec, "e")
    assert "e.terms[0]" in str(ei.value)
    with pytest.raises(ParseError):
        parse_graded({"terms": [{"c": "1/1"}]}, spec, "e")


def test_series_roundtrip():
    cases = [
        PDSeries(QZ, {-2: 1 / (z - 1), 0: z, 3: z**2}, 9),
        PDSeries(QZ, {0: 1}, EXACT),
        PDSeries.zero(QZ, 5),
        PDSeries.zero(QZ, EXACT),
        PDSeries(GR, {1: xi, 4: chi**2}, 8),
    ]
    for q in cases:
        back = roundtrip(q, series_json, lambda v: parse_series(v, "q"))
        assert back == q
    # interior zero coefficients are materialised positionally
    enc = series_json(PDSeries(QZ, {0: 1, 2: z}, 4))
    assert len(enc["coeffs"]) == 4 and enc["order"] == 4


def test_series_parse_errors():
    with pytest.raises(ParseError) as ei:
        parse_series({"ring": {"kind": "qz"}, "val": 0, "order": 3, "coeffs": "x"}, "q")
    assert "q.coeffs" in str(ei.value)
    with pytest.raises(ParseError):
        parse_series({"ring": {"kind": "qz"}, "val": 0, "order": 1,
                      "coeffs": [{"num": ["1/1"], "den": ["1/1"]}] * 3}, "q")
    with pytest.raises(ParseError):
        parse_series({"val": 0, "order": 1, "coeffs": []}, "q")


def test_family_roundtrip():
    fam = WeightedFamily(QZ, {0: RatFunc.const(2), 3: 1 / (z + 1)})
    assert roundtrip(fam, family_json, lambda v: parse_family(v, "F")) == fam
    gfam = WeightedFamily(GR, {2: chi, 5: xi * chi**2})
    assert roundtrip(gfam, family_json, lambda v: parse_family(v, "F")) == gfam


def test_deterministic_output():
    q = PDSeries(GR, {1: xi, 4: chi**2 - xi**4}, 8)
    assert json.dumps(series_json(q)) == json.dumps(series_json(q))


ONE = {"num": ["1/1"], "den": ["1/1"]}


def _graded(v, field):
    return parse_graded(v, spec, field)


@pytest.mark.parametrize(
    "parse, value, field",
    [
        (parse_frac, True, "r"),
        (parse_spec, [["chi", True, True]], "gens[0]"),
        (_graded, {"terms": [{"c": "1/1", "mono": [[0, False, 1]]}]}, "e.terms[0].mono[0]"),
        (parse_series, {"ring": {"kind": "qz"}, "val": True, "order": "exact", "coeffs": [ONE]}, "q.val"),
        (parse_series, {"ring": {"kind": "qz"}, "val": 0, "order": True, "coeffs": []}, "q.order"),
        (parse_family, {"ring": {"kind": "qz"}, "start": True, "components": {}}, "F.start"),
    ],
)
def test_json_booleans_are_not_integers(parse, value, field):
    root = field.partition(".")[0].partition("[")[0]
    with pytest.raises(ParseError) as ei:
        parse(value, root)
    assert field in str(ei.value)


@pytest.mark.parametrize(
    "parse, value, field",
    [
        (_graded, {"terms": 5}, "e.terms"),
        (_graded, {"terms": [{"c": "1/1", "mono": 5}]}, "e.terms[0].mono"),
        (parse_family, {"ring": {"kind": "qz"}, "components": [ONE]}, "F.components"),
        (parse_family, {"ring": {"kind": "qz"}, "start": "0", "components": {}}, "F.start"),
    ],
)
def test_malformed_containers_name_the_field(parse, value, field):
    with pytest.raises(ParseError) as ei:
        parse(value, field.partition(".")[0])
    assert field in str(ei.value)


def test_family_start_round_trips():
    empty = WeightedFamily(QZ, {}, start=4)
    back = parse_family(family_json(empty), "F")
    assert back == empty and back.start == 4
    assert parse_family({"ring": {"kind": "qz"}, "start": None, "components": {}}, "F").start == 0
