import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import surface_qp.cli
from surface_qp import repspace
from surface_qp.cli import main
from surface_qp.goldman import NormalForm
from surface_qp.io import (SchemaError, _flat_rows, fixture_result, fixture_rows,
                           fmt_float, load_bracket_request, load_point,
                           load_surface, make_report, write_report)
from surface_qp.lie import AlgebraContext
from surface_qp.suites import SUITES, run_suite
from surface_qp.surfaces import SurfaceSpec
from surface_qp.words import generator_symbols
from test_random_words import composable_word

GL2 = AlgebraContext("gl", 2)
U2 = AlgebraContext("u", 2)


def _write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def _surface(tmp_path, g=1, b=1):
    return _write(tmp_path, "surface.json", {"genus": g, "boundary_count": b})


def _diagram(tmp_path, wa="C1 D1", wb="D1", oa=None, ob=None):
    doc = {"alpha": {"word": wa}, "beta": {"word": wb}}
    if oa:
        doc["alpha"]["observable"] = oa
    if ob:
        doc["beta"]["observable"] = ob
    return _write(tmp_path, "diagram.json", doc)


# --- schema loading -------------------------------------------------------

def test_load_surface_round_trip(tmp_path):
    spec = load_surface(_surface(tmp_path, 1, 2))
    assert spec == SurfaceSpec(1, 2)


def test_load_surface_rejects_missing_field(tmp_path):
    p = _write(tmp_path, "bad.json", {"genus": 1})
    with pytest.raises(SchemaError) as exc:
        load_surface(p)
    assert str(exc.value) == "bad surface file %s: missing key 'boundary_count'" % p


def test_load_surface_rejects_malformed_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(SchemaError):
        load_surface(str(p))


def test_load_bracket_request_defaults_to_trace(tmp_path):
    spec = SurfaceSpec(1, 1)
    path = _diagram(tmp_path, oa={"kind": "entry", "i": 1, "j": 2, "part": "re"})
    (wa, oa), (wb, ob), variants = load_bracket_request(path, GL2, spec)
    assert wa.letters == spec.word("C1 D1").letters
    assert variants == (0, 0)
    g = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert oa.value(g) == 2.0
    assert ob.value(g) == 5.0
    assert oa.entry == (0, 1) and ob.entry is None


def test_load_bracket_request_rejects_bad_word(tmp_path):
    path = _diagram(tmp_path, wa="Z9")
    with pytest.raises((SchemaError, ValueError)):
        load_bracket_request(path, GL2, SurfaceSpec(1, 1))


def test_load_point_gl_exact_fractions(tmp_path):
    doc = {"C1": [["3/2", "0"], ["1/3", "1"]],
           "D1": [["1", "1/5"], ["0", "1"]]}
    m = load_point(_write(tmp_path, "p.json", doc), GL2, SurfaceSpec(1, 1))
    assert m.mat("C1")[0, 0] == 1.5
    d, nums = m.exact   # numerators over the lcm of 2, 3 and 5
    assert d == 30 and Fraction(nums["C1"][1][0], d) == Fraction(1, 3)
    assert nums == {"C1": [[45, 0], [10, 30]], "D1": [[30, 6], [0, 30]]}


def test_load_point_unitary_pairs(tmp_path):
    doc = {"C1": [[[0, 1], [0, 0]], [[0, 0], [0, -1]]],
           "D1": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}
    m = load_point(_write(tmp_path, "p.json", doc), U2, SurfaceSpec(1, 1))
    assert m.mat("C1")[0, 0] == 1j
    assert m.exact is None


def test_load_point_rejects_bad_entries(tmp_path):
    doc = {"C1": [["x", "0"], ["0", "1"]], "D1": [["1", "0"], ["0", "1"]]}
    with pytest.raises((SchemaError, ValueError)):
        load_point(_write(tmp_path, "p.json", doc), GL2, SurfaceSpec(1, 1))


# --- report serialization -------------------------------------------------

def test_fmt_float_has_17_digits():
    assert fmt_float(1.0 / 3.0) == "%.17g" % (1.0 / 3.0)
    assert fmt_float(0.0) == "0"


def test_fixture_result_pass_flag():
    fx = fixture_result("x", 1.0, 1.0 + 1e-12, 1e-9)
    assert fx["pass"] is True
    fx = fixture_result("x", 1.0, 2.0, 1e-9)
    assert fx["pass"] is False
    assert fx["residual"] == fmt_float(1.0)


def test_report_deterministic_modulo_timestamp(tmp_path):
    fx = [fixture_result("a", 0.5, 0.5, 1e-9, {"k": "v"})]
    r1 = make_report("verify", {"n": 2}, fx)
    r2 = make_report("verify", {"n": 2}, fx)
    t1 = write_report(r1, None)
    t2 = write_report(r2, str(tmp_path / "r.json"))
    strip = lambda s: re.sub(r'"timestamp": "[^"]*"', '"timestamp": "T"', s)
    assert strip(t1) == strip(t2)
    on_disk = (tmp_path / "r.json").read_text()
    assert strip(on_disk.strip()) == strip(t2)


def _reference_row(name, lhs, rhs, tol) -> dict:
    """The per-row fixture formula that fixture_rows vectorizes."""
    res = abs(float(lhs) - float(rhs))
    return {"fixture": name, "lhs": "%.17g" % float(lhs), "rhs": "%.17g" % float(rhs),
            "residual": "%.17g" % res, "tolerance": "%.17g" % float(tol),
            "pass": bool(res <= tol)}


SPECIAL = [0.0, -0.0, 1.0, 1.0 + 1e-12, -2.5, 1 / 3, 5e-324, 1e308, -1e308,
           math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("tol", [0.0, 1e-9, 1.0, math.inf])
def test_fixture_rows_equal_fixture_result_row_by_row(tol):
    lhs = np.array([a for a in SPECIAL for _ in SPECIAL])
    rhs = np.array([b for _ in SPECIAL for b in SPECIAL])
    names = ["row %d" % k for k in range(len(lhs))]
    rows = fixture_rows(names, lhs, rhs, tol)
    assert rows == [fixture_result(name, a, b, tol) for name, a, b in zip(names, lhs, rhs)]
    assert rows == [_reference_row(name, a, b, tol) for name, a, b in zip(names, lhs, rhs)]
    assert all(type(row["pass"]) is bool for row in rows)
    # a NaN side (23 pairs) and inf against inf (2) leave a NaN residual,
    # which fails even against an infinite tolerance
    assert [row["pass"] for row in rows if row["residual"] == "nan"] == [False] * 25


@pytest.mark.parametrize("lhs, rhs", [("stack", 0.0), (0.0, "stack"), (-0.0, 2.5),
                                      ("stack", "stack")])
def test_fixture_rows_broadcast_a_scalar_side(lhs, rhs):
    stack = np.array([0.0, 1e-10, -1e-8, math.nan, math.inf])
    lhs, rhs = (stack if side == "stack" else side for side in (lhs, rhs))
    names = ["seed=%d" % k for k in range(len(stack))]
    sides = list(zip(names, *np.broadcast_arrays(lhs, rhs, stack)[:2]))
    rows = fixture_rows(names, lhs, rhs, 1e-9)
    assert rows == [_reference_row(name, a, b, 1e-9) for name, a, b in sides]
    assert rows == [fixture_result(name, a, b, 1e-9) for name, a, b in sides]


def test_fixture_rows_reject_a_stack_of_another_length():
    with pytest.raises(ValueError):
        fixture_rows(["a", "b", "c"], np.zeros(2), 0.0, 1e-9)


def test_fixture_result_keeps_its_extra_keys():
    fx = fixture_result("x", 0.5, 0.25, 1.0, {"gaps": ["1"], "route": "ambient"})
    assert fx == dict(_reference_row("x", 0.5, 0.25, 1.0), gaps=["1"], route="ambient")


# strings with quotes, backslashes, control characters, non-ASCII and
# astral characters; floats with nan, +-inf and -0.0
_TEXT = st.text(st.sampled_from('a"\\/\n\t\r\x00\x1f\x7f\xe9€\U0001f600}{][,: ')
                | st.characters(), max_size=8)
_SCALAR = st.none() | st.booleans() | st.integers() | st.floats() | _TEXT
_JSON = st.recursive(_SCALAR, lambda kids: st.lists(kids, max_size=4)
                     | st.dictionaries(_TEXT, kids, max_size=4), max_leaves=8)
_ROW = st.dictionaries(_TEXT, _SCALAR, min_size=1, max_size=5)
_ROW_WITH_LIST = st.builds(lambda row, gaps: dict(row, gaps=gaps), _ROW,
                           st.lists(_TEXT | st.floats(), max_size=3))
# flat rows take the C encoder; a row with a list or any other JSON value
# sends the whole report through json.dumps
_REPORT = st.fixed_dictionaries(
    {"fixtures": st.lists(_ROW, min_size=1, max_size=4)
     | st.lists(_ROW_WITH_LIST | _JSON, max_size=3)},
    optional={"config": st.dictionaries(_TEXT, _JSON, max_size=3), "pass": st.booleans()})


@settings(max_examples=150)
@given(_REPORT | _JSON)
@example({"fixtures": [{"fixture": "bracket", "gaps": ["0.5", "1.25"], "pass": True}]})
@example({"fixtures": [{}], "pass": True})
@example({"fixtures": [{"a": -0.0, "b": math.nan, "c": math.inf, "d": -math.inf,
                        "e": None, "f": 3, "g": False, "h": "\x00\"\\\n€"}],
          "config": {"fixtures": []}})
def test_writer_equals_indented_json_dumps(obj):
    assert write_report(obj, None) == json.dumps(obj, indent=2, sort_keys=True)


@pytest.mark.parametrize("mutate", [[], ["--mutate", "0.01"]])
@pytest.mark.parametrize("n", ["2", "3"])
@pytest.mark.parametrize("suite", SUITES)
def test_writer_equals_indented_json_dumps_on_every_suite_report(suite, n, mutate, capsys):
    code = main(["verify", "--suite", suite, "--n", n] + mutate)
    assert code == (1 if mutate else 0)
    text = capsys.readouterr().out.rstrip("\n")
    report = json.loads(text)
    assert _flat_rows(report["fixtures"])   # the rows took the C encoder
    assert text == json.dumps(report, indent=2, sort_keys=True)


# --- exit codes -----------------------------------------------------------

def test_cli_bracket_gl_pass(tmp_path, capsys):
    code = main(["bracket", "--surface", _surface(tmp_path),
                 "--diagram", _diagram(
                     tmp_path,
                     oa={"kind": "entry", "i": 1, "j": 2},
                     ob={"kind": "entry", "i": 1, "j": 1}),
                 "--group", "gl", "--n", "2", "--seed", "1"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["pass"] is True
    assert out["fixtures"][0]["route"] == "ambient"
    assert "normal_form" in out["fixtures"][0]


def test_cli_bracket_wrong_normal_form_fails(tmp_path, capsys, monkeypatch):
    # the numeric routes agree, but a normal form off by 1 must fail the report
    right = surface_qp.cli.bracket_symbolic

    def wrong(*args):
        nf = right(*args)
        return nf + NormalForm(nf.poly.ring.one)

    monkeypatch.setattr(surface_qp.cli, "bracket_symbolic", wrong)
    code = main(["bracket", "--surface", _surface(tmp_path),
                 "--diagram", _diagram(
                     tmp_path,
                     oa={"kind": "entry", "i": 1, "j": 2},
                     ob={"kind": "entry", "i": 1, "j": 1}),
                 "--group", "gl", "--n", "2", "--seed", "1"])
    out = json.loads(capsys.readouterr().out)
    fx = out["fixtures"][0]
    assert code == 1
    assert out["pass"] is False and fx["pass"] is False
    assert float(fx["residual"]) <= float(fx["tolerance"])
    assert float(fx["symbolic_value"]) == pytest.approx(float(fx["rhs"]) + 1)


def test_cli_bracket_gl_trace_entry_has_no_normal_form(tmp_path, capsys):
    # the seeded GL point is exact, but the symbolic route needs entry
    # observables on both sides
    code = main(["bracket", "--surface", _surface(tmp_path),
                 "--diagram", _diagram(tmp_path, ob={"kind": "entry", "i": 1, "j": 2}),
                 "--group", "gl", "--n", "2", "--seed", "1"])
    fx = json.loads(capsys.readouterr().out)["fixtures"][0]
    assert code == 0
    assert fx["route"] == "ambient"
    assert "normal_form" not in fx and "symbolic_value" not in fx


def test_cli_bracket_unitary_pass(tmp_path, capsys):
    code = main(["bracket", "--surface", _surface(tmp_path),
                 "--diagram", _diagram(tmp_path),
                 "--group", "u", "--n", "2", "--seed", "2"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["fixtures"][0]["route"] == "cross-section"
    assert len(out["fixtures"][0]["gaps"]) == 1


def test_cli_bracket_unitary_takes_one_gradient_pass_per_function(
        tmp_path, capsys, monkeypatch):
    # the ambient pairing and the P-perp correction share df and dg
    from surface_qp.quasipoisson import WordFunction
    calls = []
    gradients = WordFunction.gradients

    def counted(self, h, m):
        calls.append(self.word)
        return gradients(self, h, m)
    monkeypatch.setattr(WordFunction, "gradients", counted)
    code = main(["bracket", "--surface", _surface(tmp_path, 1, 2),
                 "--diagram", _diagram(tmp_path, "A2 B2 A2'", "C1 D1"),
                 "--group", "u", "--n", "2", "--seed", "1"])
    assert json.loads(capsys.readouterr().out)["fixtures"][0]["route"] == "cross-section"
    assert code == 0
    assert len(calls) == 2


def test_cli_moment_takes_one_gradient_pass_per_function(capsys, monkeypatch):
    # verify_moment reads df and chi once for every boundary component: one
    # pass per surface and function, 3 surfaces x 2 functions
    from surface_qp.quasipoisson import WordFunction
    calls = []
    gradients = WordFunction.gradients

    def counted(self, h, m):
        calls.append(self.word)
        return gradients(self, h, m)
    monkeypatch.setattr(WordFunction, "gradients", counted)
    assert main(["verify", "--suite", "moment", "--n", "2"]) == 0
    capsys.readouterr()
    assert len(calls) == 6


def test_cli_verify_pass_and_mutation_fails(tmp_path, capsys):
    assert main(["verify", "--suite", "qp-identity"]) == 0
    capsys.readouterr()
    assert main(["verify", "--suite", "qp-identity", "--mutate", "0.01"]) == 1


# the rows of each suite; the benchmark's checks_per_cpu_s on its suites
# workload counts them, so a change here changes what that metric means
FIXTURE_COUNTS = {"qp-identity": 12, "moment": 100, "main-theorem": 480, "splitting": 20,
                  "goldman": 23, "cross-section": 22}


@pytest.mark.parametrize("n", [2, 3])
def test_suite_fixture_counts_are_pinned(n):
    assert {suite: len(run_suite(suite, n)) for suite in SUITES} == FIXTURE_COUNTS


@pytest.mark.parametrize("suite", SUITES)
def test_cli_every_suite_fails_under_mutation(suite, capsys):
    assert main(["verify", "--suite", suite, "--mutate", "0.01"]) == 1


@pytest.mark.parametrize("suite", SUITES)
def test_cli_mutation_perturbs_an_ingredient(suite, capsys):
    # --mutate scales one coefficient of C, not a computed side: 1e-6 fails
    # every suite, and 1e-9 stays within the tolerances of the three suites
    # that compare a second route to the bivector's (1e-8, 1e-8 and 1e-7)
    assert main(["verify", "--suite", suite, "--mutate", "1e-6"]) == 1
    second_route = suite in ("main-theorem", "goldman", "cross-section")
    assert main(["verify", "--suite", suite, "--mutate", "1e-9"]) == (0 if second_route else 1)


@pytest.mark.parametrize("mutate", ["0.5", "5"])
def test_cli_splitting_fails_under_large_mutation(mutate, capsys):
    assert main(["verify", "--suite", "splitting", "--mutate", mutate]) == 1


@pytest.mark.parametrize("n", ["2", "3"])
@pytest.mark.parametrize("mutate", ["1e160", "1e200", "1e307"])
def test_cli_qp_identity_overflowing_mutation_fails_quietly(n, mutate, capsys):
    # the Jacobiator of a huge C overflows: its rows fail with a nan residual,
    # and no floating-point warning reaches stderr (warnings are errors here)
    assert main(["verify", "--suite", "qp-identity", "--n", n, "--mutate", mutate]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert '"residual": "nan"' in captured.out


def test_cli_malformed_input_exits_2(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{")
    code = main(["bracket", "--surface", str(p),
                 "--diagram", _diagram(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("input error: cannot read %s: " % p)


@pytest.mark.parametrize("surface,request_doc,reason", [
    ({"boundary_count": 1}, None, "bad surface file {surface}: missing key 'genus'"),
    (None, {"alpha": {"word": "C1"}, "beta": {}},
     "bad diagram request {diagram}: missing key 'word'"),
    (None, {"alpha": {"word": "C1", "observable": {"kind": "entry", "i": 1}},
            "beta": {"word": "D1"}},
     "bad diagram request {diagram}: alpha observable: missing key 'j'"),
], ids=["surface", "word", "observable"])
def test_cli_missing_key_is_named_and_exits_2(tmp_path, capsys, surface, request_doc, reason):
    # a missing key reads as one, not as its bare repr
    paths = {"surface": _write(tmp_path, "s.json", surface) if surface else _surface(tmp_path),
             "diagram": _write(tmp_path, "d.json", request_doc) if request_doc
             else _diagram(tmp_path)}
    code = main(["bracket", "--surface", paths["surface"], "--diagram", paths["diagram"]])
    assert code == 2
    assert capsys.readouterr().err == "input error: %s\n" % reason.format(**paths)


def test_cli_unknown_word_exits_2(tmp_path, capsys):
    code = main(["bracket", "--surface", _surface(tmp_path),
                 "--diagram", _diagram(tmp_path, wa="Q7")])
    assert code == 2


@pytest.mark.parametrize("word", [5, None, ["C1"]], ids=["int", "null", "list"])
def test_cli_non_string_word_exits_2(tmp_path, capsys, word):
    code = main(["bracket", "--surface", _surface(tmp_path),
                 "--diagram", _diagram(tmp_path, wa=word)])
    assert code == 2
    assert "alpha word must be a string, got %r" % (word,) in capsys.readouterr().err


def test_cli_word_not_a_path_as_written_exits_2(tmp_path, capsys):
    # A2' A2 cancels, but A3 does not start where A2 ends
    code = main(["bracket", "--surface", _surface(tmp_path, 0, 3),
                 "--diagram", _diagram(tmp_path, wa="A2' A2 A3", wb="A2")])
    assert code == 2
    assert "word not composable at 'A3'" in capsys.readouterr().err


@pytest.mark.parametrize("word", ["A5", "C3 D3"])
def test_cli_generator_off_surface_exits_2(tmp_path, capsys, word):
    code = main(["bracket", "--surface", _surface(tmp_path, 0, 2),
                 "--diagram", _diagram(tmp_path, wa=word, wb="A2")])
    assert code == 2
    assert "is not on the surface of genus 0 with 2 boundary components" in \
        capsys.readouterr().err


def test_cli_non_finite_point_exits_2(tmp_path, capsys):
    point = _write(tmp_path, "p.json", {"C1": [[["nan", 0], [0, 0]], [[0, 0], [1, 0]]],
                                        "D1": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]})
    code = main(["bracket", "--surface", _surface(tmp_path),
                 "--diagram", _diagram(tmp_path),
                 "--point", point, "--group", "u", "--n", "2"])
    assert code == 2
    assert "matrix has non-finite entries" in capsys.readouterr().err


def test_cli_singular_generator_is_named_and_exits_2(tmp_path, capsys):
    point = _write(tmp_path, "p.json", {"A2": [["1", "0"], ["0", "1"]],
                                        "B2": [["1", "2"], ["2", "4"]]})
    code = main(["bracket", "--surface", _surface(tmp_path, 0, 2),
                 "--diagram", _diagram(tmp_path, wa="A2", wb="B2"), "--point", point])
    assert code == 2
    assert "B2: matrix not invertible within tolerance" in capsys.readouterr().err


@pytest.mark.parametrize("side", ["alpha", "beta"])
@pytest.mark.parametrize("ob", [True, {"kind": "entry", "i": 1}], ids=["bool", "no-j"])
def test_cli_malformed_observable_names_file_and_side(tmp_path, capsys, side, ob):
    diagram = _diagram(tmp_path, **{"oa" if side == "alpha" else "ob": ob})
    code = main(["bracket", "--surface", _surface(tmp_path), "--diagram", diagram])
    err = capsys.readouterr().err
    assert code == 2 and err.count("\n") == 1
    assert err.startswith("input error: bad diagram request %s: %s observable: "
                          % (diagram, side))
    if ob is not True:
        assert err.endswith("observable: missing key 'j'\n")


def test_cli_gl_imaginary_part_exits_2(tmp_path, capsys):
    # GL coordinates are real, so an 'im' observable would bracket to 0
    code = main(["bracket", "--surface", _surface(tmp_path),
                 "--diagram", _diagram(
                     tmp_path, oa={"kind": "entry", "i": 1, "j": 2, "part": "im"}),
                 "--group", "gl", "--n", "2"])
    assert code == 2
    assert "part 'im' is identically zero on real GL matrices" in \
        capsys.readouterr().err


@pytest.mark.parametrize("i", [0, -1, 3])
def test_cli_entry_index_out_of_range_exits_2(tmp_path, capsys, i):
    # indices are 1-based; 0 must not wrap around to the last row
    code = main(["bracket", "--surface", _surface(tmp_path),
                 "--diagram", _diagram(tmp_path, oa={"kind": "entry", "i": i, "j": 1}),
                 "--group", "gl", "--n", "2"])
    assert code == 2
    assert "entry index outside the 2 x 2 matrix" in capsys.readouterr().err


@pytest.mark.parametrize("entry", [1e400, "1e400", "1/0"],
                         ids=["json-inf", "string-overflow", "zero-denominator"])
def test_cli_unparsable_gl_entry_exits_2(tmp_path, capsys, entry):
    # JSON reads 1e400 as inf; neither it nor 1/0 is a rational entry
    point = _write(tmp_path, "p.json", {"C1": [[entry, "0"], ["0", "1"]],
                                        "D1": [["1", "0"], ["0", "1"]]})
    code = main(["bracket", "--surface", _surface(tmp_path),
                 "--diagram", _diagram(tmp_path), "--point", point])
    assert code == 2
    assert "bad point file" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [[], "x", 3], ids=["list", "string", "number"])
def test_cli_point_file_not_an_object_exits_2(tmp_path, capsys, doc):
    # a point file maps generator names to matrices; any other top level is input
    code = main(["bracket", "--surface", _surface(tmp_path),
                 "--diagram", _diagram(tmp_path), "--point", _write(tmp_path, "p.json", doc)])
    assert code == 2
    assert "bad point file" in capsys.readouterr().err


@pytest.mark.parametrize("doc,reason", [
    ({"C1": [["1", "0"], ["0", "1"]]}, "missing D1"),
    ({"C1": [["1", "0"], ["0", "1"]], "D1": [["1", "0"], ["0", "1"]],
      "E7": [["1", "0"], ["0", "1"]]}, "unknown E7"),
    ({"C1": [["1", "0"], ["0", "1"]], "E7": [["1", "0"], ["0", "1"]]}, "missing D1; unknown E7"),
], ids=["missing", "unknown", "both"])
def test_cli_point_generators_are_named_and_exit_2(tmp_path, capsys, doc, reason):
    point = _write(tmp_path, "p.json", doc)
    code = main(["bracket", "--surface", _surface(tmp_path),
                 "--diagram", _diagram(tmp_path), "--point", point])
    assert code == 2
    assert capsys.readouterr().err == ("input error: bad point file %s: coordinates must "
                                       "cover exactly the generators: %s\n" % (point, reason))


@pytest.mark.parametrize("c1", [{"21": 0, "13": 0}, ["21", "13"], [{"2": 0, "1": 0}, ["1", "3"]]],
                         ids=["object-matrix", "string-rows", "object-row"])
@pytest.mark.parametrize("group", ["gl", "u"])
def test_cli_point_matrix_not_an_array_of_row_arrays_exits_2(tmp_path, capsys, group, c1):
    # iterated as it comes, each of these reads as C1 = [[2, 1], [1, 3]]
    one, zero = ("1", "0") if group == "gl" else ([1, 0], [0, 0])
    point = _write(tmp_path, "p.json", {"C1": c1, "D1": [[one, zero], [zero, one]]})
    code = main(["bracket", "--surface", _surface(tmp_path),
                 "--diagram", _diagram(tmp_path), "--point", point,
                 "--group", group, "--n", "2"])
    assert code == 2
    assert "C1: a matrix must be an array of row arrays" in capsys.readouterr().err


@pytest.mark.parametrize("entry", [0.3333333333, 1e-12])
def test_cli_lossy_gl_json_number_exits_2(tmp_path, capsys, entry):
    # the nearest small-denominator rationals, 1/3 and 0, are other numbers
    point = _write(tmp_path, "p.json", {"C1": [["1", "0"], ["0", "1"]],
                                        "D1": [["1", entry], ["0", "1"]]})
    code = main(["bracket", "--surface", _surface(tmp_path),
                 "--diagram", _diagram(tmp_path), "--point", point])
    assert code == 2
    assert "D1: the JSON number %r is no exact rational; give it as a rational string" \
        % entry in capsys.readouterr().err


def test_load_point_reads_exact_json_numbers(tmp_path):
    doc = {"C1": [[0.1, 0.5], [3, -2]], "D1": [[1, 0], [0, 1.0]]}
    m = load_point(_write(tmp_path, "p.json", doc), GL2, SurfaceSpec(1, 1))
    d, nums = m.exact
    assert d == 10 and nums == {"C1": [[1, 5], [30, -20]], "D1": [[10, 0], [0, 10]]}
    assert m.mat("C1").tolist() == [[0.1, 0.5], [3.0, -2.0]]


@pytest.mark.parametrize("group,entry", [("gl", True), ("u", [True, 0])],
                         ids=["gl", "u"])
def test_cli_bool_point_entry_exits_2(tmp_path, capsys, group, entry):
    # true is an int to Python, and float(True) is 1.0: neither is an entry
    one, zero = ("1", "0") if group == "gl" else ([1, 0], [0, 0])
    point = _write(tmp_path, "p.json", {"C1": [[entry, zero], [zero, one]],
                                        "D1": [[one, zero], [zero, one]]})
    code = main(["bracket", "--surface", _surface(tmp_path),
                 "--diagram", _diagram(tmp_path), "--point", point,
                 "--group", group, "--n", "2"])
    assert code == 2
    assert "a boolean is no matrix entry: %r" % (entry,) in capsys.readouterr().err


@pytest.mark.parametrize("field,value", [("genus", 1.7), ("genus", True),
                                         ("boundary_count", 1.0),
                                         ("boundary_count", True)])
def test_cli_non_integer_surface_counts_exit_2(tmp_path, capsys, field, value):
    doc = {"genus": 1, "boundary_count": 1}
    doc[field] = value
    code = main(["bracket", "--surface", _write(tmp_path, "surface.json", doc),
                 "--diagram", _diagram(tmp_path)])
    assert code == 2
    assert "expected an integer, got %r" % value in capsys.readouterr().err


@pytest.mark.parametrize("index,value", [("i", 1.9), ("j", 2.0), ("i", True),
                                         ("j", False)])
def test_cli_non_integer_entry_index_exits_2(tmp_path, capsys, index, value):
    obs = {"kind": "entry", "i": 1, "j": 2}
    obs[index] = value
    code = main(["bracket", "--surface", _surface(tmp_path),
                 "--diagram", _diagram(tmp_path, oa=obs), "--n", "2"])
    assert code == 2
    assert "expected an integer, got %r" % value in capsys.readouterr().err


@pytest.mark.parametrize("variants", [["a", 0], [1.5, 0], [-1, 0], [True, 0]],
                         ids=["string", "float", "negative", "bool"])
def test_cli_bad_variants_exit_2(tmp_path, capsys, variants):
    diagram = _write(tmp_path, "diagram.json", {
        "alpha": {"word": "C1 D1"}, "beta": {"word": "D1"}, "variants": variants})
    code = main(["bracket", "--surface", _surface(tmp_path), "--diagram", diagram])
    assert code == 2
    assert "variants must be a pair of non-negative integers" in \
        capsys.readouterr().err


def test_cli_disk_surface_exits_2_before_drawing_a_point(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a point drawn on the disk")
    monkeypatch.setattr(surface_qp.cli, "random_point", refuse)
    surface = _surface(tmp_path, 0, 1)
    code = main(["bracket", "--surface", surface, "--diagram", _diagram(tmp_path)])
    assert code == 2
    cap = capsys.readouterr()
    assert cap.err == "input error: bad surface file %s: the disk has no generator paths\n" % surface
    assert cap.out == ""


def test_cli_huge_surface_exits_2_at_load(tmp_path, capsys):
    # a genus of 10^12 drew a point of 2 * 10^12 generators, with no bound
    # on time or memory; the polygon grid bounds the sides at load
    surface = _write(tmp_path, "surface.json", {"genus": 10 ** 12, "boundary_count": 1})
    code = main(["bracket", "--surface", surface, "--diagram", _diagram(tmp_path)])
    cap = capsys.readouterr()
    assert code == 2 and cap.out == ""
    assert cap.err == ("input error: bad surface file %s: a polygon of %d sides is beyond "
                       "the model's grid (at most 4025)\n" % (surface, 4 * 10 ** 12 + 1))


def test_cli_input_too_large_to_allocate_exits_2(tmp_path, capsys, monkeypatch):
    # stands in for numpy's allocation error on a huge --n; nothing is allocated
    def too_large(*args):
        raise MemoryError("Unable to allocate 74.5 GiB for an array")
    monkeypatch.setattr(surface_qp.cli, "random_point", too_large)
    code = main(["bracket", "--surface", _surface(tmp_path), "--diagram",
                 _diagram(tmp_path), "--n", "100000"])
    assert code == 2
    cap = capsys.readouterr()
    assert cap.err == "input error: out of memory: Unable to allocate 74.5 GiB for an array\n"
    assert cap.out == ""


def test_cli_bracket_on_a_long_word_agrees_with_the_normal_form(tmp_path, capsys):
    # C1^40 | D1 C1 D1' at seed 0: the bivector route was 3.3e-8 off the
    # combinatorial one (the inverse suffix chain of its gradients), and the
    # bracket failed although its exact normal form agreed with the formula
    code = main(["bracket", "--surface", _surface(tmp_path),
                 "--diagram", _diagram(tmp_path, " ".join(["C1"] * 40), "D1 C1 D1'",
                                       {"kind": "entry", "i": 1, "j": 1},
                                       {"kind": "entry", "i": 1, "j": 2})])
    fx = json.loads(capsys.readouterr().out)["fixtures"][0]
    assert code == 0
    assert abs(float(fx["rhs"]) - float(fx["symbolic_value"])) <= 1e-13 * 127


def test_cli_bracket_at_a_huge_exact_entry_agrees(tmp_path, capsys):
    # an exact, invertible point with entry 1e200: the gradients form no
    # product of a huge holonomy with its inverse, so neither side overflows
    # (and no floating-point warning is raised; warnings are errors here)
    point = _write(tmp_path, "p.json", {"C1": [["1e200", 0], [0, 1]], "D1": [[1, 1], [0, 1]]})
    code = main(["bracket", "--surface", _surface(tmp_path),
                 "--diagram", _diagram(tmp_path), "--point", point])
    cap = capsys.readouterr()
    fx = json.loads(cap.out)["fixtures"][0]
    assert code == 0 and cap.err == ""
    assert fx["lhs"] == fx["rhs"] and float(fx["lhs"]) == pytest.approx(1e200)


@pytest.mark.parametrize("gb,point,wa,wb,ob,message", [
    # every holonomy is finite (A2, B2 and A2 B2), but the end-end term is
    # tr(Hol(A2) E_12 Hol(B2)) = Hol(A2)_11 Hol(B2)_21 = 1e400
    ((0, 2), {"A2": [["1e200", 0], [0, 1]], "B2": [[1, 0], ["1e200", 1]]}, "A2", "B2",
     {"kind": "entry", "i": 2, "j": 1}, "the ambient combinatorial route gave inf"),
    # the endpoint word beta alpha of the term (1, D1 C1 D1)
    ((1, 1), {"C1": [[1, 0], [0, 1]], "D1": [["1e200", 0], [0, 1]]}, "C1 D1", "D1", None,
     "the holonomy of D1 C1 D1 overflowed"),
    ((1, 1), {"C1": [["1e200", 0], [0, 1]], "D1": [[1, 1], [0, 1]]}, "C1 C1", "D1", None,
     "the holonomy of C1 C1 overflowed"),
], ids=["non-finite side", "overflowed endpoint word", "overflowed holonomy"])
def test_cli_bracket_overflow_exits_3(tmp_path, capsys, gb, point, wa, wb, ob, message):
    code = main(["bracket", "--surface", _surface(tmp_path, *gb),
                 "--diagram", _diagram(tmp_path, wa, wb, None, ob),
                 "--point", _write(tmp_path, "p.json", point)])
    cap = capsys.readouterr()
    assert code == 3
    assert cap.err == "numeric domain error: %s\n" % message
    assert cap.out == ""


def test_cli_bracket_with_an_unread_huge_entry_is_finite(tmp_path, capsys):
    # Re tr(C1) and the entry (1, 2) of D1 read no huge entry, but the term
    # (D1, C1) of the element would form Hol(D1) E_21 Hol(C1), whose entry
    # (2, 1) is 1e400 and is never read; the trace pairs Hol(D1) with
    # E_21 Hol(C1) instead, so both sides are 0 and nothing overflows
    point = {"C1": [["1e200", 0], [0, 1]], "D1": [[1, 0], [0, "1e200"]]}
    code = main(["bracket", "--surface", _surface(tmp_path),
                 "--diagram", _diagram(tmp_path, "C1", "D1", None,
                                       {"kind": "entry", "i": 1, "j": 2}),
                 "--point", _write(tmp_path, "p.json", point)])
    cap = capsys.readouterr()
    fx = json.loads(cap.out)["fixtures"][0]
    assert code == 0 and cap.err == ""
    assert fx["lhs"] == fx["rhs"] == "0"


def test_cli_bracket_on_a_numerically_singular_holonomy_is_finite(tmp_path, capsys):
    # C1^300 at seed 0 is finite but numerically of rank one.  The crossing
    # term inverts no holonomy, so both sides are finite and agree to 1e-14
    # relative; at 2.7e27 that is beyond the absolute 1e-8, so the check
    # fails (exit 1) with nothing on stderr
    code = main(["bracket", "--surface", _surface(tmp_path),
                 "--diagram", _diagram(tmp_path, " ".join(["C1"] * 300))])
    cap = capsys.readouterr()
    fx = json.loads(cap.out)["fixtures"][0]
    lhs, rhs = float(fx["lhs"]), float(fx["rhs"])
    assert code == 1 and cap.err == ""
    assert 1e27 < abs(lhs) < math.inf
    assert abs(lhs - rhs) <= 1e-14 * abs(lhs)


@pytest.mark.parametrize("group", ["gl", "u"])
@pytest.mark.parametrize("kind", ["trace", "entry"])
@pytest.mark.parametrize("beta", ["D1", "D1'"])
def test_cli_bracket_at_n_1(tmp_path, capsys, group, kind, beta):
    # GL(1) and U(1) are abelian, and bracket works there; only verify needs
    # n >= 2, because its fixtures read off-diagonal entries.  An inverse
    # letter reads the 1 x 1 adjugate, which the normal form once took for
    # the int 1
    obs = {"kind": kind, "i": 1, "j": 1} if kind == "entry" else None
    code = main(["bracket", "--surface", _surface(tmp_path),
                 "--diagram", _diagram(tmp_path, "C1 D1", beta, obs, obs),
                 "--group", group, "--n", "1"])
    cap = capsys.readouterr()
    fx = json.loads(cap.out)["fixtures"][0]
    assert code == 0 and cap.err == ""
    assert fx["lhs"] == fx["rhs"] and float(fx["lhs"]) != 0
    assert ("normal_form" in fx) is (group == "gl" and kind == "entry")


def test_cli_bracket_at_n_1_has_the_abelian_normal_form(tmp_path, capsys):
    # C1 D1 meets D1 once: the bracket of their entries is C1 D1^2
    entry = {"kind": "entry", "i": 1, "j": 1}
    point = _write(tmp_path, "p.json", {"C1": [["2"]], "D1": [["1/3"]]})
    code = main(["bracket", "--surface", _surface(tmp_path),
                 "--diagram", _diagram(tmp_path, "C1 D1", "D1", entry, entry),
                 "--point", point, "--n", "1"])
    fx = json.loads(capsys.readouterr().out)["fixtures"][0]
    assert code == 0
    assert fx["normal_form"] == "C1_11*D1_11**2"
    assert float(fx["lhs"]) == float(fx["rhs"]) == float(fx["symbolic_value"]) == 2 / 9


def test_cli_degenerate_moment_exits_3(tmp_path, capsys):
    # identity coordinates give a degenerate boundary spectrum, which the
    # cross-section projection must reject
    eye = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
    point = _write(tmp_path, "p.json", {"C1": eye, "D1": eye})
    code = main(["bracket", "--surface", _surface(tmp_path),
                 "--diagram", _diagram(tmp_path),
                 "--point", point, "--group", "u", "--n", "2"])
    assert code == 3


def test_cli_report_written_to_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["verify", "--suite", "qp-identity", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["pass"] is True
    assert doc["command"] == "verify"


def test_cli_out_in_a_missing_directory_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "r.json"
    assert main(["verify", "--suite", "splitting", "--out", str(out)]) == 2
    cap = capsys.readouterr()
    assert "input error: cannot write %s: " % out in cap.err
    assert "Traceback" not in cap.err and cap.out == ""


def test_cli_out_that_is_a_directory_exits_2(tmp_path, capsys):
    code = main(["bracket", "--surface", _surface(tmp_path), "--diagram",
                 _diagram(tmp_path), "--out", str(tmp_path)])
    assert code == 2
    cap = capsys.readouterr()
    assert "input error: cannot write %s: " % tmp_path in cap.err
    assert "Traceback" not in cap.err and cap.out == ""


def _run(argv, capsys) -> tuple:
    """(exit code, stdout without the timestamp, stderr) of one main call."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, re.sub(r'"timestamp": "[^"]*"', '"timestamp": "T"', out), err


def test_parser_reuse_leaks_no_state(tmp_path, capsys, monkeypatch):
    surface = _surface(tmp_path)
    diagram = _diagram(tmp_path, ob={"kind": "entry", "i": 1, "j": 2})
    calls = [["bracket", "--surface", surface, "--diagram", diagram, "--seed", "3"],
             ["bracket", "--surface", surface, "--diagram", diagram, "--group", "u",
              "--seed", "2", "--tol", "1e-7", "--n", "2"],
             ["verify", "--suite", "splitting"],
             ["verify", "--suite", "splitting", "--mutate"],       # argparse error
             ["verify", "--suite", "splitting", "--tol", "-1"],
             ["verify", "--suite", "splitting", "--mutate", "0.01"],
             ["verify", "--suite", "splitting"]]
    shared = [_run(argv, capsys) for argv in calls]
    assert [code for code, _, _ in shared] == [0, 0, 0, 2, 2, 1, 0]
    assert shared[6] == shared[2]
    configs = [json.loads(out)["config"] if out else None for _, out, _ in shared]
    assert configs[2] == {"mutate": 0.0, "n": 2, "suite": "splitting"}
    assert configs[1]["tol"] == 1e-7 and "tol" not in configs[0]
    fresh = []
    for argv in calls:
        monkeypatch.setattr(surface_qp.cli, "_PARSER", surface_qp.cli._parser())
        fresh.append(_run(argv, capsys))
    assert fresh == shared


def test_help_is_that_of_a_fresh_parser(capsys, monkeypatch):
    helps = []
    for parser in (surface_qp.cli._PARSER, surface_qp.cli._parser()):
        monkeypatch.setattr(surface_qp.cli, "_PARSER", parser)
        helps.append([_run(argv, capsys) for argv in (["--help"], ["bracket", "--help"],
                                                      ["verify", "--help"])])
    assert helps[0] == helps[1]
    assert [code for code, _, _ in helps[0]] == [0, 0, 0]
    assert all(out.startswith("usage: surface-qp") for _, out, _ in helps[0])


@pytest.mark.parametrize("oa, symbolic", [(None, False),
                                          ({"kind": "entry", "i": 2, "j": 1}, True)])
def test_cli_gl_bracket_draws_its_point_without_fractions(
        tmp_path, capsys, monkeypatch, oa, symbolic):
    made, points, new, draw = [], [], Fraction.__new__, surface_qp.cli.random_point

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    def random_point(*args):   # the Fractions built while the point is drawn
        with monkeypatch.context() as patch:
            patch.setattr(Fraction, "__new__", counted)
            points.append(draw(*args))
        return points[-1]
    monkeypatch.setattr(surface_qp.cli, "random_point", random_point)
    code = main(["bracket", "--surface", _surface(tmp_path, 1, 2), "--diagram",
                 _diagram(tmp_path, "A2 B2 A2'", "C1 D1", oa=oa,
                          ob={"kind": "entry", "i": 1, "j": 2}),
                 "--group", "gl", "--n", "3", "--seed", "4"])
    fx = json.loads(capsys.readouterr().out)["fixtures"][0]
    assert code == 0
    assert ("normal_form" in fx) is symbolic
    # the exact copy of all four generators is ints, built with no Fraction
    d, nums = points[0].exact
    assert len(points) == 1 and made == [] and d == repspace._GL_DEN
    assert [len(rows) for rows in nums.values()] == [3] * 4
    assert all(type(x) is int for rows in nums.values() for row in rows for x in row)


@pytest.mark.parametrize("tol, shown", [(None, "1.0000000000000001e-09"), ("0", "0")])
def test_cli_verify_tol_reaches_the_fixtures(tol, shown, capsys):
    # the suite default applies only without --tol; --tol 0 asks for exact
    # agreement, which the two sides of an equivariance row, bracketed at
    # different points, do not all reach
    code = main(["verify", "--suite", "splitting"] + (["--tol", tol] if tol else []))
    doc = json.loads(capsys.readouterr().out)
    assert {f["tolerance"] for f in doc["fixtures"]} == {shown}
    assert doc["config"].get("tol") == (None if tol is None else 0.0)
    assert (code, doc["pass"]) == ((0, True) if tol is None else (1, False))


@pytest.mark.parametrize("tol", ["-1", "-1e-12", "nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["bracket", "verify"])
def test_cli_bad_tol_exits_2(tmp_path, capsys, command, tol):
    argv = (["bracket", "--surface", _surface(tmp_path), "--diagram", _diagram(tmp_path)]
            if command == "bracket" else ["verify", "--suite", "splitting"])
    assert main(argv + ["--tol=" + tol]) == 2
    err = capsys.readouterr().err
    assert "input error: --tol must be finite and non-negative" in err


@pytest.mark.parametrize("mutate", ["nan", "inf", "-inf"])
def test_cli_bad_mutate_exits_2(mutate, capsys):
    assert main(["verify", "--suite", "qp-identity", "--mutate=" + mutate]) == 2
    assert "input error: --mutate must be finite, got %s" % mutate in \
        capsys.readouterr().err


@pytest.mark.parametrize("with_point", [False, True], ids=["drawn-point", "point-file"])
def test_cli_negative_seed_exits_2(tmp_path, capsys, with_point):
    # numpy seeds only non-negative ints: without --point the seed used to
    # fail inside numpy's generator, and with one it seeded the realization
    argv = ["bracket", "--surface", _surface(tmp_path, 1, 2), "--diagram", _diagram(tmp_path),
            "--seed", "-1"]
    if with_point:
        argv += ["--point", _write(tmp_path, "p.json", {
            "A2": [[2, 1], [1, 1]], "B2": [[1, 1], [0, 1]],
            "C1": [[1, 0], [1, 1]], "D1": [[3, 1], [2, 1]]})]
    assert main(argv) == 2
    assert "input error: --seed must be non-negative, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--suite", "main-theorem", "--n", "1"], "--n must be at least 2, got 1"),
    (["--suite", "qp-identity", "--n", "1"], "--n must be at least 2, got 1"),
    (["--suite", "cross-section", "--n", "0"], "--n must be at least 2, got 0"),
])
def test_cli_verify_bad_options_exit_2(argv, message, capsys):
    assert main(["verify"] + argv) == 2
    assert "input error: " + message in capsys.readouterr().err


def test_cli_verify_has_no_seed(capsys):
    # no suite draws from a seed; bracket keeps --seed for its point
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "moment", "--seed", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


@pytest.mark.parametrize("suite", SUITES)
def test_cli_verify_has_no_group(suite, capsys):
    # no suite reads a group: the GL suites run GL(n), cross-section U(2)
    # and U(3); bracket keeps --group for its point
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", suite, "--group", "u"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --group u" in capsys.readouterr().err


def test_cli_runs_without_scipy_or_sympy(tmp_path):
    # the program needs numpy only; the tests keep scipy and sympy as their
    # independent references
    surface = _surface(tmp_path)
    diagram = _diagram(tmp_path)
    entries = _write(tmp_path, "entries.json", {
        "alpha": {"word": "C1 D1", "observable": {"kind": "entry", "i": 1, "j": 2}},
        "beta": {"word": "D1", "observable": {"kind": "entry", "i": 2, "j": 1}}})
    runs = [["bracket", "--surface", surface, "--diagram", diagram, "--group", "gl"],
            ["bracket", "--surface", surface, "--diagram", entries, "--group", "gl"],
            ["bracket", "--surface", surface, "--diagram", diagram, "--group", "u"],
            ["verify", "--suite", "cross-section"],
            ["verify", "--suite", "goldman"],
            ["verify", "--suite", "moment"]]
    outs = [str(tmp_path / ("report%d.json" % k)) for k in range(len(runs))]
    src = str(Path(surface_qp.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    script = ("import json, sys; sys.modules['scipy'] = None; "
              "sys.modules['sympy'] = None; "
              "from surface_qp.cli import main; "
              "print(json.dumps([main(a) for a in json.loads(sys.argv[1])]))")
    argvs = [argv + ["--out", out] for argv, out in zip(runs, outs)]
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0] * len(runs)
    for out in outs:
        assert json.loads(Path(out).read_text())["pass"] is True
    # the default seed's GL point is exact, so the entry bracket has a normal form
    assert "normal_form" in json.loads(Path(outs[1]).read_text())["fixtures"][0]


def test_cli_qp_identity_beyond_physical_memory_is_refused(tmp_path):
    # at n = 16 the entry chart's dense arrays are (5, 512, 512, 512) float64,
    # 5 GiB each; the check refuses before allocating any of them.  Run under
    # a 3 GiB address-space limit, so that a missing check ends in numpy's own
    # allocation failure instead of exhausting the machine
    src = str(Path(surface_qp.cli.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    script = ("import resource, sys; "
              "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30)); "
              "from surface_qp.cli import main; "
              "sys.exit(main(['verify', '--suite', 'qp-identity', '--n', '16']))")
    proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert re.search(r"the entry chart needs \d+\.\d GiB of dense arrays, more than "
                     r"the \d+\.\d GiB of physical memory", proc.stderr), proc.stderr
    assert proc.stdout == ""


# --- the exit-code contract of bracket, fuzzed at the input boundary -------

JUNK = st.one_of(st.none(), st.booleans(), st.integers(-2 ** 70, 2 ** 70), st.floats(),
                 st.text(max_size=3), st.lists(st.integers(-1, 2), max_size=3))
FUZZ_SURFACES = [(1, 1), (0, 2), (0, 3), (1, 2), (0, 1)]


@st.composite
def bracket_files(draw):
    """Surface, request and point documents for bracket and its --group and
    --n: schema-shaped, with at most one of them malformed (wrong types,
    bools, huge and tiny numbers, ragged rows, unknown generators), and
    words that may be long."""
    g, b = draw(st.sampled_from(FUZZ_SURFACES))
    group, n = draw(st.sampled_from(["gl", "u"])), draw(st.integers(1, 3))
    broken = draw(st.sampled_from([None, None, None, "surface", "request", "point"]))
    symbols = generator_symbols(g, b)

    surface = {"genus": g, "boundary_count": b}
    if broken == "surface":
        surface = draw(st.one_of(st.fixed_dictionaries({"genus": JUNK, "boundary_count": JUNK}),
                                 JUNK))

    def side():
        if not symbols:
            return {"word": "C1"}
        if draw(st.integers(0, 3)) == 0:   # long, and traced: no normal form to build
            return {"word": " ".join([draw(st.sampled_from(symbols))] * draw(st.integers(20, 40)))}
        out = {"word": str(draw(composable_word(g, b, 4)))}
        if draw(st.booleans()):
            out["observable"] = draw(st.one_of(st.just({"kind": "trace"}), st.fixed_dictionaries(
                {"kind": st.just("entry"), "i": st.integers(1, n), "j": st.integers(1, n)})))
        return out
    request = {"alpha": side(), "beta": side()}
    if broken == "request":
        field = draw(st.sampled_from(["word", "observable", "variants", "doc"]))
        if field == "variants":
            request["variants"] = draw(JUNK)
        elif field == "doc":
            request = draw(JUNK)
        else:
            request["alpha"][field] = draw(st.one_of(
                JUNK, st.text(alphabet="ABCD123' ^-", max_size=8),
                st.fixed_dictionaries({"kind": JUNK, "i": JUNK, "j": JUNK, "part": JUNK})))

    if not draw(st.booleans()) and broken != "point":
        return surface, request, None, group, n
    if group == "gl":
        entry = st.one_of(st.integers(-3, 3), st.integers(-3, 3),
                          st.sampled_from(["1/2", "-2/3", "1e200", "1e-300"]))
        matrix = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
    else:   # a diagonal of unit [re, im] entries, unitary
        entry = st.sampled_from([[1, 0], [0, 1], [-1, 0], [0.6, 0.8], [0.6, -0.8]])
        matrix = st.lists(entry, min_size=n, max_size=n).map(
            lambda d: [[d[i] if i == j else [0, 0] for j in range(n)] for i in range(n)])
    if broken == "point":
        entry = st.one_of(entry, JUNK)
        matrix = st.one_of(matrix, st.lists(st.lists(entry, min_size=n, max_size=n),
                                            min_size=n, max_size=n))
    point = draw(st.fixed_dictionaries({s: matrix for s in symbols}))
    if broken == "point":
        bad = draw(st.sampled_from(["entries", "ragged", "unknown", "missing", "doc"]))
        if bad == "ragged" and symbols:
            point[symbols[0]] = draw(st.lists(st.lists(entry, max_size=n + 1), max_size=n + 1))
        elif bad == "unknown":
            point["E1"] = draw(matrix)
        elif bad == "missing" and symbols:
            del point[symbols[-1]]
        elif bad == "doc":
            point = draw(JUNK)
    return surface, request, point, group, n


@settings(max_examples=60)
@given(bracket_files())
def test_cli_bracket_exit_code_contract(files):
    # exit 0, 1, 2 or 3; no traceback and no warning; exit 1 only with both
    # sides finite; exit 2 or 3 with exactly one line on stderr
    surface, request, point, group, n = files
    with tempfile.TemporaryDirectory() as tmp:
        def write(name, doc):
            path = os.path.join(tmp, name)
            with open(path, "w") as fh:
                json.dump(doc, fh)
            return path
        argv = ["bracket", "--surface", write("s.json", surface),
                "--diagram", write("d.json", request), "--group", group, "--n", str(n)]
        if point is not None:
            argv += ["--point", write("p.json", point)]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(argv)
    assert code in (0, 1, 2, 3)
    assert not caught, [str(w.message) for w in caught]
    err = err.getvalue()
    assert "Traceback" not in err
    if code in (2, 3):
        assert err.count("\n") == 1 and err.endswith("\n"), err
        return
    assert err == ""
    fx = json.loads(out.getvalue())["fixtures"][0]
    assert math.isfinite(float(fx["lhs"])) and math.isfinite(float(fx["rhs"]))
