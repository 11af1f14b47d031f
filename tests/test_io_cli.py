import json
import re

import numpy as np
import pytest

from surface_qp.cli import main
from surface_qp.io import (SchemaError, fixture_result, fmt_float,
                           load_bracket_request, load_point, load_surface,
                           make_report, write_report)
from surface_qp.lie import AlgebraContext
from surface_qp.suites import GL_SUITES, SUITES
from surface_qp.surfaces import SurfaceSpec

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
    with pytest.raises(SchemaError):
        load_surface(p)


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
    assert m.exact["C1"][1][0].denominator == 3


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


def test_cli_verify_pass_and_mutation_fails(tmp_path, capsys):
    assert main(["verify", "--suite", "qp-identity", "--group", "gl"]) == 0
    capsys.readouterr()
    assert main(["verify", "--suite", "qp-identity", "--mutate", "0.01"]) == 1


@pytest.mark.parametrize("suite", SUITES)
def test_cli_every_suite_fails_under_mutation(suite, capsys):
    assert main(["verify", "--suite", suite, "--mutate", "0.01"]) == 1


@pytest.mark.parametrize("mutate", ["0.5", "5"])
def test_cli_splitting_fails_under_large_mutation(mutate, capsys):
    assert main(["verify", "--suite", "splitting", "--mutate", mutate]) == 1


def test_cli_malformed_input_exits_2(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{")
    code = main(["bracket", "--surface", str(p),
                 "--diagram", _diagram(tmp_path)])
    assert code == 2


def test_cli_unknown_word_exits_2(tmp_path, capsys):
    code = main(["bracket", "--surface", _surface(tmp_path),
                 "--diagram", _diagram(tmp_path, wa="Q7")])
    assert code == 2


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
    code = main(["verify", "--suite", "qp-identity", "--group", "gl",
                 "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["pass"] is True
    assert doc["command"] == "verify"


@pytest.mark.parametrize("tol, shown", [(None, "1.0000000000000001e-09"), ("0", "0")])
def test_cli_verify_tol_reaches_the_fixtures(tol, shown, capsys):
    # the suite default applies only without --tol; --tol 0 asks for exact
    # agreement, which the splitting suite's two fold orders reach
    code = main(["verify", "--suite", "splitting"] + (["--tol", tol] if tol else []))
    doc = json.loads(capsys.readouterr().out)
    assert {f["tolerance"] for f in doc["fixtures"]} == {shown}
    assert doc["config"].get("tol") == (None if tol is None else 0.0)
    assert code == 0 and doc["pass"] is True


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


@pytest.mark.parametrize("argv, message", [
    (["--suite", "main-theorem", "--n", "1"], "--n must be at least 2, got 1"),
    (["--suite", "qp-identity", "--n", "1"], "--n must be at least 2, got 1"),
    (["--suite", "cross-section", "--n", "0"], "--n must be at least 2, got 0"),
] + [(["--suite", suite, "--group", "u"],
      "suite %r runs in the GL context; only cross-section runs U(n)" % suite)
     for suite in GL_SUITES])
def test_cli_verify_bad_options_exit_2(argv, message, capsys):
    assert main(["verify"] + argv) == 2
    assert "input error: " + message in capsys.readouterr().err


def test_cli_verify_cross_section_accepts_group_u(capsys):
    assert main(["verify", "--suite", "cross-section", "--group", "u"]) == 0


def test_cli_verify_has_no_seed(capsys):
    # no suite draws from a seed; bracket keeps --seed for its point
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "moment", "--seed", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
