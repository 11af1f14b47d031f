"""Tests of the benchmark itself: failure accounting, the request stream and
the tracer. Run from the checkout root:

    python3 -m pytest -q bench/test_bench.py
"""

import contextlib
import io
import json

import pytest

import run
import workloads
from checks import Outcome, check_report
from tracer import Tracer, layer_metrics

MAIN, CLEAR_CACHE = run.import_program()


@pytest.fixture
def client(tmp_path):
    return run.Client(MAIN, CLEAR_CACHE, tmp_path)


def _symbolic_request():
    return workloads.Stream("symbolic", 7).cycle()[0]


def _tampered_main(argv):
    """The real tool, with the reported symbolic value moved off the rhs."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = MAIN(argv)
    report = json.loads(out.getvalue())
    fx = report["fixtures"][0]
    fx["symbolic_value"] = repr(float(fx["symbolic_value"]) + 1e-3)
    print(json.dumps(report))
    return code


def test_mutated_suite_counts_as_failed(client):
    req = workloads.Request("main-theorem.n2",
                            ["verify", "--suite", "main-theorem", "--mutate", "0.01"])
    bad = client.send(req)
    good = client.send(workloads.Request("moment.n2", ["verify", "--suite", "moment"]))
    assert not bad.ok and any("exit code 1" in p for p in bad.problems)
    assert good.ok
    line = run.result([bad, good], {}, {})
    assert (line["attempted"], line["failed"], line["correct"]) == (2, 1, False)


def test_altered_symbolic_value_counts_as_failed(client, tmp_path):
    req = _symbolic_request()
    honest = client.send(req)
    tampered = run.Client(_tampered_main, CLEAR_CACHE, tmp_path).send(req)
    assert honest.ok, honest.problems
    assert not tampered.ok
    assert any("symbolic value" in p for p in tampered.problems)
    assert run.result([honest, tampered], {}, {})["failed"] == 1
    # the tool's own pass flag does not see the disagreement
    assert all("pass flag" not in p and "exit code" not in p for p in tampered.problems)


def test_failed_requests_lower_the_mix_rates():
    ok = [Outcome("a", 900.0, 100.0, fixtures=2), Outcome("b", 900.0, 300.0, fixtures=2)]
    rps, cps = run.mix_rates(ok)
    assert rps == pytest.approx(2 / 0.4) and cps == pytest.approx(4 / 0.4)
    half = ok + [Outcome("a", 900.0, 100.0, ["exit code 1"]),
                 Outcome("b", 900.0, 300.0, ["x"])]
    assert run.mix_rates(half)[0] == pytest.approx(0.5 * 2 / 0.4)


@pytest.mark.parametrize("stdout, problem", [
    ("not json", "no JSON report"),
    (json.dumps({"command": "bracket", "pass": True, "fixtures": []}), "no fixtures"),
    (json.dumps({"command": "bracket", "pass": True, "fixtures": [
        {"fixture": "f", "lhs": "nan", "rhs": "1", "residual": "0",
         "tolerance": "1e-8", "pass": True}]}), "lhs"),
])
def test_malformed_reports_fail(stdout, problem):
    problems, _, _ = check_report("bracket", 0, stdout)
    assert any(problem in p for p in problems)


def test_stream_is_seeded_and_never_repeats_a_bracket():
    a = workloads.Stream("long-words", 3)
    b = workloads.Stream("long-words", 3)
    reqs = [r for _ in range(5) for r in a.cycle()]
    assert [r.files for r in reqs] == [r.files for _ in range(5) for r in b.cycle()]
    assert len({r.key for r in reqs}) == len(reqs)
    other = [r for _ in range(5) for r in workloads.Stream("long-words", 4).cycle()]
    assert [r.files["{point}"] for r in reqs] != [r.files["{point}"] for r in other]


def test_ambient_large_never_takes_the_symbolic_route():
    for req in workloads.Stream("ambient-large", 1).cycle():
        doc = req.files["{diagram}"]
        kinds = {doc["alpha"]["observable"]["kind"], doc["beta"]["observable"]["kind"]}
        assert kinds != {"entry"}


def test_tracer_reports_absent_layers_and_restores_functions():
    import surface_qp.cli as cli
    before = cli.bracket_numeric
    layers = {"quasipoisson.bracket_numeric": [("cli", "bracket_numeric")],
              "gone.layer": [("cli", "no_such_function"), ("no_such_module", "f")]}
    with Tracer(layers) as tracer:
        assert cli.bracket_numeric is not before
        assert tracer.absent == ["gone.layer"]
    assert cli.bracket_numeric is before


def test_self_times_partition_the_request(client):
    with Tracer() as tracer:
        assert not tracer.absent
        outcome = client.send(workloads.Stream("ambient-large", 2).cycle()[0], tracer)
    spans = tracer.requests[0]["spans"]
    assert spans["quasipoisson.bracket_numeric"]["calls"] == 1
    assert all(s["self_ms"] >= 0 for s in spans.values())
    assert sum(s["self_ms"] for s in spans.values()) == pytest.approx(outcome.ms, rel=0.05)
    assert layer_metrics(tracer.requests)["diagrams.tries_per_pair"] >= 1


def test_cpu_times_are_scaled_by_the_reference_kernel():
    from types import SimpleNamespace
    from reference import NOMINAL_MS, SENSITIVITY
    outcomes = [Outcome("a", 900.0, 100.0, fixtures=1), Outcome("b", 900.0, 300.0, fixtures=1)]
    args = SimpleNamespace(workload="suites")
    at_nominal = run.end_to_end(args, outcomes, 2.0, ([0.5], [0.6], [NOMINAL_MS]),
                                [NOMINAL_MS] * 3)
    slow = run.end_to_end(args, outcomes, 2.0, ([0.5], [0.6], [2 * NOMINAL_MS]),
                          [2 * NOMINAL_MS] * 3)
    factor = 2 ** SENSITIVITY
    assert at_nominal["requests_per_cpu_s"] == pytest.approx(2 / 0.4)
    assert slow["requests_per_cpu_s"] == pytest.approx(at_nominal["requests_per_cpu_s"] * factor)
    assert slow["request_cpu_p50_ms"] == pytest.approx(at_nominal["request_cpu_p50_ms"] / factor)
    assert slow["setup_s"] == pytest.approx(at_nominal["setup_s"] / factor)
    assert at_nominal["setup_s"] == pytest.approx(0.5)
