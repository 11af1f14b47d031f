"""Correctness checks on one ``surface-qp`` report, beyond its exit code.

A request fails when the call raised, exited non-zero, printed no parsable
report, or its report fails any check below. The checks read only the report
JSON, so they hold across refactors of the program.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import List, Optional


@dataclass
class Outcome:
    """What one request produced, as the benchmark judged it."""
    kind: str
    ms: float                   # wall time of the call
    cpu_ms: float               # CPU time of the call
    problems: List[str] = field(default_factory=list)
    fixtures: int = 0
    worst_margin: float = 0.0   # max residual / tolerance over the fixtures

    @property
    def ok(self) -> bool:
        return not self.problems


def _num(text) -> Optional[float]:
    try:
        return float(text)
    except (TypeError, ValueError):
        return None


def _margin(fx: dict) -> float:
    """How close a fixture came to its bound. A check that passes by
    exceeding its tolerance (a sensitivity probe) reports tolerance/residual."""
    res, tol = _num(fx.get("residual")), _num(fx.get("tolerance"))
    if res is None or tol is None:
        return 0.0 if fx.get("pass") else math.inf
    if tol == 0:
        return 0.0 if res == 0 else math.inf
    if res > tol and fx.get("pass"):
        return tol / res
    return res / tol


def check_report(command: str, exit_code: Optional[int], stdout: str,
                 error: Optional[str] = None) -> tuple:
    """(problems, fixture count, worst margin) of one request's output."""
    if error is not None:
        return ["raised %s" % error], 0, 0.0
    problems = []
    if exit_code != 0:
        problems.append("exit code %r" % (exit_code,))
    try:
        report = json.loads(stdout)
    except ValueError:
        return problems + ["no JSON report on stdout"], 0, 0.0
    if not isinstance(report, dict):
        return problems + ["report is not a JSON object"], 0, 0.0
    if report.get("command") != command:
        problems.append("report for command %r" % (report.get("command"),))
    if report.get("pass") is not True:
        problems.append("report pass flag is %r" % (report.get("pass"),))
    fixtures = report.get("fixtures")
    if not isinstance(fixtures, list) or not fixtures:
        return problems + ["report has no fixtures"], 0, 0.0
    worst = 0.0
    for fx in fixtures:
        name = fx.get("fixture", "?")
        if fx.get("pass") is not True:
            problems.append("fixture %s failed" % name)
        worst = max(worst, _margin(fx))
        for side in ("lhs", "rhs"):
            if side in fx or command == "bracket":
                v = _num(fx.get(side))
                if v is None or not math.isfinite(v):
                    problems.append("fixture %s: %s = %r" % (name, side, fx.get(side)))
        if "symbolic_value" in fx:
            sym, rhs, tol = (_num(fx.get(k)) for k in ("symbolic_value", "rhs", "tolerance"))
            if None in (sym, rhs, tol) or not abs(sym - rhs) <= tol:
                problems.append("fixture %s: symbolic value %r disagrees with rhs %r"
                                % (name, fx.get("symbolic_value"), fx.get("rhs")))
    return problems, len(fixtures), worst
