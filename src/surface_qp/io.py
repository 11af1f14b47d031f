"""JSON input schemas and report serialization for the command line tool.

Input files:
  surface: {"genus": 1, "boundary_count": 1}
  diagram request: {"alpha": {"word": "C1 D1", "observable": {...}},
                    "beta":  {"word": "D1",   "observable": {...}},
                    "variants": [0, 0]}
    observable: {"kind": "trace"} | {"kind": "entry", "i": 1, "j": 2,
                 "part": "re"|"im"}  (i, j are 1-based)
  point: {"A2": [["1/2", "0"], ["0", "1"]], ...}  each matrix an array of
    row arrays; entries are rational strings or JSON numbers for the GL
    context, [re, im] pairs for the unitary one.  A JSON integer is read
    exactly, a JSON float as the nearest rational of denominator at most 2^30
    only when that rational rounds back to the same float (0.1 is 1/10;
    0.3333333333 is an error).  A GL point keeps its exact copy as integer
    numerators over the lcm of the entries' denominators.

Reports are deterministic apart from the timestamp; floats carry 17
significant digits.
"""

from __future__ import annotations

import json
import math
import time
from fractions import Fraction
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from .lie import AlgebraContext, Observable, entry_observable, trace_observable
from .repspace import RepPoint
from .surfaces import SurfaceSpec
from .words import Word


class SchemaError(ValueError):
    """Malformed or inconsistent input file."""


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError("cannot read %s: %s" % (path, exc))


def _integer(v) -> int:
    if type(v) is not int:  # a float or a bool is no count or index
        raise ValueError("expected an integer, got %r" % (v,))
    return v


def _reason(exc: Exception) -> str:
    """What is wrong with an input document; a KeyError is a missing key."""
    return "missing key %s" % exc if isinstance(exc, KeyError) else str(exc)


def load_surface(path: str) -> SurfaceSpec:
    doc = _load_json(path)
    try:
        return SurfaceSpec(_integer(doc["genus"]), _integer(doc["boundary_count"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError("bad surface file %s: %s" % (path, _reason(exc)))


def observable_from_dict(ctx: AlgebraContext, doc: dict) -> Observable:
    """A request side's observable; malformed, it raises KeyError, TypeError or ValueError."""
    kind = doc["kind"]
    if kind == "trace":
        return trace_observable(ctx)
    if kind == "entry":
        return entry_observable(ctx, _integer(doc["i"]) - 1, _integer(doc["j"]) - 1,
                                doc.get("part", "re"))
    raise ValueError("unknown observable kind %r" % (kind,))


def load_bracket_request(path: str, ctx: AlgebraContext, spec: SurfaceSpec):
    doc = _load_json(path)
    try:
        out = {}
        for side in ("alpha", "beta"):
            text = doc[side]["word"]
            if not isinstance(text, str):
                raise ValueError("%s word must be a string, got %r" % (side, text))
            w = Word.from_string(text, spec.genus, spec.boundary_count)
            try:
                obs = observable_from_dict(ctx, doc[side].get("observable", {"kind": "trace"}))
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError("%s observable: %s" % (side, _reason(exc)))
            out[side] = (w, obs)
        variants = tuple(doc.get("variants", (0, 0)))
        if len(variants) != 2 or not all(type(v) is int and v >= 0 for v in variants):
            raise ValueError("variants must be a pair of non-negative integers")
        return out["alpha"], out["beta"], variants
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError("bad diagram request %s: %s" % (path, _reason(exc)))


def _parse_entry(ctx: AlgebraContext, sym: str, v):
    if any(isinstance(x, bool) for x in (v if isinstance(v, (list, tuple)) else [v])):
        raise SchemaError("a boolean is no matrix entry: %r" % (v,))
    if ctx.kind == "gl":
        if isinstance(v, (str, int)):
            return Fraction(v)
        if isinstance(v, float):
            frac = Fraction(v).limit_denominator(1 << 30)
            if float(frac) != v:   # 0.3333333333 is no 1/3, nor 1e-12 a 0
                raise SchemaError("%s: the JSON number %r is no exact rational; give "
                                  "it as a rational string such as \"1/3\"" % (sym, v))
            return frac
        raise SchemaError("GL entries must be rational strings or numbers")
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(float(v[0]), float(v[1]))
    if isinstance(v, (int, float)):
        return complex(v)
    raise SchemaError("unitary entries must be [re, im] pairs")


def load_point(path: str, ctx: AlgebraContext, spec: SurfaceSpec) -> RepPoint:
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise SchemaError("bad point file %s: expected an object of generator "
                          "matrices, got %s" % (path, type(doc).__name__))
    parsed = {}
    try:
        for sym, rows in doc.items():
            if type(rows) is not list or not all(type(row) is list for row in rows):
                raise ValueError("%s: a matrix must be an array of row arrays" % sym)
            parsed[sym] = [[_parse_entry(ctx, sym, v) for v in row] for row in rows]
        if ctx.kind != "gl":
            return RepPoint(ctx, spec, {sym: np.array(rows, dtype=complex)
                                        for sym, rows in parsed.items()})
        d = math.lcm(*(x.denominator for rows in parsed.values() for row in rows for x in row))
        nums = {sym: [[x.numerator * (d // x.denominator) for x in row] for row in rows]
                for sym, rows in parsed.items()}
        mats = {sym: np.array([[x / d for x in row] for row in rows])
                for sym, rows in nums.items()}
        return RepPoint(ctx, spec, mats, (d, nums))
    except SchemaError:
        raise
    except (TypeError, ValueError, OverflowError, ZeroDivisionError) as exc:
        # an entry such as 1e400 (inf in JSON) or "1/0" is malformed input
        raise SchemaError("bad point file %s: %s" % (path, exc))


def fmt_float(x: float) -> str:
    return "%.17g" % float(x)


def make_report(command: str, config: dict, fixtures: list) -> dict:
    ok = all(f.get("pass", True) for f in fixtures)
    return {
        "command": command,
        "config": config,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "fixtures": fixtures,
        "pass": ok,
    }


def fixture_rows(names: Sequence[str], lhs, rhs, tol: float) -> list:
    """One fixture row per name, comparing lhs with rhs: each side an (S,)
    stack over the names or a scalar shared by all of them.  One residual
    pass over the stack, silent as Python float arithmetic is: a NaN
    residual (a NaN side, or inf against inf) or an overflowing one fails
    its row."""
    table = np.empty((3, len(names)))
    table[0], table[1] = lhs, rhs
    with np.errstate(invalid="ignore", over="ignore"):
        np.abs(table[0] - table[1], out=table[2])
    ok = (table[2] <= tol).tolist()
    tol_s = fmt_float(tol)
    return [{"fixture": name, "lhs": "%.17g" % a, "rhs": "%.17g" % b,
             "residual": "%.17g" % r, "tolerance": tol_s, "pass": p}
            for name, a, b, r, p in zip(names, *table.tolist(), ok)]


def fixture_result(name: str, lhs: float, rhs: float, tol: float,
                   extra: Optional[dict] = None) -> dict:
    """The one-row case of fixture_rows, with extra keys."""
    out = fixture_rows([name], lhs, rhs, tol)[0]
    if extra:
        out.update(extra)
    return out


# A non-empty list of non-empty flat dicts encodes in one call of the C
# encoder with this item separator: it sets each key at the six-space indent
# of a report's fixture rows, and write_report adds the row and list breaks.
_ROWS = json.JSONEncoder(sort_keys=True, separators=(",\n      ", ": "))
_SCALARS = {str, int, float, bool, type(None)}


def _flat_rows(rows) -> bool:
    """Whether rows is a non-empty list of non-empty dicts of scalars."""
    return (type(rows) is list and rows != [] and set(map(type, rows)) == {dict}
            and all(rows) and set(map(type, chain.from_iterable(map(dict.values, rows))))
            <= _SCALARS)


def _dumps(report) -> str:
    """json.dumps(report, indent=2, sort_keys=True), with a report's fixture
    rows, when all are flat, through the C encoder.  A literal newline occurs
    only in separators (strings escape theirs), and a flat row holds no
    bracket outside its strings, so the row breaks are exact replacements."""
    rows = report.get("fixtures") if type(report) is dict else None
    if not _flat_rows(rows):
        return json.dumps(report, indent=2, sort_keys=True)
    text = _ROWS.encode(rows)   # [{"k": v,\n      "k": v},\n      {...}]
    text = "[\n    {\n      %s\n    }\n  ]" % text[2:-2].replace(
        "},\n      {", "\n    },\n    {\n      ")
    head = json.dumps(dict(report, fixtures=[]), indent=2, sort_keys=True)
    return head.replace('\n  "fixtures": []', '\n  "fixtures": ' + text, 1)


def write_report(report: dict, out_path: Optional[str]) -> str:
    """The report's JSON text, also written to out_path when one is given.
    A path that cannot be written is an input error."""
    text = _dumps(report)
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise SchemaError("cannot write %s: %s" % (out_path, exc))
    return text
