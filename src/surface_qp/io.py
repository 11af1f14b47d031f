"""JSON input schemas and report serialization for the command line tool.

Input files:
  surface: {"genus": 1, "boundary_count": 1}
  diagram request: {"alpha": {"word": "C1 D1", "observable": {...}},
                    "beta":  {"word": "D1",   "observable": {...}},
                    "variants": [0, 0]}
    observable: {"kind": "trace"} | {"kind": "entry", "i": 1, "j": 2,
                 "part": "re"|"im"}  (i, j are 1-based)
  point: {"A2": [["1/2", "0"], ["0", "1"]], ...}  entries are rational
    strings or numbers for the GL context, [re, im] pairs for the unitary one.

Reports are deterministic apart from the timestamp; floats carry 17
significant digits.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction
from typing import Optional

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


def load_surface(path: str) -> SurfaceSpec:
    doc = _load_json(path)
    try:
        return SurfaceSpec(_integer(doc["genus"]), _integer(doc["boundary_count"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError("bad surface file %s: %s" % (path, exc))


def observable_from_dict(ctx: AlgebraContext, doc: dict) -> Observable:
    try:
        kind = doc["kind"]
        if kind == "trace":
            return trace_observable(ctx)
        if kind == "entry":
            part = doc.get("part", "re")
            return entry_observable(ctx, _integer(doc["i"]) - 1,
                                    _integer(doc["j"]) - 1, part)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise SchemaError("bad observable: %s" % exc)
    raise SchemaError("unknown observable kind %r" % kind)


def load_bracket_request(path: str, ctx: AlgebraContext, spec: SurfaceSpec):
    doc = _load_json(path)
    try:
        out = {}
        for side in ("alpha", "beta"):
            w = Word.from_string(doc[side]["word"], spec.genus, spec.boundary_count)
            obs = observable_from_dict(ctx, doc[side].get("observable", {"kind": "trace"}))
            out[side] = (w, obs)
        variants = tuple(doc.get("variants", (0, 0)))
        if len(variants) != 2 or not all(type(v) is int and v >= 0 for v in variants):
            raise ValueError("variants must be a pair of non-negative integers")
        return out["alpha"], out["beta"], variants
    except SchemaError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError("bad diagram request %s: %s" % (path, exc))


def _parse_entry(ctx: AlgebraContext, v):
    if ctx.kind == "gl":
        if isinstance(v, str):
            return Fraction(v)
        if isinstance(v, (int, float)):
            return Fraction(v).limit_denominator(1 << 30)
        raise SchemaError("GL entries must be rational strings or numbers")
    if isinstance(v, (list, tuple)) and len(v) == 2:
        return complex(float(v[0]), float(v[1]))
    if isinstance(v, (int, float)):
        return complex(v)
    raise SchemaError("unitary entries must be [re, im] pairs")


def load_point(path: str, ctx: AlgebraContext, spec: SurfaceSpec) -> RepPoint:
    doc = _load_json(path)
    mats, exact = {}, {}
    try:
        for sym, rows in doc.items():
            parsed = [[_parse_entry(ctx, v) for v in row] for row in rows]
            if ctx.kind == "gl":
                exact[sym] = tuple(tuple(row) for row in parsed)
                mats[sym] = np.array([[float(x) for x in row] for row in parsed])
            else:
                mats[sym] = np.array(parsed, dtype=complex)
        return RepPoint(ctx, spec, mats, exact if ctx.kind == "gl" else None)
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


def fixture_result(name: str, lhs: float, rhs: float, tol: float,
                   extra: Optional[dict] = None) -> dict:
    res = abs(lhs - rhs)
    out = {
        "fixture": name,
        "lhs": fmt_float(lhs),
        "rhs": fmt_float(rhs),
        "residual": fmt_float(res),
        "tolerance": fmt_float(tol),
        "pass": bool(res <= tol),
    }
    if extra:
        out.update(extra)
    return out


def write_report(report: dict, out_path: Optional[str]) -> str:
    text = json.dumps(report, indent=2, sort_keys=True)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    return text
