"""Outside-in layer tracing for the benchmark's traced pass.

The tracer wraps, by name, the functions that one module of the program
imports from another, at the place where the importing module looks them up.
Nothing under ``src/`` changes. A name that a later version of the program
deletes or renames is reported as an absent layer; the pass still runs.

Spans nest on one call stack. A span's self time is its duration minus the
durations of the spans it directly contains. Spans are aggregated per request
(calls and self time per span name) as they close, so a million geometry
calls do not become a million records; the per-request aggregates carry the
request's id and are written out when the benchmark ends.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from typing import Dict, List, Tuple

# span name -> (module, attribute path) bindings to wrap. A dotted attribute
# path is a method looked up on a class the module imports.
LAYERS: Dict[str, List[Tuple[str, str]]] = {
    "quasipoisson.bracket_numeric": [("cli", "bracket_numeric"),
                                     ("suites", "bracket_numeric"),
                                     ("cross_section", "bracket_numeric")],
    "quasipoisson.build_bivector": [("cli", "build_bivector"),
                                    ("suites", "build_bivector")],
    "quasipoisson.bracket_combinatorial": [("cli", "bracket_combinatorial"),
                                           ("suites", "bracket_combinatorial")],
    "quasipoisson.schouten_residual": [("suites", "schouten_residual")],
    "quasipoisson.verify_moment": [("suites", "verify_moment")],
    "lie.cartan_trivector": [("quasipoisson", "cartan_trivector")],
    # cli and suites call these through the cross_section module object
    "cross_section.project_to_cross_section": [("cross_section", "project_to_cross_section")],
    "cross_section.bracket_cross": [("cross_section", "bracket_cross")],
    "cross_section.bracket_cross_numeric": [("cross_section", "bracket_cross_numeric")],
    # goldman imports realize_pair from diagrams at call time
    "diagrams.realize_pair": [("cli", "realize_pair"), ("suites", "realize_pair"),
                              ("diagrams", "realize_pair")],
    "diagrams.intersection_data": [("diagrams", "intersection_data")],
    "diagrams.diagram_from_word": [("diagrams", "diagram_from_word")],
    "geometry.segment_intersection": [("diagrams", "segment_intersection")],
    "repspace.random_point": [("cli", "random_point"), ("suites", "random_point")],
    "goldman.bracket_symbolic": [("cli", "bracket_symbolic"),
                                 ("suites", "bracket_symbolic")],
    "goldman.evaluate": [("suites", "NormalForm.evaluate")],
    "surfaces.polygon_model": [("cli", "polygon_model"), ("suites", "polygon_model")],
    "io.load": [("cli", "load_surface"), ("cli", "load_bracket_request"),
                ("cli", "load_point")],
    "io.write_report": [("cli", "write_report")],
}

ROOT = "cli.other"       # request time covered by no span
CALL_COUNTS = ("quasipoisson.bracket_numeric", "geometry.segment_intersection")
PACKAGE = "surface_qp"


class Tracer:
    """Per-request span aggregates. Entering the tracer installs the wrappers
    and leaving it restores the originals, so traced and untraced requests
    can alternate in one process."""

    def __init__(self, layers: Dict[str, List[Tuple[str, str]]] = LAYERS):
        self.layers = layers
        self.stack: List[list] = []             # [name, start_ns, child_ns]
        self.current: Dict[str, List[int]] = {}  # name -> [calls, self_ns]
        self.counts: Dict[str, int] = defaultdict(int)
        self.requests: List[dict] = []
        self._patched: List[Tuple[object, str, object]] = []
        self.absent: List[str] = []

    def install(self):
        self.absent = [span for span, bindings in self.layers.items()
                       if not sum(self._wrap(span, mod, path) for mod, path in bindings)]

    def _wrap(self, span: str, module: str, path: str) -> bool:
        try:
            owner = importlib.import_module("%s.%s" % (PACKAGE, module))
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            return False
        if not callable(original):
            return False
        setattr(owner, attr, self._wrapper(span, original))
        self._patched.append((owner, attr, original))
        return True

    def _wrapper(self, span: str, fn):
        tracer = self
        counts_crossings = span == "diagrams.intersection_data"

        def traced(*args, **kwargs):
            tracer._push(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._pop()
            if counts_crossings:
                tracer.counts["diagrams.crossings"] += len(getattr(result, "crossings", ()))
            return result
        traced.__wrapped__ = fn
        return traced

    def _push(self, name: str):
        self.stack.append([name, time.perf_counter_ns(), 0])

    def _pop(self):
        name, start, child = self.stack.pop()
        dur = time.perf_counter_ns() - start
        if self.stack:
            self.stack[-1][2] += dur
        agg = self.current.setdefault(name, [0, 0])
        agg[0] += 1
        agg[1] += dur - child

    def begin_request(self, request_id: int, kind: str):
        self.current = {}
        self.counts = defaultdict(int)
        self._request = (request_id, kind)
        self._push(ROOT)

    def end_request(self):
        self._pop()
        self.stack.clear()
        rid, kind = self._request
        self.requests.append({
            "request": rid, "kind": kind,
            "spans": {k: {"calls": c, "self_ms": ns / 1e6}
                      for k, (c, ns) in sorted(self.current.items())},
            "counts": dict(self.counts)})

    def close(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.close()


def layer_metrics(requests: List[dict]) -> Dict[str, float]:
    """Per-request means of self time and of the counted calls; attempted
    realizations per realized pair, and crossings per realized pair."""
    n = max(len(requests), 1)
    tot: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0.0])
    counts: Dict[str, float] = defaultdict(float)
    for r in requests:
        for name, s in r["spans"].items():
            tot[name][0] += s["calls"]
            tot[name][1] += s["self_ms"]
        for name, c in r["counts"].items():
            counts[name] += c
    out = {}
    for name in list(LAYERS) + [ROOT]:
        out[name + ".self_ms"] = tot[name][1] / n
    for name in CALL_COUNTS:
        out[name + ".calls"] = tot[name][0] / n
    pairs = tot["diagrams.realize_pair"][0]
    tries = tot["diagrams.intersection_data"][0]
    out["diagrams.tries_per_pair"] = tries / pairs if pairs else 0.0
    out["diagrams.crossings"] = counts["diagrams.crossings"] / pairs if pairs else 0.0
    return out
