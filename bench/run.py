"""Request-level benchmark of the ``surface-qp`` command line tool.

    python3 bench/run.py --workload symbolic --seed 1 --seconds 32 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 32 --trace 1

Run it from the root of a source checkout; it imports the program from
``src/``. Each request is one in-process call of ``surface_qp.cli.main(argv)``
on JSON input files generated from ``--seed`` (see workloads.py); the printed
JSON report is parsed and checked (see checks.py). The loop is closed: one
client in one thread sends the next request when the previous one returns.
BLAS thread pools are pinned to one thread and ``SURFACE_QP_THREADS`` is
unset, so the default code path is measured. sympy's process-wide cache is
cleared and the garbage collector run before every request, because every
``surface-qp`` process starts cold, with no garbage from an earlier request
(a collection left pending by the previous request also made the CPU time of
identical requests spread twice as wide).

Request times are the CPU time the benchmark process spends in the call
(``time.process_time``), scaled to a nominal machine speed. On the default
code path the program runs in one thread, so on an idle machine the CPU time
is the request's wall time; on a shared host it leaves out the time the
process waited for a processor, which made wall-clock runs of the same code
spread by a third. The CPU time itself still drifts with the host's load, so
a fixed kernel that uses no program code (reference.py) is timed before
every request, and request and set-up times are scaled by how much faster
or slower than nominal it ran in this run. Unscaled CPU times and wall times
are printed alongside.

A run measures whole cycles of the workload (one request per template) until
``--seconds`` have passed. ``--trace 0`` prints the end-to-end metrics.
``--trace 1`` alternates untraced and traced cycles (tracer.py) and prints
the per-layer metrics; the traced requests' spans are written to
``.bench_out/``. The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from checks import Outcome, check_report
from reference import NOMINAL_MS, reference_ms, speed_factor

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_PROBES = 5

END_TO_END = {  # name -> unit
    "requests_per_cpu_s": "1/s", "checks_per_cpu_s": "1/s",
    "request_cpu_p50_ms": "ms", "request_cpu_tail_ms": "ms", "setup_s": "s",
    "peak_rss_mb": "MB",
}
SUITE_METRICS = ["suites.%s.n%d.ms" % (s, n)
                 for n, names in ((2, workloads.SUITES_N2), (3, workloads.SUITES_N3))
                 for s in names]


class SetupError(RuntimeError):
    """The checkout cannot run the program."""


def configure_process():
    """Pin BLAS to one thread and drop SURFACE_QP_THREADS before numpy loads."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("SURFACE_QP_THREADS", None)


def import_program():
    """surface_qp.cli.main and sympy's cache clear, from this checkout's src/."""
    src = ROOT / "src"
    if not (src / "surface_qp" / "cli.py").is_file():
        raise SetupError("no program source at %s" % src)
    sys.path.insert(0, str(src))
    import surface_qp.cli
    if Path(surface_qp.cli.__file__).resolve().parent != (src / "surface_qp").resolve():
        raise SetupError("surface_qp imported from %s, not from %s"
                         % (surface_qp.cli.__file__, src))
    from sympy.core.cache import clear_cache
    return surface_qp.cli.main, clear_cache


class Client:
    """Sends requests one at a time and judges each report."""

    def __init__(self, main, clear_cache, workdir: Path):
        self.main = main
        self.clear_cache = clear_cache
        self.workdir = workdir
        self.sent = 0
        self.reference: list = []   # kernel CPU ms, one per request

    def write_inputs(self, req: workloads.Request) -> dict:
        paths = {}
        for placeholder, doc in req.files.items():
            path = self.workdir / (placeholder.strip("{}") + ".json")
            path.write_text(json.dumps(doc))
            paths[placeholder] = str(path)
        return paths

    def send(self, req: workloads.Request, tracer=None) -> Outcome:
        argv = req.resolve(self.write_inputs(req))
        self.clear_cache()
        gc.collect()
        self.reference.append(reference_ms())
        out, err = io.StringIO(), io.StringIO()
        code, error = None, None
        if tracer is not None:
            tracer.begin_request(self.sent, req.kind)
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed request, not a crashed run
            error = "%s: %s" % (type(exc).__name__, exc)
        cpu_ms = (time.process_time() - c0) * 1e3
        ms = (time.perf_counter() - t0) * 1e3
        if tracer is not None:
            tracer.end_request()
        self.sent += 1
        problems, fixtures, margin = check_report(argv[0], code, out.getvalue(), error)
        if problems and err.getvalue():
            problems.append("stderr: " + err.getvalue().strip()[:200])
        return Outcome(req.kind, ms, cpu_ms, problems, fixtures, margin)


def run_phase(client: Client, stream: workloads.Stream, seconds: float,
              tracer=None):
    """Whole cycles until ``seconds`` have passed: (outcomes, wall seconds)."""
    outcomes = []
    t0 = time.perf_counter()
    while True:
        for req in stream.cycle():
            outcomes.append(client.send(req, tracer))
        wall = time.perf_counter() - t0
        if wall >= seconds:
            return outcomes, wall


def percentile(values, pct: float) -> float:
    """Linear-interpolated percentile of a non-empty list."""
    v = sorted(values)
    pos = (len(v) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure_setup(args) -> tuple:
    """(CPU seconds, wall seconds, kernel ms): per probe, a fresh benchmark
    process from its start until it has the program imported and its first
    request's inputs written; the probe reports its own CPU time when it is
    ready. The reference kernel is timed before each probe, so that setup_s
    is scaled by the machine's speed while the probes ran."""
    cpu, wall, kernel = [], [], []
    for _ in range(SETUP_PROBES):
        kernel += [reference_ms() for _ in range(3)]
        t0 = time.perf_counter()
        with subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()), "--workload",
                 args.workload, "--seed", str(args.seed), "--setup-probe"],
                cwd=str(ROOT), stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().split()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if len(line) != 2 or line[0] != "ready" or code != 0:
            raise SetupError("setup probe exited %r before it was ready" % code)
        cpu.append(float(line[1]))
        wall.append(t1 - t0)
    return cpu, wall, kernel


def provenance(args) -> dict:
    import numpy
    import scipy
    import sympy
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "sympy": sympy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "commit": commit,
        "src_sha256": src.hexdigest(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "SURFACE_QP_THREADS": os.environ.get("SURFACE_QP_THREADS", "unset"),
        "client": "closed loop, 1 client, 1 thread, in-process cli.main",
        "why": workloads.WORKLOADS,
    }


def mix_rates(outcomes) -> tuple:
    """(requests, checks) per CPU second of the run's request mix with every
    request taking its template's median CPU time and fixture count, scaled
    by the share of requests that passed. Medians per template keep the rates
    steady when a shared host's speed drifts for a few seconds."""
    by_kind = {}
    for o in outcomes:
        by_kind.setdefault(o.kind, []).append(o)
    seconds = sum(len(os_) * statistics.median(o.cpu_ms for o in os_)
                  for os_ in by_kind.values()) / 1e3
    checks = sum(len(os_) * statistics.median(o.fixtures for o in os_)
                 for os_ in by_kind.values())
    ok_frac = sum(o.ok for o in outcomes) / len(outcomes)
    return ok_frac * len(outcomes) / seconds, ok_frac * checks / seconds


def end_to_end(args, outcomes, wall, setup, reference) -> dict:
    cpu = [o.cpu_ms for o in outcomes]
    pct = workloads.TAIL_PCT[args.workload]
    beyond = sum(1 for m in cpu if m > percentile(cpu, pct))
    print("request_cpu_tail_ms is p%g of %d requests (%d beyond it)"
          % (pct, len(cpu), beyond))
    scale = speed_factor(reference)
    requests_per_s, checks_per_s = mix_rates(outcomes)
    print("reference kernel median %.3f ms over %d passes (nominal %g ms): CPU "
          "times scaled by %.4f" % (statistics.median(reference), len(reference),
                                     NOMINAL_MS, scale))
    print("unscaled CPU time: %.4g requests/s, request p50 %.1f ms, tail %.1f ms"
          % (requests_per_s, statistics.median(cpu), percentile(cpu, pct)))
    print("set-up probes: CPU %s s, reference kernel median %.3f ms"
          % (" ".join("%.3f" % c for c in setup[0]), statistics.median(setup[2])))
    print("wall clock: loop rate %.4g requests/s over %.1f s, request p50 %.1f ms, "
          "setup %s s" % (sum(o.ok for o in outcomes) / wall, wall,
                          statistics.median(o.ms for o in outcomes),
                          " ".join("%.3f" % w for w in setup[1])))
    return {
        "requests_per_cpu_s": requests_per_s / scale,
        "checks_per_cpu_s": checks_per_s / scale,
        "request_cpu_p50_ms": statistics.median(cpu) * scale,
        "request_cpu_tail_ms": percentile(cpu, pct) * scale,
        "setup_s": statistics.median(setup[0]) * speed_factor(setup[2]),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(args, client, stream) -> tuple:
    """Untraced and traced cycles in turn for ``--seconds``, so both halves
    see the same drift of machine speed: (all outcomes, per-layer metrics)."""
    from tracer import Tracer, layer_metrics
    tracer = Tracer()
    plain, traced = [], []
    t0 = time.perf_counter()
    while not traced or len(traced) < len(plain) or time.perf_counter() - t0 < args.seconds:
        cycle = stream.cycle()
        if len(traced) < len(plain):
            with tracer:
                traced += [client.send(req, tracer) for req in cycle]
        else:
            plain += [client.send(req) for req in cycle]
    if tracer.absent:
        print("absent layers (reported as 0): " + ", ".join(tracer.absent))
    metrics = layer_metrics(tracer.requests)
    for name in SUITE_METRICS:
        kind = name[len("suites."):-len(".ms")]
        got = [o.cpu_ms for o in plain if o.kind == kind]
        metrics[name] = statistics.median(got) if got else 0.0
    metrics["trace.overhead_frac"] = 1.0 - mix_rates(traced)[0] / mix_rates(plain)[0]
    outcomes = plain + traced
    metrics["check.worst_margin"] = max(o.worst_margin for o in outcomes)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / ("trace-%s-seed%d.json" % (args.workload, args.seed))
    path.write_text(json.dumps({"provenance": provenance(args),
                                "requests": tracer.requests}, indent=1))
    print("per-request spans written to %s" % path.relative_to(ROOT))
    return outcomes, metrics


def run_workload(args) -> int:
    configure_process()
    stream = workloads.Stream(args.workload, args.seed)
    main, clear_cache = import_program()
    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        client = Client(main, clear_cache, workdir)
        if args.setup_probe:
            client.write_inputs(stream.cycle()[0])
            print("ready %r" % time.process_time(), flush=True)
            return 0
        if args.trace:
            outcomes, metrics = per_layer(args, client, stream)
            units = {k: layer_unit(k) for k in metrics}
        else:
            outcomes, wall = run_phase(client, stream, args.seconds)
            metrics = end_to_end(args, outcomes, wall, measure_setup(args), client.reference)
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    line = result(outcomes, metrics, units)
    by_kind = {}
    for o in outcomes:
        by_kind.setdefault(o.kind, []).append(o)
    for kind, os_ in sorted(by_kind.items()):
        cpu = [o.cpu_ms for o in os_]
        print("  %-28s %4d requests, CPU median %9.1f ms, max %9.1f ms; "
              "wall median %9.1f ms" % (kind, len(os_), statistics.median(cpu),
                                         max(cpu), statistics.median(o.ms for o in os_)))
    print("workload %s seed %d: %d requests, %d failed (failed_frac %.4g)"
          % (args.workload, args.seed, line["attempted"], line["failed"],
             line["failed"] / line["attempted"]))
    for o in [o for o in outcomes if not o.ok][:10]:
        print("  FAILED %s: %s" % (o.kind, "; ".join(o.problems)))
    for name, value in metrics.items():
        print("  %-44s %14.6g %s" % (name, value, units[name]))
    print("provenance " + json.dumps(provenance(args), sort_keys=True))
    print(json.dumps(line))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("ms"):
        return "ms"
    if name.endswith(".calls") or name == "diagrams.crossings":
        return "count"
    return "ratio"


def result(outcomes, metrics: dict, units: dict) -> dict:
    """The result line: a request counts as failed when any check missed."""
    failed = sum(not o.ok for o in outcomes)
    return {"correct": failed == 0, "attempted": len(outcomes), "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def run_all(args) -> int:
    """Every workload in its own process; metrics prefixed by workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=str(ROOT), stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print("workload %s exited %d" % (name, proc.returncode), file=sys.stderr)
            return 1
        got = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and got["correct"]
        merged["attempted"] += got["attempted"]
        merged["failed"] += got["failed"]
        for k, v in got["metrics"].items():
            merged["metrics"]["%s.%s" % (name, k)] = v
    print(json.dumps(merged))
    return 0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=list(workloads.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=32.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except SetupError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
