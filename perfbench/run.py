#!/usr/bin/env python3
"""Benchmark of the nhomlie CLI: one client, closed loop, in one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record

Set-up imports ``nhomlie`` from ``src/`` of this checkout, builds the
workload's algebras from the seed, writes them under ``.bench_inputs/`` and
validates them; it is repeated SETUP_REPEATS times and ``setup_s`` is the
median.  The workload's command list then runs pass after pass through
``nhomlie.cli.main(argv)``, one command after another, until about S
seconds have gone.  Every command parses its input afresh, as a separate
CLI invocation would, so no solver cache carries over.  Every report is
checked after its pass, outside the timed region (see ``check.py``).

Times are taken under a calibration probe and reported at a reference
machine speed (see ``calibrate.py``), because the speed of a shared
virtual machine drifts by +-20 %.  ``--trace 0`` prints the end-to-end metrics: the median
over passes of the pass wall time (the sum of its commands' times), the
slowest command's median time, set-up time and peak RSS.  ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics of
``tracer.py`` (medians over traced passes), plus the tracing overhead:
median traced pass minus median untraced pass.  Spans go to
``.bench_out/``.  There are no queues or threads, so no waiting time is
reported.

``--record`` runs every workload once at the default seed and rewrites
``expected.json`` (report digests and the sparse sources' dims).

The last line of stdout is one JSON object: correct, attempted, failed
(commands attempted and commands that failed) and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import calibrate  # noqa: E402
import check  # noqa: E402
from inputs import so3_sum, write_algebra  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 3
OUT_DIR = ".bench_out"


def import_nhomlie():
    """Import nhomlie afresh from this checkout's ``src/``."""
    if not os.path.isfile(os.path.join(SRC, "nhomlie", "cli.py")):
        raise SystemExit(f"error: no nhomlie sources under {SRC}")
    for name in [m for m in sys.modules if m == "nhomlie" or m.startswith("nhomlie.")]:
        del sys.modules[name]
    nh = importlib.import_module("nhomlie")
    importlib.import_module("nhomlie.cli")
    importlib.import_module("nhomlie.fixtures")
    if not os.path.abspath(nh.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported nhomlie from {nh.__file__}, not {SRC}")
    return nh


def _set_up_once(workload: str, seed: int):
    t0 = time.perf_counter()
    nh = import_nhomlie()
    plan = workloads.WORKLOADS[workload](nh, seed)
    os.makedirs(os.path.join(workloads.INPUT_DIR, workload), exist_ok=True)
    for inp in plan.inputs:
        path = workloads.input_path(workload, inp.stem)
        write_algebra(inp.alg, path)
        report = nh.validate(nh.parse_algebra(path))
        if not report.all_ok:
            raise SystemExit(f"error: generated input {path} fails validate: "
                             f"{report.failures[0]}")
    return (nh, plan), time.perf_counter() - t0


def set_up(workload: str, seed: int):
    """Import, generate, write and validate; returns nh, jobs, scaled times."""
    times = []
    with calibrate.Probe() as probe:
        for _ in range(SETUP_REPEATS):
            (nh, plan), _, scaled = probe.step(_set_up_once, workload, seed)
            times.append(scaled)
    by_stem = {inp.stem: inp for inp in plan.inputs}
    digests = {}
    for stem in by_stem:
        with open(workloads.input_path(workload, stem), "rb") as fh:
            digests[stem] = check.sha256(fh.read())
    jobs = [check.Job(cmd, by_stem[cmd.stem], digests[cmd.stem]) for cmd in plan.commands]
    return nh, jobs, times


def run_command(cli, argv, tr=None):
    """Run one command in-process; returns (exit code, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            if tr is None:
                rc = cli.main(argv)
            else:
                rc = tr.call(f"cli.{argv[0]}", cli.main, argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is a failed command, not a dead run
            rc = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
    if rc == 0 and err.getvalue():
        rc = f"0 with stderr {err.getvalue()[:200]!r}"
    return rc, out.getvalue(), t1 - t0


def _timed_command(cli, argv, tr):
    rc, out, seconds = run_command(cli, argv, tr)
    return (rc, out), seconds


class Pass:
    """One pass of the command list, timed under a calibration probe."""

    def __init__(self, cli, jobs, tr=None):
        self.results, self.raw, self.scaled = [], [], []
        with calibrate.Probe() as probe:
            for i, job in enumerate(jobs):
                if tr is not None:
                    tr.request = i
                (rc, out), raw, scaled = probe.step(_timed_command, cli, job.argv, tr)
                self.results.append((rc, out))
                self.raw.append(raw)
                self.scaled.append(scaled)
        self.wall = sum(self.scaled)
        self.scale = self.wall / sum(self.raw)


def judge(gate, jobs, results, failures):
    for job, (rc, out) in zip(jobs, results):
        problem = gate.problem(job, rc, out)
        if problem is not None:
            failures.append(f"{' '.join(job.argv)}: {problem}")


def measure(nh, jobs, seconds, gate, traced):
    """Passes until about ``seconds`` have gone; traced runs alternate.

    Returns the untraced passes, the per-layer figures of each traced pass,
    the failures, and the tracer.
    """
    tr = tracing.Tracer() if traced else None
    plain, marked, failures = [], [], []
    start = time.perf_counter()
    durations = []
    while True:
        gc.collect()  # each pass starts from the same heap, outside the timed region
        t0 = time.perf_counter()
        if traced and len(durations) % 2 == 1:
            tr.reset()
            tr.install()
            try:
                p = Pass(nh.cli, jobs, tr)
            finally:
                tr.uninstall()
            figures = tr.pass_metrics(p.scale, sum(p.raw))
            figures["trace.wall_s"] = p.wall
            figures["trace.scale"] = p.scale
            marked.append(figures)
        else:
            p = Pass(nh.cli, jobs)
            plain.append(p)
        durations.append(time.perf_counter() - t0)
        judge(gate, jobs, p.results, failures)
        elapsed = time.perf_counter() - start
        if (len(durations) >= (2 if traced else 1)
                and elapsed + 0.5 * statistics.mean(durations) >= seconds):
            return plain, marked, failures, tr


def end_to_end(plain, setup_times):
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    per_command = [p.scaled for p in plain]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(p.wall for p in plain), "s"),
        "slowest_cmd_s": (max(statistics.median(times) for times in zip(*per_command)), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def per_layer(plain, marked):
    traced = statistics.median(m["trace.wall_s"] for m in marked)
    untraced = statistics.median(p.wall for p in plain)
    out = {}
    for name, unit in tracing.PER_LAYER:
        if name == "trace.untraced_wall_s":
            value = untraced
        elif name == "trace.overhead_s":
            value = traced - untraced
        else:
            value = statistics.median(m[name] for m in marked)
        out[name] = (value, unit)
    return out


def record():
    """Rewrite expected.json from one default-seed pass of every workload."""
    reports, dims = {}, {}
    for name in workloads.WORKLOADS:
        nh, jobs, _ = set_up(name, workloads.DEFAULT_SEED)
        for job, (rc, out) in zip(jobs, Pass(nh.cli, jobs).results):
            if rc != 0:
                raise SystemExit(f"error: {' '.join(job.argv)} exited with {rc!r}")
            reports[job.key] = check.sha256(out.encode("utf-8"))
            if name == "solve_sparse":
                dims.setdefault(job.source, {}).update(json.loads(out)["dims"])
    # solve_dense draws on so(3)^(+2), which solve_sparse does not solve
    nh = import_nhomlie()
    path = workloads.input_path("record", "so3x2")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    write_algebra(so3_sum(nh, 2), path)
    for kind in workloads.KINDS:
        rc, out, _ = run_command(nh.cli, ["solve", path, "--kind", kind, "--kmax", "2"])
        if rc != 0:
            raise SystemExit(f"error: solve {path} {kind} exited with {rc!r}")
        dims.setdefault("so3x2", {}).update(json.loads(out)["dims"])
    doc = {"default_seed": workloads.DEFAULT_SEED, "dims": dims, "reports": reports}
    with open(check.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(reports)} report digests and dims of {len(dims)} sources")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="rewrite expected.json at the default seed")
    args = ap.parse_args(argv)
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    if args.record:
        record()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    expected = check.load_expected()
    gate = check.Gate(expected, default_seed=args.seed == expected["default_seed"])

    nh, jobs, setup_times = set_up(args.workload, args.seed)
    plain, marked, failures, tr = measure(nh, jobs, args.seconds, gate, traced=bool(args.trace))
    passes = len(plain) + len(marked)
    attempted = passes * len(jobs)
    for line in failures:
        print(f"FAILED {line}", file=sys.stderr)
    failed = len(failures)

    if args.trace:
        metrics = per_layer(plain, marked)
        os.makedirs(OUT_DIR, exist_ok=True)
        tr.write_spans(os.path.join(OUT_DIR, f"spans-{args.workload}-{args.seed}.json"))
        for target in sorted(tr.missing):
            print(f"not traced, no longer in nhomlie: {target}", file=sys.stderr)
    else:
        metrics = end_to_end(plain, setup_times)
    raw = statistics.median(sum(p.raw) for p in plain)
    print(f"{args.workload} seed {args.seed}: {attempted} commands in {passes} passes, "
          f"{failed} failed; untraced pass {raw:.3f} s as measured")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
