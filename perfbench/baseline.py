#!/usr/bin/env python3
"""Reproduce the single-shot baseline rows of ROADMAP.md under the tracer.

    python3 perfbench/baseline.py

Rows: prop 3.1 and prop 3.8 on so(3)+so(3) at kmax 2, ``build_check`` of
threeLie4 (whose cost is validating the dim-8 extension) and ``solve
--kind GDer --kmax 2`` on so(3)^(+4).  Each row runs once, traced and under
a calibration probe; it prints the row's time at the reference speed and
the layers that took most of it, and writes the same figures to
``.bench_out/baseline.json``.
"""

from __future__ import annotations

import json
import os
import sys
import time

import calibrate
import run
import tracer as tracing
import workloads
from inputs import so3_sum, write_algebra


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return None, time.perf_counter() - t0


def main() -> int:
    os.chdir(run.ROOT)
    sys.path.insert(0, run.SRC)
    nh = run.import_nhomlie()
    path = workloads.input_path("baseline", "so3x4")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    write_algebra(so3_sum(nh, 4), path)

    rows = [
        ("check_prop31 so(3)+so(3) kmax 2",
         lambda: nh.propositions.check_prop31(so3_sum(nh, 2), 2)),
        ("check_prop38 so(3)+so(3) kmax 2",
         lambda: nh.propositions.check_prop38(so3_sum(nh, 2), 2)),
        ("build_check(threeLie4)",
         lambda: nh.extension.build_check(nh.fixtures.threeLie4())),
        ("solve GDer so(3)^4 kmax 2",
         lambda: run.run_command(nh.cli, ["solve", path, "--kind", "GDer", "--kmax", "2"])),
    ]
    tr = tracing.Tracer()
    out = []
    for label, thunk in rows:
        tr.reset()
        tr.install()
        try:
            with calibrate.Probe() as probe:
                _, measured, total = probe.step(_timed, lambda: tr.call("row", thunk))
        finally:
            tr.uninstall()
        scale = total / measured
        layers = sorted(((m, t * scale) for m, t in tr.self_time.items() if m != "row" and t > 0),
                        key=lambda mt: -mt[1])
        out.append({"row": label, "total_s": total, "self_s": dict(layers),
                    "calls": {m: tr.calls[m] for m, _ in layers}})
        top = ", ".join(f"{m} {t:.2f} s ({100 * t / total:.0f} %)" for m, t in layers[:4])
        print(f"{label}: {total:.2f} s; {top}")
    os.makedirs(run.OUT_DIR, exist_ok=True)
    with open(os.path.join(run.OUT_DIR, "baseline.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
