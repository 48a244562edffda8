#!/usr/bin/env python3
"""Negative control for the benchmark's correctness gate.

    python3 perfbench/negative_control.py

Runs three ``validate`` commands through the same runner and gate as
``run.py``, outside the four workloads:

* aff1 against a deliberately wrong expected digest: must fail;
* ``fixtures.corrupt_jacobi``, wrongly expected to validate: must fail;
* aff1 with no expected digest: must pass.

Exits 0 only if exactly the first two count as failed commands, which
shows that ``failed_commands`` can fire.
"""

from __future__ import annotations

import os
import sys

import check
import run
import workloads
from inputs import write_algebra

WRONG_DIGEST = "0" * 64


def main() -> int:
    os.chdir(run.ROOT)
    sys.path.insert(0, run.SRC)
    nh = run.import_nhomlie()
    cases = [("aff1", nh.fixtures.aff1(), True, True),
             ("corrupt_jacobi", nh.fixtures.corrupt_jacobi(), False, True),
             ("aff1", nh.fixtures.aff1(), False, False)]
    os.makedirs(os.path.join(workloads.INPUT_DIR, "negative_control"), exist_ok=True)
    gate = check.Gate({"reports": {}, "dims": {}}, default_seed=False)
    ok = True
    for stem, alg, wrong_digest, must_fail in cases:
        path = workloads.input_path("negative_control", stem)
        write_algebra(alg, path)
        with open(path, "rb") as fh:
            digest = check.sha256(fh.read())
        job = check.Job(workloads.Command(("validate", path), stem, fixed=False),
                        workloads.Input(stem, alg, stem), digest)
        if wrong_digest:
            gate.digests[job.key] = WRONG_DIGEST
        rc, out, _ = run.run_command(nh.cli, job.argv)
        problem = gate.problem(job, rc, out)
        gate.digests.pop(job.key, None)
        fired = problem is not None
        ok &= fired == must_fail
        print(f"{'FAILED' if fired else 'passed'} validate {stem}"
              f"{' (wrong digest)' if wrong_digest else ''}: {problem or 'ok'}"
              f"{'' if fired == must_fail else '  <-- unexpected'}")
    print("negative control:", "gate fires as intended" if ok else "GATE DID NOT FIRE AS INTENDED")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
