"""Correctness gate behind ``failed_commands``.

A command fails when its exit code is not 0, when its report differs from
the SHA-256 digest committed in ``expected.json``, or when it breaks a check
that holds at every seed:

* ``validate``, ``props`` and ``decompose`` reports say ``passed: true``;
* every dim of a ``solve`` report equals the committed dim of its sparse
  source algebra (dims are invariant under an even basis change);
* ``extend`` emits an algebra of twice the input's dimension.

Digests are keyed by the command line and the input file's digest.  A
report must have a committed digest at the default seed, and at every seed
when neither its input nor its command line depends on the seed (``fixed``);
other reports have none away from the default seed.
"""

from __future__ import annotations

import hashlib
import json
import os

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_key(argv, input_digest: str) -> str:
    return " ".join(argv) + " @" + input_digest[:16]


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


class Job:
    """One command of a workload, with what the gate needs to judge it."""

    def __init__(self, cmd, plan_input, input_digest: str):
        self.argv = list(cmd.argv)
        self.key = report_key(cmd.argv, input_digest)
        self.fixed = cmd.fixed
        self.source = plan_input.source
        self.base_dim = plan_input.alg.dim


class Gate:
    """Checks one command's exit code and report against the expectations."""

    def __init__(self, expected: dict, default_seed: bool):
        self.digests = expected["reports"]
        self.dims = expected["dims"]
        self.default_seed = default_seed

    def problem(self, job: Job, rc, out: str):
        """None when the command's result is correct, else what is wrong."""
        if rc != 0:
            return f"exit code {rc!r}"
        want = self.digests.get(job.key)
        if want is None and (self.default_seed or job.fixed):
            return "no committed digest for this report"
        if want is not None and want != sha256(out.encode("utf-8")):
            return "report differs from its committed digest"
        try:
            doc = json.loads(out)
        except json.JSONDecodeError as exc:
            return f"report is not JSON ({exc})"
        command = job.argv[0]
        if command in ("validate", "props", "decompose") and doc.get("passed") is not True:
            return "report does not say passed: true"
        if command == "solve":
            ref = self.dims.get(job.source)
            if ref is None:
                return f"no committed dims for source {job.source}"
            wrong = {k: v for k, v in doc["dims"].items() if ref.get(k) != v}
            if wrong or not doc["dims"]:
                return f"dims differ from source {job.source}: {wrong}"
        if command == "extend" and doc.get("dim") != 2 * job.base_dim:
            return f"extension has dim {doc.get('dim')}, expected {2 * job.base_dim}"
        return None
