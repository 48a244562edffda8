"""Per-layer tracing of nhomlie, done entirely from the benchmark's side.

``Tracer.install`` wraps public functions of each module.  A function is
bound under several names (``from .solver import solve`` gives
``propositions.solve``, ``extension.solve`` and ``cli.solve``), so every
binding in every ``nhomlie`` module, including values of module-level
dicts, is replaced; methods are replaced on their class.

Two kinds of wrapper share one timing stack:

* a span records (id, name, start, end, parent, request) in memory;
* a hot leaf (``bracket``, ``Mat.__matmul__``, ``Echelon.add_int``, ...)
  only adds to its call count and summed time.

Every ``_s`` metric except ``cli.<command>_s`` is self time: the wrapped
call's duration minus the time of the wrapped calls beneath it, so the
self times of one pass add up to the traced wall time.  ``cli.<command>_s``
is the total time of that command.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

SPANS = {
    "io.parse": ["io.parse_algebra"],
    "io.serialize": ["io.canonical_json", "io.serialize_algebra", "io.algebra_to_doc",
                     "io.dims_doc", "io.endospace_doc", "io.prop_report_doc",
                     "io.report_envelope"],
    "algebra.validate": ["algebra.validate"],
    "algebra.center": ["algebra.center"],
    "solver.solve": ["solver.solve", "solver.omega"],
    "solver.in_space": ["solver.in_space"],
    "propositions.p31": ["propositions.check_prop31"],
    "propositions.p32": ["propositions.check_prop32"],
    "propositions.p33": ["propositions.check_prop33"],
    "propositions.p34": ["propositions.check_prop34"],
    "propositions.p38": ["propositions.check_prop38"],
    "propositions.p39": ["propositions.check_prop39"],
    "propositions.solved_dims": ["propositions.solved_dims"],
    "extension.build_check": ["extension.build_check"],
    "extension.prop42": ["extension.check_prop42"],
    "extension.prop43": ["extension.check_prop43"],
}

LEAVES = {
    "io.serialize": ["io.mat_doc", "io.subspace_doc"],
    "algebra.bracket": ["algebra.bracket"],
    "algebra.full_table": ["algebra.NHomAlgebra.full_table"],
    "solver.endo_ops": ["solver.supercommutator", "solver.jordan_product",
                        "solver.compose", "solver.alpha_twist"],
    "linalg.echelon": ["linalg.Echelon.add_int", "linalg.Echelon.add"],
    "linalg.int_row": ["linalg._int_row"],
    "linalg.rref": ["linalg.Echelon.rref_rows", "linalg.Echelon.nullspace_vectors"],
    "linalg.matmul": ["linalg.Mat.__matmul__"],
}

COMMANDS = ("validate", "solve", "props", "extend", "decompose")

# (metric, unit) in output order; BENCHMARK.json lists the same names.
PER_LAYER = (
    [(f"cli.{c}_s", "s") for c in COMMANDS] + [("cli.self_s", "s")] + [
        ("io.parse_s", "s"), ("io.serialize_s", "s"), ("io.report_bytes", "bytes"),
        ("algebra.validate_s", "s"), ("algebra.validate_calls", "count"),
        ("algebra.bracket_s", "s"), ("algebra.bracket_calls", "count"),
        ("algebra.center_s", "s"), ("algebra.full_table_s", "s"),
        ("solver.solve_s", "s"), ("solver.solve_calls", "count"),
        ("solver.unknowns", "count"), ("solver.nullity", "count"),
        ("solver.in_space_s", "s"), ("solver.in_space_calls", "count"),
        ("solver.endo_ops_s", "s"), ("solver.endo_ops", "count"),
        ("linalg.echelon_s", "s"), ("linalg.echelon_rows", "count"),
        ("linalg.echelon_useful_rows", "count"), ("linalg.echelon_useful_ratio", "ratio"),
        ("linalg.int_row_s", "s"), ("linalg.rref_s", "s"), ("linalg.max_bits", "bits"),
        ("linalg.matmul_s", "s"), ("linalg.matmul_calls", "count"),
        ("propositions.p31_s", "s"), ("propositions.p32_s", "s"),
        ("propositions.p33_s", "s"), ("propositions.p34_s", "s"),
        ("propositions.p38_s", "s"), ("propositions.p39_s", "s"),
        ("propositions.solved_dims_s", "s"),
        ("extension.build_check_s", "s"), ("extension.build_check_calls", "count"),
        ("extension.prop42_s", "s"), ("extension.prop43_s", "s"),
        ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"), ("trace.overhead_s", "s"),
        ("trace.unattributed_s", "s"), ("trace.spans", "count"), ("trace.scale", "ratio"),
    ])


def _space_counts(tr, alg, space):
    blocks = {"QDer": 2, "GDer": alg.arity + 1}.get(space.kind.value, 1)
    width = sum(1 for r in alg.parity for c in alg.parity if r == c ^ space.xi)
    tr.counts["solver.unknowns"] += blocks * width
    tr.counts["solver.nullity"] += space.dim


def _solve_counts(tr, args, space):
    if space.kind.value != "Omega":  # solve(.., Omega, ..) delegates to omega
        _space_counts(tr, args[0], space)


def _omega_counts(tr, args, space):
    _space_counts(tr, args[0], space)


def _echelon_counts(tr, args, raised):
    tr.counts["linalg.echelon_rows"] += 1
    if raised:
        tr.counts["linalg.echelon_useful_rows"] += 1
        row = next(reversed(args[0].pivots.values()))
        bits = max(abs(x) for x in row).bit_length()
        if bits > tr.max_bits:
            tr.max_bits = bits


def _report_bytes(tr, args, text):
    tr.counts["io.report_bytes"] += len(text)


HOOKS = {
    "solver.solve": _solve_counts,
    "solver.omega": _omega_counts,
    "linalg.Echelon.add_int": _echelon_counts,
    "io.canonical_json": _report_bytes,
}


class Tracer:
    def __init__(self):
        self.spans = []          # (id, name, start, end, parent, request)
        self.stack = []          # open calls: [child time, span id]
        self.request = -1
        self.next_id = 0
        self._undo = []
        self.missing = set()
        self.reset()

    def reset(self):
        self.self_time = defaultdict(float)
        self.total_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.max_bits = 0
        self.pass_spans = 0

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, metric, span, hook):
        tr = self
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if span:
                sid = tr.next_id
                tr.next_id += 1
            else:
                sid = stack[-1][1] if stack else -1
            frame = [0.0, sid]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dt = t1 - t0
                tr.self_time[metric] += dt - frame[0]
                tr.total_time[metric] += dt
                tr.calls[metric] += 1
                if stack:
                    stack[-1][0] += dt
                if span:
                    tr.spans.append((sid, metric, t0, t1, stack[-1][1] if stack else -1,
                                     tr.request))
                    tr.pass_spans += 1
            if hook is not None:
                hook(tr, args, result)
            return result

        return wrapper

    def call(self, metric, fn, *args):
        """Run ``fn(*args)`` as one span named ``metric``."""
        return self._wrap(fn, metric, True, None)(*args)

    def install(self):
        """Wrap every target listed in SPANS and LEAVES."""
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "nhomlie" or name.startswith("nhomlie.")}
        for table, span in ((SPANS, True), (LEAVES, False)):
            for metric, targets in table.items():
                for target in targets:
                    self._patch(mods, target, metric, span, HOOKS.get(target))

    def _patch(self, mods, target, metric, span, hook):
        mod_name, _, attr = target.partition(".")
        cls_name, _, name = attr.rpartition(".")
        owner = mods.get(f"nhomlie.{mod_name}")
        cls = getattr(owner, cls_name, None) if cls_name else None
        if cls_name:
            found = name in getattr(cls, "__dict__", {})
        else:
            found = hasattr(owner, name)
        if not found:
            self.missing.add(target)  # renamed or removed: its metric reads 0
            return
        if cls is not None:
            original = cls.__dict__[name]
            if isinstance(original, property):
                new = property(self._wrap(original.fget, metric, span, hook))
            else:
                new = self._wrap(original, metric, span, hook)
            setattr(cls, name, new)
            self._undo.append((setattr, cls, name, original))
            return
        original = getattr(owner, name)
        new = self._wrap(original, metric, span, hook)
        for mod in mods.values():
            for binding, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, binding, new)
                    self._undo.append((setattr, mod, binding, original))
                elif type(value) is dict:
                    for key, item in value.items():
                        if item is original:
                            value[key] = new
                            self._undo.append((dict.__setitem__, value, key, original))

    def uninstall(self):
        while self._undo:
            restore, owner, name, original = self._undo.pop()
            restore(owner, name, original)

    # -- results -----------------------------------------------------------

    def pass_metrics(self, scale: float, raw_wall: float) -> dict:
        """Per-layer figures of the pass traced since the last ``reset``.

        Times are multiplied by ``scale``, the pass's calibration factor.
        """
        st, calls, counts = self.self_time, self.calls, self.counts
        out = {f"cli.{c}_s": self.total_time[f"cli.{c}"] * scale for c in COMMANDS}
        out["cli.self_s"] = sum(st[f"cli.{c}"] for c in COMMANDS) * scale
        for metric in ("io.parse", "io.serialize", "algebra.validate", "algebra.bracket",
                       "algebra.center", "algebra.full_table", "solver.solve",
                       "solver.in_space", "solver.endo_ops", "linalg.echelon",
                       "linalg.int_row", "linalg.rref", "linalg.matmul",
                       "extension.build_check", "extension.prop42", "extension.prop43"):
            out[f"{metric}_s"] = st[metric] * scale
        for p in ("p31", "p32", "p33", "p34", "p38", "p39", "solved_dims"):
            out[f"propositions.{p}_s"] = st[f"propositions.{p}"] * scale
        for metric in ("algebra.validate", "algebra.bracket", "solver.solve",
                       "solver.in_space", "linalg.matmul", "extension.build_check"):
            out[f"{metric}_calls"] = calls[metric]
        out["solver.endo_ops"] = calls["solver.endo_ops"]
        for name in ("io.report_bytes", "solver.unknowns", "solver.nullity",
                     "linalg.echelon_rows", "linalg.echelon_useful_rows"):
            out[name] = counts[name]
        rows = counts["linalg.echelon_rows"]
        out["linalg.echelon_useful_ratio"] = (
            counts["linalg.echelon_useful_rows"] / rows if rows else 0.0)
        out["linalg.max_bits"] = self.max_bits
        out["trace.spans"] = self.pass_spans
        out["trace.unattributed_s"] = (raw_wall - sum(st.values())) * scale
        return out

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "request"],
                       "spans": self.spans}, fh)
