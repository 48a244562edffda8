"""The four workloads: which algebras each one writes and which commands it runs.

A workload's ``plan(nh, seed)`` returns its inputs and its command list.
Inputs are written to ``.bench_inputs/<workload>/<stem>.json`` and passed to
the CLI by that relative path, so reports (which embed the path) are the
same in every checkout.  The seed fixes the order of the commands, the
inputs of ``solve_dense`` and the ``props --seed`` of ``fixtures_props``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import inputs

DEFAULT_SEED = 0
INPUT_DIR = ".bench_inputs"
KINDS = ("Omega", "Der", "ZDer", "C", "QC", "QDer", "GDer")
PROPS_SEED = 20260811  # the CLI's own default for ``props --seed``


@dataclass(frozen=True)
class Input:
    stem: str
    alg: object
    source: str  # sparse algebra whose solved dims this input must reproduce


@dataclass(frozen=True)
class Command:
    argv: tuple
    stem: str
    fixed: bool = True  # the report is the same at every seed


@dataclass(frozen=True)
class Plan:
    inputs: tuple
    commands: tuple


def input_path(workload: str, stem: str) -> str:
    return f"{INPUT_DIR}/{workload}/{stem}.json"


def _solve_commands(name, stems_kinds, fixed):
    return [Command(("solve", input_path(name, stem), "--kind", kind, "--kmax", "2"),
                    stem, fixed)
            for stem, kinds in stems_kinds for kind in kinds]


def solve_sparse(nh, seed):
    algs = [Input("so3x3", inputs.so3_sum(nh, 3), "so3x3"),
            Input("so3x4", inputs.so3_sum(nh, 4), "so3x4"),
            Input("osp12yau", inputs.osp12_yau(nh), "osp12yau")]
    commands = _solve_commands("solve_sparse", [(a.stem, KINDS) for a in algs], True)
    random.Random(f"solve_sparse:{seed}").shuffle(commands)
    return Plan(tuple(algs), tuple(commands))


# so(3)^(+3) runs 10-30x slower per kind once dense; its four cheapest kinds
# keep a pass near seven seconds.  Two copies of each source, each through
# its own random basis change, halve the spread that one draw would add.
DENSE_SO3X3_KINDS = ("Omega", "Der", "ZDer", "QC")
DENSE_COPIES = 2


def solve_dense(nh, seed):
    rng = random.Random(f"solve_dense:{seed}")
    sources = [("so3x2", inputs.so3_sum(nh, 2), KINDS),
               ("so3x3", inputs.so3_sum(nh, 3), DENSE_SO3X3_KINDS),
               ("osp12yau", inputs.osp12_yau(nh), KINDS)]
    algs, stems_kinds = [], []
    for source, alg, kinds in sources:
        for copy in range(DENSE_COPIES):
            stem = f"{source}_dense{copy}"
            algs.append(Input(stem, inputs.dense_copy(nh, alg, rng), source))
            stems_kinds.append((stem, kinds))
    commands = _solve_commands("solve_dense", stems_kinds, False)
    random.Random(f"solve_dense:order:{seed}").shuffle(commands)
    return Plan(tuple(algs), tuple(commands))


def fixtures_props(nh, seed):
    fixtures = nh.fixtures.FIXTURES
    algs = [Input(name, build(), name) for name, build in fixtures.items()]
    random.Random(f"fixtures_props:{seed}").shuffle(algs)
    commands = []
    for a in algs:
        path = input_path("fixtures_props", a.stem)
        commands.append(Command(("validate", path), a.stem))
        commands.append(Command(("props", path, "--kmax", "2",
                                 "--seed", str(PROPS_SEED + seed)), a.stem, False))
    return Plan(tuple(algs), tuple(commands))


def ternary_extension(nh, seed):
    algs = [Input("threeLie4", nh.fixtures.threeLie4(), "threeLie4"),
            Input("osp12", inputs.osp12(nh), "osp12")]
    random.Random(f"ternary_extension:{seed}").shuffle(algs)
    commands = []
    for a in algs:
        path = input_path("ternary_extension", a.stem)
        commands += [Command(("validate", path), a.stem),
                     Command(("extend", path), a.stem),
                     Command(("decompose", path, "--kmax", "2"), a.stem)]
    return Plan(tuple(algs), tuple(commands))


WORKLOADS = {
    "solve_sparse": solve_sparse,
    "solve_dense": solve_dense,
    "fixtures_props": fixtures_props,
    "ternary_extension": ternary_extension,
}
