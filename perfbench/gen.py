"""Seeded input generator: writes a workload's files and its expectations.

    python3 perfbench/gen.py WORKLOAD SEED DIR

Writes the spec files and the JSON and DOT documents into DIR, and
``expect.json``: a list of rounds, each a list of operations
``{"instance", "argv", "check"}``. The client stops only at the end of a
round, so every run measures whole rounds of the same mix. ``check`` holds the expected exit code
and the oracle's data; see ``workloads.oracle``. The benchmark runs this as
a child process, so that generating the inputs leaves nothing in the
measured process's memory.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import cubes

# --- cube-pipeline ---------------------------------------------------------

PIPELINE_DIMENSIONS = (10, 11, 12)


def cube_pipeline(workdir: Path, rng: random.Random) -> list:
    """Minority cubes and random full-permutation twisted cubes of dimension
    10 to 12; the random cubes carry the force record of their copy-0 half.
    Each goes through build, verify arcs, verify twist, verify set, export
    --dot and verify arcs on the DOT document. One round holds them all."""
    round_ = []
    for n in PIPELINE_DIMENSIONS:
        for kind in ("minority", "twisted"):
            name = f"{kind}-{n}"
            if kind == "minority":
                cube = cubes.minority_cube(n)
                if len(cube.arcs) != 2 ** (n - 1) + 2 ** (n - 3) - 1:
                    raise AssertionError(f"{name} has {len(cube.arcs)} arcs")
                build_argv = ["build", "minority", "-n", str(n)]
            else:
                cube = cubes.twisted_cube(cubes.random_perms(n, rng))
                cube.arcs = cubes.half_trace_arcs(cube)
                spec = workdir / f"{name}.spec.json"
                cubes.write_json(spec, cubes.spec_file(cube))
                build_argv = ["build", "twisted-from-spec", "--spec-file", str(spec)]
            json_path, dot_path = workdir / f"{name}.json", workdir / f"{name}.dot"
            cubes.write_json(json_path, cubes.document(cube, with_set=True))
            dot = cubes.dot_text(cube)
            cubes.write_text(dot_path, dot)
            arcs_ok = text(0, arcs_report(cube, forcing=True))
            size, initial = cube.size, len(cube.chain_initials())
            ops = [
                (build_argv, digest(0, built_text(cube, kind))),
                (["verify", "arcs", "--input", str(json_path)], arcs_ok),
                (["verify", "twist", "--input", str(json_path)],
                 text(0, "no chain twist found (method=walk)\n")),
                (["verify", "set", "--input", str(json_path)],
                 text(0, f"initial {initial}, derived {size}/{size}, 0 unforced\n"
                         "PASS: zero forcing set\n")),
                (["export", "--dot", "--input", str(json_path)], digest(0, dot)),
                (["verify", "arcs", "--input", str(dot_path)], arcs_ok),
            ]
            round_ += [{"instance": name, "argv": argv, "check": check}
                       for argv, check in ops]
    return [round_]


def built_text(cube: cubes.Cube, kind: str) -> str:
    """The exact stdout of ``build``: the document without a set, with the
    bridge arc for minority cubes and no arcs for the others."""
    doc = cubes.document(cube)
    if kind == "minority":
        zeros = "0" * (cube.n - 4)
        doc["bridge_arc"] = ["01" + zeros + "10", "01" + zeros + "11"]
    else:
        doc["arcs"] = None
    return json.dumps(doc, indent=2) + "\n"


# --- exact-search ----------------------------------------------------------

RANDOM_FOUR_CUBES = 4
MAX_K = 5


def exact_search(workdir: Path, rng: random.Random) -> list:
    """Q4 (Z=8), minority-4 (Z=7) and random twisted 4-cubes solved exactly;
    Q5, minority-5 and a random twisted 5-cube with --max-k, which must stay
    inconclusive with lower bound max_k+1. Each document is solved once with
    the default prune and once with --no-prune. One round holds them all."""
    docs = [("Q4", cubes.hypercube(4), 8), ("minority-4", cubes.minority_cube(4), 7)]
    docs += [(f"twisted-4-{i}", cubes.twisted_cube(cubes.random_perms(4, rng)), None)
             for i in range(RANDOM_FOUR_CUBES)]
    docs += [("Q5", cubes.hypercube(5), None), ("minority-5", cubes.minority_cube(5), None),
             ("twisted-5", cubes.twisted_cube(cubes.random_perms(5, rng)), None)]
    round_ = []
    for name, cube, z in docs:
        cube.arcs = []
        path = workdir / f"{name}.json"
        cubes.write_json(path, cubes.document(cube))
        argv = ["solve", "--input", str(path)]
        if cube.n == 5:
            argv += ["--max-k", str(MAX_K)]
            check = {"code": 1, "inconclusive": MAX_K}
        else:
            check = {"code": 0, "exact": str(path), "z": z}
        round_ += [{"instance": name, "argv": argv, "check": check},
                   {"instance": name, "argv": argv + ["--no-prune"], "check": check}]
    return [round_]


# --- twist-hunt -------------------------------------------------------------

# One group of documents: (dimension, arc-set kind). About half are random
# dipath forests, almost always twisted; the others are force records, never
# twisted. Forests stop at dimension 5: on dimension-6 forests the witness
# extractor (exponential in the host) runs for seconds to minutes on about a
# quarter of the draws, longer than a run can wait, while on dimension 5 it
# ends within 0.1 s and still shows as the tail. The exhaustive checks of
# force records on 4-cubes are the steady bulk of the time.
TWIST_GROUP = ((4, "trace"),) * 5 + ((4, "dipath"), (5, "trace")) + ((5, "dipath"),) * 4 + (
    (6, "trace"),) * 2
TWIST_GROUPS = 40


def twist_hunt(workdir: Path, rng: random.Random) -> list:
    """Arc sets on random twisted hosts of dimension 4 (verify twist picks
    the exhaustive detector) and 5 and 6 (it picks walk; dimension 6 carries
    force records only); each document gets
    verify arcs, then verify twist. Both oracles follow an independent
    execution check, so verify arcs passes exactly when verify twist finds
    no twist. Each group of documents is a round."""
    rounds = []
    for group in range(TWIST_GROUPS):
        round_ = []
        rounds.append(round_)
        for n, kind in TWIST_GROUP:
            name = f"{kind}-{n}-{group}.{len(round_) // 2}"
            cube = cubes.twisted_cube(cubes.random_perms(n, rng))
            cube.arcs = (cubes.random_trace_arcs(cube, rng) if kind == "trace"
                         else cubes.random_dipath_arcs(cube, rng))
            forcing = cubes.executes(cube)
            if kind == "trace" and not forcing:
                raise AssertionError(f"force record {name} does not execute")
            path = workdir / f"{name}.json"
            cubes.write_json(path, cubes.document(cube))
            method = "exhaustive" if cube.size <= 16 else "walk"
            twist = (text(0, f"no chain twist found (method={method})\n") if forcing
                     else {"code": 1, "twist": str(path)})
            round_ += [
                {"instance": name, "argv": ["verify", "arcs", "--input", str(path)],
                 "check": text(1 - forcing, arcs_report(cube, forcing))},
                {"instance": name, "argv": ["verify", "twist", "--input", str(path)],
                 "check": twist},
            ]
    return rounds


def arcs_report(cube: cubes.Cube, forcing: bool) -> str:
    n_arcs = len(cube.arcs)
    head = (f"{n_arcs} arcs, {cube.size - n_arcs} chains, "
            f"{len(cube.isolated())} isolated vertices\n")
    if forcing:
        return head + f"PASS: forcing arc set, {n_arcs} arcs executed\n"
    return head + "FAIL: greedy execution stalls; not a forcing arc set\n"


def text(code: int, stdout: str) -> dict:
    return {"code": code, "stdout": stdout}


def digest(code: int, stdout: str) -> dict:
    return {"code": code, "sha256": hashlib.sha256(stdout.encode()).hexdigest()}


GENERATORS = {"cube-pipeline": cube_pipeline, "exact-search": exact_search,
              "twist-hunt": twist_hunt}


def main(argv) -> int:
    workload, seed, workdir = argv[0], int(argv[1]), Path(argv[2])
    rounds = GENERATORS[workload](workdir, random.Random(seed))
    cubes.write_json(workdir / "expect.json", rounds)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
