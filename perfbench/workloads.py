"""The three workloads and the oracles that check each operation's output.

``gen.py`` writes a workload's inputs and its ``expect.json``; ``load``
turns that into rounds, lists of :class:`Op` that the client runs back to
back. Each op's ``check(exit_code, stdout)`` returns what is wrong, or None.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import cubes

Check = Callable[[int, str], Optional[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    loads: str
    bypasses: str


WORKLOADS = {w.name: w for w in (
    Workload("cube-pipeline", loads="serialize, graphs, minority", bypasses="solver"),
    Workload("exact-search", loads="solver", bypasses="serialize, arcsets"),
    Workload("twist-hunt", loads="arcsets", bypasses="solver, minority"),
)}


@dataclass
class Op:
    instance: str
    argv: list
    check: Check


def load(workdir: Path) -> list:
    with open(workdir / "expect.json", encoding="utf-8") as handle:
        expected = json.load(handle)
    results: dict = {}
    return [[Op(op["instance"], op["argv"], oracle(op["check"], results)) for op in ops]
            for ops in expected]


def oracle(spec: dict, results: dict) -> Check:
    """The check of one operation, from its entry in ``expect.json``."""
    def check(code: int, out: str) -> Optional[str]:
        if code != spec["code"]:
            return f"exit {code}, expected {spec['code']}"
        if "stdout" in spec:
            return (None if out == spec["stdout"]
                    else f"stdout {out[:120]!r}, expected {spec['stdout'][:120]!r}")
        if "sha256" in spec:
            return (None if hashlib.sha256(out.encode()).hexdigest() == spec["sha256"]
                    else f"stdout {out[:120]!r} differs from the expected document")
        if "twist" in spec:
            return check_witness(spec["twist"], out)
        if "exact" in spec:
            return check_exact(spec, out, results)
        return check_inconclusive(spec["inconclusive"], out)
    return check


def read_document(path: str) -> tuple:
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    adjacency = {v: set() for v in doc["vertices"]}
    for u, v in doc["edges"]:
        adjacency[u].add(v)
        adjacency[v].add(u)
    return adjacency, {(u, v) for u, v in doc["arcs"] or ()}


def check_witness(path: str, out: str) -> Optional[str]:
    """The printed cycle must be a chain twist of the document's arc set."""
    prefix = "chain twist: "
    if not out.startswith(prefix) or not out.endswith("\n"):
        return f"stdout {out[:120]!r}"
    adjacency, arcs = read_document(path)
    if not cubes.is_chain_twist(adjacency, arcs, out[len(prefix):].split()):
        return f"witness {out.strip()!r} is not a chain twist"
    return None


def check_exact(spec: dict, out: str, results: dict) -> Optional[str]:
    """Exact status; Z equal to the known value, else between the minimum
    degree and the half-set bound; the witness has Z vertices and forces
    under the naive closure; prune and no-prune runs agree."""
    got = json.loads(out)
    found, witness = got["z"], got["witness"]
    if got["status"] != "exact" or got["bounds"] != [found, found]:
        return f"status {got['status']}, bounds {got['bounds']}"
    if spec["z"] is not None and found != spec["z"]:
        return f"Z={found}, expected {spec['z']}"
    adjacency, _ = read_document(spec["exact"])
    degree = min(len(s) for s in adjacency.values())
    if not degree <= found <= len(adjacency) // 2 or len(set(witness)) != found:
        return f"Z={found} with witness {witness}"
    if len(cubes.closure(adjacency, witness)) != len(adjacency):
        return f"witness {witness} does not force"
    previous = results.setdefault(spec["exact"], (found, witness))
    if previous != (found, witness):
        return f"result {(found, witness)} differs from {previous} of the other prune mode"
    return None


def check_inconclusive(max_k: int, out: str) -> Optional[str]:
    got = json.loads(out)
    low, high = got["bounds"]
    if (got["status"] != "inconclusive" or got["z"] is not None
            or got["witness"] is not None or low != max_k + 1 or high < low):
        return f"payload {got}, expected inconclusive with lower bound {max_k + 1}"
    return None
