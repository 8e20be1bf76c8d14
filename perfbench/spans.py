"""Spans around the package's public functions, and the per-layer metrics.

The tracer replaces the module bindings that the CLI calls with wrappers
that record a span (name, start, end, parent, operation id) and the counts
read from the arguments and the returned value. Spans stay in memory until
the run writes them out. Counting happens after a span's end time is taken,
so it shows up only in the tracing overhead.
"""

from __future__ import annotations

import importlib
import json
import time
from dataclasses import dataclass, field
from typing import Optional


class Stall(BaseException):
    """Raised by the stall timer inside an operation that ran too long.

    A BaseException, so that no ``except Exception`` in the program can
    swallow it.
    """


@dataclass
class Span:
    id: int
    parent: Optional[int]
    op: int
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def secs(self) -> float:
        return self.end - self.start


def _built(args, kwargs, graph) -> dict:
    # Read the adjacency directly: Graph.edge_count would build and cache
    # edge_keys, changing the program's memory and later timings.
    return {"edges": sum(len(s) for s in graph.adjacency.values()) // 2}


def _text_out(args, kwargs, text) -> dict:
    return {"bytes": len(text)}


def _text_in(args, kwargs, doc) -> dict:
    return {"bytes": len(args[0])}


def _arcs(args, kwargs, result) -> dict:
    return {"arcs": len(args[0])}


def _twist(args, kwargs, witness) -> dict:
    return {"method": kwargs.get("method", "exhaustive"),
            "outcome": "free" if witness is None else "found"}


def _solve(args, kwargs, result) -> dict:
    return {"subsets": result.subsets_tested, "prune": kwargs.get("prune", True),
            "status": result.status}


# (module, attribute, span name, counts from (args, kwargs, result))
BINDINGS = (
    ("zfcubes.cli", "build_hypercube", "graphs.build", _built),
    ("zfcubes.cli", "build_twisted", "graphs.build", _built),
    ("zfcubes.minority", "build_twisted", "graphs.build", _built),
    ("zfcubes.cli", "build_minority_cube", "minority.build",
     lambda args, kwargs, cube: {"arcs": len(cube.arcs)}),
    ("zfcubes.cli", "dumps_json_document", "serialize.dump", _text_out),
    ("zfcubes.cli", "to_dot", "serialize.dot", _text_out),
    ("zfcubes.cli", "from_json_document", "serialize.parse", _text_in),
    ("zfcubes.cli", "from_dot", "serialize.parse", _text_in),
    ("zfcubes.cli", "closure", "forcing.closure",
     lambda args, kwargs, trace: {"forces": len(trace.forces)}),
    ("zfcubes.cli", "validate_arcset", "arcsets.check", _arcs),
    ("zfcubes.cli", "decompose", "arcsets.check", _arcs),
    ("zfcubes.cli", "is_forcing_arc_set", "arcsets.check", _arcs),
    ("zfcubes.cli", "find_chain_twist", "arcsets.twist", _twist),
    ("zfcubes.cli", "solve_exact", "solver.solve", _solve),
)


class Tracer:
    """Records spans while installed, one operation at a time.

    A ``cli.op`` span starts a new operation; every span opened inside it
    carries that operation's id.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._op = -1
        self._saved: list = []

    def begin(self, name: str) -> Span:
        if name == "cli.op":
            self._op += 1
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), parent, self._op, name, time.perf_counter())
        self.spans.append(span)
        self._open.append(span)
        return span

    def end(self, span: Span, at: Optional[float] = None, **attrs) -> None:
        span.end = time.perf_counter() if at is None else at
        span.attrs.update(attrs)
        while self._open.pop() is not span:
            pass  # children a stall cut short

    def install(self) -> None:
        for module_name, attr, name, counts in BINDINGS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counts))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, original, name, counts):
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = original(*args, **kwargs)
            except Stall:
                self.end(span, error="stalled")
                raise
            except BaseException as exc:
                self.end(span, error=type(exc).__name__)
                raise
            end = time.perf_counter()
            self.end(span, at=end, **counts(args, kwargs, result))
            return result
        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps({"id": s.id, "parent": s.parent, "op": s.op,
                                         "name": s.name, "start": s.start, "end": s.end,
                                         **s.attrs}) + "\n")


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer metrics from one traced run, as name -> (value, unit).

    ``*_s`` is seconds spent in the layer per operation that called it; rates
    divide a count by the layer's total time. A layer the workload never
    calls reports 0.
    """
    def done(name, **match):
        return [s for s in spans if s.name == name and "error" not in s.attrs
                and all(s.attrs.get(k) == v for k, v in match.items())]

    def per_op(group, secs=lambda s: s.secs):
        ops = {s.op for s in group}
        return sum(secs(s) for s in group) / len(ops) if ops else 0.0

    def mean(values):
        values = list(values)
        return sum(values) / len(values) if values else 0.0

    def rate(group, key):
        total = sum(s.secs for s in group)
        return sum(s.attrs[key] for s in group) / total if total else 0.0

    children: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            children[s.parent] = children.get(s.parent, 0.0) + s.secs

    def self_secs(s):
        return s.secs - children.get(s.id, 0.0)

    graphs = done("graphs.build")
    serialize = done("serialize.dump") + done("serialize.parse") + done("serialize.dot")
    closures = done("forcing.closure")
    checks = done("arcsets.check")
    solves = done("solver.solve")
    prune, noprune = done("solver.solve", prune=True), done("solver.solve", prune=False)
    ops = [s for s in spans if s.name == "cli.op"]
    metrics = {
        "graphs.build_s": per_op(graphs),
        "graphs.edges_per_s": rate(graphs, "edges"),
        "minority.build_s": per_op(done("minority.build"), self_secs),
        "serialize.dump_s": per_op(done("serialize.dump")),
        "serialize.parse_s": per_op(done("serialize.parse")),
        "serialize.dot_s": per_op(done("serialize.dot")),
        "serialize.mb_per_s": rate(serialize, "bytes") / 1e6,
        "forcing.closure_s": per_op(closures),
        "forcing.forces_per_s": rate(closures, "forces"),
        "arcsets.check_s": per_op(checks),
        "arcsets.arcs_per_s": rate(checks, "arcs"),
        "arcsets.walk_free_s": per_op(done("arcsets.twist", method="walk", outcome="free")),
        "arcsets.walk_found_s": per_op(done("arcsets.twist", method="walk", outcome="found")),
        "arcsets.exhaustive_s": per_op(done("arcsets.twist", method="exhaustive")),
        "arcsets.stalls": sum(1 for s in spans if s.name == "arcsets.twist"
                              and s.attrs.get("error") == "stalled"),
        "solver.solve_s": per_op(solves),
        "solver.subsets": mean(s.attrs["subsets"] for s in solves),
        "solver.subsets_per_s_prune": rate(prune, "subsets"),
        "solver.subsets_per_s_noprune": rate(noprune, "subsets"),
        "solver.exact_ratio": mean(s.attrs["status"] == "exact" for s in solves),
        "cli.self_s": per_op(ops, self_secs),
    }
    return {name: (value, unit(name)) for name, value in metrics.items()}


def unit(name: str) -> str:
    if name.endswith("mb_per_s"):
        return "MB/s"
    if "_per_s" in name:
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("ratio") else "count"
