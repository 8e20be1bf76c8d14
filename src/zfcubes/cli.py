"""Command line front end: build, verify, solve, and export.

Exit codes are a stable contract: 0 for a passing run, 1 for a mathematical
failure (set does not force, arcs do not execute, a chain twist exists, a
solve stayed inconclusive), 2 for usage, parse, or domain errors, and for a
run cut short by recursion depth, memory or an interrupt; the manifest then
names the exception class as ``error_type``. Every invocation writes one
machine-readable manifest line to stderr. It carries the process's peak
resident set size as ``peak_rss_mb`` and, for ``solve``, the ``engine`` it
ran and the work counts of its ``SolveResult``. Stdout carries only the
requested payload and is byte-identical across identical invocations.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import resource
import sys
import time

from . import __version__
from .arcsets import EXHAUSTIVE_VERTEX_LIMIT, decompose, find_chain_twist, \
    is_forcing_arc_set, validate_arcset
from .errors import ArcStructureError, DocumentError, MatchingError, \
    ResourceLimitError
from .forcing import closure
from .graphs import TwistSpec, _check_dimension, build_hypercube, build_twisted, \
    identity_matching
from .minority import build_minority_cube
from .serialize import dumps_json_document, from_dot, from_json_document, to_dot
from .solver import solve_exact

_manifest: dict = {}


def _read_input(path: str) -> str:
    if path == "-":
        data = sys.stdin.read()
        _manifest.setdefault("inputs", {})["<stdin>"] = hashlib.sha256(
            data.encode()).hexdigest()
        return data
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc.strerror}") from exc
    _manifest.setdefault("inputs", {})[path] = hashlib.sha256(raw).hexdigest()
    return raw.decode("utf-8", errors="replace")


def _load_document(path: str):
    text = _read_input(path)
    if text.lstrip().startswith(("graph", "digraph")):
        return from_dot(text)
    return from_json_document(text)


def _emit(text: str, output: str | None) -> None:
    if output is None or output == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise DocumentError(f"cannot write {output}: {exc.strerror}") from exc


def _parse_twist_spec_file(text: str) -> TwistSpec:
    """Spec file: {"levels": [matching, ...]} where matching is "identity" or
    a partial override table applied on top of the standard matching."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc.msg}",
                            location=f"line {exc.lineno} column {exc.colno}") from exc
    if not isinstance(data, dict) or not isinstance(data.get("levels"), list):
        raise DocumentError("spec file must be an object with a 'levels' list")
    _check_dimension(len(data["levels"]))  # before any level's table is built
    matchings = []
    for level, entry in enumerate(data["levels"], start=1):
        table = identity_matching(level)
        if entry == "identity":
            pass
        elif isinstance(entry, dict):
            for key, value in entry.items():
                if key not in table or not isinstance(value, str) or value not in table:
                    bad = value if key in table else key
                    raise DocumentError(f"{bad!r} is not a {level - 1}-bit string",
                                        location=f"levels[{level - 1}]")
                table[key] = value
        else:
            raise DocumentError("each level must be 'identity' or an override table",
                                location=f"levels[{level - 1}]")
        matchings.append(table)
    return TwistSpec.from_level_matchings(matchings)


def cmd_build(args) -> int:
    if args.kind == "hypercube":
        if args.n is None:
            raise DocumentError("build hypercube requires -n")
        graph = build_hypercube(args.n)
        text = dumps_json_document(graph)
    elif args.kind == "minority":
        if args.n is None:
            raise DocumentError("build minority requires -n")
        cube = build_minority_cube(args.n)
        extras = {}
        if cube.bridge_arc is not None:
            extras["bridge_arc"] = list(cube.bridge_arc)
        text = dumps_json_document(cube.graph, cube.arcs, extras=extras)
    else:  # twisted-from-spec
        if args.spec_file is None:
            raise DocumentError("build twisted-from-spec requires --spec-file")
        spec = _parse_twist_spec_file(_read_input(args.spec_file))
        text = dumps_json_document(build_twisted(spec))
    _emit(text, args.output)
    return 0


def cmd_verify(args) -> int:
    doc = _load_document(args.input)
    graph = doc.graph
    if args.mode == "set":
        if args.set is not None:
            initial = tuple(s for s in args.set.split(",") if s)
        elif doc.initial_set is not None:
            initial = doc.initial_set
        else:
            raise DocumentError("no initial set: supply --set or a 'set' key in the document")
        trace = closure(graph, initial)
        unforced = len(graph) - len(trace.derived)
        print(f"initial {len(set(initial))}, derived {len(trace.derived)}/{len(graph)}, "
              f"{unforced} unforced")
        if unforced:
            print("FAIL: not a zero forcing set")
            return 1
        print("PASS: zero forcing set")
        return 0
    if doc.arcs is None:
        raise DocumentError("document carries no 'arcs' payload")
    if args.mode == "arcs":
        try:
            decomposition = decompose(doc.arcs)
        except ArcStructureError as exc:
            print(f"violation: {exc}")
            print("FAIL: arcs do not form vertex-disjoint directed paths")
            return 1
        except ValueError:  # decompose names only the first problem
            for problem in validate_arcset(doc.arcs):
                print(f"violation: {problem}")
            print("FAIL: not a valid arc set")
            return 1
        print(f"{len(doc.arcs)} arcs, {decomposition.chain_count} chains, "
              f"{len(decomposition.isolated)} isolated vertices")
        if not is_forcing_arc_set(doc.arcs):
            print("FAIL: greedy execution stalls; not a forcing arc set")
            return 1
        print(f"PASS: forcing arc set, {len(doc.arcs)} arcs executed")
        return 0
    # mode == "twist"
    method = args.method
    if method == "auto":
        method = "exhaustive" if len(graph) <= EXHAUSTIVE_VERTEX_LIMIT else "walk"
    witness = find_chain_twist(doc.arcs, method=method)
    if witness is None:
        print(f"no chain twist found (method={method})")
        return 0
    print("chain twist: " + " ".join(str(v) for v in witness))
    return 1


def cmd_solve(args) -> int:
    _manifest["engine"] = "certificate" if args.no_prune else "wavefront"
    doc = _load_document(args.input)
    result = solve_exact(doc.graph,
                         max_k=args.max_k,
                         budget_subsets=args.budget_subsets,
                         budget_secs=args.budget_secs,
                         prune=not args.no_prune)
    payload = {
        "z": result.z,
        "witness": list(result.witness) if result.witness is not None else None,
        "status": result.status,
        "bounds": list(result.bounds),
    }
    _emit(json.dumps(payload, indent=2) + "\n", args.output)
    for key in ("subsets_tested", "wavefront_closures", "memo_hits",
                "feasibility_checks", "pruned_subsets"):
        _manifest[key] = getattr(result, key)
    return 0 if result.status == "exact" else 1


def cmd_export(args) -> int:
    doc = _load_document(args.input)
    fmt = "dot" if args.dot else args.format
    if fmt == "dot":
        text = to_dot(doc.graph, doc.arcs)
    else:
        text = dumps_json_document(doc.graph, doc.arcs, doc.initial_set,
                                   extras=doc.extras)
    _emit(text, args.output)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process, so handlers are named and looked up when called
    parser = argparse.ArgumentParser(
        prog="zfcubes",
        description="Construct twisted hypercubes, run zero forcing, verify "
                    "forcing arc sets, and compute exact zero forcing numbers.")
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="construct a graph and print its JSON document")
    build.add_argument("kind", choices=["hypercube", "minority", "twisted-from-spec"])
    build.add_argument("-n", type=int, default=None, help="dimension")
    build.add_argument("--spec-file", default=None, help="twist plan JSON for twisted-from-spec")
    build.add_argument("--output", default=None)
    build.set_defaults(handler="cmd_build")

    verify = sub.add_parser("verify", help="check a set, an arc set, or twist-freeness")
    verify.add_argument("mode", choices=["set", "arcs", "twist"])
    _add_verify_options(verify)

    verify_set = sub.add_parser("verify-set", help="shorthand for 'verify set'")
    _add_verify_options(verify_set)
    verify_set.set_defaults(mode="set")

    solve = sub.add_parser("solve", help="exact zero forcing number")
    solve.add_argument("--input", required=True, help="graph document (JSON or DOT), '-' for stdin")
    solve.add_argument("--max-k", type=int, default=None)
    solve.add_argument("--budget-secs", type=float, default=None)
    solve.add_argument("--budget-subsets", type=int, default=None)
    solve.add_argument("--no-prune", action="store_true",
                       help="closure-test every subset (literal exhaustion)")
    solve.add_argument("--output", default=None)
    solve.set_defaults(handler="cmd_solve")

    export = sub.add_parser("export", help="re-emit a document as JSON or DOT")
    export.add_argument("--input", required=True)
    export.add_argument("--format", choices=["json", "dot"], default="json")
    export.add_argument("--dot", action="store_true", help="shorthand for --format dot")
    export.add_argument("--output", default=None)
    export.set_defaults(handler="cmd_export")
    return parser


def _add_verify_options(sub_parser) -> None:
    sub_parser.add_argument("--input", required=True,
                            help="graph document (JSON or DOT), '-' for stdin")
    sub_parser.add_argument("--set", default=None,
                            help="comma-separated initial vertices (mode 'set')")
    sub_parser.add_argument("--method", choices=["auto", "exhaustive", "walk"],
                            default="auto", help="twist detector (mode 'twist')")
    sub_parser.set_defaults(handler="cmd_verify")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    _manifest.clear()
    _manifest.update({"command": argv[0] if argv else None, "parameters": argv[1:],
                      "version": __version__})
    started = time.monotonic()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        if code != 0:
            _write_manifest("error", started)
        return code
    try:
        code = globals()[args.handler](args)
    except (DocumentError, MatchingError, ResourceLimitError, ValueError,
            RecursionError, MemoryError, KeyboardInterrupt) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        _manifest["error_type"] = type(exc).__name__
        code = 2
    _write_manifest({0: "ok", 1: "fail"}.get(code, "error"), started)
    return code


def _write_manifest(outcome: str, started: float) -> None:
    _manifest["elapsed_secs"] = round(time.monotonic() - started, 3)
    # ru_maxrss is in KiB on Linux: the process's peak so far, not this run's
    _manifest["peak_rss_mb"] = round(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    _manifest["outcome"] = outcome
    print(json.dumps(_manifest, sort_keys=True), file=sys.stderr)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
