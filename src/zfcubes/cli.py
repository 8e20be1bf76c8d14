"""Command line front end: build, verify, solve, and export.

Exit codes are a stable contract: 0 for a passing run, 1 for a mathematical
failure (set does not force, arcs do not execute, a chain twist exists, a
solve stayed inconclusive), 2 for usage, parse, or domain errors, and for a
run cut short by recursion depth, memory, an interrupt or a stdout that
cannot be written (a closed pipe, a full disk); the manifest then names the
exception class as ``error_type``. Every invocation, ``--help`` too, writes
one machine-readable manifest line to stderr while stderr is open; a closed
or missing stderr loses the manifest, never the exit code or a byte of
stdout. It carries the process's peak resident set size as ``peak_rss_mb``
and, for ``solve``, the ``engine`` it ran and the work counts of its
``SolveResult``. Stdout carries only the requested payload and is
byte-identical across identical invocations.

A file and stdin (``-``) are read alike: as bytes, hashed into the manifest's
``inputs``, and decoded as UTF-8 with one leading byte order mark dropped
and bad bytes replaced. A closed stdin or stdout is a read or write error.
The console script writes stdout as UTF-8, as it writes an ``--output``
file, whatever the locale. ``export --dot`` is the one DOT switch.
``verify twist`` scans exhaustively a host that ``arcsets.exhaustive_fits``
takes, and walks any other.

Each command runs with the cyclic garbage collector paused, and ``main``
restores the caller's setting on every way out, an escaping exception too.
A command's data holds no reference cycles and is freed by reference
counting, so collections during a command would only rescan it.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time

from . import __version__
from .arcsets import decompose, exhaustive_fits, find_chain_twist, is_forcing_arc_set, \
    validate_arcset
from .errors import ArcStructureError, DocumentError, ResourceLimitError
# closure stays bound here for perfbench/spans.py; verify set counts over ids
from .forcing import closure, derived_count
from .graphs import TwistSpec, _check_dimension, bitstrings, build_hypercube, \
    build_twisted
from .minority import build_minority_cube
# dumps_json_document stays bound here for perfbench/spans.py; commands emit
# through json_document_chunks
from .serialize import _loads_json, dumps_json_document, from_dot, from_json_document, \
    json_document_chunks, to_dot
from .solver import solve_exact

_manifest: dict = {}


def _read_input(path: str) -> str:
    try:
        if path == "-":
            if sys.stdin is None:  # the process was started with stdin closed
                raise DocumentError(f"cannot read {path}: stdin is closed")
            raw = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as handle:
                raw = handle.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc.strerror}") from exc
    _manifest.setdefault("inputs", {})["<stdin>" if path == "-" else path] = \
        hashlib.sha256(raw).hexdigest()
    return raw.decode("utf-8-sig", errors="replace")


def _add_phase(phase: str, started: float) -> None:
    _manifest["phase_secs"][phase] += time.perf_counter() - started


def _load(parse, path: str):
    """``parse`` applied to the input's text, timed as the load phase."""
    started = time.perf_counter()
    try:
        return parse(_read_input(path))
    finally:
        _add_phase("load", started)


def _parse_document(text: str):
    if text.lstrip().startswith(("graph", "digraph")):
        return from_dot(text)
    return from_json_document(text)


def _emit(render, output: str | None) -> None:
    """Write the payload's text chunks to stdout or the output file.

    ``render()`` checks the payload before it returns the chunks, so a
    refused payload writes nothing, and rendering counts as emitting.
    """
    started = time.perf_counter()
    try:
        chunks = render()
        if output is None or output == "-":
            sys.stdout.writelines(chunks)
        else:
            try:
                with open(output, "w", encoding="utf-8") as handle:
                    handle.writelines(chunks)
            except OSError as exc:
                raise DocumentError(f"cannot write {output}: {exc.strerror}") from exc
    finally:
        _add_phase("emit", started)


def _parse_twist_spec_file(text: str) -> TwistSpec:
    """Spec file: {"levels": [matching, ...]} where matching is "identity" or
    a partial override table applied on top of the standard matching."""
    data = _loads_json(text)
    if not isinstance(data, dict) or not isinstance(data.get("levels"), list):
        raise DocumentError("spec file must be an object with a 'levels' list")
    _check_dimension(len(data["levels"]))  # before any level's permutation is built
    # every entry is read before any bijection check, so a bad entry is named first
    return TwistSpec.from_level_perms(
        [_level_perm(level, entry) for level, entry in enumerate(data["levels"], start=1)])


def _level_perm(level: int, entry) -> list[int]:
    """The ids that a spec file's level entry maps ``range(2 ** (level - 1))`` to."""
    perm = list(range(1 << (level - 1)))
    if entry == "identity":
        return perm
    if not isinstance(entry, dict):
        raise DocumentError("each level must be 'identity' or an override table",
                            location=f"levels[{level - 1}]")
    position = {a: i for i, a in enumerate(bitstrings(level - 1))}
    for key, value in entry.items():
        if key not in position or not isinstance(value, str) or value not in position:
            bad = value if key in position else key
            raise DocumentError(f"{bad!r} is not a {level - 1}-bit string",
                                location=f"levels[{level - 1}]")
        perm[position[key]] = position[value]
    return perm


def cmd_build(args) -> int:
    arcs, extras = None, {}
    if args.kind == "twisted-from-spec":
        if args.spec_file is None:
            raise DocumentError("build twisted-from-spec requires --spec-file")
        graph = build_twisted(_load(_parse_twist_spec_file, args.spec_file))
    elif args.n is None:
        raise DocumentError(f"build {args.kind} requires -n")
    elif args.kind == "hypercube":
        graph = build_hypercube(args.n)
    else:  # minority
        cube = build_minority_cube(args.n)
        graph, arcs = cube.graph, cube.arcs
        if cube.bridge_arc is not None:
            extras["bridge_arc"] = list(cube.bridge_arc)
    _emit(lambda: json_document_chunks(graph, arcs, extras=extras), args.output)
    return 0


def cmd_verify(args) -> int:
    doc = _load(_parse_document, args.input)
    graph = doc.graph
    if args.mode == "set":
        if args.set is not None:
            initial = tuple(s for s in args.set.split(",") if s)
        elif doc.initial_set is not None:
            initial = doc.initial_set
        else:
            raise DocumentError("no initial set: supply --set or a 'set' key in the document")
        derived = derived_count(graph, initial)
        unforced = len(graph) - derived
        print(f"initial {len(set(initial))}, derived {derived}/{len(graph)}, "
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
    method = "exhaustive" if exhaustive_fits(graph) else "walk"
    witness = find_chain_twist(doc.arcs, method=method)
    if witness is None:
        print(f"no chain twist found (method={method})")
        return 0
    print("chain twist: " + " ".join(str(v) for v in witness))
    return 1


def cmd_solve(args) -> int:
    _manifest["engine"] = "certificate" if args.no_prune else "wavefront"
    doc = _load(_parse_document, args.input)
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
    _emit(lambda: [json.dumps(payload, indent=2) + "\n"], args.output)
    for key in ("subsets_tested", "wavefront_closures", "memo_hits",
                "feasibility_checks", "pruned_subsets"):
        _manifest[key] = getattr(result, key)
    return 0 if result.status == "exact" else 1


def cmd_export(args) -> int:
    doc = _load(_parse_document, args.input)
    if args.dot:
        _emit(lambda: [to_dot(doc.graph, doc.arcs)], args.output)
    else:
        _emit(lambda: json_document_chunks(doc.graph, doc.arcs, doc.initial_set,
                                           extras=doc.extras), args.output)
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
    verify.add_argument("--input", required=True,
                        help="graph document (JSON or DOT), '-' for stdin")
    verify.add_argument("--set", default=None,
                        help="comma-separated initial vertices (mode 'set'); a label "
                             "holding a comma cannot be named here, so put that set "
                             "under the document's 'set' key")
    verify.set_defaults(handler="cmd_verify")

    solve = sub.add_parser("solve", help="exact zero forcing number")
    solve.add_argument("--input", required=True, help="graph document (JSON or DOT), '-' for stdin")
    solve.add_argument("--max-k", type=int, default=None)
    solve.add_argument("--budget-secs", type=float, default=None)
    solve.add_argument("--budget-subsets", type=int, default=None)
    solve.add_argument("--no-prune", action="store_true",
                       help="decide every subset of each size tried, most in bulk by proven rules")
    solve.add_argument("--output", default=None)
    solve.set_defaults(handler="cmd_solve")

    export = sub.add_parser("export", help="re-emit a document as JSON or DOT")
    export.add_argument("--input", required=True)
    export.add_argument("--dot", action="store_true", help="write DOT instead of JSON")
    export.add_argument("--output", default=None)
    export.set_defaults(handler="cmd_export")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    _manifest.clear()
    _manifest.update({"command": argv[0] if argv else None, "parameters": argv[1:],
                      "version": __version__,
                      "phase_secs": {"load": 0.0, "compute": 0.0, "emit": 0.0}})
    started = time.monotonic()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help, or a usage error
        code = exc.code if isinstance(exc.code, int) else 2
        _write_manifest("ok" if code == 0 else "error", started)
        return code
    handler_started = time.perf_counter()
    # the cyclic collector pauses for the command (module docstring)
    collecting = gc.isenabled()
    gc.disable()
    try:
        if sys.stdout is None and getattr(args, "output", None) in (None, "-"):
            raise DocumentError("cannot write -: stdout is closed")  # fd 1 closed at start
        code = globals()[args.handler](args)
        if sys.stdout is not None:
            sys.stdout.flush()  # so that a closed pipe is met here, by every command
    except (ValueError, ResourceLimitError, RecursionError, MemoryError,
            KeyboardInterrupt, OSError) as exc:  # OSError: stdout could not be written
        if isinstance(exc, OSError):
            # the interpreter flushes stdout again at exit; let that flush write nowhere
            with contextlib.suppress(OSError):  # no fd, as a StringIO
                fd = sys.stdout.fileno()
                os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        _to_stderr(f"error: {str(exc) or type(exc).__name__}")
        _manifest["error_type"] = type(exc).__name__
        code = 2
    finally:  # also when the except block or an uncaught exception leaves
        if collecting:
            gc.enable()
    # compute: the handler's time outside loading and emitting
    phases = _manifest["phase_secs"]
    phases["compute"] = max(0.0, time.perf_counter() - handler_started
                            - phases["load"] - phases["emit"])
    _write_manifest({0: "ok", 1: "fail"}.get(code, "error"), started)
    return code


def _write_manifest(outcome: str, started: float) -> None:
    _manifest["elapsed_secs"] = round(time.monotonic() - started, 3)
    _manifest["phase_secs"] = {k: round(v, 6) for k, v in _manifest["phase_secs"].items()}
    # ru_maxrss is in KiB on Linux: the process's peak so far, not this run's
    _manifest["peak_rss_mb"] = round(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    _manifest["outcome"] = outcome
    _to_stderr(json.dumps(_manifest, sort_keys=True))


def _to_stderr(line: str) -> None:
    # a closed or missing stderr loses the line, never the exit code or stdout
    if sys.stderr is not None:
        with contextlib.suppress(OSError):
            print(line, file=sys.stderr)


def entrypoint() -> None:
    # stdout as UTF-8, like an --output file; in-process callers keep their own
    if isinstance(sys.stdout, io.TextIOWrapper):
        sys.stdout.reconfigure(encoding="utf-8")
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
