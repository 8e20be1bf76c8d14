"""Graph documents: a JSON interchange format and a DOT rendering.

The JSON document carries the graph, an optional arc set, an optional
initial set, and free-form annotations::

    {
      "dimension": 4,
      "vertices": ["0000", "0001", ...],
      "edges": [["0000", "0001"], ...],
      "arcs": [["0000", "1000"], ...],
      "twisted_edges": [["0100", "1011"], ...],
      "set": ["0000", ...]
    }

Bit strings are text with the leftmost character most significant;
``twisted_edges`` is derived on export and ignored on import. The DOT form
writes plain edges as ``--`` and arcs as ``->`` (a mixed dialect: arc lines
mark direction inside an otherwise undirected graph) and flags twisted edges
with ``color=red``. Both formats round-trip exactly through
:func:`from_json_document` / :func:`from_dot`.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from itertools import chain
from json.encoder import encode_basestring_ascii

from .arcsets import ArcSet
from .errors import DocumentError
from .graphs import Graph, twisted_edges

_RESERVED_KEYS = ("dimension", "vertices", "edges", "arcs", "twisted_edges", "set")


@dataclass(frozen=True)
class GraphDocument:
    """A parsed graph document."""

    graph: Graph
    arcs: ArcSet | None = None
    initial_set: tuple | None = None
    extras: dict = field(default_factory=dict)


def to_json_document(graph: Graph, arcs: ArcSet | None = None,
                     initial_set=None, extras: dict | None = None) -> dict:
    """Assemble the document dict; key order is fixed for byte-stable dumps."""
    for v in graph.vertices:
        if not isinstance(v, str):
            raise ValueError(
                f"only string-labelled graphs can be exported, found {v!r}; relabel first")
    doc: dict = {
        "dimension": graph.dimension,
        "vertices": list(graph.vertices),
        "edges": [[u, v] for u, v in graph.edges()],
        "arcs": [[u, v] for u, v in arcs.sorted_arcs()] if arcs is not None else None,
        "twisted_edges": [[u, v] for u, v in twisted_edges(graph)],
    }
    if initial_set is not None:
        doc["set"] = sorted(initial_set, key=graph.index.__getitem__)
    for key in sorted(extras or {}):
        if key in _RESERVED_KEYS:
            raise ValueError(f"extra key {key!r} clashes with a document key")
        doc[key] = extras[key]
    return doc


def _dump_entry(key, value) -> str:
    """One top-level ``"key": value`` line group of the indent-2 layout."""
    if isinstance(key, str) and type(value) is list:
        enc = encode_basestring_ascii
        head = f"  {enc(key)}: "
        kinds = set(map(type, value))
        if not value:
            return head + "[]"
        if kinds == {str}:
            return head + "[\n    " + ",\n    ".join(map(enc, value)) + "\n  ]"
        if (kinds == {list} and set(map(len, value)) == {2}
                and set(map(type, chain.from_iterable(value))) == {str}):
            leaves = map(enc, chain.from_iterable(value))
            pairs = map(",\n      ".join, zip(leaves, leaves))
            return (head + "[\n    [\n      " + "\n    ],\n    [\n      ".join(pairs)
                    + "\n    ]\n  ]")
    return json.dumps({key: value}, indent=2)[2:-2]


def dumps_json_document(graph: Graph, arcs: ArcSet | None = None,
                        initial_set=None, extras: dict | None = None) -> str:
    """The document as text, byte-identical to ``json.dumps(doc, indent=2) + "\\n"``.

    ``json.dumps`` uses its C encoder only without ``indent``; with it, every
    value goes through the pure-Python ``_iterencode``, which dominated the
    export of large cubes. The indent-2 layout is written here directly
    instead: lists of strings and of string pairs are joined from leaves
    encoded by the C ``encode_basestring_ascii``, and every other value is
    left to ``json.dumps``.
    """
    doc = to_json_document(graph, arcs, initial_set, extras)
    return "{\n" + ",\n".join(_dump_entry(k, v) for k, v in doc.items()) + "\n}\n"


def _fail(message: str, location: str) -> None:
    raise DocumentError(message, location=location)


def from_json_document(data) -> GraphDocument:
    """Parse and validate a JSON document (str, bytes, or an already-loaded dict).

    Raises :class:`DocumentError` pointing at the offending location; nothing
    partial is ever returned.
    """
    if isinstance(data, (bytes, bytearray)):
        data = data.decode("utf-8", errors="replace")
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise DocumentError(f"invalid JSON: {exc.msg}",
                                location=f"line {exc.lineno} column {exc.colno}") from exc
    if not isinstance(data, dict):
        _fail("document must be a JSON object", "$")

    dimension = data.get("dimension")
    if dimension is not None and (type(dimension) is not int or dimension < 0):
        _fail("dimension must be a non-negative integer or null", "dimension")

    vertices = data.get("vertices")
    if not isinstance(vertices, list) or not vertices:
        _fail("vertices must be a non-empty list", "vertices")
    for i, v in enumerate(vertices):
        if not isinstance(v, str):
            _fail("vertex labels must be strings", f"vertices[{i}]")
        if dimension is not None and (len(v) != dimension or v.strip("01")):
            _fail(f"vertex {v!r} is not a {dimension}-bit string", f"vertices[{i}]")
    known = set(vertices)
    if len(known) != len(vertices):
        _fail("duplicate vertex labels", "vertices")
    if dimension is not None:
        vertices = sorted(vertices)  # equal-length bit strings: text order is id order

    def pair_list(key: str, required: bool):
        raw = data.get(key)
        if raw is None:
            if required:
                _fail(f"missing {key}", key)
            return None
        if not isinstance(raw, list):
            _fail(f"{key} must be a list of pairs", key)
        # One bulk check; only a failing list is walked item by item below,
        # to name the first bad location.
        if set(map(type, raw)) <= {list} and set(map(len, raw)) <= {2}:
            members = list(chain.from_iterable(raw))
            if set(map(type, members)) <= {str} and known.issuperset(members):
                return raw
        pairs = []
        for i, item in enumerate(raw):
            if (not isinstance(item, list) or len(item) != 2
                    or not all(isinstance(x, str) for x in item)):
                _fail("expected a pair of vertex labels", f"{key}[{i}]")
            u, v = item
            if u not in known or v not in known:
                _fail(f"unknown vertex in pair [{u!r}, {v!r}]", f"{key}[{i}]")
            pairs.append((u, v))
        return pairs

    edges = pair_list("edges", required=True)
    try:
        graph = Graph(vertices, edges, dimension=dimension)
    except ValueError as exc:
        raise DocumentError(str(exc), location="edges") from exc

    arc_pairs = pair_list("arcs", required=False)
    arcs = ArcSet(graph, arc_pairs) if arc_pairs is not None else None

    initial = data.get("set")
    if initial is not None:
        if not isinstance(initial, list) or not all(isinstance(v, str) for v in initial):
            _fail("set must be a list of vertex labels", "set")
        for i, v in enumerate(initial):
            if v not in known:
                _fail(f"unknown vertex {v!r}", f"set[{i}]")
        initial = tuple(initial)

    extras = {k: v for k, v in data.items() if k not in _RESERVED_KEYS}
    return GraphDocument(graph=graph, arcs=arcs, initial_set=initial, extras=extras)


def to_dot(graph: Graph, arcs: ArcSet | None = None, name: str = "zfcubes") -> str:
    """Render the graph in DOT, arcs as ``->`` and twisted edges in red."""
    for v in graph.vertices:
        if not isinstance(v, str):
            raise ValueError(f"only string-labelled graphs can be exported, found {v!r}")
    arc_pairs = arcs.arcs if arcs is not None else frozenset()
    twisted = set(twisted_edges(graph))
    lines = [f"graph {name} {{"]
    if graph.dimension is not None:
        lines.append(f'  dimension="{graph.dimension}";')
    for v in graph.vertices:
        lines.append(f'  "{v}";')
    for u, v in graph.edges():
        if (u, v) in arc_pairs:
            stmt = f'"{u}" -> "{v}"'
        elif (v, u) in arc_pairs:
            stmt = f'"{v}" -> "{u}"'
        else:
            stmt = f'"{u}" -- "{v}"'
        if (u, v) in twisted:
            stmt += " [color=red]"
        lines.append(f"  {stmt};")
    lines.append("}")
    return "\n".join(lines) + "\n"


_DOT_HEADER = re.compile(r'^graph\s+(\w+)\s*\{$')
_DOT_DIMENSION = re.compile(r'^dimension="(\d+)";$')
_DOT_VERTEX = re.compile(r'^"([^"]*)";$')
_DOT_EDGE = re.compile(r'^"([^"]*)"\s*(--|->)\s*"([^"]*)"(?:\s*\[color=red\])?;$')


def from_dot(text: str) -> GraphDocument:
    """Parse the DOT dialect written by :func:`to_dot`."""
    if isinstance(text, (bytes, bytearray)):
        text = text.decode("utf-8", errors="replace")
    lines = [line.strip() for line in text.splitlines()]
    while lines and not lines[-1]:
        lines.pop()
    first = next((i for i, line in enumerate(lines) if line), 0)
    if not lines or not _DOT_HEADER.match(lines[first]):
        raise DocumentError("expected a 'graph <name> {' header", location=f"line {first + 1}")
    if lines[-1] != "}":
        raise DocumentError("expected a closing '}'", location=f"line {len(lines)}")
    dimension = None
    vertices: list[str] = []
    vertex_lines: list[int] = []
    edges: list[tuple[str, str]] = []
    arcs: list[tuple[str, str]] = []
    for lineno, line in enumerate(lines[first + 1:-1], start=first + 2):
        # edge statements are most of a file; no line matches two patterns
        m = _DOT_EDGE.match(line)
        if m:
            u, op, v = m.groups()
            edges.append((u, v))
            if op == "->":
                arcs.append((u, v))
            continue
        m = _DOT_VERTEX.match(line)
        if m:
            vertices.append(m.group(1))
            vertex_lines.append(lineno)
            continue
        m = _DOT_DIMENSION.match(line)
        if m:
            dimension = int(m.group(1))
            continue
        if line:  # blank lines are skipped but keep their numbers
            raise DocumentError(f"unrecognised statement {line!r}", location=f"line {lineno}")
    if not vertices:
        raise DocumentError("no vertex statements found", location="body")
    if dimension is not None:  # the rule of from_json_document
        for v, lineno in zip(vertices, vertex_lines):
            if len(v) != dimension or v.strip("01"):
                raise DocumentError(f"vertex {v!r} is not a {dimension}-bit string",
                                    location=f"line {lineno}")
        vertices.sort()  # equal-length bit strings: text order is id order
    try:
        graph = Graph(vertices, edges, dimension=dimension)
    except ValueError as exc:
        raise DocumentError(str(exc), location="body") from exc
    return GraphDocument(graph=graph,
                         arcs=ArcSet(graph, arcs) if arcs else None,
                         extras={})
