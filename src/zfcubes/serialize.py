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
``twisted_edges`` is derived on export and ignored on import: a parsed text
drops it before the graph is built. The DOT form writes plain edges as
``--`` and arcs as ``->`` (a mixed dialect: arc lines mark direction inside
an otherwise undirected graph) and flags twisted edges with ``color=red``.
Both formats round-trip exactly through :func:`from_json_document` /
:func:`from_dot`, which share one vertex rule: under a ``dimension`` every
label is a bit string of that length, and the vertices load in id order.
The loaders check a list in bulk, in C-level passes over all of its items,
and walk it item by item only when a pass fails, to locate the first bad
item; a pair list's item lengths and members are checked by the graph and
arc set built from it.

Both writers work over vertex ids: the edges come from
:attr:`~zfcubes.graphs.Graph.upper_ids`, the arcs from
:attr:`~zfcubes.arcsets.ArcSet.ids` and the twisted edges from
:func:`~zfcubes.graphs.twisted_rows`, the one twisted-edge rule. Every writer
refuses arcs whose host lists other vertices or another order, before any
output; so does :func:`to_dot` an arc off an edge or of an opposite pair,
and a label with a quote or a line break, which DOT cannot write. The JSON
writers check and order the other entries in one place.
:func:`json_document_chunks` streams the JSON text in chunks, which the CLI
writes as they come, so the whole text of a large cube never sits in memory;
:func:`dumps_json_document` joins them.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Iterator

from .arcsets import ArcSet, validate_arcset
from .errors import DocumentError
from .graphs import Graph, twisted_edges, twisted_rows

_RESERVED_KEYS = ("dimension", "vertices", "edges", "arcs", "twisted_edges", "set")


@dataclass(frozen=True)
class GraphDocument:
    """A parsed graph document."""

    graph: Graph
    arcs: ArcSet | None = None
    initial_set: tuple | None = None
    extras: dict = field(default_factory=dict)


def _arc_ids(graph: Graph, arcs: ArcSet | None) -> tuple | None:
    """The arcs' id pairs, once the labels are strings; ids are positions in
    ``arcs.host``, which must list ``graph.vertices``."""
    for v in graph.vertices:
        if not isinstance(v, str):
            raise ValueError(
                f"only string-labelled graphs can be exported, found {v!r}; relabel first")
    if arcs is None:
        return None
    if arcs.host.vertices != graph.vertices:
        raise ValueError("the arcs' host does not list the graph's vertices in its order")
    return arcs.ids


def _checked_entries(graph: Graph, arcs: ArcSet | None, initial_set,
                     extras: dict | None) -> tuple[tuple | None, dict]:
    """The arcs' id pairs and the entries after ``twisted_edges`` (the set in
    id order, then the extras by key), once the labels, arcs and extras pass."""
    ids = _arc_ids(graph, arcs)
    tail = {}
    if initial_set is not None:
        tail["set"] = sorted(initial_set, key=graph.index.__getitem__)
    for key in sorted(extras or {}):
        if key in _RESERVED_KEYS:
            raise ValueError(f"extra key {key!r} clashes with a document key")
        tail[key] = extras[key]
    return ids, tail


def to_json_document(graph: Graph, arcs: ArcSet | None = None,
                     initial_set=None, extras: dict | None = None) -> dict:
    """Assemble the document dict; key order is fixed for byte-stable dumps."""
    ids, tail = _checked_entries(graph, arcs, initial_set, extras)
    return {
        "dimension": graph.dimension,
        "vertices": list(graph.vertices),
        "edges": [[u, v] for u, v in graph.edges()],
        "arcs": None if ids is None else [[graph.vertices[a], graph.vertices[b]] for a, b in ids],
        "twisted_edges": [[u, v] for u, v in twisted_edges(graph)],
        **tail,
    }


_PAIR_SEP = "\n    ],\n    [\n      "
# About 350 KB of text per chunk on a 12-cube. With chunks of 256 rows the
# benchmark's cube-pipeline, which keeps stdout in memory, read a 2-4%
# higher peak RSS than with this size.
_ROWS_PER_CHUNK = 1024


def _dump_entry(key, value) -> str:
    """One top-level ``"key": value`` line group of the indent-2 layout."""
    return json.dumps({key: value}, indent=2)[2:-2]


def _pair_entry(key: str, enc: list, rows) -> Iterator[str]:
    """The entry of the pairs (a, b) for b in ``rows[a]``, in chunks of
    rows; ``enc`` holds each vertex id's encoded label."""
    yield f'  "{key}": '
    opening, batch = "[\n    [\n      ", []
    for a, row in enumerate(rows):
        if row:
            lead = enc[a] + ",\n      "
            batch.append(lead + (_PAIR_SEP + lead).join(map(enc.__getitem__, row)))
            if len(batch) == _ROWS_PER_CHUNK:
                yield opening + _PAIR_SEP.join(batch)
                opening, batch = _PAIR_SEP, []
    if batch:
        yield opening + _PAIR_SEP.join(batch)
    yield "\n    ]\n  ]" if batch or opening is _PAIR_SEP else "[]"


def json_document_chunks(graph: Graph, arcs: ArcSet | None = None,
                         initial_set=None, extras: dict | None = None) -> Iterator[str]:
    """The text of :func:`to_json_document`'s document, as an iterator of chunks.

    Everything is checked, and every entry but the three pair lists encoded,
    before this returns, so a refused document raises before any chunk is
    written. The edges, arcs and twisted edges are then written lazily over
    vertex ids, from ``upper_ids``, :attr:`ArcSet.ids`, :func:`twisted_rows`
    and each label encoded once, without lists of label pairs.
    """
    ids, rest = _checked_entries(graph, arcs, initial_set, extras)
    enc = list(map(encode_basestring_ascii, graph.vertices))
    head = ("{\n" + _dump_entry("dimension", graph.dimension) + ',\n  "vertices": '
            + ("[\n    " + ",\n    ".join(enc) + "\n  ]" if enc else "[]") + ",\n")
    arc_rows = [[] for _ in enc]  # arc_rows[a]: the heads of the arcs leaving a
    for a, b in ids or ():
        arc_rows[a].append(b)
    arcs_entry = [_dump_entry("arcs", None)] if ids is None else _pair_entry("arcs", enc, arc_rows)
    tail = "".join(",\n" + _dump_entry(*entry) for entry in rest.items()) + "\n}\n"
    # the pair entries are generators: each is written only as the text is read
    return chain([head], _pair_entry("edges", enc, graph.upper_ids), [",\n"], arcs_entry,
                 [",\n"], _pair_entry("twisted_edges", enc, twisted_rows(graph)), [tail])


def dumps_json_document(graph: Graph, arcs: ArcSet | None = None,
                        initial_set=None, extras: dict | None = None) -> str:
    """The document as text, byte-identical to ``json.dumps(doc, indent=2) + "\\n"``.

    ``json.dumps`` uses its C encoder only without ``indent``; with it, every
    value goes through the pure-Python ``_iterencode``, which dominated the
    export of large cubes. The indent-2 layout is written here directly
    instead, by :func:`json_document_chunks`: the vertices and the three pair
    lists are joined from labels encoded by the C ``encode_basestring_ascii``,
    and every other entry is left to ``json.dumps``.
    """
    return "".join(json_document_chunks(graph, arcs, initial_set, extras))


def _fail(message: str, location: str) -> None:
    raise DocumentError(message, location=location)


# Deletes '0' and '1', so the joined labels leave text exactly when a label
# holds another character: 0.07 ms over minority-12's labels, where
# str.strip("01") scanned for 0.46 ms.
_NO_BITS = str.maketrans("", "", "01")


def _ordered_vertices(vertices: list, dimension: int | None, where) -> list:
    """The vertex rule of both formats: string labels and, under a ``dimension``,
    bit strings of that length, then sorted into id order; ``where(i)`` locates label i.

    The rule is checked in bulk passes; only a list that fails one is walked,
    to name its first bad label.
    """
    if not (set(map(type, vertices)) <= {str} and (dimension is None or (
            set(map(len, vertices)) <= {dimension}
            and not "".join(vertices).translate(_NO_BITS)))):
        for i, v in enumerate(vertices):
            if not isinstance(v, str):
                _fail("vertex labels must be strings", where(i))
            if dimension is not None and (len(v) != dimension or v.strip("01")):
                _fail(f"vertex {v!r} is not a {dimension}-bit string", where(i))
    return vertices if dimension is None else sorted(vertices)


def from_json_document(data) -> GraphDocument:
    """Parse and validate a JSON document (str, bytes, or an already-loaded dict).

    Raises :class:`DocumentError` pointing at the offending location; nothing
    partial is ever returned. A dict passed in is never changed.
    """
    if isinstance(data, (bytes, bytearray)):
        data = data.decode("utf-8", errors="replace")
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except json.JSONDecodeError as exc:
            raise DocumentError(f"invalid JSON: {exc.msg}",
                                location=f"line {exc.lineno} column {exc.colno}") from exc
        if isinstance(data, dict):
            data.pop("twisted_edges", None)  # ignored; free it before the graph is built
    if not isinstance(data, dict):
        _fail("document must be a JSON object", "$")

    dimension = data.get("dimension")
    if dimension is not None and (type(dimension) is not int or dimension < 0):
        _fail("dimension must be a non-negative integer or null", "dimension")

    vertices = data.get("vertices")
    if not isinstance(vertices, list) or not vertices:
        _fail("vertices must be a non-empty list", "vertices")
    vertices = _ordered_vertices(vertices, dimension, lambda i: f"vertices[{i}]")
    known = set(vertices)
    if len(known) != len(vertices):
        _fail("duplicate vertex labels", "vertices")

    def pair_list(key: str, required: bool):
        """The raw list once every item is a list (None for a missing optional
        key). Lengths and members are checked by their users: unpacking an
        item into a pair raises on a wrong length. ``locate`` names the first
        bad pair of a refused list."""
        raw = data.get(key)
        if raw is None:
            if required:
                _fail(f"missing {key}", key)
            return None
        if not isinstance(raw, list):
            _fail(f"{key} must be a list of pairs", key)
        if set(map(type, raw)) <= {list}:
            return raw
        locate(key)

    def locate(key: str) -> None:
        for i, item in enumerate(data[key]):
            if (not isinstance(item, list) or len(item) != 2
                    or not all(isinstance(x, str) for x in item)):
                _fail("expected a pair of vertex labels", f"{key}[{i}]")
            u, v = item
            if u not in known or v not in known:
                _fail(f"unknown vertex in pair [{u!r}, {v!r}]", f"{key}[{i}]")

    edges = pair_list("edges", required=True)
    try:
        # Graph looks every member up; a miss or an unhashable member raises
        graph = Graph(vertices, edges, dimension=dimension)
    except (ValueError, TypeError) as exc:
        locate("edges")
        raise DocumentError(str(exc), location="edges") from exc

    arc_pairs = pair_list("arcs", required=False)
    arcs = None
    if arc_pairs is not None:
        try:
            arcs = ArcSet(graph, arc_pairs)
        except (TypeError, ValueError):  # an unhashable member or not a vertex
            locate("arcs")

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


def to_dot(graph: Graph, arcs: ArcSet | None = None) -> str:
    """Render the graph in DOT, arcs as ``->`` and twisted edges in red.

    DOT writes an arc as the line of its edge, so an arc off the graph's edges
    or of an opposite pair raises :func:`validate_arcset`'s first message, and
    a label that :func:`from_dot` cannot read back, with a quote or line break.
    """
    ids = _arc_ids(graph, arcs) or ()
    verts, nbr = graph.vertices, graph.neighbor_ids
    if any(map("".join(verts).__contains__, _DOT_UNWRITABLE)):  # all labels at once
        bad = next(v for v in verts if any(map(v.__contains__, _DOT_UNWRITABLE)))
        raise ValueError(f"vertex {bad!r} holds a quote or a line break, which DOT cannot write")
    quoted = [f'"{v}"' for v in verts]
    n = len(verts)
    # the lines of arcs and twisted edges, keyed by lo * n + hi over ids
    special: dict[int, str] = {}
    for a, b in ids:
        key = a * n + b if a < b else b * n + a
        if key in special or b not in nbr[a]:
            raise ValueError(validate_arcset(ArcSet(graph, arcs))[0])  # on the graph's edges
        special[key] = f"  {quoted[a]} -> {quoted[b]}"
    for a, row in enumerate(twisted_rows(graph)):
        for b in row:
            key = a * n + b
            special[key] = special.get(key, f"  {quoted[a]} -- {quoted[b]}") + " [color=red]"
    lines = ["graph zfcubes {"]
    if graph.dimension is not None:
        lines.append(f'  dimension="{graph.dimension}";')
    lines += [f"  {q};" for q in quoted]
    lookup = special.get
    for a, row in enumerate(graph.upper_ids):
        plain, base = f"  {quoted[a]} -- ", a * n
        lines += [(lookup(base + b) or plain + quoted[b]) + ";" for b in row]
    lines.append("}")
    return "\n".join(lines) + "\n"


_DOT_UNWRITABLE = '"\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029'  # a quote, and where str.splitlines breaks
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
    vertices = _ordered_vertices(vertices, dimension, lambda i: f"line {vertex_lines[i]}")
    try:
        graph = Graph(vertices, edges, dimension=dimension)
    except ValueError as exc:
        raise DocumentError(str(exc), location="body") from exc
    return GraphDocument(graph=graph,
                         arcs=ArcSet(graph, arcs) if arcs else None,
                         extras={})
