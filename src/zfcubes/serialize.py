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
``twisted_edges`` is derived on export and ignored on import.
:func:`from_json_document` reads a text one top-level entry at a time with
``json.loads``' own scanner: it builds the graph from ``edges``, freeing
each pair as it reads it, and parses ``twisted_edges`` only to drop it, so
that list is never held beside the edge list. A text this reader declines
(a syntax error, trailing text, a repeated key or a key with an escape,
``edges`` before ``vertices``, ``dimension`` after ``edges``, or a fault of
the graph) is read again whole by ``json.loads`` and checked as a dict,
which names its first fault as it always has. Once the entry reader has
read a text whole, its ``arcs``, ``set`` and extras are checked as a dict's
are, so a fault there is refused without a second read. The DOT form writes
plain edges as ``--`` and arcs as ``->`` (a mixed dialect: arc lines mark
direction inside an otherwise undirected graph) and flags twisted edges
with ``color=red``.
Both formats round-trip exactly through :func:`from_json_document` /
:func:`from_dot`, which share one vertex rule: under a ``dimension`` every
label is a bit string of that length, and the vertices load in id order.
The loaders check a list in bulk, in C-level passes over all of its items,
and walk it item by item only when a pass fails, to locate the first bad
item; a pair list's item lengths and members are checked by the graph and
arc set built from it. :func:`from_dot` reads a text in the exact layout
that :func:`to_dot` writes (its header, an optional ``dimension`` line, the
vertex statements, then the edge statements, and ``}`` with a final line
break) by one split at the quotes and set passes over the separators; any
other text, hand-written DOT with other spacing, line ends or statement
order, goes through a loop over its lines, which also names a bad line.

Both writers work over vertex ids: the edges come from
:attr:`~zfcubes.graphs.Graph.upper_ids`, the arcs from
:attr:`~zfcubes.arcsets.ArcSet.ids` and the twisted edges from the one
twisted-edge rule over :func:`~zfcubes.graphs.twist_keys`, which
:func:`to_dot` applies as it writes each edge line. Every writer
refuses arcs whose host lists other vertices or another order, before any
output; so does :func:`to_dot` an arc off an edge or of an opposite pair,
and a label with a quote or a line break, which DOT cannot write. The one
JSON writer, :func:`json_document_chunks`, streams the text in chunks, which
the CLI writes as they come, so the whole text of a large cube never sits in
memory; :func:`dumps_json_document` joins them.
"""

from __future__ import annotations

import json
import re
from contextlib import suppress
from dataclasses import dataclass, field
from itertools import chain, compress, repeat
from json.encoder import encode_basestring_ascii
from typing import Iterator

from .arcsets import ArcSet, validate_arcset
from .errors import DocumentError
from .graphs import Graph, twist_keys, twisted_rows

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
    """The JSON document's text in the indent-2 layout, as an iterator of chunks.

    Keys come in the order of the module docstring's example (``arcs`` null
    when absent), then the extras sorted by key. Everything is checked, and
    every entry but the three pair lists encoded, before this returns, so a
    refused document raises before any chunk is written. The edges, arcs and
    twisted edges are then written lazily over vertex ids, from ``upper_ids``,
    :attr:`ArcSet.ids`, :func:`twisted_rows` and each label encoded once,
    without lists of label pairs.
    """
    ids = _arc_ids(graph, arcs)
    rest = {}
    if initial_set is not None:
        rest["set"] = sorted(initial_set, key=graph.index.__getitem__)
    for key in sorted(extras or {}):
        if key in _RESERVED_KEYS:
            raise ValueError(f"extra key {key!r} clashes with a document key")
        rest[key] = extras[key]
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
    """The joined chunks of :func:`json_document_chunks`: ``json.dumps``'s indent-2 text.

    ``json.dumps`` uses its C encoder only without ``indent``; with it, every
    value goes through the pure-Python ``_iterencode``, which dominated the
    export of large cubes. The indent-2 layout is written directly instead:
    the vertices and the three pair lists are joined from labels encoded by
    the C ``encode_basestring_ascii``, and every other entry is left to
    ``json.dumps``.
    """
    return "".join(json_document_chunks(graph, arcs, initial_set, extras))


def _fail(message: str, location: str) -> None:
    raise DocumentError(message, location=location)


def _loads_json(text: str):
    """``json.loads`` of a document or a twist plan, each error a located DocumentError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        _fail(f"invalid JSON: {exc.msg}", f"line {exc.lineno} column {exc.colno}")
    except ValueError as exc:  # an integer past Python's digit limit, with no position
        _fail(f"invalid JSON: {exc}", "$")


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


def _from_pairs(pairs, key: str, labels, build):
    """``build`` of the pair list ``pairs`` at ``key``, which unpacks each item
    and looks its members up among ``labels``. On any refusal the list is
    walked to name its first bad pair; a refusal with none is raised at the key."""
    refusal = None
    if not isinstance(pairs, list):
        _fail(f"{key} must be a list of pairs", key)
    try:
        if set(map(type, pairs)) <= {list}:  # a two-letter string would unpack
            return build(pairs)
    except (ValueError, TypeError) as exc:  # a miss, or an unhashable member
        refusal = exc
    known = set(labels)
    for i, item in enumerate(pairs):  # raises at an item that is not a list
        if (not isinstance(item, list) or len(item) != 2
                or not all(isinstance(x, str) for x in item)):
            _fail("expected a pair of vertex labels", f"{key}[{i}]")
        u, v = item
        if u not in known or v not in known:
            _fail(f"unknown vertex in pair [{u!r}, {v!r}]", f"{key}[{i}]")
    raise DocumentError(str(refusal), location=key) from refusal


def _graph_entries(data: dict, edges, consume: bool = False) -> Graph:
    """The graph of ``data``'s ``dimension`` and ``vertices`` entries and the
    pair list ``edges``, each checked in that order.

    With ``consume`` the build takes each pair off ``edges`` as it reads it,
    so the list is freed while the graph grows; a refused list is left part
    read and its refusal may name the wrong pair, so only a caller that
    discards refusals may ask for it.
    """
    dimension = data.get("dimension")
    if dimension is not None and (type(dimension) is not int or dimension < 0):
        _fail("dimension must be a non-negative integer or null", "dimension")
    vertices = data.get("vertices")
    if not isinstance(vertices, list) or not vertices:
        _fail("vertices must be a non-empty list", "vertices")
    vertices = _ordered_vertices(vertices, dimension, lambda i: f"vertices[{i}]")
    if len(set(vertices)) != len(vertices):
        _fail("duplicate vertex labels", "vertices")
    if edges is None:
        _fail("missing edges", "edges")

    def build(pairs):
        if consume:
            # popped from the end of the reversed list, the pairs are read,
            # and freed, in text order: on a random twisted 16-cube (2 vCPUs,
            # Python 3.11.7) that build took 0.63 s, the plain one 0.62 s,
            # and popping from the end of the list as read 0.74 s
            pairs.reverse()
            pairs = map(pairs.pop, repeat(-1, len(pairs)))
        return Graph(vertices, pairs, dimension=dimension)

    return _from_pairs(edges, "edges", vertices, build)


def _document(data: dict, graph: Graph | None = None) -> GraphDocument:
    """The document of ``data``, checked in the dict checks' order: its graph,
    unless ``graph`` was already built from it, then ``arcs`` and ``set``,
    with its other keys as the extras."""
    if graph is None:
        graph = _graph_entries(data, data.get("edges"))
    arcs = data.get("arcs")
    if arcs is not None:
        arcs = _from_pairs(arcs, "arcs", graph.vertices, lambda pairs: ArcSet(graph, pairs))
    initial = data.get("set")
    if initial is not None:
        if not isinstance(initial, list) or not all(isinstance(v, str) for v in initial):
            _fail("set must be a list of vertex labels", "set")
        for i, v in enumerate(initial):
            if v not in graph.index:
                _fail(f"unknown vertex {v!r}", f"set[{i}]")
        initial = tuple(initial)
    extras = {k: v for k, v in data.items() if k not in _RESERVED_KEYS}
    return GraphDocument(graph=graph, arcs=arcs, initial_set=initial, extras=extras)


# The opening brace, or a comma, then a key without escapes and its colon,
# with the JSON whitespace around each; a key with an escape is declined.
_JSON_KEY = r'[ \t\n\r]*"([^"\\\x00-\x1f]*)"[ \t\n\r]*:[ \t\n\r]*'
_json_first = re.compile(r"[ \t\n\r]*\{" + _JSON_KEY).match
_json_next = re.compile(r"[ \t\n\r]*," + _JSON_KEY).match
_json_close = re.compile(r"[ \t\n\r]*\}[ \t\n\r]*").fullmatch
# json.loads' own scanner: (value, end) from an index, or StopIteration
_json_value = json.JSONDecoder().scan_once


def _read_entries(text: str) -> tuple:
    """The entries of a JSON text read one at a time, as a dict, with the
    graph built from them, or None when the text has no ``edges``.

    Each value is parsed in place by ``json.loads``' own scanner. The graph
    is built as soon as ``edges`` is read, consuming that list, and
    ``twisted_edges`` is parsed, so that it must be JSON, and dropped; the
    dict holds None for both. Each text the module docstring lists as one
    this reader declines raises a ValueError, StopIteration or RecursionError.
    """
    data: dict = {}
    graph = None
    m, i = _json_first(text), 0
    while m:
        key = m[1]
        if key in data or key == "dimension" and graph is not None:
            raise ValueError(f"declined: {key!r} repeated or after the edges")
        value, i = _json_value(text, m.end())
        if key == "edges":  # a graph fault, or edges before vertices, raises
            graph = _graph_entries(data, value, consume=True)
            value = None
        elif key == "twisted_edges":
            value = None
        data[key] = value
        m = _json_next(text, i)
    if not data or not _json_close(text, i):
        raise ValueError("declined: not one JSON object")
    return data, graph


def from_json_document(data) -> GraphDocument:
    """Parse and validate a JSON document (str, bytes, or an already-loaded dict).

    A text is read by :func:`_read_entries`, one top-level entry at a time,
    so the edge list is freed as the graph is built and the ignored
    ``twisted_edges`` list is never held beside it. A text that reader
    declines (a syntax error, trailing text, a repeated key or a key with an
    escape, ``edges`` before ``vertices``, ``dimension`` after ``edges``, or
    a fault of the graph) is read whole by ``json.loads`` and goes through
    the dict checks. A text it takes has parsed as one object without a
    repeated key, so its ``arcs``, ``set`` and extras go through the dict's
    own checks without a second read. Either way a text loads, or is refused
    at its first fault with the same message and location. Raises
    :class:`DocumentError` pointing at the offending location; nothing
    partial is ever returned. A dict passed in is never changed.
    """
    graph = None
    if isinstance(data, (bytes, bytearray)):
        data = data.decode("utf-8", errors="replace")
    if isinstance(data, str):
        try:
            data, graph = _read_entries(data)
        except (ValueError, StopIteration, RecursionError):  # declined
            data = _loads_json(data)
            if isinstance(data, dict):
                data.pop("twisted_edges", None)  # ignored; free it before the graph is built
    if not isinstance(data, dict):
        _fail("document must be a JSON object", "$")
    return _document(data, graph)


def to_dot(graph: Graph, arcs: ArcSet | None = None) -> str:
    """Render the graph in DOT, arcs as ``->`` and twisted edges in red.

    DOT writes an arc as the line of its edge, so an arc off the graph's edges
    or of an opposite pair raises :func:`validate_arcset`'s first message, and
    a label that :func:`from_dot` cannot read back, with a quote or line break.
    Each edge line is written in one pass over ``upper_ids``, which takes its
    arrow from the arcs and its colour from the twisted-edge rule over
    :func:`~zfcubes.graphs.twist_keys`.
    """
    ids = _arc_ids(graph, arcs) or ()
    verts, nbr = graph.vertices, graph.neighbor_ids
    if any(map("".join(verts).__contains__, _DOT_UNWRITABLE)):  # all labels at once
        bad = next(v for v in verts if any(map(v.__contains__, _DOT_UNWRITABLE)))
        raise ValueError(f"vertex {bad!r} holds a quote or a line break, which DOT cannot write")
    quoted = [f'"{v}"' for v in verts]
    n = len(verts)
    arc_lines: dict[int, str] = {}  # each arc's line, keyed by lo * n + hi over ids
    for a, b in ids:
        key = a * n + b if a < b else b * n + a
        if key in arc_lines or b not in nbr[a]:
            raise ValueError(validate_arcset(ArcSet(graph, arcs))[0])  # on the graph's edges
        arc_lines[key] = f"  {quoted[a]} -> {quoted[b]}"
    values, lengths = twist_keys(graph)
    lines = ["graph zfcubes {"]
    if graph.dimension is not None:
        lines.append(f'  dimension="{graph.dimension}";')
    lines += [f"  {q};" for q in quoted]
    arc_line = arc_lines.get
    for a, row in enumerate(graph.upper_ids):
        plain, base, va, la = f"  {quoted[a]} -- ", a * n, values[a], lengths[a]
        lines += [(arc_line(base + b) or plain + quoted[b])
                  + (" [color=red];" if (y := va ^ values[b]) & (y - 1) and lengths[b] == la >= 0
                     else ";") for b in row]
    lines.append("}")
    return "\n".join(lines) + "\n"


_DOT_UNWRITABLE = '"\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029'  # a quote, and where str.splitlines breaks
# to_dot's text split at the quotes: the part before the first label, and
# the separators after a label that end a statement with another to follow
# (_DOT_NEXT) or the last one (_DOT_LAST), or join an edge's ends
_DOT_HEAD = "graph zfcubes {\n  "
_DOT_NEXT = {";\n  ", " [color=red];\n  "}
_DOT_LAST = {";\n}\n", " [color=red];\n}\n"}
_DOT_ARROWS = {" -- ", " -> "}
_DOT_HEADER = re.compile(r'^graph\s+(\w+)\s*\{$')
_DOT_DIMENSION = re.compile(r'^dimension="(\d+)";$')
_DOT_VERTEX = re.compile(r'^"([^"]*)";$')
_DOT_EDGE = re.compile(r'^"([^"]*)"\s*(--|->)\s*"([^"]*)"(?:\s*\[color=red\])?;$')


def _split_dot(text: str) -> tuple | None:
    """The statements of a text in the exact layout that :func:`to_dot`
    writes, as :func:`_dot_lines` returns them, or None for any other text.

    Split at the quotes, the text holds its labels in the odd parts and its
    separators in the even ones, so the layout is which separator stands
    where: checked by set passes over slices of the separators, not line by
    line.
    """
    parts = text.split('"')
    if len(parts) % 2 == 0:
        return None
    if parts[0] == _DOT_HEAD + "dimension=" and len(parts) > 3:
        digits, start = parts[1], 3
        if not (digits.isascii() and digits.isdigit() and parts[2] == ";\n  "):
            return None
        try:
            dimension = int(digits)
        except ValueError:  # past Python's digit limit: the line loop names the line
            return None
    elif parts[0] == _DOT_HEAD:
        dimension, start = None, 1
    else:
        return None
    # label i is followed by separator i, the last label by parts[-1]
    labels, seps, last = parts[start::2], parts[start + 1:-1:2], parts[-1]
    # free the separators before the edges are built: on minority-12 the
    # load's peak of Python allocations fell from 10.2 to 7.5 MB
    del parts
    v = len(labels)  # the vertex statements: the labels before the first arrow
    for arrow in _DOT_ARROWS:
        with suppress(ValueError):
            v = seps.index(arrow, 0, v)
    arrows = seps[v::2]
    if (len(labels) - v) % 2 or not (
            v > 0 and set(seps[:v]) <= {";\n  "} and set(arrows) <= _DOT_ARROWS
            and set(seps[v + 1::2]) <= _DOT_NEXT
            and (last in _DOT_LAST if arrows else last == ";\n}\n")):
        return None
    del seps
    joined = "".join(labels)
    if any(map(joined.__contains__, _DOT_UNWRITABLE[1:])):  # the line loop would break it
        return None
    edges = list(zip(labels[v::2], labels[v + 1::2]))
    first = start // 2 + 2  # the line of the first vertex statement
    return (dimension, labels[:v], lambda i: f"line {first + i}",
            edges, list(compress(edges, map(" -> ".__eq__, arrows))))


def _dot_lines(text: str) -> tuple:
    """The statements of any DOT text in the dialect, read line by line:
    the dimension, the vertex labels with a function that locates label i,
    the edges and the arcs. An unreadable line raises, with its number."""
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
            try:
                dimension = int(m.group(1))
            except ValueError as exc:  # past Python's integer digit limit
                raise DocumentError(f"invalid dimension: {exc}",
                                    location=f"line {lineno}") from exc
            continue
        if line:  # blank lines are skipped but keep their numbers
            raise DocumentError(f"unrecognised statement {line!r}", location=f"line {lineno}")
    return dimension, vertices, lambda i: f"line {vertex_lines[i]}", edges, arcs


def from_dot(text: str) -> GraphDocument:
    """Parse the DOT dialect written by :func:`to_dot`.

    A text in ``to_dot``'s exact layout is read by :func:`_split_dot`, any
    other by :func:`_dot_lines`; both feed the same checks, so a document
    loads, or is refused with the same message and location, either way.
    """
    if isinstance(text, (bytes, bytearray)):
        text = text.decode("utf-8", errors="replace")
    dimension, vertices, where, edges, arcs = _split_dot(text) or _dot_lines(text)
    if not vertices:
        raise DocumentError("no vertex statements found", location="body")
    vertices = _ordered_vertices(vertices, dimension, where)
    try:
        graph = Graph(vertices, edges, dimension=dimension)
    except ValueError as exc:
        raise DocumentError(str(exc), location="body") from exc
    return GraphDocument(graph=graph,
                         arcs=ArcSet(graph, arcs) if arcs else None,
                         extras={})
