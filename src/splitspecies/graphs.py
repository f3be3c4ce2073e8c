"""Labeled simple graphs on vertices 0..n-1, stored as adjacency bitmask rows.

A graph on n <= 16 vertices keeps one machine word per vertex: bit j of
``rows[i]`` is set iff ij is an edge.  Every operation here is a pure function
on immutable values, so graphs are hashable, comparable, and safe to share
between threads.

The module also defines the dense "edge word" encoding used by the
enumeration machinery: edge (i, j) with i < j maps to bit ``j*(j-1)//2 + i``,
so the pairs are ordered (0,1), (0,2), (1,2), (0,3), (1,3), (2,3), ...  This
ordering nests: a graph extended by an isolated vertex keeps its word.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Sequence, TypeVar

from .errors import (
    LengthMismatch,
    MalformedInput,
    MonochromeEdge,
    NotAPartition,
    OutOfRange,
    SelfLoop,
    SplitSpeciesError,
    check_size,
)
from .record import Record

T = TypeVar("T")

MAX_VERTICES = 16  # one bitmask row per vertex; labels lie in 0..MAX_VERTICES - 1
CANON_MAX_VERTICES = 8  # canonical codes minimise over all n! relabelings


class Graph(Record):
    """Simple undirected graph: vertex count plus adjacency bitmask rows."""

    __slots__ = _fields = ("n", "rows")

    def __init__(self, n: int, rows: tuple[int, ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", rows)

    def has_edge(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (i, j) pairs with i < j, in edge-word bit order."""
        return [(i, j) for j, r in enumerate(self.rows)
                for i in bits_of(r & (1 << j) - 1)]  # the neighbours i < j, ascending

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    def edge_word(self) -> int:
        """Dense encoding of the edge set as a single integer."""
        word = 0
        for e, (i, j) in enumerate(edge_pairs(self.n)):
            if self.rows[i] >> j & 1:
                word |= 1 << e
        return word

    @classmethod
    def from_edge_word(cls, n: int, word: int) -> "Graph":
        """The graph whose edges are the set bits of word below bit C(n, 2)."""
        rows = [0] * n
        word &= (1 << n * (n - 1) // 2) - 1
        while word:
            b = word & -word
            i, j = _PAIRS[b.bit_length() - 1]
            rows[i] |= 1 << j
            rows[j] |= 1 << i
            word ^= b
        return cls(n, tuple(rows))

    def to_json(self) -> dict:
        return {"n": self.n, "edges": [list(e) for e in self.edges()]}

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edges()})"


def edge_pairs(n: int) -> list[tuple[int, int]]:
    """Vertex pairs (i, j), i < j, in edge-word bit order."""
    return [(i, j) for j in range(n) for i in range(j)]


_PAIRS = edge_pairs(MAX_VERTICES)  # the pair of each edge bit, for any n <= MAX_VERTICES


def edge_bit(i: int, j: int) -> int:
    """Bit index of the pair {i, j} in the edge-word encoding."""
    if i > j:
        i, j = j, i
    return j * (j - 1) // 2 + i


def make_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list, validating labels.

    Raises OutOfRange for a negative vertex count or an endpoint outside
    0..n-1, TooLarge for more than MAX_VERTICES vertices, SelfLoop for an
    edge (v, v), MalformedInput for an edge that is not a pair of integers.
    Duplicate edges are tolerated.  A bool endpoint passes as 0 or 1, which
    keeps type checks out of the edge loop; ``graph_from_json`` refuses it.
    """
    rows = [0] * check_size(n, high=MAX_VERTICES, what="vertex count")
    try:
        for i, j in edges:
            if i == j:
                raise SelfLoop(f"self-loop at vertex {i}")
            if not (0 <= i < n and 0 <= j < n):
                raise OutOfRange(f"edge ({i}, {j}) has an endpoint outside 0..{n - 1}")
            rows[i] |= 1 << j
            rows[j] |= 1 << i
    except TypeError as exc:
        raise MalformedInput(f"edges must be pairs of integers ({exc})") from exc
    return Graph(n, tuple(rows))


def relabel(g: Graph, p: Sequence[int]) -> Graph:
    """Apply permutation p: edge (i, j) of g becomes edge (p[i], p[j]).

    Raises LengthMismatch unless p has g.n entries, MalformedInput unless
    they are ints (not bools) forming a permutation of 0..n-1.
    """
    if len(p) != g.n:
        raise LengthMismatch(f"permutation length {len(p)} != vertex count {g.n}")
    _check_labels(p)
    if sorted(p) != list(range(g.n)):
        raise MalformedInput(f"not a permutation of 0..{g.n - 1}: {list(p)}")
    rows = [0] * g.n
    for v, r in enumerate(g.rows):
        nr = 0
        for u in bits_of(r):
            nr |= 1 << p[u]
        rows[p[v]] = nr
    return Graph(g.n, tuple(rows))


def complement(g: Graph) -> Graph:
    """Graph whose edges are exactly the non-edges of g."""
    full = g.vertex_mask()
    return Graph(g.n, tuple((~g.rows[v] & full & ~(1 << v)) for v in range(g.n)))


def degree_sequence(g: Graph) -> list[int]:
    """Vertex degrees, sorted non-increasing."""
    return sorted(map(int.bit_count, g.rows), reverse=True)


def is_split(g: Graph) -> bool:
    """Degree-sequence split test (``hammer_simeone_side``); the empty graph is split."""
    return hammer_simeone_side(g) is not None


def hammer_simeone_side(g: Graph) -> int | None:
    """The clique-side mask of g's degree-order partition; None iff g is not split.

    With degrees d_1 >= ... >= d_n and m = max{i : d_i >= i - 1}, the first
    m vertices K0 form a clique and the rest S0 a stable set iff g is split,
    iff sum_{i<=m} d_i = m(m-1) + sum_{i>m} d_i (Hammer and Simeone): the two
    sides differ by twice the edges inside K0 minus twice those inside S0.
    """
    degs = list(map(int.bit_count, g.rows))
    m = top = k0 = 0
    for v in sorted(range(g.n), key=degs.__getitem__, reverse=True):
        if degs[v] < m:  # d_i - i falls as i grows, so the i with d_i >= i - 1 form a prefix
            break
        top += degs[v]
        k0 |= 1 << v
        m += 1
    return k0 if 2 * top == m * (m - 1) + sum(degs) else None


# ---------------------------------------------------------------------------
# Canonical codes
# ---------------------------------------------------------------------------

def canonical_code(g: Graph) -> bytes:
    """Isomorphism-invariant key: minimal edge word over all relabelings.

    Two graphs get equal codes iff they are isomorphic.  Exhaustive over all
    n! permutations, hence restricted to n <= 8.
    """
    check_size(g.n, high=CANON_MAX_VERTICES, what="vertex count")
    best = min(_permuted_word(g, p) for p in itertools.permutations(range(g.n)))
    return b"G" + bytes([g.n]) + best.to_bytes(4, "big")


def canonical_code_bicolored(b: "BicoloredGraph") -> bytes:
    """Color-preserving isomorphism key for a bicolored graph.

    Minimizes (green mask, edge word) jointly over all relabelings; the green
    and red classes are never interchanged, so a single green vertex and a
    single red vertex get distinct codes.
    """
    g = b.graph
    check_size(g.n, high=CANON_MAX_VERTICES, what="vertex count")
    nbits = g.n * (g.n - 1) // 2
    best = min((mask_of(p[v] for v in b.green) << nbits) | _permuted_word(g, p)
               for p in itertools.permutations(range(g.n)))
    return b"B" + bytes([g.n]) + best.to_bytes(5, "big")


def _permuted_word(g: Graph, p: Sequence[int]) -> int:
    word = 0
    for i, j in edge_pairs(g.n):
        if g.rows[i] >> j & 1:
            word |= 1 << edge_bit(p[i], p[j])
    return word


# ---------------------------------------------------------------------------
# Two-colored graphs
# ---------------------------------------------------------------------------

class TwoColoredGraph(Record):
    """Graph plus an ordered green/red partition of its vertices.

    The carrier shared by colored split graphs and bicolored graphs: the
    constructor checks that every label is a vertex before it shifts any into
    a mask, and that green and red are sorted and partition the vertex set,
    keeps both as masks, and hands them to ``_check_edges``, where each
    subclass tests its own edge constraint.  The two colors are
    an *ordered* pair: swapping them generally yields a different structure.
    """

    _fields = ("graph", "green", "red")
    __slots__ = _fields + ("_green", "_red")  # the two masks, kept from the check

    def __init__(self, graph: Graph, green: tuple[int, ...], red: tuple[int, ...]):
        _check_labels(green + red, graph.n)
        gm, rm = mask_of(green), mask_of(red)
        if gm & rm or (gm | rm) != graph.vertex_mask() \
                or green != bits_of(gm) or red != bits_of(rm):
            raise NotAPartition("green and red must partition the vertex set (sorted, disjoint)")
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "green", green)
        object.__setattr__(self, "red", red)
        object.__setattr__(self, "_green", gm)
        object.__setattr__(self, "_red", rm)
        self._check_edges(gm, rm)

    def _check_edges(self, gm: int, rm: int):
        """Raise unless the edges suit the class; the base accepts any."""

    @property
    def n(self) -> int:
        return self.graph.n

    def green_mask(self) -> int:
        return self._green

    def red_mask(self) -> int:
        return self._red

    def to_json(self) -> dict:
        return {**self.graph.to_json(), "green": list(self.green), "red": list(self.red)}

    @classmethod
    def from_json(cls, data: dict):
        g = graph_from_json(data)
        green, red = map(tuple, _json_values(data, "green", "red"))
        _check_labels(green + red)
        return cls(g, tuple(sorted(green)), tuple(sorted(red)))


class BicoloredGraph(TwoColoredGraph):
    """Two-colored graph in which every edge is bichromatic."""

    __slots__ = ()

    def _check_edges(self, gm: int, rm: int):
        for v in self.green:
            if self.graph.rows[v] & gm:
                raise MonochromeEdge(f"edge within the green class at vertex {v}")
        for v in self.red:
            if self.graph.rows[v] & rm:
                raise MonochromeEdge(f"edge within the red class at vertex {v}")

    def isolated_greens(self) -> tuple[int, ...]:
        return tuple(v for v in self.green if self.graph.rows[v] == 0)


def make_bicolored(n: int, edges: Iterable[tuple[int, int]], green: Iterable[int]) -> BicoloredGraph:
    g = make_graph(n, edges)
    green = tuple(green)  # read once, by the check and by the mask
    _check_labels(green, n)
    gm = mask_of(green)
    return BicoloredGraph(g, bits_of(gm), bits_of(g.vertex_mask() ^ gm))


# ---------------------------------------------------------------------------
# Mask/tuple helpers and serialization
# ---------------------------------------------------------------------------

def _check_labels(labels: Iterable, n: int | None = None) -> None:
    """Raise MalformedInput unless every label is an int (a bool is not), and,
    given n, OutOfRange unless each lies in 0..n-1; the first bad label decides."""
    for v in labels:
        if type(v) is not int:
            raise MalformedInput(f"vertex label must be an integer, got {v!r}")
        if n is not None and not 0 <= v < n:
            raise OutOfRange(f"vertex label {v} lies outside 0..{n - 1}")


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _byte_bits(low: int) -> list[tuple[int, ...]]:
    """Entry b: the set bits of b, ascending, each plus ``low``; built by
    doubling, one bit of the byte at a time."""
    table = [()]
    for i in range(low, low + 8):
        table += [bits + (i,) for bits in table]
    return table


_LOW_BITS = _byte_bits(0)
_HIGH_BITS = _byte_bits(8)


def bits_of(mask: int) -> tuple[int, ...]:
    """The set bits of a non-negative mask, ascending.

    A mask below 2^16, which is every vertex mask, reads its two bytes from
    the tables; a wider one, such as an edge word, walks its bits.
    """
    if mask <= 0xFFFF:
        return _LOW_BITS[mask & 0xFF] + _HIGH_BITS[mask >> 8]
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return tuple(out)


def graph_from_json(data: dict) -> Graph:
    """The graph of ``{"n": ..., "edges": [[i, j], ...]}``.

    An endpoint that is not an int, a bool included, raises MalformedInput.
    """
    n, edges = _json_values(data, "n", "edges")
    edges = [tuple(e) for e in edges]
    _check_labels(itertools.chain.from_iterable(edges))
    return make_graph(n, edges)


def _json_values(data, *keys: str) -> list:
    """The values of ``keys`` in the decoded JSON object ``data``; MalformedInput
    names the keys missing, or says that ``data`` is not an object."""
    if not isinstance(data, dict):
        raise MalformedInput(f"expected a JSON object with the keys {', '.join(keys)}, "
                             f"got a {type(data).__name__}")
    missing = [f'"{key}"' for key in keys if key not in data]
    if missing:
        raise MalformedInput(f"the JSON object has no key {' or '.join(missing)}")
    return [data[key] for key in keys]


def parse_graph_text(text: str) -> Graph:
    """Parse the fixture format: first line n, then one 'i j' pair per line."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise MalformedInput("empty graph file")
    n = int(lines[0])
    edges = []
    for ln in lines[1:]:
        i, j = ln.split()
        edges.append((int(i), int(j)))
    return make_graph(n, edges)


def load_file(path: str, parse: Callable[[str], T]) -> T:
    """Parse the text of a file.

    A path that cannot be read (missing, a directory, ...) and text that
    does not parse (JSON nested too deeply to decode included) raise
    MalformedInput; the package's own domain errors (a label out of range,
    a self-loop, ...) keep their type.  Each message starts with the path.
    """
    try:
        with open(path) as f:
            return parse(f.read())
    except SplitSpeciesError as exc:
        raise type(exc)(f"{path}: {exc}") from exc
    except OSError as exc:
        raise MalformedInput(f"{path}: cannot be read ({exc.strerror or exc})") from exc
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise MalformedInput(f"{path}: malformed input ({type(exc).__name__}: {exc})") from exc


def load_graph(path: str) -> Graph:
    """Load a graph from a .json file or the plain-text fixture format."""
    return load_file(path, _parse_graph)


def _parse_graph(text: str) -> Graph:
    if text.lstrip().startswith("{"):
        import json

        return graph_from_json(json.loads(text))
    return parse_graph_text(text)
