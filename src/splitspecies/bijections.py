"""The four structural bijections, as executable, invertible maps.

Each decomposition peels structure off a graph and keeps the original vertex
labels on what remains, so the maps commute with relabeling (they are natural
in the species sense).  Because a remainder then lives on a label set that
need not be 0..m-1, the pieces are wrapped in small "embedded" carriers: a
sorted tuple of external labels plus a normalized core structure.

The pairs:

* uk_decompose / uk_compose       k-canonical graph  <->  (swing clique, colored remainder)
* amb_decompose / amb_compose     ambiguous graph    <->  (swing vertex, balanced remainder)
* cuk_decompose / cuk_compose     colored k-canonical <-> (pointed swing set, colored remainder)
* split_to_bicolored / bicolored_to_split
      colored split graph  <->  bicolored graph with no isolated green vertex
      (drop the edges inside the green clique / put them all back)

Compositions take label sets drawn from the shared universe
0..MAX_VERTICES - 1 (0..15); colliding labels raise LabelClash rather than
being silently renamed.  Labels are distinct, so no composition can exceed
MAX_VERTICES vertices.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import (
    BrokenInvariant,
    IsolatedGreen,
    LabelClash,
    LengthMismatch,
    MalformedInput,
    OutOfRange,
    TooSmall,
    WrongClass,
)
from .graphs import MAX_VERTICES, BicoloredGraph, Graph, bits_of, mask_of
from .graphs import _check_labels as _check_integers
from .record import Record
from .structure import (
    ColoredSplitGraph,
    SplitClass,
    classify_report,
    swing_report,
)


class PointedSet(Record):
    """A set of at least two labels with one distinguished element."""

    __slots__ = _fields = ("elements", "point")

    def __init__(self, elements: tuple[int, ...], point: int):
        _check_labels(elements)
        if len(elements) < 2:
            raise TooSmall("a pointed set here has at least two elements")
        if point not in elements:
            raise OutOfRange(f"point {point} not among elements {elements}")
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "point", point)

    def to_json(self) -> dict:
        return {"elements": list(self.elements), "point": self.point}


class EmbeddedGraph(Record):
    """A graph living on an arbitrary label subset of 0..15.

    ``labels[i]`` is the external label of the core's vertex i; labels are
    strictly increasing, so the embedding is canonical and equality is plain
    structural equality.
    """

    __slots__ = _fields = ("labels", "core")

    def __init__(self, labels: tuple[int, ...], core: Graph):
        _check_labels(labels, core.n)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "core", core)

    def relabeled(self, p: Sequence[int]) -> "EmbeddedGraph":
        images = _images(p, self.labels)
        labels = tuple(sorted(images))
        return EmbeddedGraph(labels, _graph_on(labels, _outer_edges(images, self.core)))

    def to_json(self) -> dict:
        return {"labels": list(self.labels),
                "edges": [list(e) for e in _outer_edges(self.labels, self.core)]}

    @classmethod
    def whole(cls, g: Graph) -> "EmbeddedGraph":
        return cls(tuple(range(g.n)), g)


class EmbeddedColored(Record):
    """A colored split graph living on an arbitrary label subset of 0..15."""

    __slots__ = _fields = ("labels", "core")

    def __init__(self, labels: tuple[int, ...], core: ColoredSplitGraph):
        _check_labels(labels, core.n)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "core", core)

    def green_labels(self) -> tuple[int, ...]:
        return tuple(self.labels[v] for v in self.core.green)

    def red_labels(self) -> tuple[int, ...]:
        return tuple(self.labels[v] for v in self.core.red)

    def relabeled(self, p: Sequence[int]) -> "EmbeddedColored":
        images = _images(p, self.labels)
        labels = tuple(sorted(images))
        g = _graph_on(labels, _outer_edges(images, self.core.graph))
        return _colored_on(labels, g, mask_of(images[v] for v in self.core.green))

    def to_json(self) -> dict:
        return {"labels": list(self.labels),
                "edges": [list(e) for e in _outer_edges(self.labels, self.core.graph)],
                "green": list(self.green_labels()), "red": list(self.red_labels())}

    @classmethod
    def whole(cls, c: ColoredSplitGraph) -> "EmbeddedColored":
        return cls(tuple(range(c.n)), c)


def _check_labels(labels: tuple[int, ...], n: int | None = None):
    """Integer labels (n of them, if given) strictly increasing in 0..MAX_VERTICES - 1."""
    if n is not None and len(labels) != n:
        raise LengthMismatch(f"{len(labels)} labels for {n} vertices")
    _check_integers(labels)
    if any(a >= b for a, b in zip(labels, labels[1:])):
        raise MalformedInput(f"labels must be distinct and increasing, got {labels}")
    if labels and not (0 <= labels[0] and labels[-1] < MAX_VERTICES):
        raise OutOfRange(f"labels must lie in 0..{MAX_VERTICES - 1}, got {labels}")


def _images(p: Sequence[int], labels: tuple[int, ...]) -> list[int]:
    """The image under p of each of the increasing labels."""
    if labels and len(p) <= labels[-1]:
        raise LengthMismatch(f"a map of length {len(p)} has no image for label {labels[-1]}")
    return [p[l] for l in labels]


def _graph_on(labels: tuple[int, ...], edges: Iterable[tuple[int, int]]) -> Graph:
    """The graph on the sorted labels whose vertex i is ``labels[i]``, with
    ``edges`` given between labels.  The labels are checked first, so a
    relabeling that merges labels or leaves 0..15 fails before any coloring."""
    _check_labels(labels)
    rank = {lab: r for r, lab in enumerate(labels)}
    rows = [0] * len(labels)
    for u, v in edges:
        u, v = rank[u], rank[v]
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(len(labels), tuple(rows))


def _colored_on(labels: tuple[int, ...], core: Graph, green_mask: int) -> EmbeddedColored:
    """``core`` on ``labels``, colored: the labels in ``green_mask`` green, the rest red."""
    green = tuple(r for r, lab in enumerate(labels) if green_mask >> lab & 1)
    red = tuple(r for r, lab in enumerate(labels) if not green_mask >> lab & 1)
    return EmbeddedColored(labels, ColoredSplitGraph(core, green, red))


def _outer_edges(labels: Sequence[int], core: Graph) -> list[tuple[int, int]]:
    """The edges of ``core`` between the labels of their ends."""
    return [(labels[i], labels[j]) for i, j in core.edges()]


def _as_embedded_colored(c) -> EmbeddedColored:
    return c if isinstance(c, EmbeddedColored) else EmbeddedColored.whole(c)


def _as_embedded_graph(g) -> EmbeddedGraph:
    return g if isinstance(g, EmbeddedGraph) else EmbeddedGraph.whole(g)


def _induced(g: Graph, keep: int) -> tuple[tuple[int, ...], Graph]:
    """Subgraph on the vertices in ``keep``, with the kept labels returned."""
    labels = bits_of(keep)
    rank = {lab: r for r, lab in enumerate(labels)}
    rows = [0] * len(labels)
    for r, lab in enumerate(labels):
        for u in bits_of(g.rows[lab] & keep):
            rows[r] |= 1 << rank[u]
    return labels, Graph(len(labels), tuple(rows))


# ---------------------------------------------------------------------------
# K-canonical graphs  <->  swing clique + colored remainder
# ---------------------------------------------------------------------------

def uk_decompose(g: Graph) -> tuple[tuple[int, ...], EmbeddedColored]:
    """Split a k-canonical graph into its swing clique A and g - A, colored.

    The remainder keeps its labels and inherits the canonical K-max coloring
    (clique side minus A stays green, stable side stays red); that coloring
    is S-max on the remainder.
    """
    rep = swing_report(g)
    if classify_report(rep) is not SplitClass.K_CANONICAL:
        raise WrongClass("uk_decompose requires a k-canonical graph")
    labels, sub = _induced(g, g.vertex_mask() ^ rep.swing_mask())
    return rep.swings, _colored_on(labels, sub, mask_of(rep.y))


def uk_compose(a: Iterable[int], rest) -> EmbeddedGraph:
    """Inverse of uk_decompose: attach a new swing clique A to a colored graph.

    A becomes a clique joined to every green vertex of ``rest``; the result is
    k-canonical with swing set exactly A.  Inputs must not share labels.
    """
    a_tuple = tuple(sorted(a))
    rest = _as_embedded_colored(rest)
    if len(a_tuple) < 2:
        raise TooSmall("the attached swing set needs at least two vertices")
    _check_labels(a_tuple)
    a_mask = mask_of(a_tuple)
    if a_mask & mask_of(rest.labels):
        raise LabelClash(f"labels {bits_of(a_mask & mask_of(rest.labels))} appear on both sides")
    labels = tuple(sorted(a_tuple + rest.labels))
    edges = _outer_edges(rest.labels, rest.core.graph)
    ends = a_tuple + rest.green_labels()  # A is a clique joined to every green vertex
    edges += [(u, v) for i, u in enumerate(a_tuple) for v in ends[i + 1:]]
    return EmbeddedGraph(labels, _graph_on(labels, edges))


# ---------------------------------------------------------------------------
# Ambiguous graphs  <->  swing vertex + balanced remainder
# ---------------------------------------------------------------------------

def amb_decompose(g: Graph) -> tuple[int, EmbeddedGraph]:
    """Split an ambiguous graph into its unique swing vertex and g - a.

    The remainder is balanced.
    """
    rep = swing_report(g)
    if classify_report(rep) is not SplitClass.AMBIGUOUS:
        raise WrongClass("amb_decompose requires an ambiguous graph")
    (a,) = rep.swings
    labels, sub = _induced(g, g.vertex_mask() ^ (1 << a))
    return a, EmbeddedGraph(labels, sub)


def amb_compose(a: int, h) -> EmbeddedGraph:
    """Inverse of amb_decompose: append a new swing vertex to a balanced graph.

    The new vertex is joined to every vertex of the clique side of h's unique
    partition; the result is ambiguous with swing vertex a.
    """
    h = _as_embedded_graph(h)
    _check_labels((a,))
    if a in h.labels:
        raise LabelClash(f"label {a} already used by the balanced part")
    rep = swing_report(h.core)
    if classify_report(rep) is not SplitClass.BALANCED:
        raise WrongClass("amb_compose requires a balanced graph")
    labels = tuple(sorted(h.labels + (a,)))
    edges = _outer_edges(h.labels, h.core)
    edges += [(a, h.labels[y]) for y in rep.y]  # the clique side of the unique partition
    return EmbeddedGraph(labels, _graph_on(labels, edges))


# ---------------------------------------------------------------------------
# Colored k-canonical graphs  <->  pointed swing set + colored remainder
# ---------------------------------------------------------------------------

def cuk_decompose(c) -> tuple[PointedSet, EmbeddedColored]:
    """Split a colored k-canonical graph into its pointed swing set and the rest.

    The point is the one swing vertex the coloring placed on the red side;
    the remainder keeps the other colors.
    """
    c = _as_embedded_colored(c)
    core = c.core
    rep = swing_report(core.graph)
    if classify_report(rep) is not SplitClass.K_CANONICAL:
        raise WrongClass("cuk_decompose requires a k-canonical underlying graph")
    a_mask = rep.swing_mask()
    red_swings = a_mask & core.red_mask()
    if red_swings.bit_count() != 1:
        raise BrokenInvariant("an S-max coloring has exactly one red swing vertex")
    point_internal = red_swings.bit_length() - 1
    ps = PointedSet(tuple(c.labels[v] for v in rep.swings), c.labels[point_internal])
    sub_labels, sub = _induced(core.graph, core.graph.vertex_mask() ^ a_mask)
    outer = tuple(c.labels[l] for l in sub_labels)
    return ps, _colored_on(outer, sub, mask_of(c.green_labels()))


def cuk_compose(ps: PointedSet, rest) -> EmbeddedColored:
    """Inverse of cuk_decompose: attach a pointed swing set to a colored graph.

    The point turns red, the other new vertices green; the underlying graph is
    the uk composition on ps.elements.
    """
    rest = _as_embedded_colored(rest)
    composed = uk_compose(ps.elements, rest)
    green = (mask_of(ps.elements) ^ 1 << ps.point) | mask_of(rest.green_labels())
    return _colored_on(composed.labels, composed.core, green)


# ---------------------------------------------------------------------------
# Colored split graphs  <->  bicolored graphs without isolated green vertices
# ---------------------------------------------------------------------------

def split_to_bicolored(c: ColoredSplitGraph) -> BicoloredGraph:
    """Delete the edges inside the green clique.

    Because the coloring is S-max, no green vertex loses all its neighbors,
    so the image has no isolated green vertex.
    """
    rm = c.red_mask()
    rows = list(c.graph.rows)
    for v in c.green:
        rows[v] &= rm
    return BicoloredGraph(Graph(c.graph.n, tuple(rows)), c.green, c.red)


def bicolored_to_split(b: BicoloredGraph) -> ColoredSplitGraph:
    """Inverse: make the green vertices a clique again.

    Requires that no green vertex is isolated; the resulting coloring is an
    S-max partition of the filled-in graph.
    """
    isolated = b.isolated_greens()
    if isolated:
        raise IsolatedGreen(f"green vertices {list(isolated)} are isolated")
    gm = b.green_mask()
    rows = list(b.graph.rows)
    for v in b.green:
        rows[v] |= gm ^ (1 << v)
    return ColoredSplitGraph(Graph(b.graph.n, tuple(rows)), b.green, b.red)
