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

Pieces move between label sets in rank space (a core's vertex i is its i-th
label): composing inserts the new labels' ranks into the remainder's rows and
its green or clique-side mask, decomposing deletes the removed ranks, highest
first, from the kept rows and the green mask, and relabeling moves the core
by one rank permutation (``graphs.relabel``).  Edge lists appear only in JSON.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import (BrokenInvariant, IsolatedGreen, LabelClash, LengthMismatch, MalformedInput,
                     OutOfRange, TooSmall, WrongClass)
from .graphs import MAX_VERTICES, BicoloredGraph, Graph, bits_of, mask_of, relabel
from .graphs import _check_labels as _check_integers
from .record import Record
from .structure import ColoredSplitGraph, SplitClass, classify_report, swing_report


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
        labels, ranks = _relabeling(p, self.labels)
        return EmbeddedGraph(labels, relabel(self.core, ranks))

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
        labels, ranks = _relabeling(p, self.labels)
        green = mask_of(ranks[v] for v in self.core.green)
        return _colored_on(labels, relabel(self.core.graph, ranks), green)

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


def _relabeling(p: Sequence[int], labels: tuple[int, ...]) -> tuple[tuple, list[int]]:
    """The images under p of the increasing labels, sorted, and the rank of each
    label's image among them; the carrier built on the images checks them."""
    if labels and len(p) <= labels[-1]:
        raise LengthMismatch(f"a map of length {len(p)} has no image for label {labels[-1]}")
    images = [p[l] for l in labels]
    order = sorted(range(len(images)), key=images.__getitem__)
    return tuple(images[v] for v in order), sorted(range(len(order)), key=order.__getitem__)


def _colored_on(labels: tuple[int, ...], core: Graph, green: int) -> EmbeddedColored:
    """``core`` on ``labels``, colored: the ranks in the mask ``green`` green, the rest red."""
    red = core.vertex_mask() ^ green
    return EmbeddedColored(labels, ColoredSplitGraph(core, bits_of(green), bits_of(red)))


def _outer_edges(labels: Sequence[int], core: Graph) -> list[tuple[int, int]]:
    """The edges of ``core`` between the labels of their ends."""
    return [(labels[i], labels[j]) for i, j in core.edges()]


def _as_embedded_colored(c) -> EmbeddedColored:
    return c if isinstance(c, EmbeddedColored) else EmbeddedColored.whole(c)


def _as_embedded_graph(g) -> EmbeddedGraph:
    return g if isinstance(g, EmbeddedGraph) else EmbeddedGraph.whole(g)


def _inserted(union: int, added: int, rows: Sequence[int],
              side: int) -> tuple[tuple, Graph, int, int]:
    """The labels ``added`` joined, as a clique, to the rank mask ``side`` of the
    core ``rows`` on the other labels of ``union``: each new rank goes, lowest
    first, into every row and ``side``, moving the bits from it up one.  Gives
    all the labels, the graph, and the rank masks of the new vertices and ``side``."""
    labels = bits_of(union)
    ranks = [labels.index(v) for v in bits_of(added)]
    masks = [*rows, side]
    for r in ranks:
        low = (1 << r) - 1
        masks = [x & low | x >> r << r + 1 for x in masks]
    side = masks.pop()
    new = mask_of(ranks)
    for r in ranks:
        masks.insert(r, (new | side) ^ 1 << r)
    for v in bits_of(side):
        masks[v] |= new
    return labels, Graph(len(masks), tuple(masks)), new, side


def _deleted(g: Graph, gone: int, side: int = 0) -> tuple[Graph, int]:
    """g without the vertices in ``gone``, and the mask ``side`` moved with it.

    Each rank in ``gone`` leaves, highest first, the kept rows and ``side``,
    moving the bits above it down one."""
    masks = [x for v, x in enumerate(g.rows) if not gone >> v & 1] + [side]
    for v in reversed(bits_of(gone)):
        low = (1 << v) - 1
        masks = [x & low | x >> v + 1 << v for x in masks]
    side = masks.pop()
    return Graph(len(masks), tuple(masks)), side


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
    sub, green = _deleted(g, rep.swing_mask(), mask_of(rep.y))
    return rep.swings, _colored_on(bits_of(g.vertex_mask() ^ rep.swing_mask()), sub, green)


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
    labels, g, _, _ = _attached(a_tuple, rest)
    return EmbeddedGraph(labels, g)


def _attached(a: tuple[int, ...], rest: EmbeddedColored) -> tuple[tuple, Graph, int, int]:
    """The checked labels ``a`` attached to ``rest``, joined to its green side."""
    a_mask, rest_mask = mask_of(a), mask_of(rest.labels)
    if a_mask & rest_mask:
        raise LabelClash(f"labels {bits_of(a_mask & rest_mask)} appear on both sides")
    return _inserted(a_mask | rest_mask, a_mask, rest.core.graph.rows, rest.core.green_mask())


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
    sub, _ = _deleted(g, 1 << a)
    return a, EmbeddedGraph(bits_of(g.vertex_mask() ^ 1 << a), sub)


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
    labels, g, _, _ = _inserted(mask_of(h.labels) | 1 << a, 1 << a, h.core.rows, mask_of(rep.y))
    return EmbeddedGraph(labels, g)


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
    sub, green = _deleted(core.graph, a_mask, core.green_mask())
    outer = tuple(c.labels[v] for v in bits_of(core.graph.vertex_mask() ^ a_mask))
    return ps, _colored_on(outer, sub, green)


def cuk_compose(ps: PointedSet, rest) -> EmbeddedColored:
    """Inverse of cuk_decompose: attach a pointed swing set to a colored graph.

    The point turns red, the other new vertices green; the underlying graph is
    the uk composition on ps.elements.
    """
    labels, g, new, green = _attached(ps.elements, _as_embedded_colored(rest))
    return _colored_on(labels, g, new ^ 1 << labels.index(ps.point) | green)


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
