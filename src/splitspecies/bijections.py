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
from .graphs import MAX_VERTICES, BicoloredGraph, Graph, bits_of, mask_of, relabel
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
        labels, q = _label_map(self.labels, p)
        return EmbeddedGraph(labels, relabel(self.core, q))

    def to_json(self) -> dict:
        lab = self.labels
        return {
            "labels": list(lab),
            "edges": [[lab[i], lab[j]] for i, j in self.core.edges()],
        }

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
        labels, q = _label_map(self.labels, p)
        g = relabel(self.core.graph, q)
        green = tuple(sorted(q[v] for v in self.core.green))
        red = tuple(sorted(q[v] for v in self.core.red))
        return EmbeddedColored(labels, ColoredSplitGraph(g, green, red))

    def to_json(self) -> dict:
        lab = self.labels
        return {
            "labels": list(lab),
            "edges": [[lab[i], lab[j]] for i, j in self.core.graph.edges()],
            "green": list(self.green_labels()),
            "red": list(self.red_labels()),
        }

    @classmethod
    def whole(cls, c: ColoredSplitGraph) -> "EmbeddedColored":
        return cls(tuple(range(c.n)), c)


def _check_labels(labels: tuple[int, ...], n: int | None = None):
    """Labels (n of them, if given) strictly increasing in 0..MAX_VERTICES - 1."""
    if n is not None and len(labels) != n:
        raise LengthMismatch(f"{len(labels)} labels for {n} vertices")
    if any(a >= b for a, b in zip(labels, labels[1:])):
        raise MalformedInput(f"labels must be distinct and increasing, got {labels}")
    if labels and not (0 <= labels[0] and labels[-1] < MAX_VERTICES):
        raise OutOfRange(f"labels must lie in 0..{MAX_VERTICES - 1}, got {labels}")


def _label_map(labels: tuple[int, ...], p: Sequence[int]) -> tuple[tuple[int, ...], list[int]]:
    """New sorted label tuple plus the induced permutation of core vertices."""
    imgs = [p[l] for l in labels]
    new_labels = tuple(sorted(imgs))
    rank = {lab: r for r, lab in enumerate(new_labels)}
    return new_labels, [rank[img] for img in imgs]


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
        t = g.rows[lab] & keep
        while t:
            b = t & -t
            rows[r] |= 1 << rank[b.bit_length() - 1]
            t ^= b
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
    a_mask = rep.swing_mask()
    labels, sub = _induced(g, g.vertex_mask() ^ a_mask)
    rank = {lab: r for r, lab in enumerate(labels)}
    green = tuple(sorted(rank[v] for v in rep.y))
    red = tuple(sorted(rank[v] for v in rep.z))
    return rep.swings, EmbeddedColored(labels, ColoredSplitGraph(sub, green, red))


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
    rank = {lab: r for r, lab in enumerate(labels)}
    rows = [0] * len(labels)

    def add_edge(u: int, v: int):
        rows[u] |= 1 << v
        rows[v] |= 1 << u

    for i, j in rest.core.graph.edges():
        add_edge(rank[rest.labels[i]], rank[rest.labels[j]])
    a_internal = [rank[v] for v in a_tuple]
    for idx, u in enumerate(a_internal):
        for v in a_internal[idx + 1:]:
            add_edge(u, v)
    for green_label in rest.green_labels():
        for u in a_internal:
            add_edge(u, rank[green_label])
    return EmbeddedGraph(labels, Graph(len(labels), tuple(rows)))


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
    rank = {lab: r for r, lab in enumerate(labels)}
    rows = [0] * len(labels)
    for i, j in h.core.edges():
        u, v = rank[h.labels[i]], rank[h.labels[j]]
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    ai = rank[a]
    for y in rep.y:  # the clique side of the unique partition
        u = rank[h.labels[y]]
        rows[ai] |= 1 << u
        rows[u] |= 1 << ai
    return EmbeddedGraph(labels, Graph(len(labels), tuple(rows)))


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
    keep = core.graph.vertex_mask() ^ a_mask
    sub_labels, sub = _induced(core.graph, keep)
    rank = {lab: r for r, lab in enumerate(sub_labels)}
    green = tuple(sorted(rank[v] for v in core.green if (1 << v) & keep))
    red = tuple(sorted(rank[v] for v in core.red if (1 << v) & keep))
    outer = tuple(c.labels[l] for l in sub_labels)
    return ps, EmbeddedColored(outer, ColoredSplitGraph(sub, green, red))


def cuk_compose(ps: PointedSet, rest) -> EmbeddedColored:
    """Inverse of cuk_decompose: attach a pointed swing set to a colored graph.

    The point turns red, the other new vertices green; the underlying graph is
    the uk composition on ps.elements.
    """
    rest = _as_embedded_colored(rest)
    composed = uk_compose(ps.elements, rest)
    rank = {lab: r for r, lab in enumerate(composed.labels)}
    green = set(rank[v] for v in ps.elements if v != ps.point)
    green.update(rank[v] for v in rest.green_labels())
    red = {rank[ps.point]}
    red.update(rank[v] for v in rest.red_labels())
    colored = ColoredSplitGraph(composed.core, tuple(sorted(green)), tuple(sorted(red)))
    return EmbeddedColored(composed.labels, colored)


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
