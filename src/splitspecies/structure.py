"""Clique/stable-set partitions, swing vertices, and the four-way classification.

A split graph falls into exactly one of four classes, read off from its set A
of swing vertices (vertices that can change sides between two partitions):

* balanced     -- A is empty; the partition is unique;
* ambiguous    -- A is a single vertex;
* k-canonical  -- A is a clique of size >= 2;
* s-canonical  -- A is a stable set of size >= 2.

Swing vertices are computed definitionally, from the full list of partitions.
That list comes from one partition and its one-vertex moves: the vertices of
largest degree form a clique K0 and the rest a stable set S0 whenever the
graph is split (Hammer and Simeone), and any other partition differs from
(K0, S0) by at most one vertex leaving K0 and at most one joining it, so
listing them takes O(n^2) bit tests.  Ground truth is not in the library:
the subset-scan oracles in ``tests/conftest.py`` check these partitions.

Inside the module a partition is the bit mask of its clique side (the
stable side is the complement).  The swing report and the S-max and K-max
selections work on those masks; ``KSPartition`` and ``ColoredSplitGraph``
objects are built only for the partitions a public function returns.

Conventions at the small end: the empty graph is balanced (its unique
partition is empty/empty) and the one-vertex graph is ambiguous (its single
vertex swings between the two partitions ({v}, {}) and ({}, {v})).  These
choices make the generating-function identities hold from order zero.
"""

from __future__ import annotations

import enum

from .errors import BrokenInvariant, NotAPartition, NotSMax, NotSplit, check_size
from .graphs import (MAX_VERTICES, Graph, TwoColoredGraph, bits_of, complement,
                     hammer_simeone_side, mask_of)
from .record import Record

KIND_EMPTY = "empty"
KIND_SINGLETON = "singleton"
KIND_CLIQUE = "clique"
KIND_STABLE = "stable"


class SplitClass(enum.Enum):
    BALANCED = "balanced"
    AMBIGUOUS = "ambiguous"
    K_CANONICAL = "k-canonical"
    S_CANONICAL = "s-canonical"


class KSPartition(Record):
    """A partition of the vertices into a clique K and a stable set S."""

    __slots__ = _fields = ("k", "s")

    def __init__(self, k: tuple[int, ...], s: tuple[int, ...]):
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "s", s)

    def k_mask(self) -> int:
        return mask_of(self.k)

    def s_mask(self) -> int:
        return mask_of(self.s)

    def to_json(self) -> dict:
        return {"k": list(self.k), "s": list(self.s)}


class SwingReport(Record):
    """Swing set A plus the fixed sides Y (always-clique) and Z (always-stable).

    Every swing vertex is adjacent to all of Y and none of Z, and A, Y, Z
    partition the vertex set.  ``kind`` says what A induces: "clique" or
    "stable" for |A| >= 2, "singleton" for |A| = 1, "empty" for |A| = 0.
    """

    _fields = ("swings", "kind", "y", "z")
    __slots__ = _fields + ("_swings",)  # the swing set as a mask

    def __init__(self, swings: tuple[int, ...], kind: str, y: tuple[int, ...],
                 z: tuple[int, ...]):
        object.__setattr__(self, "swings", swings)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "_swings", mask_of(swings))

    def swing_mask(self) -> int:
        return self._swings

    def to_json(self) -> dict:
        return {"swings": list(self.swings), "kind": self.kind,
                "y": list(self.y), "z": list(self.z)}


def is_clique(g: Graph, mask: int) -> bool:
    rows = g.rows
    for v in bits_of(mask):
        if rows[v] & mask != mask ^ (1 << v):
            return False
    return True


def is_stable(g: Graph, mask: int) -> bool:
    rows = g.rows
    for v in bits_of(mask):
        if rows[v] & mask:
            return False
    return True


def ks_partitions(g: Graph) -> list[KSPartition]:
    """All clique/stable-set partitions of g, ordered by ascending K bit word.

    Empty iff g is not split.  The partitions are those of ``_clique_sides``.
    """
    full = g.vertex_mask()
    return [_partition(km, full) for km in _clique_sides(g)]


def _clique_sides(g: Graph) -> list[int]:
    """The clique-side masks of all partitions of g, ascending; [] iff g is not split.

    The m vertices of largest degree K0 form a clique and the rest S0 a
    stable set whenever g is split (``graphs.hammer_simeone_side``).  A
    clique meets S0 in at most one vertex and a stable set meets K0 in at
    most one, so every other partition is K0 - v, K0 + u or K0 - v + u
    (v in K0, u in S0).  No u in S0 sees all of K0 (its degree would be
    >= m and push m up), so K0 + u never occurs and the u of K0 - v + u
    misses v: both remaining moves need a v with no neighbour in S0, and
    K0 - v + u needs a u adjacent to all of K0 - v.
    """
    check_size(g.n, high=MAX_VERTICES, what="vertex count")
    k0 = hammer_simeone_side(g)
    if k0 is None:
        return []
    rows = g.rows
    s0 = g.vertex_mask() ^ k0
    kms = [k0]
    for v in bits_of(k0):
        if rows[v] & s0:
            continue
        kv = k0 ^ 1 << v
        kms.append(kv)
        kms.extend(kv | 1 << u for u in bits_of(s0) if rows[u] & kv == kv)
    kms.sort()
    return kms


def _partition(km: int, full: int) -> KSPartition:
    """The partition whose clique side is the mask km."""
    return KSPartition(bits_of(km), bits_of(full ^ km))


def clique_number(g: Graph) -> int:
    """omega(g), by exhaustive search over vertex subsets."""
    check_size(g.n, high=MAX_VERTICES, what="vertex count")
    best = 0
    for mask in range(1 << g.n):
        c = mask.bit_count()
        if c > best and is_clique(g, mask):
            best = c
    return best


def independence_number(g: Graph) -> int:
    """alpha(g) = omega of the complement."""
    return clique_number(complement(g))


def swing_report(g: Graph) -> SwingReport:
    """Identify the swing vertices of a split graph, definitionally.

    A vertex v swings iff some partition can be turned into another one by
    moving v alone across the divide: iff two listed clique sides differ in
    v alone.  Requires is_split(g).
    """
    kms = _clique_sides_checked(g)
    full = g.vertex_mask()
    swings = 0
    always_k = full
    ever_k = 0
    for i, km in enumerate(kms):
        always_k &= km
        ever_k |= km
        for other in kms[i + 1:]:
            moved = km ^ other
            if not moved & (moved - 1):  # one vertex changed sides
                swings |= moved
    y = always_k & ~swings
    z = full & ~ever_k & ~swings
    count = swings.bit_count()
    if count == 0:
        kind = KIND_EMPTY
    elif count == 1:
        kind = KIND_SINGLETON
    elif is_clique(g, swings):
        kind = KIND_CLIQUE
    elif is_stable(g, swings):
        kind = KIND_STABLE
    else:
        raise BrokenInvariant("swing set neither clique nor stable")
    return SwingReport(bits_of(swings), kind, bits_of(y), bits_of(z))


def classify(g: Graph) -> SplitClass:
    """Which of the four structural classes the split graph g belongs to."""
    return classify_report(swing_report(g))


def classify_report(rep: SwingReport) -> SplitClass:
    return {
        KIND_EMPTY: SplitClass.BALANCED,
        KIND_SINGLETON: SplitClass.AMBIGUOUS,
        KIND_CLIQUE: SplitClass.K_CANONICAL,
        KIND_STABLE: SplitClass.S_CANONICAL,
    }[rep.kind]


def s_max_partitions(g: Graph) -> list[KSPartition]:
    """All partitions whose stable side has maximum size alpha(g)."""
    full = g.vertex_mask()
    return [_partition(km, full) for km in _sized_sides(g, min)]


def k_max_partitions(g: Graph) -> list[KSPartition]:
    """All partitions whose clique side has maximum size omega(g)."""
    full = g.vertex_mask()
    return [_partition(km, full) for km in _sized_sides(g, max)]


def _sized_sides(g: Graph, pick) -> list[int]:
    """The clique-side masks whose size is the one ``pick`` (min or max) chooses:
    min gives the S-max partitions, max the K-max ones."""
    kms = _clique_sides_checked(g)
    size = pick(km.bit_count() for km in kms)
    return [km for km in kms if km.bit_count() == size]


def canonical_partition(g: Graph) -> KSPartition | None:
    """The distinguished partition, or None for an ambiguous graph.

    K-canonical: the unique K-max partition.  S-canonical: the unique S-max
    partition.  Balanced: the unique partition.  Ambiguous: None.
    """
    cls = classify(g)
    if cls is SplitClass.AMBIGUOUS:
        return None
    if cls is SplitClass.K_CANONICAL:
        (part,) = k_max_partitions(g)
    elif cls is SplitClass.S_CANONICAL:
        (part,) = s_max_partitions(g)
    else:
        (part,) = ks_partitions(g)
    return part


def _clique_sides_checked(g: Graph) -> list[int]:
    kms = _clique_sides(g)
    if not kms:
        raise NotSplit("graph has no clique/stable-set partition")
    return kms


# ---------------------------------------------------------------------------
# Colored split graphs
# ---------------------------------------------------------------------------

class ColoredSplitGraph(TwoColoredGraph):
    """A split graph with a chosen S-max partition: clique green, stable red.

    The constructor validates both that (green, red) is a clique/stable-set
    partition and that red attains the independence number, so an instance is
    a valid colored structure by construction.
    """

    __slots__ = ()

    def _check_edges(self, gm: int, rm: int):
        g = self.graph
        if not is_clique(g, gm) or not is_stable(g, rm):
            raise NotAPartition("green must induce a clique and red a stable set")
        # alpha(g) = |red| + [some green vertex has no red neighbour]
        if any(not g.rows[v] & rm for v in self.green):
            raise NotSMax("the red side does not have maximum size")


def all_colorings(g: Graph) -> list[ColoredSplitGraph]:
    """Every colored split graph over g: one per S-max partition."""
    return [ColoredSplitGraph(g, p.k, p.s) for p in s_max_partitions(g)]
