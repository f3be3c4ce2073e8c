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

Conventions at the small end: the empty graph is balanced (its unique
partition is empty/empty) and the one-vertex graph is ambiguous (its single
vertex swings between the two partitions ({v}, {}) and ({}, {v})).  These
choices make the generating-function identities hold from order zero.
"""

from __future__ import annotations

import enum

from .errors import BrokenInvariant, NotAPartition, NotSMax, NotSplit, check_size
from .graphs import MAX_VERTICES, Graph, TwoColoredGraph, bits_of, complement, mask_of
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

    __slots__ = _fields = ("swings", "kind", "y", "z")

    def __init__(self, swings: tuple[int, ...], kind: str, y: tuple[int, ...],
                 z: tuple[int, ...]):
        object.__setattr__(self, "swings", swings)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)

    def swing_mask(self) -> int:
        return mask_of(self.swings)

    def to_json(self) -> dict:
        return {"swings": list(self.swings), "kind": self.kind,
                "y": list(self.y), "z": list(self.z)}


def is_clique(g: Graph, mask: int) -> bool:
    t = mask
    while t:
        b = t & -t
        v = b.bit_length() - 1
        t ^= b
        if g.rows[v] & mask != mask ^ (1 << v):
            return False
    return True


def is_stable(g: Graph, mask: int) -> bool:
    t = mask
    while t:
        b = t & -t
        v = b.bit_length() - 1
        t ^= b
        if g.rows[v] & mask:
            return False
    return True


def ks_partitions(g: Graph) -> list[KSPartition]:
    """All clique/stable-set partitions of g, ordered by ascending K bit word.

    Empty iff g is not split.  With degrees d_1 >= ... >= d_n and
    m = max{i : d_i >= i - 1}, the first m vertices K0 form a clique and the
    rest S0 a stable set iff g is split (Hammer and Simeone).  A clique meets
    S0 in at most one vertex and a stable set meets K0 in at most one, so
    every other partition is K0 - v, K0 + u or K0 - v + u (v in K0, u in
    S0).  No u in S0 sees all of K0 (its degree would be >= m and push m
    up), so K0 + u never occurs and the u of K0 - v + u misses v: both
    remaining moves need a v with no neighbour in S0, and K0 - v + u needs
    a u adjacent to all of K0 - v.
    """
    check_size(g.n, high=MAX_VERTICES, what="vertex count")
    rows = g.rows
    order = sorted(range(g.n), key=lambda v: rows[v].bit_count(), reverse=True)
    m = 0
    for i, v in enumerate(order):
        if rows[v].bit_count() >= i:
            m = i + 1
    full = g.vertex_mask()
    k0 = mask_of(order[:m])
    s0 = full ^ k0
    if not (is_clique(g, k0) and is_stable(g, s0)):
        return []
    kms = [k0]
    for v in bits_of(k0):
        if rows[v] & s0:
            continue
        kv = k0 ^ 1 << v
        kms.append(kv)
        kms.extend(kv | 1 << u for u in bits_of(s0) if rows[u] & kv == kv)
    return [KSPartition(bits_of(km), bits_of(full ^ km)) for km in sorted(kms)]


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
    moving v alone across the divide.  Requires is_split(g).
    """
    parts = _partitions_checked(g)
    full = g.vertex_mask()
    swings = 0
    always_k = full
    always_s = full
    for p in parts:
        km, sm = p.k_mask(), p.s_mask()
        always_k &= km
        always_s &= sm
        for v in p.k:  # movable K -> S: no neighbor inside S
            if g.rows[v] & sm == 0:
                swings |= 1 << v
        for v in p.s:  # movable S -> K: adjacent to all of K
            if g.rows[v] & km == km:
                swings |= 1 << v
    y = always_k & ~swings
    z = always_s & ~swings
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
    parts = _partitions_checked(g)
    alpha = max(len(p.s) for p in parts)
    return [p for p in parts if len(p.s) == alpha]


def k_max_partitions(g: Graph) -> list[KSPartition]:
    """All partitions whose clique side has maximum size omega(g)."""
    parts = _partitions_checked(g)
    omega = max(len(p.k) for p in parts)
    return [p for p in parts if len(p.k) == omega]


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


def _partitions_checked(g: Graph) -> list[KSPartition]:
    parts = ks_partitions(g)
    if not parts:
        raise NotSplit("graph has no clique/stable-set partition")
    return parts


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
