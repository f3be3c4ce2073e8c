"""Exhaustive enumeration of every graph class, labeled and unlabeled.

This module is the ground-truth oracle.  Split graphs come straight from the
definition: a clique K, a stable set S = V - K, and any set of K-S edges.
Each clique mask with each subset of its cross edges is one (graph,
partition) pair.  One walk over the pairs fills two tables indexed by edge
word (one byte per word, 2 MB at n = 7): the union and the intersection of
each graph's clique sides.  The words with an intersection are the split
graphs, and the two masks give the class: one partition is balanced, two
ambiguous, three or more canonical (k-canonical when the union is a
clique, s-canonical otherwise).  Bicolored structures come from the same
cross-edge expansion without the clique edges, and colored split graphs
from it with the clique edges of the green side.

Each count builds only its own class family, cached per size: all graphs;
the split family (split graphs and their five classes); or one two-colored
class.  ``class_census`` composes the families and cross-asserts them.

The oracle never consults the series or the closed forms.  The tests check
the generated split graphs against the Hammer-Simeone degree test and a
subset scan, and the classes against the swing analysis of ``structure``.

A labeled two-colored structure is one integer key, (edge word << n) | green
mask, and a plain graph is keyed by its edge word.  ``enumerate_labeled``
turns keys into objects, or into JSON lines through tables of text.

Unlabeled structures are counted as orbits under vertex relabeling.  Orbit
counting takes a word-indexed table of flags and, at each word still
flagged, generates its whole orbit from a permutation table that packs the
images of one edge bit under every relabeling into the lanes of one Python
integer.  Each orbit is counted once, at its least word, which doubles as
the canonical code.  A two-colored orbit is counted among its members whose
green set is 0..c-1, which are generated alone, under the relabelings that
fix that set.

Only the standard library is used: ``bytearray`` tables, ``array.array``
results and integers as packed lanes.
"""

from __future__ import annotations

import enum
import itertools
import os
import re
import sys
from array import array
from bisect import bisect_left
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .errors import BrokenInvariant, check_size
from .graphs import BicoloredGraph, Graph, bits_of, edge_bit, edge_pairs
from .record import Record
from .structure import ColoredSplitGraph


class ClassTag(enum.Enum):
    # the declaration order is the census order: JSON keys, CSV rows, golden files
    ALL_GRAPHS = "all-graphs"
    SPLIT = "split"
    BALANCED = "balanced"
    UNBALANCED = "unbalanced"
    K_CANONICAL = "k-canonical"
    S_CANONICAL = "s-canonical"
    AMBIGUOUS = "ambiguous"
    COLORED_SPLIT = "colored-split"
    BICOLORED = "bicolored"
    BICOLORED_NO_ISOLATED_GREEN = "bicolored-no-isolated-green"


_GRAPH_TAGS = (ClassTag.ALL_GRAPHS, ClassTag.SPLIT)
_CLASSIFIED_TAGS = (ClassTag.BALANCED, ClassTag.UNBALANCED, ClassTag.K_CANONICAL,
                    ClassTag.S_CANONICAL, ClassTag.AMBIGUOUS)
_TWO_COLORED_TAGS = (ClassTag.COLORED_SPLIT, ClassTag.BICOLORED,
                     ClassTag.BICOLORED_NO_ISOLATED_GREEN)

# class codes used in the packed per-graph arrays
_BAL, _AMB, _KCAN, _SCAN = 0, 1, 2, 3
_CLS_OF_TAG = {ClassTag.BALANCED: _BAL, ClassTag.AMBIGUOUS: _AMB,
               ClassTag.K_CANONICAL: _KCAN, ClassTag.S_CANONICAL: _SCAN}


CENSUS_MAX_N = 7  # the full census: every class, labeled and unlabeled
SPLIT_MAX_N = 8  # split graphs alone, and labeled graphs of any kind

# Words and keys are stored as C unsigned ints, at least 32 bits: an edge
# word of n = 8 has 28 bits, a key of n = 7 has 21 + 7.
_WORD = "I"


def _check_limit(n: int, tag: ClassTag, unlabeled: bool = False):
    wide = tag is ClassTag.SPLIT if unlabeled else tag in _GRAPH_TAGS
    check_size(n, high=SPLIT_MAX_N if wide else CENSUS_MAX_N, what=f"{tag.value} size")


def _edge_count(n: int) -> int:
    return n * (n - 1) // 2


# ---------------------------------------------------------------------------
# Split graphs from the definition, classified by their clique sides
# ---------------------------------------------------------------------------

def _cross_words(n: int, mask: int, cover: bool = False, base: int = 0) -> list[int]:
    """Edge words of every set of edges between mask and its complement.

    Entry i holds the edges whose slots are set in i, the slots ordered by
    (vertex in mask, vertex outside it), plus the edges of ``base``.  With
    ``cover``, only the sets that give every vertex of mask at least one
    edge, in the same order.
    """
    outside = bits_of(((1 << n) - 1) ^ mask)
    words = [base]
    for g in bits_of(mask):
        chunk = [0]  # the edge sets of g, in slot order
        for r in outside:
            bit = 1 << edge_bit(g, r)
            chunk += [c | bit for c in chunk]
        words = [w | c for c in (chunk[1:] if cover else chunk) for w in words]
    return words


def _clique_word(mask: int) -> int:
    return sum(1 << edge_bit(i, j) for i, j in itertools.combinations(bits_of(mask), 2))


def _partitions(n: int) -> Iterator[tuple[int, list[int]]]:
    """Every (split graph, clique/stable partition) pair on n vertices.

    A split graph is a clique K, a stable set S and any set of K-S edges.
    Yields each clique mask K, ascending, with the edge words of the graphs
    that have K as a clique side.
    """
    for k in range(1 << n):
        yield k, _cross_words(n, k, base=_clique_word(k))


def _split_table(n: int) -> bytearray:
    """Table indexed by edge word, 1 at the words of split graphs on n vertices."""
    return _flag_table(n, itertools.chain.from_iterable(words for _, words in _partitions(n)))


def _split_words(n: int, flags: bytearray | None = None) -> array:
    """Ascending edge words of the split graphs on n vertices: the 1 entries
    of ``flags``, a table indexed by edge word, which ``_split_table`` builds
    if it is None."""
    flags = _split_table(n) if flags is None else flags
    return array(_WORD, map(re.Match.start, re.finditer(b"\x01", flags)))


class _SplitData(Record):
    """Per-graph structural arrays over the ascending split words of size n.

    ``words`` holds the edge words, ascending; ``classes`` the class codes,
    ``swings`` the swing-set masks and ``kmax`` a K-max clique side of each.
    """

    __slots__ = _fields = ("words", "classes", "swings", "kmax")


@lru_cache(maxsize=16)
def _split_data(n: int) -> _SplitData:
    """Class, swing set and a K-max clique side of every split graph.

    One walk over the (graph, partition) pairs fills two tables indexed by
    edge word: the union of the clique sides and their intersection, which
    starts at 0xff, above every vertex mask, so the split graphs are the
    words where it falls below.  With A the swings and Y the vertices on the
    clique side of every partition, the clique sides are: K alone
    (balanced); Y and Y + a (ambiguous); A + Y and each A + Y - a
    (k-canonical); Y and each Y + a (s-canonical).  So the swings are the
    union minus the intersection, and with two or more the graph is
    k-canonical iff the union is a clique of it: any two swings of an
    s-canonical graph lie on the stable side V - Y.
    """
    size = 1 << _edge_count(n)
    union, common = bytearray(size), bytearray(b"\xff") * size
    for k, pairs in _partitions(n):
        for w in pairs:
            union[w] |= k
            common[w] &= k
    below = bytes([1] * 255 + [0])  # 1 at each mask below 0xff
    words = _split_words(n, common.translate(below))
    clique = [_clique_word(m) for m in range(1 << n)]
    classes, swings, kmax = array("B"), array("B"), array("B")
    for w in words:
        u, c = union[w], common[w]
        a = u ^ c
        if not a & (a - 1):
            cls = _AMB if a else _BAL
        else:
            cls = _KCAN if w & clique[u] == clique[u] else _SCAN
        classes.append(cls)
        swings.append(a)
        # an s-canonical graph has one K-max side per swing: take the lowest
        kmax.append(c | (a & -a) if cls == _SCAN else u)
    return _SplitData(words, classes, swings, kmax)


# ---------------------------------------------------------------------------
# Permutation orbit machinery
# ---------------------------------------------------------------------------

_LANE_BYTES = array(_WORD).itemsize


@lru_cache(maxsize=16)
def _perm_tables(n: int, green: int) -> tuple[list[int], int]:
    """Image of every edge bit under every relabeling fixing the set 0..green-1.

    Returns one integer per edge bit, whose lane p (one ``_WORD`` wide)
    holds 1 << (the bit's image under permutation p), and the byte length of
    all lanes.  So the OR of the rows of a word's set bits holds, lane by
    lane, the word's image under every permutation.  ``green = 0`` is the
    whole symmetric group; pass 0, not n, for it, so that it is built once.
    """
    perms = [a + b for a in itertools.permutations(range(green))
             for b in itertools.permutations(range(green, n))]
    bit = [[1 << edge_bit(i, j) for j in range(n)] for i in range(n)]
    rows = [int.from_bytes(array(_WORD, [bit[p[i]][p[j]] for p in perms]).tobytes(),
                           sys.byteorder)
            for i, j in edge_pairs(n)]
    return rows, len(perms) * _LANE_BYTES


def _flag_table(n: int, words: Iterable[int]) -> bytearray:
    """Table indexed by edge word on n vertices, 1 at each of ``words``."""
    flags = bytearray(1 << _edge_count(n))
    for w in words:
        flags[w] = 1
    return flags


def _orbit_reps(flags: bytearray, table: tuple[list[int], int]) -> list[int]:
    """Least word of each orbit among the words flagged in ``flags``, ascending.

    ``flags`` is indexed by edge word and is used up.  ``table`` comes from
    ``_perm_tables``, and every image of a flagged word under its
    permutations must be flagged too.  The lowest flagged word starts an
    orbit, which unflags all of its images.
    """
    rows, nbytes = table
    reps = []
    w = flags.find(1)
    while w >= 0:
        reps.append(w)
        orbit = 0
        for b in bits_of(w):
            orbit |= rows[b]
        for image in array(_WORD, orbit.to_bytes(nbytes, sys.byteorder)):
            flags[image] = 0
        w = flags.find(1, w + 1)
    return reps


# ---------------------------------------------------------------------------
# Two-colored structures
# ---------------------------------------------------------------------------

def _green_words(n: int, green: int, tag: ClassTag) -> list[int]:
    """Edge words of the structures of a two-colored class with green set ``green``.

    A bicolored structure is any set of green-red edges; with no isolated
    green vertex, a set that gives every green vertex an edge.  A colored
    split graph is a split graph with an S-max partition, green its clique
    side: the clique on the green set plus such a covering set, as a green
    vertex with no red neighbour could join the stable side.
    """
    if tag is ClassTag.COLORED_SPLIT:
        return _cross_words(n, green, cover=True, base=_clique_word(green))
    return _cross_words(n, green, cover=tag is ClassTag.BICOLORED_NO_ISOLATED_GREEN)


def _bicolored_keys(n: int, tag: ClassTag) -> array:
    """Keys (edge word << n | green mask) of all structures of a bicolored class.

    Green-major: ascending green mask, then the words of ``_green_words``
    in their order.
    """
    keys = array(_WORD)
    for green in range(1 << n):
        keys.extend([(w << n) | green for w in _green_words(n, green, tag)])
    return keys


def _colored_split_keys(n: int) -> array:
    """Ascending keys (edge word << n | green mask) of all colored split graphs.

    One key per (split graph, S-max partition) pair.  The S-max clique sides
    are the K-max one minus one swing vertex, each in turn, for k-canonical
    graphs, and the intersection of all clique sides, K-max minus swings, for
    every other graph.
    """
    data = _split_data(n)
    keys = array(_WORD)
    for w, cls, a, kmax in zip(data.words, data.classes, data.swings, data.kmax):
        if cls == _KCAN:  # the highest swing dropped leaves the lowest mask
            keys.extend([(w << n) | (kmax ^ (1 << v)) for v in reversed(bits_of(a))])
        else:
            keys.append((w << n) | (kmax & ~a))
    return keys


# ---------------------------------------------------------------------------
# Counts per class family
# ---------------------------------------------------------------------------

_SPLIT_TAGS = (ClassTag.SPLIT, *_CLASSIFIED_TAGS)


def _require(ok: bool, n: int, kind: str, identity: str):
    if not ok:
        raise BrokenInvariant(f"{kind} census at n={n} breaks {identity}")


def _assert_split_identities(n: int, kind: str, t: dict):
    _require(t[ClassTag.SPLIT] == t[ClassTag.BALANCED] + t[ClassTag.UNBALANCED],
             n, kind, "S = B + U")
    _require(t[ClassTag.UNBALANCED] == (
        t[ClassTag.K_CANONICAL] + t[ClassTag.S_CANONICAL] + t[ClassTag.AMBIGUOUS]
    ), n, kind, "U = UK + US + Uamb")
    _require(t[ClassTag.K_CANONICAL] == t[ClassTag.S_CANONICAL], n, kind, "UK = US")


def _assert_colored_identity(n: int, lab: dict):
    # colored split graphs in excess of split graphs all come from k-canonical ones
    _require(lab[ClassTag.COLORED_SPLIT] - _colored_kcanonical_labeled(n)
             == lab[ClassTag.SPLIT] - lab[ClassTag.K_CANONICAL],
             n, "labeled", "cS - cUK = S - UK")


def _split_family(n: int, kind: str, classes: Sequence[int]) -> dict:
    """Split family counts of one kind from the class codes of its members, checked."""
    nclass = [classes.count(c) for c in range(4)]
    counts = {
        ClassTag.SPLIT: len(classes),
        ClassTag.BALANCED: nclass[_BAL],
        ClassTag.UNBALANCED: len(classes) - nclass[_BAL],
        ClassTag.K_CANONICAL: nclass[_KCAN],
        ClassTag.S_CANONICAL: nclass[_SCAN],
        ClassTag.AMBIGUOUS: nclass[_AMB],
    }
    _assert_split_identities(n, kind, counts)
    return counts


@lru_cache(maxsize=16)
def _split_labeled(n: int) -> dict:
    return _split_family(n, "labeled", _split_data(n).classes)


@lru_cache(maxsize=16)
def _split_unlabeled(n: int) -> dict:
    """Counted at the least word of each orbit, whose class is the orbit's."""
    data = _split_data(n)
    reps = _orbit_reps(_flag_table(n, data.words), _perm_tables(n, 0))
    return _split_family(n, "unlabeled", [data.classes[bisect_left(data.words, w)] for w in reps])


@lru_cache(maxsize=16)
def _graph_orbits(n: int) -> int:
    return len(_orbit_reps(bytearray(b"\x01") * (1 << _edge_count(n)), _perm_tables(n, 0)))


@lru_cache(maxsize=32)
def _two_colored_labeled(n: int, tag: ClassTag) -> int:
    """Labeled count of one two-colored class.

    Colored split graphs come from their own generator, one key per split
    graph and S-max partition, so that they check the bicolored structures
    with no isolated green vertex, which come from ``_green_words``.
    """
    if tag is ClassTag.COLORED_SPLIT:
        count = len(_colored_split_keys(n))
        _assert_colored_identity(n, {**_split_labeled(n), tag: count})
        return count
    return sum(len(_green_words(n, green, tag)) for green in range(1 << n))


@lru_cache(maxsize=32)
def _two_colored_unlabeled(n: int, tag: ClassTag) -> int:
    """Number of orbits of one two-colored class.

    Relabeling maps a structure with c green vertices onto one whose green
    set is 0..c-1, and two such structures lie in one orbit iff a
    relabeling fixing that set maps one onto the other.  So the orbits are
    counted among those structures, under those relabelings, per c.
    """
    # all n vertices green fix no more than none do: both take the whole group
    return sum(len(_orbit_reps(_flag_table(n, _green_words(n, (1 << c) - 1, tag)),
                               _perm_tables(n, c if c < n else 0)))
               for c in range(n + 1))


# ---------------------------------------------------------------------------
# Census
# ---------------------------------------------------------------------------

class Census(Record):
    """Labeled and unlabeled counts of every class at one size."""

    __slots__ = _fields = ("n", "labeled", "unlabeled")

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "labeled": {t.value: self.labeled[t] for t in ClassTag},
            "unlabeled": {t.value: self.unlabeled[t] for t in ClassTag},
        }

    @classmethod
    def from_json(cls, data: dict) -> "Census":
        return cls(
            data["n"],
            {ClassTag(k): v for k, v in data["labeled"].items()},
            {ClassTag(k): v for k, v in data["unlabeled"].items()},
        )

    def to_csv(self) -> str:
        lines = ["n,tag,labeled,unlabeled"]
        for t in ClassTag:
            lines.append(f"{self.n},{t.value},{self.labeled[t]},{self.unlabeled[t]}")
        return "\n".join(lines) + "\n"


def class_census(n: int) -> Census:
    """Every class count at size n, each read from its family, cross-asserted."""
    check_size(n, high=CENSUS_MAX_N)
    census = Census(n, {t: count_labeled(n, t) for t in ClassTag},
                    {t: count_unlabeled(n, t) for t in ClassTag})
    _assert_census_identities(census)
    return census


def _assert_census_identities(c: Census):
    """Internal consistency of a composed census, checked on every build."""
    for kind, t in (("labeled", c.labeled), ("unlabeled", c.unlabeled)):
        _assert_split_identities(c.n, kind, t)
    _assert_colored_identity(c.n, c.labeled)


def _colored_kcanonical_labeled(n: int) -> int:
    """Number of labeled colored split graphs whose underlying graph is k-canonical."""
    data = _split_data(n)
    return sum(a.bit_count() for a, cls in zip(data.swings, data.classes) if cls == _KCAN)


# ---------------------------------------------------------------------------
# Public enumeration API
# ---------------------------------------------------------------------------

def _labeled_keys(n: int, tag: ClassTag) -> Iterable[int]:
    """Keys of the class in enumeration order: edge words for the graph
    classes, (edge word << n) | green mask for the two-colored ones."""
    if tag is ClassTag.ALL_GRAPHS:
        return range(1 << _edge_count(n))
    if tag is ClassTag.SPLIT:
        return _split_words(n)
    if tag in _CLASSIFIED_TAGS:
        data = _split_data(n)
        wanted = {_AMB, _KCAN, _SCAN} if tag is ClassTag.UNBALANCED else {_CLS_OF_TAG[tag]}
        return (w for w, cls in zip(data.words, data.classes) if cls in wanted)
    if tag is ClassTag.COLORED_SPLIT:
        return _checked_keys(n, tag, _colored_split_keys(n))
    return _checked_keys(n, tag, _bicolored_keys(n, tag))


def _checked_keys(n: int, tag: ClassTag, keys: Iterable[int]) -> Iterator[int]:
    """Each two-colored key, after the check its class's constructor makes.

    No edge joins two vertices of one color, except that a colored split
    graph has every green-green edge.  Each green vertex has a red
    neighbour in a colored split graph (the partition is S-max) and in a
    bicolored structure with no isolated green vertex.  The keys are
    generated, so one that fails is a bug: BrokenInvariant, not the
    constructor's input error.
    """
    full = (1 << n) - 1
    clique = [_clique_word(m) for m in range(1 << n)]
    colored = tag is ClassTag.COLORED_SPLIT
    covered = tag is not ClassTag.BICOLORED  # each green vertex needs a red neighbour
    # per green mask g: the monochrome edges, those of them a key must have,
    # and the edges from each green vertex to red
    mono = [clique[g] | clique[full ^ g] for g in range(1 << n)]
    need = clique if colored else [0] * (1 << n)
    to_red = [[sum(1 << edge_bit(v, r) for r in bits_of(full ^ g)) for v in bits_of(g)]
              if covered else [] for g in range(1 << n)]
    for key in keys:
        green, w = key & full, key >> n
        if w & mono[green] != need[green]:
            raise BrokenInvariant(f"{tag.value} key {key:#x} at n={n} breaks its coloring")
        for edges in to_red[green]:
            if not w & edges:
                raise BrokenInvariant(f"{tag.value} key {key:#x} at n={n} has a green vertex "
                                      "with no red neighbour")
        yield key


def _edge_texts(n: int) -> list[list[str]]:
    """Per byte of an edge word on n vertices, the JSON text of each byte
    value's edges in edge-word order, each edge led by a comma."""
    pairs = edge_pairs(n)
    tables = []
    for low in range(0, 32, 8):
        table = [""]  # entry b: the edges of the set bits of b
        for i, j in pairs[low:low + 8]:
            table += [t + f",[{i},{j}]" for t in table]
        tables.append(table)
    return tables


def _json_tails(n: int, colored: bool) -> list[str]:
    """Per green mask, the JSON text after a structure's edges: the keys sort
    as edges < green < n < red, as the sorted encoder of ``to_json()`` prints them."""
    if not colored:
        return [f'],"n":{n}}}']
    full = (1 << n) - 1
    return [f'],"green":[{",".join(map(str, bits_of(g)))}],"n":{n},'
            f'"red":[{",".join(map(str, bits_of(full ^ g)))}]}}' for g in range(1 << n)]


def enumerate_labeled(n: int, tag: ClassTag, *, lines: bool = False) -> Iterator:
    """Yield each labeled structure of the class exactly once, in a fixed order.

    Graphs come in ascending edge-word order; colored split graphs per graph
    in ascending green-mask order; bicolored structures by ascending green
    mask, then counting through the subsets of the (green, red) vertex pairs.
    Each two-colored key is checked against its class, and one that fails
    raises BrokenInvariant.

    With ``lines``, yield each structure's ``to_json()`` as the sorted
    compact JSON encoder prints it, built from the key alone: the text of
    each byte of the edge word, then that of the green mask.
    """
    _check_limit(n, tag)
    keys = _labeled_keys(n, tag)
    colored = tag in _TWO_COLORED_TAGS
    shift = n if colored else 0
    full = (1 << shift) - 1
    if lines:
        t0, t1, t2, t3 = _edge_texts(n)
        tails = _json_tails(n, colored)
        for key in keys:
            w = key >> shift
            edges = t0[w & 255] + t1[w >> 8 & 255] + t2[w >> 16 & 255] + t3[w >> 24]
            yield '{"edges":[' + edges[1:] + tails[key & full]
    elif not colored:
        for word in keys:
            yield Graph.from_edge_word(n, word)
    else:
        carrier = ColoredSplitGraph if tag is ClassTag.COLORED_SPLIT else BicoloredGraph
        for key in keys:
            green = key & full
            yield carrier(Graph.from_edge_word(n, key >> n), bits_of(green), bits_of(full ^ green))


def count_labeled(n: int, tag: ClassTag) -> int:
    """Number of labeled structures, by enumeration."""
    _check_limit(n, tag)
    if tag is ClassTag.ALL_GRAPHS:
        return 1 << _edge_count(n)
    if n > CENSUS_MAX_N:  # split only, per _check_limit
        return _split_table(n).count(1)
    if tag in _SPLIT_TAGS:
        return _split_labeled(n)[tag]
    return _two_colored_labeled(n, tag)


def count_unlabeled(n: int, tag: ClassTag) -> int:
    """Number of isomorphism classes (color-preserving for colored classes)."""
    _check_limit(n, tag, unlabeled=True)
    if n > CENSUS_MAX_N:  # split only, per _check_limit
        return len(_orbit_reps(_split_table(n), _perm_tables(n, 0)))
    if tag is ClassTag.ALL_GRAPHS:
        return _graph_orbits(n)
    if tag in _SPLIT_TAGS:
        return _split_unlabeled(n)[tag]
    return _two_colored_unlabeled(n, tag)


def write_census_files(directory: str):
    """Regenerate the golden census files census-n{0..CENSUS_MAX_N}.json."""
    import json

    for n in range(CENSUS_MAX_N + 1):
        path = os.path.join(directory, f"census-n{n}.json")
        with open(path, "w") as f:
            json.dump(class_census(n).to_json(), f, indent=1, sort_keys=True)
            f.write("\n")
