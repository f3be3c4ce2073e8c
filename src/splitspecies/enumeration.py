"""Exhaustive enumeration of every graph class, labeled and unlabeled.

This module is the ground-truth oracle.  Split graphs come straight from the
definition: a clique K, a stable set S = V - K, and any set of K-S edges.
Each clique mask with each subset of its cross edges is one (graph,
partition) pair; sorting the pairs groups them by graph, and the number of
pairs of a graph is its number of clique/stable partitions.  That
multiplicity gives the class: one partition is balanced, two ambiguous,
three or more canonical (k-canonical when the largest clique side is
unique, s-canonical otherwise).  Bicolored structures come from the same
cross-edge expansion without the clique edges.  Unlabeled structures are
counted by collapsing the labeled sweep into orbits under vertex relabeling.

The oracle never consults the series or the closed forms.  The tests check
the generated split graphs against the Hammer-Simeone degree test and a
subset scan, and the classes against the swing analysis of ``structure``.

Every structure is one integer key, (edge word << n) | green mask, with
green mask 0 for a plain graph.  Orbit counting scans the sorted array of
keys and, at each not-yet-seen key, generates the whole orbit from one
precomputed permutation table and flags its members.  Each orbit is counted
once, at its minimal key, which doubles as the canonical code.

numpy is imported by the functions that use it, on first use, so a process
that never runs the census does not load it.
"""

from __future__ import annotations

import enum
import itertools
import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .errors import BrokenInvariant, check_size
from .graphs import BicoloredGraph, Graph, bits_of, edge_bit, edge_pairs
from .structure import ColoredSplitGraph


class ClassTag(enum.Enum):
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

# class codes used in the packed per-graph arrays
_BAL, _AMB, _KCAN, _SCAN = 0, 1, 2, 3
_CLS_OF_TAG = {ClassTag.BALANCED: _BAL, ClassTag.AMBIGUOUS: _AMB,
               ClassTag.K_CANONICAL: _KCAN, ClassTag.S_CANONICAL: _SCAN}


CENSUS_MAX_N = 7  # the full census: every class, labeled and unlabeled
SPLIT_MAX_N = 8  # split graphs alone, and labeled graphs of any kind


def _check_limit(n: int, tag: ClassTag, unlabeled: bool = False):
    wide = tag is ClassTag.SPLIT if unlabeled else tag in _GRAPH_TAGS
    check_size(n, high=SPLIT_MAX_N if wide else CENSUS_MAX_N, what=f"{tag.value} size")


# ---------------------------------------------------------------------------
# Split graphs from the definition, classified by partition multiplicity
# ---------------------------------------------------------------------------

def _popcounts(n: int) -> np.ndarray:
    """Bit count of every n-bit mask, as a lookup table (numpy < 2 lacks one)."""
    import numpy as np

    pop = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        pop = np.concatenate((pop, pop + 1))
    return pop


def _cross_words(n: int, mask: int) -> np.ndarray:
    """Edge words of every set of edges between mask and its complement.

    Entry i holds the edges whose slots are set in i, the slots ordered by
    (vertex in mask, vertex outside it).
    """
    import numpy as np

    words = np.zeros(1, dtype=np.int64)
    outside = bits_of(((1 << n) - 1) ^ mask)
    for g in bits_of(mask):
        for r in outside:
            words = np.concatenate((words, words | (1 << edge_bit(g, r))))
    return words


def _clique_word(mask: int) -> int:
    return sum(1 << edge_bit(i, j) for i, j in itertools.combinations(bits_of(mask), 2))


@lru_cache(maxsize=2)  # shared by _split_words and _split_data, built once
def _partition_runs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Every (split graph, clique/stable partition) pair on n vertices.

    A split graph is a clique K, a stable set S and any set of K-S edges, so
    each clique mask K with each subset of its cross edges is one pair.
    Returns the sorted keys (edge word << n | K) and the index where each
    graph's run of keys starts; a run's length is the graph's number of
    partitions.
    """
    import numpy as np

    keys = np.concatenate([((_cross_words(n, k) | _clique_word(k)) << n) | k
                           for k in range(1 << n)])
    keys.sort()
    words = keys >> n
    return keys, np.flatnonzero(np.concatenate(([True], words[1:] != words[:-1])))


@lru_cache(maxsize=16)
def _split_words(n: int) -> np.ndarray:
    """Sorted array of the edge words of all split graphs on n vertices."""
    keys, starts = _partition_runs(n)
    return keys[starts] >> n


@dataclass(frozen=True)
class _SplitData:
    """Per-graph structural arrays over the sorted split words of size n."""

    words: np.ndarray    # int64, ascending
    classes: np.ndarray  # uint8, class codes
    swings: np.ndarray   # int32, swing-set masks
    kmax: np.ndarray     # int32, K-max partition clique masks


@lru_cache(maxsize=16)
def _split_data(n: int) -> _SplitData:
    """Class, swing set and a K-max clique side of every split graph.

    With A the swings and Y the vertices on the clique side of every
    partition, the clique sides are: K alone (balanced); Y and Y + a
    (ambiguous); A + Y and each A + Y - a (k-canonical); Y and each Y + a
    (s-canonical).  So a run of one is balanced, of two ambiguous, and a
    longer run is k-canonical iff the union of its clique sides is itself the
    largest one.  The swings are the union minus the intersection.
    """
    import numpy as np

    words = _split_words(n)
    keys, starts = _partition_runs(n)
    sides = keys & ((1 << n) - 1)
    pop = _popcounts(n)
    runs = np.diff(starts, append=len(keys))
    union = np.bitwise_or.reduceat(sides, starts)
    common = np.bitwise_and.reduceat(sides, starts)
    swings = union & ~common
    kcan = (runs >= 3) & (np.maximum.reduceat(pop[sides], starts) == pop[union])
    classes = np.select([runs == 1, runs == 2, kcan], [_BAL, _AMB, _KCAN], _SCAN)
    # an s-canonical graph has one K-max side per swing: take the lowest
    kmax = np.where(classes == _SCAN, common | (swings & -swings), union)
    return _SplitData(words, classes.astype(np.uint8), swings.astype(np.int32),
                      kmax.astype(np.int32))


# ---------------------------------------------------------------------------
# Permutation orbit machinery
# ---------------------------------------------------------------------------

_ORBIT_CHUNK = 4096


@lru_cache(maxsize=16)
def _perm_tables(n: int) -> np.ndarray:
    """Image of every key bit under every relabeling, one row per key bit.

    A key is (edge word << n) | green mask.  Row v < n holds 1 << p[v] and
    row n + e the shifted image of edge bit e, for each permutation p, so the
    orbit of a key is the OR of the rows of its set bits.
    """
    import numpy as np

    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    ends = np.array(edge_pairs(n), dtype=np.int64).reshape(-1, 2)
    a, b = perms[:, ends[:, 0]], perms[:, ends[:, 1]]
    hi, lo = np.maximum(a, b), np.minimum(a, b)
    bits = np.concatenate((perms, n + hi * (hi - 1) // 2 + lo), axis=1)
    return np.left_shift(1, np.ascontiguousarray(bits.T))


def _orbit_reps(keys: np.ndarray, table: np.ndarray) -> list[int]:
    """Indices of one representative per orbit in a sorted key array.

    ``table`` comes from ``_perm_tables``, and every image of a key must occur
    in ``keys``.  The keys are scanned a chunk at a time; a key left
    unflagged at the start of its chunk is checked again, since an orbit
    found earlier in the chunk may have covered it.
    """
    import numpy as np

    flags = np.zeros(len(keys), dtype=bool)
    orbit = np.empty(table.shape[1], dtype=np.int64)
    reps = []
    for lo in range(0, len(keys), _ORBIT_CHUNK):
        for pos in np.flatnonzero(~flags[lo:lo + _ORBIT_CHUNK]) + lo:
            if not flags[pos]:
                reps.append(int(pos))
                orbit.fill(0)
                for b in bits_of(int(keys[pos])):
                    orbit |= table[b]
                flags[np.searchsorted(keys, np.sort(orbit))] = True
    return reps


# ---------------------------------------------------------------------------
# Bicolored sweeps
# ---------------------------------------------------------------------------

def _greens_covered(n: int, green: int, words: np.ndarray) -> np.ndarray:
    """Which cross-edge words give every green vertex a red neighbor."""
    import numpy as np

    reds = bits_of(((1 << n) - 1) ^ green)
    ok = np.ones(len(words), dtype=bool)
    for g in bits_of(green):
        ok &= (words & sum(1 << edge_bit(g, r) for r in reds)) != 0
    return ok


def _bicolored_keys(n: int, no_isolated_green: bool) -> np.ndarray:
    """Keys (edge word << n | green mask) of all bicolored structures.

    Green-major: ascending green mask, then the cross-edge subsets in the
    order of ``_cross_words``.
    """
    import numpy as np

    out = []
    for green in range(1 << n):
        words = _cross_words(n, green)
        if no_isolated_green:
            words = words[_greens_covered(n, green, words)]
        out.append((words << n) | green)
    return np.concatenate(out)


def _colored_split_keys(n: int) -> np.ndarray:
    """Sorted keys (edge word << n | green mask) of all colored split graphs.

    One key per (split graph, S-max partition) pair.  The S-max clique sides
    are the K-max one minus one swing vertex, each in turn, for k-canonical
    graphs, and the intersection of all clique sides, K-max minus swings, for
    every other graph.
    """
    import numpy as np

    data = _split_data(n)
    shifted = data.words << n
    kcan = data.classes == _KCAN
    keys = [shifted[~kcan] | (data.kmax[~kcan] & ~data.swings[~kcan])]
    for v in range(n):
        drop = kcan & (data.swings >> v & 1 == 1)
        keys.append(shifted[drop] | (data.kmax[drop] ^ (1 << v)))
    keys = np.concatenate(keys)
    keys.sort()
    return keys


# ---------------------------------------------------------------------------
# Census
# ---------------------------------------------------------------------------

_CENSUS_ORDER = [
    ClassTag.ALL_GRAPHS, ClassTag.SPLIT, ClassTag.BALANCED, ClassTag.UNBALANCED,
    ClassTag.K_CANONICAL, ClassTag.S_CANONICAL, ClassTag.AMBIGUOUS,
    ClassTag.COLORED_SPLIT, ClassTag.BICOLORED, ClassTag.BICOLORED_NO_ISOLATED_GREEN,
]


@dataclass(frozen=True)
class Census:
    """Labeled and unlabeled counts of every class at one size."""

    n: int
    labeled: dict
    unlabeled: dict

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "labeled": {t.value: self.labeled[t] for t in _CENSUS_ORDER},
            "unlabeled": {t.value: self.unlabeled[t] for t in _CENSUS_ORDER},
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
        for t in _CENSUS_ORDER:
            lines.append(f"{self.n},{t.value},{self.labeled[t]},{self.unlabeled[t]}")
        return "\n".join(lines) + "\n"


@lru_cache(maxsize=16)
def class_census(n: int) -> Census:
    """One pass over size n computing, and cross-asserting, every class count."""
    import numpy as np

    check_size(n, high=CENSUS_MAX_N)
    data = _split_data(n)
    table = _perm_tables(n)

    labeled = {}
    unlabeled = {}
    nclass = np.bincount(data.classes, minlength=4)
    labeled[ClassTag.SPLIT] = len(data.words)
    labeled[ClassTag.BALANCED] = int(nclass[_BAL])
    labeled[ClassTag.AMBIGUOUS] = int(nclass[_AMB])
    labeled[ClassTag.K_CANONICAL] = int(nclass[_KCAN])
    labeled[ClassTag.S_CANONICAL] = int(nclass[_SCAN])
    labeled[ClassTag.UNBALANCED] = len(data.words) - int(nclass[_BAL])
    labeled[ClassTag.ALL_GRAPHS] = 1 << (n * (n - 1) // 2)

    colored_keys = _colored_split_keys(n)
    labeled[ClassTag.COLORED_SPLIT] = len(colored_keys)
    bic_keys = _bicolored_keys(n, no_isolated_green=False)
    bic_star_keys = _bicolored_keys(n, no_isolated_green=True)
    bic_keys.sort()
    bic_star_keys.sort()
    labeled[ClassTag.BICOLORED] = len(bic_keys)
    labeled[ClassTag.BICOLORED_NO_ISOLATED_GREEN] = len(bic_star_keys)

    # unlabeled graph classes: one orbit sweep over all words, one over split;
    # a plain graph's key has green mask 0
    all_keys = np.arange(0, 1 << (n * (n - 1) // 2 + n), 1 << n, dtype=np.int64)
    unlabeled[ClassTag.ALL_GRAPHS] = len(_orbit_reps(all_keys, table))

    split_reps = _orbit_reps(data.words << n, table)
    cls_counts = np.bincount(data.classes[split_reps], minlength=4).tolist()
    unlabeled[ClassTag.SPLIT] = len(split_reps)
    unlabeled[ClassTag.BALANCED] = cls_counts[_BAL]
    unlabeled[ClassTag.AMBIGUOUS] = cls_counts[_AMB]
    unlabeled[ClassTag.K_CANONICAL] = cls_counts[_KCAN]
    unlabeled[ClassTag.S_CANONICAL] = cls_counts[_SCAN]
    unlabeled[ClassTag.UNBALANCED] = len(split_reps) - cls_counts[_BAL]

    unlabeled[ClassTag.COLORED_SPLIT] = len(_orbit_reps(colored_keys, table))
    unlabeled[ClassTag.BICOLORED] = len(_orbit_reps(bic_keys, table))
    unlabeled[ClassTag.BICOLORED_NO_ISOLATED_GREEN] = len(_orbit_reps(bic_star_keys, table))

    census = Census(n, labeled, unlabeled)
    _assert_census_identities(census)
    return census


def _assert_census_identities(c: Census):
    """Internal consistency of the one-pass census, checked on every build."""
    def require(ok: bool, kind: str, identity: str):
        if not ok:
            raise BrokenInvariant(f"{kind} census at n={c.n} breaks {identity}")

    for kind, t in (("labeled", c.labeled), ("unlabeled", c.unlabeled)):
        require(t[ClassTag.SPLIT] == t[ClassTag.BALANCED] + t[ClassTag.UNBALANCED],
                kind, "S = B + U")
        require(t[ClassTag.UNBALANCED] == (
            t[ClassTag.K_CANONICAL] + t[ClassTag.S_CANONICAL] + t[ClassTag.AMBIGUOUS]
        ), kind, "U = UK + US + Uamb")
        require(t[ClassTag.K_CANONICAL] == t[ClassTag.S_CANONICAL], kind, "UK = US")
    # colored split graphs in excess of split graphs all come from k-canonical ones:
    # cS - cUK = S - UK
    lab = c.labeled
    cuk = colored_kcanonical_labeled(c.n)
    require(lab[ClassTag.COLORED_SPLIT] - cuk == lab[ClassTag.SPLIT] - lab[ClassTag.K_CANONICAL],
            "labeled", "cS - cUK = S - UK")


def colored_kcanonical_labeled(n: int) -> int:
    """Number of labeled colored split graphs whose underlying graph is k-canonical."""
    _check_limit(n, ClassTag.COLORED_SPLIT)
    data = _split_data(n)
    return int(_popcounts(n)[data.swings[data.classes == _KCAN]].sum())


# ---------------------------------------------------------------------------
# Public enumeration API
# ---------------------------------------------------------------------------

def enumerate_labeled(n: int, tag: ClassTag) -> Iterator:
    """Yield each labeled structure of the class exactly once, in a fixed order.

    Graphs come in ascending edge-word order; colored split graphs per graph
    in ascending green-mask order; bicolored structures by ascending green
    mask, then counting through the subsets of the (green, red) vertex pairs.
    """
    _check_limit(n, tag)
    if tag is ClassTag.ALL_GRAPHS:
        for word in range(1 << (n * (n - 1) // 2)):
            yield Graph.from_edge_word(n, word)
    elif tag is ClassTag.SPLIT:
        for word in _split_words(n):
            yield Graph.from_edge_word(n, int(word))
    elif tag in _CLASSIFIED_TAGS:
        data = _split_data(n)
        if tag is ClassTag.UNBALANCED:
            wanted = data.classes != _BAL
        else:
            wanted = data.classes == _CLS_OF_TAG[tag]
        for word in data.words[wanted]:
            yield Graph.from_edge_word(n, int(word))
    else:
        if tag is ClassTag.COLORED_SPLIT:
            carrier, keys = ColoredSplitGraph, _colored_split_keys(n)
        else:
            carrier = BicoloredGraph
            keys = _bicolored_keys(n, tag is ClassTag.BICOLORED_NO_ISOLATED_GREEN)
        full = (1 << n) - 1
        for key in keys.tolist():
            green = key & full
            yield carrier(Graph.from_edge_word(n, key >> n), bits_of(green), bits_of(full ^ green))


def count_labeled(n: int, tag: ClassTag) -> int:
    """Number of labeled structures, by enumeration (vectorized where large)."""
    _check_limit(n, tag)
    if tag is ClassTag.ALL_GRAPHS:
        return 1 << (n * (n - 1) // 2)
    if tag is ClassTag.SPLIT:
        return len(_split_words(n))
    return class_census(n).labeled[tag]


def count_unlabeled(n: int, tag: ClassTag) -> int:
    """Number of isomorphism classes (color-preserving for colored classes)."""
    _check_limit(n, tag, unlabeled=True)
    if n > CENSUS_MAX_N:  # split only, per _check_limit
        return len(_orbit_reps(_split_words(n) << n, _perm_tables(n)))
    return class_census(n).unlabeled[tag]


def write_census_files(directory: str, max_n: int = 7):
    """Regenerate the golden census files census-n{0..max_n}.json."""
    import os

    for n in range(max_n + 1):
        path = os.path.join(directory, f"census-n{n}.json")
        with open(path, "w") as f:
            json.dump(class_census(n).to_json(), f, indent=1, sort_keys=True)
            f.write("\n")
