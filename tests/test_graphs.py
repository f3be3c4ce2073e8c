"""Core graph type: construction, relabeling, split test, canonical codes."""

import itertools
import math
import random

import numpy as np
import pytest

from splitspecies.errors import LengthMismatch, OutOfRange, SelfLoop, TooLarge
from splitspecies.graphs import (
    BicoloredGraph,
    Graph,
    bits_of,
    canonical_code,
    canonical_code_bicolored,
    complement,
    degree_sequence,
    graph_from_json,
    is_split,
    make_bicolored,
    make_graph,
    parse_graph_text,
    relabel,
)

from conftest import (
    complete_graph,
    cycle_graph,
    empty_graph,
    oracle_is_split,
    oracle_split_flags,
    path_graph,
)


def test_make_graph_examples():
    g = make_graph(0, [])
    assert g.n == 0 and g.edges() == []
    k2 = make_graph(2, [(0, 1)])
    assert k2.edges() == [(0, 1)]
    two_k2 = make_graph(4, [(0, 1), (2, 3)])
    assert not is_split(two_k2)
    assert not oracle_is_split(two_k2)


def test_make_graph_errors():
    with pytest.raises(OutOfRange):
        make_graph(3, [(0, 3)])
    with pytest.raises(SelfLoop):
        make_graph(3, [(1, 1)])
    with pytest.raises(TooLarge):
        make_graph(17, [])
    make_graph(16, [(0, 15)])  # the boundary is allowed


def test_make_graph_duplicate_edges_collapse():
    g = make_graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count() == 1


def test_relabel_examples():
    k2 = make_graph(2, [(0, 1)])
    assert relabel(k2, (0, 1)) == k2
    p3 = path_graph(3)
    assert relabel(p3, (2, 1, 0)) == p3  # the reversal is an automorphism
    e = make_graph(3, [(0, 1)])
    assert relabel(e, (1, 2, 0)) == make_graph(3, [(1, 2)])


def test_relabel_round_trip():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(0, 8)
        g = Graph.from_edge_word(n, rng.getrandbits(n * (n - 1) // 2))
        p = list(range(n))
        rng.shuffle(p)
        inv = [0] * n
        for i, v in enumerate(p):
            inv[v] = i
        assert relabel(relabel(g, p), inv) == g
        # edge correspondence
        h = relabel(g, p)
        for i, j in g.edges():
            assert h.has_edge(p[i], p[j])


def test_relabel_errors():
    k2 = make_graph(2, [(0, 1)])
    with pytest.raises(LengthMismatch):
        relabel(k2, (0, 1, 2))
    with pytest.raises(ValueError):
        relabel(k2, (0, 0))


def test_complement_examples():
    assert complement(empty_graph(3)) == complete_graph(3)
    assert complement(make_graph(2, [(0, 1)])) == empty_graph(2)
    p4 = path_graph(4)
    assert sorted(degree_sequence(complement(p4))) == sorted(degree_sequence(p4))
    assert canonical_code(complement(p4)) == canonical_code(p4)  # P4 is self-complementary
    for word in range(64):
        g = Graph.from_edge_word(4, word)
        assert complement(complement(g)) == g


def test_degree_sequence_examples():
    assert degree_sequence(complete_graph(3)) == [2, 2, 2]
    assert degree_sequence(path_graph(3)) == [2, 1, 1]
    assert degree_sequence(make_graph(4, [(0, 1), (2, 3)])) == [1, 1, 1, 1]
    g = make_graph(5, [(0, 1), (0, 2), (3, 4), (1, 2)])
    assert sum(degree_sequence(g)) == 2 * g.edge_count()


def test_is_split_examples():
    assert is_split(complete_graph(3))
    assert not is_split(cycle_graph(4))
    assert not is_split(make_graph(4, [(0, 1), (2, 3)]))
    assert is_split(empty_graph(0))
    assert is_split(path_graph(4))
    assert not is_split(cycle_graph(5))


@pytest.mark.parametrize("n", range(0, 7))
def test_is_split_matches_subset_oracle_exhaustive(n):
    flags = oracle_split_flags(n)
    for word in range(1 << (n * (n - 1) // 2)):
        assert is_split(Graph.from_edge_word(n, word)) == bool(flags[word])


def test_is_split_matches_subset_oracle_n7_vectorized():
    from splitspecies.enumeration import _split_words

    expected = np.flatnonzero(oracle_split_flags(7))
    got = _split_words(7)
    assert np.array_equal(expected, got)


def test_is_split_random_n8():
    rng = random.Random(20240817)
    for _ in range(10_000):
        g = Graph.from_edge_word(8, rng.getrandbits(28))
        assert is_split(g) == oracle_is_split(g)


def test_is_split_relabel_invariant():
    rng = random.Random(11)
    for n in range(0, 7):
        for _ in range(5):
            g = Graph.from_edge_word(n, rng.getrandbits(n * (n - 1) // 2))
            value = is_split(g)
            for p in itertools.permutations(range(n)):
                assert is_split(relabel(g, p)) == value
    for n in (7, 8):
        for _ in range(20):
            g = Graph.from_edge_word(n, rng.getrandbits(n * (n - 1) // 2))
            p = list(range(n))
            rng.shuffle(p)
            assert is_split(relabel(g, p)) == is_split(g)


def test_is_split_complement_closed():
    for n in range(0, 7):
        for word in range(1 << (n * (n - 1) // 2)):
            g = Graph.from_edge_word(n, word)
            assert is_split(g) == is_split(complement(g))


def test_canonical_code_examples():
    p3 = path_graph(3)
    for p in itertools.permutations(range(3)):
        assert canonical_code(relabel(p3, p)) == canonical_code(p3)
    assert canonical_code(complete_graph(3)) != canonical_code(p3)
    assert canonical_code(empty_graph(0)) == b"G\x00" + bytes(4)
    codes = {canonical_code(Graph.from_edge_word(4, w)) for w in range(64)}
    assert len(codes) == 11  # the classical unlabeled count at n = 4
    with pytest.raises(TooLarge):
        canonical_code(empty_graph(9))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_canonical_code_orbits_match_automorphisms(n):
    """Each code class has size n!/|Aut|, and the classes tile all graphs."""
    by_code = {}
    for word in range(1 << (n * (n - 1) // 2)):
        by_code.setdefault(canonical_code(Graph.from_edge_word(n, word)), []).append(word)
    assert sum(len(v) for v in by_code.values()) == 1 << (n * (n - 1) // 2)
    for words in by_code.values():
        g = Graph.from_edge_word(n, words[0])
        aut = sum(1 for p in itertools.permutations(range(n)) if relabel(g, p) == g)
        assert len(words) == math.factorial(n) // aut


def test_canonical_code_bicolored_colors_not_interchangeable():
    one_green = make_bicolored(1, [], [0])
    one_red = make_bicolored(1, [], [])
    assert canonical_code_bicolored(one_green) != canonical_code_bicolored(one_red)


def test_canonical_code_bicolored_empty_graph():
    assert canonical_code_bicolored(make_bicolored(0, [], [])) == b"B\x00" + bytes(5)


def test_canonical_code_bicolored_invariance():
    b = make_bicolored(2, [], [0, 1])  # two isolated green vertices
    b_swapped = make_bicolored(2, [], [0, 1])
    assert canonical_code_bicolored(b) == canonical_code_bicolored(b_swapped)
    edge = make_bicolored(2, [(0, 1)], [0])
    edge_other = make_bicolored(2, [(0, 1)], [1])
    assert canonical_code_bicolored(edge) == canonical_code_bicolored(edge_other)
    codes = set()
    for green in range(4):
        greens = [v for v in range(2) if green >> v & 1]
        for edges in ([], [(0, 1)]):
            try:
                codes.add(canonical_code_bicolored(make_bicolored(2, edges, greens)))
            except Exception:
                pass  # monochromatic edge: not a bicolored structure
    assert len(codes) == 4  # the unlabeled bicolored count at n = 2


def test_bicolored_validation():
    from splitspecies.errors import MonochromeEdge

    with pytest.raises(MonochromeEdge):
        make_bicolored(2, [(0, 1)], [0, 1])
    b = make_bicolored(3, [(0, 2), (1, 2)], [0, 1])
    assert b.isolated_greens() == ()
    iso = make_bicolored(2, [], [0])
    assert iso.isolated_greens() == (0,)


def test_text_and_json_round_trips():
    g = make_graph(5, [(0, 1), (1, 4), (2, 3)])
    assert parse_graph_text("5\n0 1\n1 4\n2 3\n") == g
    assert graph_from_json(g.to_json()) == g
    b = make_bicolored(3, [(0, 2)], [0])
    assert BicoloredGraph.from_json(b.to_json()) == b


def _bits_by_loop(mask):
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def test_bits_of_matches_the_bit_loop():
    """Every vertex mask (below 2^16, read from the byte tables), the edges of
    that range, and seeded edge words of n = 8 (below 2^28, walked)."""
    assert bits_of(0) == ()
    for mask in range(1 << 16):
        assert bits_of(mask) == _bits_by_loop(mask)
    rng = random.Random(16)
    wide = [(1 << 16) - 1, 1 << 16, (1 << 28) - 1] + [rng.getrandbits(28) for _ in range(2000)]
    for mask in wide:
        assert bits_of(mask) == _bits_by_loop(mask)
