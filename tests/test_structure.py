"""Partitions, swing analysis, the four-way classification, colored graphs.

The structural facts exercised exhaustively here: every partition of a split
graph realizes exactly one of the size patterns (omega, alpha),
(omega-1, alpha), (omega, alpha-1) with a movable witness in the unbalanced
cases; the swing set is a clique or a stable set whose removal/choice
structure lists the K-max and S-max partitions; and complementation swaps the
k-canonical and s-canonical classes while fixing the other two.
"""

import random

import pytest

from splitspecies.errors import (BrokenInvariant, NotAPartition, NotSMax, NotSplit,
                                 SplitSpeciesError, TooLarge)
from splitspecies.graphs import BicoloredGraph, Graph, bits_of, complement, make_graph, relabel
from splitspecies.structure import (
    ColoredSplitGraph,
    SplitClass,
    all_colorings,
    canonical_partition,
    classify,
    classify_report,
    clique_number,
    independence_number,
    k_max_partitions,
    ks_partitions,
    s_max_partitions,
    swing_report,
)

from conftest import (
    complete_graph,
    cycle_graph,
    empty_graph,
    oracle_alpha,
    oracle_omega,
    oracle_partitions,
    path_graph,
    star_graph,
)


def _split_words_and_classes(n):
    from splitspecies.enumeration import _split_data

    data = _split_data(n)
    return data


def test_ks_partitions_examples():
    k1 = empty_graph(1)
    assert [(p.k, p.s) for p in ks_partitions(k1)] == [((), (0,)), ((0,), ())]
    p4 = path_graph(4)
    assert [(p.k, p.s) for p in ks_partitions(p4)] == [((1, 2), (0, 3))]
    assert ks_partitions(cycle_graph(4)) == []
    with pytest.raises(TooLarge):
        ks_partitions(Graph(17, tuple([0] * 17)))


@pytest.mark.parametrize("n", range(0, 6))
def test_ks_partitions_match_subset_oracle_exhaustive(n):
    for word in range(1 << (n * (n - 1) // 2)):
        g = Graph.from_edge_word(n, word)
        got = {(frozenset(p.k), frozenset(p.s)) for p in ks_partitions(g)}
        assert got == set(oracle_partitions(g))


def test_ks_partitions_match_subset_oracle_sampled_n6():
    rng = random.Random(99)
    for _ in range(300):
        g = Graph.from_edge_word(6, rng.getrandbits(15))
        got = {(frozenset(p.k), frozenset(p.s)) for p in ks_partitions(g)}
        assert got == set(oracle_partitions(g))


def _random_split_graph(rng, n):
    """Clique K plus stable set S plus random K-S edges, then permuted.

    The cross-edge density is drawn from 0, 1/2 and 1, so many vertices on
    either side share a degree.
    """
    k = rng.randint(0, n)
    p = rng.choice([0.0, 0.5, 1.0])
    edges = [(i, j) for j in range(k) for i in range(j)]
    edges += [(i, j) for i in range(k) for j in range(k, n) if rng.random() < p]
    perm = list(range(n))
    rng.shuffle(perm)
    return relabel(make_graph(n, edges), perm)


def _oracle_swing_report(g):
    """Swing set, Y, Z and kind, from the oracle's partitions and edge tests."""
    parts = set(oracle_partitions(g))
    verts = frozenset(range(g.n))
    swings = {v for k, s in parts for v in verts if (k ^ {v}, s ^ {v}) in parts}
    y = verts.intersection(*(k for k, _ in parts)) - swings
    z = verts.intersection(*(s for _, s in parts)) - swings
    pairs = [g.has_edge(a, b) for a in swings for b in swings if a < b]
    if len(swings) < 2:
        kind = ("empty", "singleton")[len(swings)]
    elif all(pairs):
        kind = "clique"
    else:
        kind = "stable" if not any(pairs) else "neither"
    return tuple(sorted(swings)), kind, tuple(sorted(y)), tuple(sorted(z))


def test_ks_partitions_and_swings_match_oracle_on_random_split_graphs():
    """n = 7..12: seeded split graphs with degree ties, and four one-edge
    flips of each (some not split), against the subset-scan oracle."""
    rng = random.Random(2024)
    boundary_ties = non_split = 0
    for n in range(7, 13):
        for _ in range(6):
            g = _random_split_graph(rng, n)
            degs = sorted((g.degree(v) for v in range(n)), reverse=True)
            m = max((i + 1 for i, d in enumerate(degs) if d >= i), default=0)
            boundary_ties += 0 < m < n and degs[m - 1] == degs[m]
            flips = [Graph.from_edge_word(n, g.edge_word() ^ 1 << e)
                     for e in rng.sample(range(n * (n - 1) // 2), 4)]
            for h in [g] + flips:
                expected = set(oracle_partitions(h))
                got = ks_partitions(h)
                assert {(frozenset(p.k), frozenset(p.s)) for p in got} == expected
                assert [p.k_mask() for p in got] == sorted(p.k_mask() for p in got)
                if not expected:
                    non_split += 1
                    with pytest.raises(NotSplit):
                        swing_report(h)
                    continue
                rep = swing_report(h)
                assert (rep.swings, rep.kind, rep.y, rep.z) == _oracle_swing_report(h)
    assert boundary_ties >= 10 and non_split >= 10, (boundary_ties, non_split)


def test_s_max_and_k_max_selections_match_oracle_on_random_split_graphs():
    """n = 8..12, past the census: the S-max and K-max partitions and the
    colorings are the oracle's partitions with the largest stable or clique
    side, in ascending K bit word."""
    rng = random.Random(2025)
    several_s = several_k = 0
    for n in range(8, 13):
        for _ in range(6):
            g = _random_split_graph(rng, n)
            parts = oracle_partitions(g)
            alpha = max(len(s) for _, s in parts)
            omega = max(len(k) for k, _ in parts)
            s_max = {(k, s) for k, s in parts if len(s) == alpha}
            k_max = {(k, s) for k, s in parts if len(k) == omega}
            for got, expected in [(s_max_partitions(g), s_max), (k_max_partitions(g), k_max)]:
                assert {(frozenset(p.k), frozenset(p.s)) for p in got} == expected
                assert [p.k_mask() for p in got] == sorted(p.k_mask() for p in got)
            colorings = all_colorings(g)
            assert [(c.green, c.red) for c in colorings] == \
                [(p.k, p.s) for p in s_max_partitions(g)]
            assert all(c.graph == g for c in colorings)
            several_s += len(s_max) > 1
            several_k += len(k_max) > 1
    assert several_s >= 10 and several_k >= 10, (several_s, several_k)


@pytest.mark.parametrize("n", range(0, 7))
def test_colored_validation_raises_not_s_max_iff_red_below_alpha(n):
    from splitspecies.enumeration import _split_words

    for word in _split_words(n).tolist():
        g = Graph.from_edge_word(n, word)
        alpha = oracle_alpha(g)
        for k, s in oracle_partitions(g):
            k, s = tuple(sorted(k)), tuple(sorted(s))
            if len(s) < alpha:
                with pytest.raises(NotSMax):
                    ColoredSplitGraph(g, k, s)
            else:
                assert ColoredSplitGraph(g, k, s).red == s


def test_swing_report_examples():
    rep = swing_report(empty_graph(1))
    assert rep.swings == (0,) and rep.kind == "singleton"
    rep = swing_report(make_graph(2, [(0, 1)]))
    assert rep.swings == (0, 1) and rep.kind == "clique"
    rep = swing_report(path_graph(4))
    assert rep.swings == () and rep.kind == "empty"
    assert set(rep.y) == {1, 2} and set(rep.z) == {0, 3}
    with pytest.raises(NotSplit):
        swing_report(cycle_graph(4))


def test_classify_examples():
    assert classify(path_graph(4)) is SplitClass.BALANCED
    assert classify(empty_graph(1)) is SplitClass.AMBIGUOUS
    assert classify(make_graph(2, [(0, 1)])) is SplitClass.K_CANONICAL
    assert classify(empty_graph(2)) is SplitClass.S_CANONICAL
    assert classify(empty_graph(0)) is SplitClass.BALANCED
    assert classify(path_graph(3)) is SplitClass.S_CANONICAL  # both leaves swing


def test_first_ambiguous_graph_is_p4_plus_apex():
    g = make_graph(5, [(0, 1), (1, 2), (2, 3), (1, 4), (2, 4)])
    assert classify(g) is SplitClass.AMBIGUOUS
    assert swing_report(g).swings == (4,)


@pytest.mark.parametrize("n", range(0, 7))
def test_proposition_size_trichotomy(n):
    """Every partition hits exactly one size case, with a movable witness."""
    data = _split_words_and_classes(n)
    for q in range(len(data.words)):
        g = Graph.from_edge_word(n, int(data.words[q]))
        omega = clique_number(g)
        alpha = independence_number(g)
        parts = ks_partitions(g)
        assert parts, "split graph must have a partition"
        unique = len(parts) == 1
        for p in parts:
            sizes = (len(p.k), len(p.s))
            cases = [
                sizes == (omega, alpha) and unique,
                sizes == (omega - 1, alpha),
                sizes == (omega, alpha - 1),
            ]
            assert sum(cases) == 1, (g, sizes, omega, alpha)
            if cases[1]:  # some stable vertex completes the clique
                assert any(
                    g.rows[x] & p.k_mask() == p.k_mask() for x in p.s
                )
            if cases[2]:  # some clique vertex moves to the stable side
                assert any(g.rows[x] & p.s_mask() == 0 for x in p.k)
        if n >= 7 and q > 4000:  # n = 7 checked on a deterministic prefix
            break


@pytest.mark.parametrize("n", range(1, 7))
def test_swing_structure_lists_all_partitions(n):
    """Prop-style structure: A clique or stable; the K-max/S-max partitions
    are exactly the ones generated from A, Y, Z."""
    data = _split_words_and_classes(n)
    for q in range(len(data.words)):
        g = Graph.from_edge_word(n, int(data.words[q]))
        rep = swing_report(g)
        a_mask = rep.swing_mask()
        if not rep.swings:
            continue
        y_mask = sum(1 << v for v in rep.y)
        z_mask = sum(1 << v for v in rep.z)
        # adjacency structure: every swing sees all of Y and none of Z
        for a in rep.swings:
            assert g.rows[a] & y_mask == y_mask
            assert g.rows[a] & z_mask == 0
        kmax = {(p.k_mask(), p.s_mask()) for p in k_max_partitions(g)}
        smax = {(p.k_mask(), p.s_mask()) for p in s_max_partitions(g)}
        every = {(p.k_mask(), p.s_mask()) for p in ks_partitions(g)}
        assert every == kmax | smax
        if rep.kind == "clique":
            assert kmax == {(a_mask | y_mask, z_mask)}
            assert smax == {
                ((a_mask ^ (1 << a)) | y_mask, z_mask | (1 << a)) for a in rep.swings
            }
        elif rep.kind == "stable":
            assert smax == {(y_mask, a_mask | z_mask)}
            assert kmax == {
                (y_mask | (1 << a), (a_mask ^ (1 << a)) | z_mask) for a in rep.swings
            }
        else:  # singleton: both descriptions degenerate to the same two partitions
            (a,) = rep.swings
            assert kmax == {((1 << a) | y_mask, z_mask)}
            assert smax == {(y_mask, (1 << a) | z_mask)}


def test_swing_structure_sampled_n7():
    data = _split_words_and_classes(7)
    rng = random.Random(77)
    for _ in range(400):
        q = rng.randrange(len(data.words))
        g = Graph.from_edge_word(7, int(data.words[q]))
        rep = swing_report(g)
        assert classify(g).value == {0: "balanced", 1: "ambiguous",
                                     2: "k-canonical", 3: "s-canonical"}[int(data.classes[q])]
        assert rep.swing_mask() == int(data.swings[q])


@pytest.mark.parametrize("n", range(0, 7))
def test_fast_classifier_matches_definitional(n):
    """The census arrays, read off partition multiplicities, agree with the
    subset-scan swing analysis on every split graph."""
    data = _split_words_and_classes(n)
    names = {0: SplitClass.BALANCED, 1: SplitClass.AMBIGUOUS,
             2: SplitClass.K_CANONICAL, 3: SplitClass.S_CANONICAL}
    for word, cls, swings, kmax in zip(data.words.tolist(), data.classes.tolist(),
                                       data.swings.tolist(), data.kmax.tolist()):
        g = Graph.from_edge_word(n, word)
        rep = swing_report(g)
        assert names[cls] is classify_report(rep)
        assert swings == rep.swing_mask()
        assert (kmax, g.vertex_mask() ^ kmax) in {
            (p.k_mask(), p.s_mask()) for p in k_max_partitions(g)
        }


@pytest.mark.parametrize("n", range(0, 6))
def test_colored_split_keys_match_all_colorings(n):
    """One colored key per (split graph, S-max partition), as all_colorings lists them."""
    from splitspecies.enumeration import _colored_split_keys

    expected = sorted(
        (word << n) | c.green_mask()
        for word in _split_words_and_classes(n).words.tolist()
        for c in all_colorings(Graph.from_edge_word(n, word))
    )
    assert _colored_split_keys(n).tolist() == expected


def test_classify_complement_swaps_canonical_classes():
    swap = {
        SplitClass.K_CANONICAL: SplitClass.S_CANONICAL,
        SplitClass.S_CANONICAL: SplitClass.K_CANONICAL,
        SplitClass.BALANCED: SplitClass.BALANCED,
        SplitClass.AMBIGUOUS: SplitClass.AMBIGUOUS,
    }
    for n in range(0, 6):
        data = _split_words_and_classes(n)
        for q in range(len(data.words)):
            g = Graph.from_edge_word(n, int(data.words[q]))
            assert classify(complement(g)) is swap[classify(g)]
    rng = random.Random(13)
    data = _split_words_and_classes(7)
    for _ in range(300):
        g = Graph.from_edge_word(7, int(data.words[rng.randrange(len(data.words))]))
        assert classify(complement(g)) is swap[classify(g)]


def test_s_max_partitions_examples():
    assert len(s_max_partitions(path_graph(4))) == 1
    k2 = make_graph(2, [(0, 1)])
    assert {p.s for p in s_max_partitions(k2)} == {(0,), (1,)}
    k1 = empty_graph(1)
    parts = s_max_partitions(k1)
    assert len(parts) == 1 and parts[0].s == (0,)


@pytest.mark.parametrize("n", range(0, 7))
def test_s_max_partition_counts(n):
    """Exactly one S-max partition unless k-canonical, then one per swing."""
    data = _split_words_and_classes(n)
    for q in range(len(data.words)):
        g = Graph.from_edge_word(n, int(data.words[q]))
        expected = int(data.swings[q]).bit_count() if int(data.classes[q]) == 2 else 1
        assert len(s_max_partitions(g)) == expected
        if n >= 7 and q > 3000:
            break


def test_canonical_partition_examples():
    k2 = make_graph(2, [(0, 1)])
    part = canonical_partition(k2)
    assert part.k == (0, 1) and part.s == ()
    assert canonical_partition(path_graph(4)) == ks_partitions(path_graph(4))[0]
    assert canonical_partition(empty_graph(1)) is None


def test_color_examples():
    p4 = path_graph(4)
    p = ks_partitions(p4)[0]
    c = ColoredSplitGraph(p4, p.k, p.s)
    assert c.green == (1, 2) and c.red == (0, 3)
    with pytest.raises(NotAPartition):
        ColoredSplitGraph(make_graph(2, [(0, 1)]), (0,), ())
    k1 = empty_graph(1)
    c = ColoredSplitGraph(k1, (), (0,))
    assert c.red == (0,) and c.green == ()


def test_colored_split_graph_validation():
    p4 = path_graph(4)
    with pytest.raises(NotSMax):
        ColoredSplitGraph(make_graph(2, [(0, 1)]), (0, 1), ())
    with pytest.raises(NotAPartition):
        ColoredSplitGraph(p4, (0, 1), (2, 3))  # not a clique side
    c = ColoredSplitGraph(p4, (1, 2), (0, 3))
    assert ColoredSplitGraph.from_json(c.to_json()) == c


@pytest.mark.parametrize("carrier", [ColoredSplitGraph, BicoloredGraph])
@pytest.mark.parametrize("n", range(0, 5))
def test_the_mask_entry_agrees_with_the_constructor(carrier, n):
    """For every graph on n <= 4 and every green mask, ``on_green`` and the
    tuple constructor build equal carriers, or raise the same error type."""
    full = (1 << n) - 1
    for word in range(1 << n * (n - 1) // 2):
        g = Graph.from_edge_word(n, word)
        for green in range(full + 1):
            outcomes = []
            for build in (lambda: carrier.on_green(g, green),
                          lambda: carrier(g, bits_of(green), bits_of(full ^ green))):
                try:
                    outcomes.append(build())
                except SplitSpeciesError as exc:
                    outcomes.append(type(exc))
            assert outcomes[0] == outcomes[1], (word, green)
            if not isinstance(outcomes[0], type):
                assert outcomes[0].green_mask() == green and outcomes[0].red_mask() == full ^ green


@pytest.mark.parametrize("carrier", [ColoredSplitGraph, BicoloredGraph])
@pytest.mark.parametrize("green", [-1, 0b100, 0b1000], ids=["negative", "next-vertex", "past"])
def test_the_mask_entry_refuses_a_mask_outside_the_vertices(carrier, green):
    """A green mask the package computed itself that leaves the vertex set is a
    bug: BrokenInvariant, an InternalError, so the command line exits 4."""
    with pytest.raises(BrokenInvariant):
        carrier.on_green(make_graph(2, [(0, 1)]), green)


def test_clique_and_independence_numbers():
    assert clique_number(complete_graph(3)) == 3
    assert independence_number(complete_graph(3)) == 1
    assert clique_number(path_graph(4)) == 2
    assert independence_number(path_graph(4)) == 2
    assert clique_number(empty_graph(5)) == 1
    assert independence_number(empty_graph(5)) == 5
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(0, 7)
        g = Graph.from_edge_word(n, rng.getrandbits(n * (n - 1) // 2))
        assert clique_number(g) == oracle_omega(g)
        assert independence_number(g) == oracle_alpha(g)
        assert independence_number(g) == clique_number(complement(g))


def test_star_graph_is_s_canonical_for_two_leaves():
    # both leaves of the 2-star swing (as a stable pair), so uk rejects it
    star = star_graph(2)
    assert classify(star) is SplitClass.S_CANONICAL


def test_all_colorings_counts(census7):
    from splitspecies.enumeration import ClassTag

    for n in range(0, 6):
        data = _split_words_and_classes(n)
        total = 0
        for q in range(len(data.words)):
            g = Graph.from_edge_word(n, int(data.words[q]))
            total += len(all_colorings(g))
        assert total == census7[n].labeled[ClassTag.COLORED_SPLIT]
