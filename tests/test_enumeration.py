"""The enumeration oracle: labeled sweeps, orbit counting, census identities."""

import json
import os

import pytest

from splitspecies.enumeration import (
    Census,
    ClassTag,
    class_census,
    count_labeled,
    count_unlabeled,
    enumerate_labeled,
)
from splitspecies.errors import InternalError, OutOfRange, TooLarge
from splitspecies.graphs import (
    BicoloredGraph,
    Graph,
    canonical_code,
    canonical_code_bicolored,
    is_split,
)
from splitspecies.structure import ColoredSplitGraph, classify, s_max_partitions

from conftest import (
    ALL_UNLABELED,
    B_LABELED,
    BC_LABELED,
    BC_UNLABELED,
    CS_LABELED,
    S_LABELED,
    S_UNLABELED,
    TESTDATA,
    U_LABELED,
    U_UNLABELED,
    UAMB_LABELED,
    UK_LABELED,
)


def test_enumerate_labeled_examples():
    assert len(list(enumerate_labeled(2, ClassTag.SPLIT))) == 2
    assert len(list(enumerate_labeled(3, ClassTag.SPLIT))) == 8
    assert len(list(enumerate_labeled(3, ClassTag.UNBALANCED))) == 8
    assert list(enumerate_labeled(3, ClassTag.BALANCED)) == []
    assert len(list(enumerate_labeled(1, ClassTag.BICOLORED))) == 2


def test_enumerate_order_is_ascending_and_deterministic():
    words = [g.edge_word() for g in enumerate_labeled(4, ClassTag.SPLIT)]
    assert words == sorted(words)
    again = [g.edge_word() for g in enumerate_labeled(4, ClassTag.SPLIT)]
    assert words == again
    greens = [b.green for b in enumerate_labeled(2, ClassTag.BICOLORED)]
    masks = [sum(1 << v for v in g) for g in greens]
    assert masks == sorted(masks)


def test_enumerate_yields_valid_structures():
    for g in enumerate_labeled(4, ClassTag.SPLIT):
        assert isinstance(g, Graph) and is_split(g)
    for g in enumerate_labeled(4, ClassTag.BALANCED):
        assert classify(g).value == "balanced"
    for c in enumerate_labeled(4, ClassTag.COLORED_SPLIT):
        assert isinstance(c, ColoredSplitGraph)  # construction itself validates
    for b in enumerate_labeled(3, ClassTag.BICOLORED_NO_ISOLATED_GREEN):
        assert isinstance(b, BicoloredGraph) and not b.isolated_greens()


def test_colored_split_structures_are_graph_smax_pairs():
    for n in range(0, 5):
        expected = []
        for g in enumerate_labeled(n, ClassTag.SPLIT):
            for part in s_max_partitions(g):
                expected.append((g.edge_word(), part.k))
        got = [(c.graph.edge_word(), c.green) for c in enumerate_labeled(n, ClassTag.COLORED_SPLIT)]
        assert sorted(expected) == sorted(got)


def test_count_labeled_examples():
    assert count_labeled(4, ClassTag.SPLIT) == 58
    assert count_labeled(4, ClassTag.BICOLORED) == 162
    assert count_labeled(0, ClassTag.SPLIT) == 1
    assert count_labeled(6, ClassTag.BICOLORED) == 18306


def test_count_labeled_all_graphs_checks_size():
    assert count_labeled(8, ClassTag.ALL_GRAPHS) == 1 << 28
    with pytest.raises(OutOfRange):
        count_labeled(-1, ClassTag.ALL_GRAPHS)
    with pytest.raises(OutOfRange):
        count_labeled(-2, ClassTag.ALL_GRAPHS)
    with pytest.raises(TooLarge):
        count_labeled(9, ClassTag.ALL_GRAPHS)


@pytest.mark.parametrize("n", range(0, 8))
def test_labeled_counts_match_frozen_tables(n, census7):
    lab = census7[n].labeled
    assert lab[ClassTag.SPLIT] == S_LABELED[n]
    assert lab[ClassTag.BALANCED] == B_LABELED[n]
    assert lab[ClassTag.UNBALANCED] == U_LABELED[n]
    assert lab[ClassTag.AMBIGUOUS] == UAMB_LABELED[n]
    assert lab[ClassTag.K_CANONICAL] == UK_LABELED[n]
    assert lab[ClassTag.S_CANONICAL] == UK_LABELED[n]
    assert lab[ClassTag.COLORED_SPLIT] == CS_LABELED[n]
    assert lab[ClassTag.BICOLORED] == BC_LABELED[n]
    assert lab[ClassTag.BICOLORED_NO_ISOLATED_GREEN] == CS_LABELED[n]
    assert lab[ClassTag.ALL_GRAPHS] == 1 << (n * (n - 1) // 2)


@pytest.mark.parametrize("n", range(0, 8))
def test_unlabeled_counts_match_frozen_tables(n, census7):
    unl = census7[n].unlabeled
    assert unl[ClassTag.ALL_GRAPHS] == ALL_UNLABELED[n]
    assert unl[ClassTag.SPLIT] == S_UNLABELED[n]
    assert unl[ClassTag.UNBALANCED] == U_UNLABELED[n]
    assert unl[ClassTag.BICOLORED] == BC_UNLABELED[n]
    assert unl[ClassTag.COLORED_SPLIT] == S_UNLABELED[n]


def test_count_unlabeled_examples():
    assert count_unlabeled(4, ClassTag.SPLIT) == 9
    assert count_unlabeled(2, ClassTag.BICOLORED) == 4
    for n in range(0, 8):
        assert count_unlabeled(n, ClassTag.COLORED_SPLIT) == count_unlabeled(n, ClassTag.SPLIT)


def test_partition_identities(census7):
    for n in range(0, 8):
        for counts in (census7[n].labeled, census7[n].unlabeled):
            assert counts[ClassTag.SPLIT] == counts[ClassTag.BALANCED] + counts[ClassTag.UNBALANCED]
            assert counts[ClassTag.UNBALANCED] == (
                counts[ClassTag.K_CANONICAL] + counts[ClassTag.S_CANONICAL]
                + counts[ClassTag.AMBIGUOUS]
            )
            assert counts[ClassTag.K_CANONICAL] == counts[ClassTag.S_CANONICAL]


def test_unlabeled_partial_sum_identities(census7):
    """Unbalanced classes accumulate split counts below; bicolored through n."""
    for n in range(0, 8):
        s_tilde = [census7[k].unlabeled[ClassTag.SPLIT] for k in range(n + 1)]
        assert census7[n].unlabeled[ClassTag.UNBALANCED] == sum(s_tilde[:-1])
        assert census7[n].unlabeled[ClassTag.BICOLORED] == sum(s_tilde)


def test_unlabeled_counts_match_canonical_code_sets():
    """Every class's orbit count agrees with hashing canonical codes directly."""
    from splitspecies.bijections import split_to_bicolored

    def code(structure):
        if isinstance(structure, Graph):
            return canonical_code(structure)
        if isinstance(structure, ColoredSplitGraph):
            # canonicalized through its bicolored image: the edge-dropping
            # map is a color-preserving bijection
            structure = split_to_bicolored(structure)
        return canonical_code_bicolored(structure)

    for n in range(0, 6):
        for tag in ClassTag:
            codes = {code(s) for s in enumerate_labeled(n, tag)}
            assert len(codes) == count_unlabeled(n, tag), (n, tag)


def test_too_large_errors():
    with pytest.raises(TooLarge):
        list(enumerate_labeled(9, ClassTag.ALL_GRAPHS))
    with pytest.raises(TooLarge):
        list(enumerate_labeled(8, ClassTag.BALANCED))
    with pytest.raises(TooLarge):
        count_unlabeled(8, ClassTag.BICOLORED)
    with pytest.raises(TooLarge):
        class_census(8)


def test_census_golden_files(census7):
    for n in range(0, 8):
        path = os.path.join(TESTDATA, f"census-n{n}.json")
        with open(path) as f:
            golden = Census.from_json(json.load(f))
        assert golden.labeled == census7[n].labeled
        assert golden.unlabeled == census7[n].unlabeled


@pytest.mark.parametrize("kind", ["labeled", "unlabeled"])
def test_broken_census_identity_raises_internal_error(census7, kind):
    from splitspecies.enumeration import _assert_census_identities

    good = census7[5]
    _assert_census_identities(good)
    counts = dict(getattr(good, kind))
    counts[ClassTag.K_CANONICAL] += 1  # breaks UK = US and U = UK + US + Uamb
    fields = {"labeled": good.labeled, "unlabeled": good.unlabeled, kind: counts}
    broken = Census(good.n, fields["labeled"], fields["unlabeled"])
    with pytest.raises(InternalError, match=f"{kind} census at n=5"):
        _assert_census_identities(broken)


def test_census_serialization_round_trip(census7):
    c = census7[5]
    assert Census.from_json(c.to_json()) == c
    csv = c.to_csv()
    assert csv.splitlines()[0] == "n,tag,labeled,unlabeled"
    assert len(csv.splitlines()) == 11
    assert c.to_csv() == csv  # stable


def test_enumerate_all_graphs_small():
    assert len(list(enumerate_labeled(3, ClassTag.ALL_GRAPHS))) == 8
    words = [g.edge_word() for g in enumerate_labeled(3, ClassTag.ALL_GRAPHS)]
    assert words == list(range(8))
