"""The enumeration oracle: labeled sweeps, orbit counting, census identities."""

import importlib.util
import json
import os
import sys

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


@pytest.mark.parametrize("tag", list(ClassTag), ids=lambda t: t.value)
def test_lines_are_the_encoded_structures(tag):
    """Each line built from a key is what the sorted compact encoder prints
    for the structure's to_json(), in the same order."""
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    for n in range(7):
        expected = [encode(s.to_json()) for s in enumerate_labeled(n, tag)]
        assert list(enumerate_labeled(n, tag, lines=True)) == expected


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


def test_golden_generator_writes_testdata_byte_for_byte(tmp_path, monkeypatch):
    """scripts/generate_goldens.py, pointed at a scratch directory, writes
    exactly the files of testdata/, byte for byte."""
    path = os.path.join(TESTDATA, "..", "scripts", "generate_goldens.py")
    spec = importlib.util.spec_from_file_location("generate_goldens", path)
    script = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src/
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "OUT", str(tmp_path))
    script.main()
    assert sorted(os.listdir(tmp_path)) == sorted(os.listdir(TESTDATA))
    for name in os.listdir(tmp_path):
        with open(tmp_path / name, "rb") as new, open(os.path.join(TESTDATA, name), "rb") as old:
            assert new.read() == old.read(), name


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


@pytest.fixture
def cold_caches():
    """Every enumeration cache empty when the test starts, and again after it."""
    from splitspecies import enumeration

    caches = [f for f in vars(enumeration).values() if hasattr(f, "cache_clear")]
    for f in caches:
        f.cache_clear()
    yield
    for f in caches:
        f.cache_clear()


@pytest.mark.parametrize("kind", ["labeled", "unlabeled"])
@pytest.mark.parametrize("tag", list(ClassTag), ids=lambda t: t.value)
@pytest.mark.parametrize("n", range(0, 8))
def test_first_count_of_a_cold_family_matches_golden(cold_caches, n, tag, kind):
    with open(os.path.join(TESTDATA, f"census-n{n}.json")) as f:
        golden = getattr(Census.from_json(json.load(f)), kind)
    count = count_labeled if kind == "labeled" else count_unlabeled
    assert count(n, tag) == golden[tag]


_FAMILY_STAGES = ("_graph_orbits", "_split_data", "_split_unlabeled", "_two_colored_unlabeled")
TWO_COLORED = (ClassTag.COLORED_SPLIT, ClassTag.BICOLORED, ClassTag.BICOLORED_NO_ISOLATED_GREEN)


@pytest.mark.parametrize("tag", list(ClassTag), ids=lambda t: t.value)
def test_an_unlabeled_count_builds_only_its_family(cold_caches, tag):
    from splitspecies import enumeration

    count_unlabeled(6, tag)
    built = {name for name in _FAMILY_STAGES
             if getattr(enumeration, name).cache_info().currsize}
    if tag is ClassTag.ALL_GRAPHS:
        assert built == {"_graph_orbits"}
    elif tag in TWO_COLORED:
        assert built == {"_two_colored_unlabeled"}
    else:
        assert built == {"_split_data", "_split_unlabeled"}


@pytest.mark.parametrize("tag", TWO_COLORED, ids=lambda t: t.value)
@pytest.mark.parametrize("n", range(0, 7))
def test_green_words_are_the_keys_with_a_prefix_green_set(n, tag):
    """The unlabeled two-colored counts generate only these structures."""
    from splitspecies.enumeration import _bicolored_keys, _colored_split_keys, _green_words

    if tag is ClassTag.COLORED_SPLIT:
        keys = _colored_split_keys(n)
    else:
        keys = _bicolored_keys(n, tag)
    full = (1 << n) - 1
    for c in range(n + 1):
        green = (1 << c) - 1
        expected = sorted(key >> n for key in keys if key & full == green)
        assert sorted(_green_words(n, green, tag)) == expected, c


# sha256 of the four arrays of _split_data(n) for n = 0..7, words as
# little-endian 32-bit integers, taken from the two-walk build it replaced
SPLIT_DATA_SHA256 = "eebd29e519f4ed9c0afabc6715b69d1e04b29d2939fb346eed0142a5ef3db893"


def test_split_data_matches_the_pinned_digest():
    import hashlib
    import struct

    from splitspecies.enumeration import _split_data

    h = hashlib.sha256()
    for n in range(8):
        data = _split_data(n)
        h.update(struct.pack(f"<{len(data.words)}I", *data.words))
        for column in (data.classes, data.swings, data.kmax):
            h.update(column.tobytes())
    assert h.hexdigest() == SPLIT_DATA_SHA256


@pytest.mark.parametrize("n", range(0, 8))
def test_split_data_words_match_the_split_table(n):
    """The class walk reads its words off its own table; the split table is
    a separate walk, so each checks the other."""
    from splitspecies.enumeration import _split_data, _split_words

    assert _split_data(n).words == _split_words(n)


def test_split_data_walks_the_partitions_once(cold_caches, monkeypatch):
    from splitspecies import enumeration

    walks = []
    partitions = enumeration._partitions

    def counted(n):
        walks.append(n)
        return partitions(n)

    monkeypatch.setattr(enumeration, "_partitions", counted)
    assert len(enumeration._split_data(6).words) == S_LABELED[6]
    assert walks == [6]


def test_corrupted_split_classes_break_the_unlabeled_count(cold_caches, monkeypatch):
    from array import array

    from splitspecies import enumeration
    from splitspecies.errors import BrokenInvariant

    good = enumeration._split_data(5)
    # every s-canonical graph recorded as k-canonical
    classes = array("B", [enumeration._KCAN if c == enumeration._SCAN else c
                          for c in good.classes])
    broken = enumeration._SplitData(good.words, classes, good.swings, good.kmax)
    monkeypatch.setattr(enumeration, "_split_data", lambda n: broken)
    with pytest.raises(BrokenInvariant, match="unlabeled census at n=5 breaks UK = US"):
        count_unlabeled(5, ClassTag.K_CANONICAL)


def test_corrupted_colored_keys_break_the_labeled_count(cold_caches, monkeypatch):
    from splitspecies import enumeration
    from splitspecies.errors import BrokenInvariant

    keys = enumeration._colored_split_keys(5)
    monkeypatch.setattr(enumeration, "_colored_split_keys", lambda n: keys[1:])
    with pytest.raises(BrokenInvariant, match="labeled census at n=5 breaks cS - cUK = S - UK"):
        count_labeled(5, ClassTag.COLORED_SPLIT)


def test_census_serialization_round_trip(census7):
    c = census7[5]
    assert Census.from_json(c.to_json()) == c


def test_enumerate_all_graphs_small():
    assert len(list(enumerate_labeled(3, ClassTag.ALL_GRAPHS))) == 8
    words = [g.edge_word() for g in enumerate_labeled(3, ClassTag.ALL_GRAPHS)]
    assert words == list(range(8))
