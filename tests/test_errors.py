"""The library boundary: every bad size or base raises a SplitSpeciesError.

One table of (call, expected class).  Each named cap gets a row at cap + 1,
and each entry point a row just below its lower bound; bad unlabeled bases
are caller data, never an InternalError.
"""

import pytest

from splitspecies import (asymptotics, bijections, checks, counting, enumeration, graphs, series,
                          structure)
from splitspecies.asymptotics import MAX_BITS, MIN_BITS
from splitspecies.counting import MAX_FORMULA_N
from splitspecies.enumeration import CENSUS_MAX_N, SPLIT_MAX_N, ClassTag
from splitspecies.errors import (
    InternalError,
    LengthMismatch,
    MalformedInput,
    OutOfRange,
    SplitSpeciesError,
    TooLarge,
    check_size,
)
from splitspecies.graphs import CANON_MAX_VERTICES, MAX_VERTICES, BicoloredGraph, Graph
from splitspecies.series import MAX_CHAIN_ORDER


HUGE_LABEL = 10**11


def _graph(n):
    return Graph(n, (0,) * n)


def _path3():
    return graphs.make_graph(3, [(0, 1), (1, 2)])


def _base(length):
    """A valid unlabeled base: each term 2^k exceeds the sum of those before it."""
    return [1 << k for k in range(length)]


def _colored_edge():
    return structure.ColoredSplitGraph.from_json({"n": 2, "edges": [[0, 1]], "green": [0], "red": [1]})


BOUNDARY = {
    # sizes below the lower bound
    "bicolored-negative": (lambda: counting.bicolored_labeled(-1), OutOfRange),
    "split-negative": (lambda: counting.split_labeled(-1), OutOfRange),
    "split-bp-zero": (lambda: counting.split_labeled_bp(0), OutOfRange),
    "chain-count-negative": (lambda: counting.chain_count("U", -1), OutOfRange),
    "cross-check-negative": (lambda: checks.cross_check(-1), OutOfRange),
    "counts-negative": (lambda: checks.counts(ClassTag.ALL_GRAPHS, False, [3, -1]), OutOfRange),
    "counts-chain-negative": (lambda: checks.counts(ClassTag.BALANCED, False, [3, -1]),
                              OutOfRange),
    "labeled-chain-negative": (lambda: series.derive_labeled_chain(-1), OutOfRange),
    "asymptotic-zero": (lambda: asymptotics.asymptotic_bicolored(0), OutOfRange),
    "b-ratio-negative": (lambda: asymptotics.check_b_ratio(-1), OutOfRange),
    "u-over-s-violations-negative": (lambda: asymptotics.u_over_s_bound_violations(-3), OutOfRange),
    "u-over-s-monotone-negative": (lambda: asymptotics.u_over_s_monotone_from(-3), OutOfRange),
    "ratio-report-negative": (lambda: asymptotics.ratio_report(-1), OutOfRange),
    "census-negative": (lambda: enumeration.class_census(-1), OutOfRange),
    "make-graph-negative": (lambda: graphs.make_graph(-1, []), OutOfRange),
    # precision below MIN_BITS
    "theta-bits": (lambda: asymptotics.theta("even", MIN_BITS - 1), OutOfRange),
    # named choices
    "b-ratio-kind": (lambda: asymptotics.check_b_ratio(3, kind="x"), OutOfRange),
    "theta-parity": (lambda: asymptotics.theta("both"), OutOfRange),
    "series-name": (lambda: series.named("E", series.EGF, 3), OutOfRange),
    "chain-count-key": (lambda: counting.chain_count("X", 3), OutOfRange),
    # each named cap at cap + 1
    "cross-check-cap": (lambda: checks.cross_check(MAX_FORMULA_N + 1), TooLarge),
    "bicolored-cap": (lambda: counting.bicolored_labeled(MAX_FORMULA_N + 1), TooLarge),
    "split-cap": (lambda: counting.split_labeled(MAX_FORMULA_N + 1), TooLarge),
    "split-bp-cap": (lambda: counting.split_labeled_bp(MAX_FORMULA_N + 1), TooLarge),
    "counts-all-graphs-cap": (
        lambda: checks.counts(ClassTag.ALL_GRAPHS, False, [MAX_FORMULA_N + 1]), TooLarge),
    "base-length-cap": (lambda: asymptotics.check_b_ratio_unlabeled(_base(MAX_CHAIN_ORDER + 2)),
                        TooLarge),
    "b-ratio-cap": (lambda: asymptotics.check_b_ratio(MAX_FORMULA_N + 1), TooLarge),
    "labeled-chain-cap": (lambda: series.derive_labeled_chain(MAX_CHAIN_ORDER + 1), TooLarge),
    "chain-count-cap": (lambda: counting.chain_count("S", MAX_CHAIN_ORDER + 1), TooLarge),
    "ratio-report-cap": (lambda: asymptotics.ratio_report(MAX_CHAIN_ORDER + 1), TooLarge),
    "theta-bits-cap": (lambda: asymptotics.theta("odd", MAX_BITS + 1), TooLarge),
    "u-over-s-cap": (lambda: asymptotics.u_over_s_bound_violations(MAX_CHAIN_ORDER + 1), TooLarge),
    "census-cap": (lambda: enumeration.class_census(CENSUS_MAX_N + 1), TooLarge),
    "count-labeled-census-cap": (
        lambda: enumeration.count_labeled(CENSUS_MAX_N + 1, ClassTag.BALANCED), TooLarge),
    "count-labeled-split-cap": (
        lambda: enumeration.count_labeled(SPLIT_MAX_N + 1, ClassTag.SPLIT), TooLarge),
    "count-unlabeled-split-cap": (
        lambda: enumeration.count_unlabeled(SPLIT_MAX_N + 1, ClassTag.SPLIT), TooLarge),
    "make-graph-cap": (lambda: graphs.make_graph(MAX_VERTICES + 1, []), TooLarge),
    "ks-partitions-cap": (lambda: structure.ks_partitions(_graph(MAX_VERTICES + 1)), TooLarge),
    "clique-number-cap": (lambda: structure.clique_number(_graph(MAX_VERTICES + 1)), TooLarge),
    "canonical-code-cap": (lambda: graphs.canonical_code(_graph(CANON_MAX_VERTICES + 1)), TooLarge),
    "canonical-code-bicolored-cap": (
        lambda: graphs.canonical_code_bicolored(BicoloredGraph(
            _graph(CANON_MAX_VERTICES + 1), (), tuple(range(CANON_MAX_VERTICES + 1)))),
        TooLarge),
    # unlabeled bases: caller data, checked where they enter the library
    "base-below-partial-sum": (lambda: asymptotics.check_b_ratio_unlabeled([1, 5, 2]), MalformedInput),
    "base-zero": (lambda: asymptotics.check_b_ratio_unlabeled([1, 0, 2]), MalformedInput),
    "base-float": (lambda: asymptotics.check_b_ratio_unlabeled([1, 1.5]), MalformedInput),
    "base-bool": (lambda: asymptotics.check_b_ratio_unlabeled([1, True]), MalformedInput),
    "base-string": (lambda: asymptotics.check_b_ratio_unlabeled("12"), MalformedInput),
    "report-base-below-partial-sum": (
        lambda: asymptotics.ratio_report(2, unlabeled_base=[1, 5, 2]), MalformedInput),
    "unlabeled-chain-string-term": (lambda: series.derive_unlabeled_chain(["a"]), MalformedInput),
    "unlabeled-chain-below-partial-sum": (
        lambda: series.derive_unlabeled_chain([1, 5, 2]), MalformedInput),
    # other caller data
    "relabel-not-a-permutation": (
        lambda: graphs.relabel(graphs.make_graph(2, [(0, 1)]), (0, 0)), MalformedInput),
    "empty-graph-text": (lambda: graphs.parse_graph_text(""), MalformedInput),
    "load-file-directory": (lambda: graphs.load_graph("."), MalformedInput),
    "load-file-missing": (lambda: graphs.load_graph("/nonexistent/file.g"), MalformedInput),
    "relabel-float-entries": (lambda: graphs.relabel(_path3(), [0.0, 1.0, 2.0]), MalformedInput),
    "make-graph-float-endpoint": (lambda: graphs.make_graph(3, [(0.0, 1)]), MalformedInput),
    "relabel-bool-entries": (lambda: graphs.relabel(_graph(2), [True, False]), MalformedInput),
    "graph-json-bool-endpoint": (
        lambda: graphs.graph_from_json({"n": 3, "edges": [[True, 2]]}), MalformedInput),
    # labels and relabelings of the bijections' carriers
    "pointed-set-float-label": (lambda: bijections.PointedSet((0.5, 2), 2), MalformedInput),
    "embedded-graph-float-image": (
        lambda: bijections.EmbeddedGraph.whole(_path3()).relabeled([0.5, 1, 2]), MalformedInput),
    "embedded-colored-float-image": (
        lambda: bijections.EmbeddedColored.whole(_colored_edge()).relabeled([0.5, 1]),
        MalformedInput),
    "pointed-set-bool-label": (lambda: bijections.PointedSet((True, 2), 2), MalformedInput),
    "embedded-graph-short-map": (lambda: bijections.EmbeddedGraph(
        (0, 5), graphs.make_graph(2, [])).relabeled([0, 1]), LengthMismatch),
    "embedded-colored-short-map": (
        lambda: bijections.EmbeddedColored.whole(_colored_edge()).relabeled([1]), LengthMismatch),
    # sizes that are not integers, refused before any comparison
    "bicolored-bool": (lambda: counting.bicolored_labeled(True), MalformedInput),
    "theta-float-bits": (lambda: asymptotics.theta("even", 100.5), MalformedInput),
    "graph-json-string-n": (lambda: graphs.graph_from_json({"n": "3", "edges": []}), MalformedInput),
    # vertex labels of two-colored graphs that are not integers
    "colored-bool-label": (lambda: structure.ColoredSplitGraph.from_json(
        {"n": 2, "edges": [[0, 1]], "green": [True], "red": [0]}), MalformedInput),
    "bicolored-bool-label": (lambda: BicoloredGraph(_graph(2), (0,), (True,)), MalformedInput),
    "bicolored-float-label": (lambda: BicoloredGraph.from_json(
        {"n": 2, "edges": [[0, 1]], "green": [0.0], "red": [1]}), MalformedInput),
    "bicolored-string-label": (lambda: BicoloredGraph.from_json(
        {"n": 2, "edges": [[0, 1]], "green": ["a"], "red": [1]}), MalformedInput),
    "bicolored-mixed-labels": (lambda: BicoloredGraph.from_json(
        {"n": 2, "edges": [], "green": [1, "a"], "red": []}), MalformedInput),
    # vertex labels of two-colored graphs outside 0..n-1, refused before any
    # shift: a negative one would raise a bare ValueError, 10^11 would ask for a
    # 12.5 GB mask
    "colored-negative-label": (lambda: structure.ColoredSplitGraph(
        graphs.make_graph(2, [(0, 1)]), (-1, 0), (1,)), OutOfRange),
    "colored-huge-label": (lambda: structure.ColoredSplitGraph(
        graphs.make_graph(2, [(0, 1)]), (0, 1), (HUGE_LABEL,)), OutOfRange),
    "bicolored-negative-label": (lambda: BicoloredGraph(_graph(2), (-1,), (0, 1)), OutOfRange),
    "bicolored-huge-label": (lambda: BicoloredGraph(_graph(2), (0,), (1, HUGE_LABEL)),
                             OutOfRange),
    "make-bicolored-negative-label": (lambda: graphs.make_bicolored(2, [], [-1]), OutOfRange),
    "make-bicolored-huge-label": (lambda: graphs.make_bicolored(2, [], [HUGE_LABEL]), OutOfRange),
    "colored-json-negative-label": (lambda: structure.ColoredSplitGraph.from_json(
        {"n": 2, "edges": [[0, 1]], "green": [-1, 0], "red": [1]}), OutOfRange),
    "colored-json-huge-label": (lambda: structure.ColoredSplitGraph.from_json(
        {"n": 2, "edges": [[0, 1]], "green": [0, 1], "red": [HUGE_LABEL]}), OutOfRange),
    "bicolored-json-negative-label": (lambda: BicoloredGraph.from_json(
        {"n": 2, "edges": [], "green": [-1], "red": [0, 1]}), OutOfRange),
    "bicolored-json-huge-label": (lambda: BicoloredGraph.from_json(
        {"n": 2, "edges": [], "green": [HUGE_LABEL], "red": [0, 1]}), OutOfRange),
    # JSON objects without a key the carrier needs, and JSON that is no object
    "graph-json-without-n": (lambda: graphs.graph_from_json({"edges": []}), MalformedInput),
    "graph-json-without-edges": (lambda: graphs.graph_from_json({"n": 2}), MalformedInput),
    "graph-json-list": (lambda: graphs.graph_from_json([2, []]), MalformedInput),
    "colored-json-without-green": (lambda: structure.ColoredSplitGraph.from_json(
        {"n": 1, "edges": [], "red": [0]}), MalformedInput),
    "bicolored-json-without-red": (lambda: BicoloredGraph.from_json(
        {"n": 1, "edges": [], "green": [0]}), MalformedInput),
    "bicolored-json-wrapped": (lambda: BicoloredGraph.from_json(
        {"map": "split-to-bicolored", "result": {"n": 0, "edges": [], "green": [], "red": []}}),
        MalformedInput),
}


@pytest.mark.parametrize("case", sorted(BOUNDARY))
def test_library_boundary_raises_package_errors(case):
    call, expected = BOUNDARY[case]
    assert issubclass(expected, SplitSpeciesError) and not issubclass(expected, InternalError)
    with pytest.raises(expected):
        call()


def test_check_size():
    assert check_size(0) == 0
    assert check_size(5, low=5, high=5) == 5
    with pytest.raises(OutOfRange, match="n must be at least 0, got -1"):
        check_size(-1)
    with pytest.raises(OutOfRange, match="bits must be at least 64"):
        check_size(63, low=64, what="bits")
    with pytest.raises(TooLarge, match="order is capped at 3, got 4"):
        check_size(4, high=3, what="order")
    with pytest.raises(MalformedInput, match="n must be an integer, got True"):
        check_size(True)
    with pytest.raises(MalformedInput, match="bits must be an integer, got 64.0"):
        check_size(64.0, low=64, what="bits")


def test_sizes_at_the_bounds_still_work():
    assert counting.split_labeled_bp(1) == 1
    assert checks.cross_check(0).ok
    assert asymptotics.check_b_ratio(0) == []
    assert asymptotics.ratio_report(0).rows == []
    assert [r.n for r in asymptotics.ratio_report(2).rows] == [1, 2]
    assert asymptotics.theta("even", MIN_BITS)[0] >> MIN_BITS == 2
    assert asymptotics.theta("odd", MAX_BITS)[0] >> MAX_BITS == 2
    assert len(series.derive_labeled_chain(0)["S"]) == 1
    assert graphs.make_graph(MAX_VERTICES, []).n == MAX_VERTICES
    assert counting.split_labeled(MAX_FORMULA_N) > 0
    assert counting.split_labeled_bp(MAX_FORMULA_N) == counting.split_labeled(MAX_FORMULA_N)
    assert checks.counts(ClassTag.ALL_GRAPHS, False, [MAX_FORMULA_N])[MAX_FORMULA_N] > 0
    assert (asymptotics.check_b_ratio_unlabeled(_base(MAX_CHAIN_ORDER + 1))
            == list(range(7, MAX_CHAIN_ORDER + 1)))
