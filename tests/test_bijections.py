"""Round trips, naturality, and count identities of the four bijections.

Round trips run both ways: compose(decompose(x)) over every class member up
to n = 6 (random at 7), and decompose(compose(a, rest)) over every composable
input, with the rest embedded in every possible label subset.  Equivariance
(the maps commute with relabeling) is exhausted over all permutations up to
n = 5 and sampled above.  Seeded graphs at n = 12..16, the sizes of the
benchmark's graphs, take all four pairs through both round trips and both
kinds of relabeling, and pin their outputs.
"""

import hashlib
import itertools
import json
import random
from math import comb

import pytest

from splitspecies.bijections import (
    EmbeddedColored,
    EmbeddedGraph,
    PointedSet,
    amb_compose,
    amb_decompose,
    bicolored_to_split,
    cuk_compose,
    cuk_decompose,
    split_to_bicolored,
    uk_compose,
    uk_decompose,
)
from splitspecies.enumeration import ClassTag, enumerate_labeled
from splitspecies.errors import (
    BrokenInvariant,
    IsolatedGreen,
    LabelClash,
    LengthMismatch,
    MalformedInput,
    OutOfRange,
    TooSmall,
    WrongClass,
)
from splitspecies.graphs import BicoloredGraph, Graph, complement, make_bicolored, make_graph, relabel
from splitspecies.structure import (
    ColoredSplitGraph,
    SplitClass,
    all_colorings,
    classify,
    classify_report,
    swing_report,
)

from conftest import complete_graph, empty_graph, path_graph, star_graph


def _graphs_of_class(n, cls_code):
    from splitspecies.enumeration import _split_data

    data = _split_data(n)
    return [Graph.from_edge_word(n, int(data.words[q]))
            for q in range(len(data.words)) if int(data.classes[q]) == cls_code]


def _colored_structures(n):
    return list(enumerate_labeled(n, ClassTag.COLORED_SPLIT))


AMB_EXAMPLE = make_graph(5, [(0, 1), (1, 2), (2, 3), (1, 4), (2, 4)])


# ---------------------------------------------------------------------------
# Examples
# ---------------------------------------------------------------------------

def test_uk_decompose_examples():
    k2 = make_graph(2, [(0, 1)])
    a, rest = uk_decompose(k2)
    assert a == (0, 1) and rest.labels == () and rest.core.n == 0
    k3 = complete_graph(3)
    a, rest = uk_decompose(k3)
    assert a == (0, 1, 2) and rest.core.n == 0
    with pytest.raises(WrongClass):
        uk_decompose(star_graph(2))  # s-canonical, not k-canonical
    with pytest.raises(WrongClass):
        uk_decompose(path_graph(4))  # balanced


def test_uk_compose_examples():
    rest_empty = EmbeddedColored((), ColoredSplitGraph(empty_graph(0), (), ()))
    out = uk_compose((0, 1), rest_empty)
    assert out.core == make_graph(2, [(0, 1)]) and out.labels == (0, 1)
    one_red = EmbeddedColored((2,), ColoredSplitGraph(empty_graph(1), (), (0,)))
    out = uk_compose((0, 1), one_red)
    assert out.labels == (0, 1, 2)
    assert out.core == make_graph(3, [(0, 1)])  # swing edge only; red vertex isolated
    assert classify(out.core) is SplitClass.K_CANONICAL
    with pytest.raises(TooSmall):
        uk_compose((0,), rest_empty)
    with pytest.raises(LabelClash):
        uk_compose((2, 3), one_red)


def test_uk_compose_rejects_a_negative_swing_label():
    rest_empty = EmbeddedColored((), ColoredSplitGraph(empty_graph(0), (), ()))
    with pytest.raises(OutOfRange):
        uk_compose((-1, 5), rest_empty)


def test_pointed_set_rejects_a_label_past_the_vertex_cap():
    with pytest.raises(OutOfRange):
        PointedSet((2, 20), 2)


def test_single_green_vertex_is_not_a_valid_colored_graph():
    from splitspecies.errors import NotSMax

    with pytest.raises(NotSMax):
        ColoredSplitGraph(empty_graph(1), (0,), ())


def test_amb_examples():
    k1 = empty_graph(1)
    a, rest = amb_decompose(k1)
    assert a == 0 and rest.core.n == 0
    assert amb_compose(a, rest).core == k1

    a, rest = amb_decompose(AMB_EXAMPLE)
    assert a == 4
    assert classify(rest.core) is SplitClass.BALANCED
    with pytest.raises(WrongClass):
        amb_decompose(path_graph(4))

    out = amb_compose(4, path_graph(4))
    assert out.core == AMB_EXAMPLE
    assert classify(out.core) is SplitClass.AMBIGUOUS
    with pytest.raises(WrongClass):
        amb_compose(2, make_graph(2, [(0, 1)]))
    with pytest.raises(LabelClash):
        amb_compose(1, path_graph(4))


def test_cuk_examples():
    k2 = make_graph(2, [(0, 1)])
    colored = ColoredSplitGraph(k2, (0,), (1,))
    ps, rest = cuk_decompose(colored)
    assert ps == PointedSet((0, 1), 1) and rest.core.n == 0
    assert cuk_compose(ps, rest).core == colored

    k3 = complete_graph(3)
    colored3 = ColoredSplitGraph(k3, (0, 1), (2,))
    ps, rest = cuk_decompose(colored3)
    assert ps == PointedSet((0, 1, 2), 2) and rest.core.n == 0

    p4 = path_graph(4)
    with pytest.raises(WrongClass):
        cuk_decompose(all_colorings(p4)[0])
    with pytest.raises(TooSmall):
        PointedSet((0,), 0)


def test_split_bicolored_examples():
    p4 = path_graph(4)
    colored = all_colorings(p4)[0]
    b = split_to_bicolored(colored)
    assert b.graph.edges() == [(0, 1), (2, 3)]  # the green-green middle edge is gone
    assert bicolored_to_split(b) == colored

    k1_red = ColoredSplitGraph(empty_graph(1), (), (0,))
    b = split_to_bicolored(k1_red)
    assert b.graph.n == 1 and b.red == (0,)

    with pytest.raises(IsolatedGreen):
        bicolored_to_split(make_bicolored(1, [], [0]))


# ---------------------------------------------------------------------------
# Exhaustive round trips
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(0, 7))
def test_uk_round_trip_exhaustive(n):
    for g in _graphs_of_class(n, 2):
        a, rest = uk_decompose(g)
        out = uk_compose(a, rest)
        assert out.labels == tuple(range(n)) and out.core == g


@pytest.mark.parametrize("n", range(0, 7))
def test_amb_round_trip_exhaustive(n):
    for g in _graphs_of_class(n, 1):
        a, rest = amb_decompose(g)
        out = amb_compose(a, rest)
        assert out.labels == tuple(range(n)) and out.core == g


@pytest.mark.parametrize("n", range(0, 7))
def test_cuk_round_trip_exhaustive(n):
    for c in _colored_structures(n):
        if classify(c.graph) is not SplitClass.K_CANONICAL:
            continue
        ps, rest = cuk_decompose(c)
        out = cuk_compose(ps, rest)
        assert out.labels == tuple(range(n)) and out.core == c


@pytest.mark.parametrize("n", range(0, 7))
def test_bicolored_round_trip_exhaustive(n):
    seen_bicolored = set()
    for c in _colored_structures(n):
        b = split_to_bicolored(c)
        assert not b.isolated_greens()
        assert bicolored_to_split(b) == c
        seen_bicolored.add((b.graph.edge_word(), b.green))
    # surjectivity onto bicolored graphs without isolated greens
    stars = list(enumerate_labeled(n, ClassTag.BICOLORED_NO_ISOLATED_GREEN))
    assert len(stars) == len(seen_bicolored)
    for b in stars:
        assert (b.graph.edge_word(), b.green) in seen_bicolored
        c = bicolored_to_split(b)
        assert split_to_bicolored(c) == b


def _embeddings(core_labels_count, n):
    """All strictly increasing label tuples of the given size inside 0..n-1."""
    return itertools.combinations(range(n), core_labels_count)


@pytest.mark.parametrize("n", range(2, 7))
def test_uk_compose_then_decompose_exhaustive(n):
    """decompose(compose(A, rest)) = (A, rest) over every composable input."""
    total = 0
    for k in range(2, n + 1):
        m = n - k
        rests = _colored_structures(m)
        for labels in _embeddings(m, n):
            a = tuple(sorted(set(range(n)) - set(labels)))
            if len(a) != k:
                continue
            for core in rests:
                rest = EmbeddedColored(labels, core)
                out = uk_compose(a, rest)
                assert out.labels == tuple(range(n))
                a2, rest2 = uk_decompose(out.core)
                assert a2 == a and rest2 == rest
                total += 1
    from conftest import UK_LABELED

    assert total == UK_LABELED[n]  # the convolution count identity, realized


@pytest.mark.parametrize("n", range(1, 7))
def test_amb_compose_then_decompose_exhaustive(n):
    total = 0
    m = n - 1
    balanced = _graphs_of_class(m, 0)
    for a in range(n):
        labels = tuple(v for v in range(n) if v != a)
        for core in balanced:
            rest = EmbeddedGraph(labels, core)
            out = amb_compose(a, rest)
            a2, rest2 = amb_decompose(out.core)
            assert a2 == a and rest2 == rest
            total += 1
    from conftest import UAMB_LABELED

    assert total == UAMB_LABELED[n]


@pytest.mark.parametrize("n", range(2, 7))
def test_cuk_compose_then_decompose_exhaustive(n):
    total = 0
    for k in range(2, n + 1):
        m = n - k
        rests = _colored_structures(m)
        for labels in _embeddings(m, n):
            members = tuple(sorted(set(range(n)) - set(labels)))
            if len(members) != k:
                continue
            for point in members:
                ps = PointedSet(members, point)
                for core in rests:
                    rest = EmbeddedColored(labels, core)
                    out = cuk_compose(ps, rest)
                    ps2, rest2 = cuk_decompose(out)
                    assert ps2 == ps and rest2 == rest
                    total += 1
    # colored k-canonical count: sum_k C(n,k) * k * cs_{n-k}
    from conftest import CS_LABELED

    assert total == sum(comb(n, k) * k * CS_LABELED[n - k] for k in range(2, n + 1))


# ---------------------------------------------------------------------------
# Random round trips at n = 7
# ---------------------------------------------------------------------------

def test_round_trips_random_n7():
    rng = random.Random(42)
    kcan = _graphs_of_class(7, 2)
    amb = _graphs_of_class(7, 1)
    for _ in range(1000):
        g = rng.choice(kcan)
        a, rest = uk_decompose(g)
        assert uk_compose(a, rest).core == g
        colored = rng.choice(all_colorings(g))
        ps, crest = cuk_decompose(colored)
        assert cuk_compose(ps, crest).core == colored
        assert bicolored_to_split(split_to_bicolored(colored)) == colored

        h = rng.choice(amb)
        v, hrest = amb_decompose(h)
        assert amb_compose(v, hrest).core == h


# ---------------------------------------------------------------------------
# Equivariance (naturality)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", range(0, 6))
def test_uk_equivariance_exhaustive(n):
    for g in _graphs_of_class(n, 2):
        a, rest = uk_decompose(g)
        for p in itertools.permutations(range(n)):
            a2, rest2 = uk_decompose(relabel(g, p))
            assert a2 == tuple(sorted(p[v] for v in a))
            assert rest2 == rest.relabeled(p)


@pytest.mark.parametrize("n", range(0, 6))
def test_amb_equivariance_exhaustive(n):
    for g in _graphs_of_class(n, 1):
        a, rest = amb_decompose(g)
        for p in itertools.permutations(range(n)):
            a2, rest2 = amb_decompose(relabel(g, p))
            assert a2 == p[a]
            assert rest2 == rest.relabeled(p)


@pytest.mark.parametrize("n", range(0, 6))
def test_cuk_and_bicolored_equivariance_exhaustive(n):
    for c in _colored_structures(n):
        is_kcan = classify(c.graph) is SplitClass.K_CANONICAL
        base = cuk_decompose(c) if is_kcan else None
        base_b = split_to_bicolored(c)
        for p in itertools.permutations(range(n)):
            relabeled = EmbeddedColored.whole(c).relabeled(p).core
            b2 = split_to_bicolored(relabeled)
            assert b2.graph == relabel(base_b.graph, p)
            assert b2.green == tuple(sorted(p[v] for v in base_b.green))
            if is_kcan:
                ps2, rest2 = cuk_decompose(relabeled)
                ps, rest = base
                assert ps2 == PointedSet(tuple(sorted(p[v] for v in ps.elements)), p[ps.point])
                assert rest2 == rest.relabeled(p)


def test_equivariance_random_n6_n7():
    rng = random.Random(4242)
    for n in (6, 7):
        kcan = _graphs_of_class(n, 2)
        amb = _graphs_of_class(n, 1)
        for _ in range(150):
            p = list(range(n))
            rng.shuffle(p)
            g = rng.choice(kcan)
            a, rest = uk_decompose(g)
            a2, rest2 = uk_decompose(relabel(g, p))
            assert a2 == tuple(sorted(p[v] for v in a)) and rest2 == rest.relabeled(p)
            h = rng.choice(amb)
            v, hrest = amb_decompose(h)
            v2, hrest2 = amb_decompose(relabel(h, p))
            assert v2 == p[v] and hrest2 == hrest.relabeled(p)


# ---------------------------------------------------------------------------
# Count identities implied by the bijections
# ---------------------------------------------------------------------------

def test_convolution_count_identities(census7):
    """uk, amb, cuk, and bicolored identities on oracle counts, n <= 6."""
    lab = [census7[n].labeled for n in range(8)]
    for n in range(0, 7):
        cs = [lab[m][ClassTag.COLORED_SPLIT] for m in range(n + 1)]
        assert lab[n][ClassTag.K_CANONICAL] == sum(
            comb(n, k) * cs[n - k] for k in range(2, n + 1)
        )
        if n >= 1:
            assert lab[n][ClassTag.AMBIGUOUS] == n * lab[n - 1][ClassTag.BALANCED]
        assert lab[n][ClassTag.COLORED_SPLIT] == lab[n][ClassTag.BICOLORED_NO_ISOLATED_GREEN]


# ---------------------------------------------------------------------------
# Pinned outputs and relabeling errors
# ---------------------------------------------------------------------------

# sha256 of the JSON lines of ``_bijection_outputs``, pinned when each map
# still built its graph rows by hand: a changed label, edge or colour of any
# output changes it
BIJECTION_OUTPUTS_SHA256 = "dcbd789d182d85a2e380deb914a58fc3f97bb0f57b39b4b4ef7424ac827510f8"

# two maps of the label universe 0..15: one reverses it, one rotates it
_PERMS = (tuple(range(15, -1, -1)), tuple((v + 5) % 16 for v in range(16)))


def _bijection_outputs():
    """The classification of every split graph with n <= 5, each map and its
    inverse on it and on its colorings, and every remainder relabeled."""
    for n in range(6):
        for g in enumerate_labeled(n, ClassTag.SPLIT):
            rep = swing_report(g)
            cls = classify_report(rep)
            yield [cls.value, rep.to_json()]
            rests = []
            if cls is SplitClass.K_CANONICAL:
                a, rest = uk_decompose(g)
                rests.append(rest)
                yield [list(a), rest.to_json(), uk_compose(a, rest).to_json()]
            elif cls is SplitClass.AMBIGUOUS:
                a, rest = amb_decompose(g)
                rests.append(rest)
                yield [a, rest.to_json(), amb_compose(a, rest).to_json()]
            elif cls is SplitClass.BALANCED and n < 5:
                rests.append(EmbeddedGraph.whole(g))
                yield amb_compose(n, g).to_json()
            for c in all_colorings(g):
                b = split_to_bicolored(c)
                yield [c.to_json(), b.to_json(), bicolored_to_split(b).to_json()]
                rests.append(EmbeddedColored.whole(c))
                if n < 4:
                    yield uk_compose((n, n + 1), c).to_json()
                if cls is SplitClass.K_CANONICAL:
                    ps, rest = cuk_decompose(c)
                    rests.append(rest)
                    yield [ps.to_json(), rest.to_json(), cuk_compose(ps, rest).to_json()]
            for rest in rests:
                yield [rest.relabeled(p).to_json() for p in _PERMS]


def test_bijection_outputs_are_pinned():
    digest = hashlib.sha256()
    for out in _bijection_outputs():
        digest.update(json.dumps(out, sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == BIJECTION_OUTPUTS_SHA256


def _embedded_p3(carrier):
    g = path_graph(3)
    return EmbeddedGraph.whole(g) if carrier == "graph" else EmbeddedColored.whole(all_colorings(g)[0])


@pytest.mark.parametrize("carrier", ["graph", "colored"])
@pytest.mark.parametrize("p", [(5, 5, 2), (3, 3, 7), (0, 2, 0)])
def test_relabeled_refuses_a_map_that_is_not_injective(carrier, p):
    with pytest.raises(MalformedInput):
        _embedded_p3(carrier).relabeled(p)


@pytest.mark.parametrize("carrier", ["graph", "colored"])
@pytest.mark.parametrize("p", [(0, 1, 16), (16, 17, 18), (2, 30, 1), (-1, 0, 1)])
def test_relabeled_refuses_an_image_outside_the_label_universe(carrier, p):
    with pytest.raises(OutOfRange):
        _embedded_p3(carrier).relabeled(p)


@pytest.mark.parametrize("carrier, labels, core", [
    (EmbeddedGraph, (0, 1, 2), make_graph(2, [(0, 1)])),
    (EmbeddedGraph, (5,), make_graph(2, [])),
    (EmbeddedColored, (3,), ColoredSplitGraph(make_graph(2, [(0, 1)]), (0,), (1,))),
    (EmbeddedColored, (), ColoredSplitGraph(empty_graph(1), (), (0,))),
], ids=["graph-long", "graph-short", "colored-short", "colored-none"])
def test_the_internal_entry_refuses_labels_that_do_not_fit_the_core(carrier, labels, core):
    """Labels read off a mask that do not number the core's vertices are a
    bug: BrokenInvariant, an InternalError, where the constructor raises
    LengthMismatch, a bad-input error."""
    with pytest.raises(BrokenInvariant):
        carrier.on(labels, core)
    with pytest.raises(LengthMismatch):
        carrier(labels, core)


# ---------------------------------------------------------------------------
# Seeded round trips, equivariance and pinned outputs at n = 12..16
# ---------------------------------------------------------------------------

_KINDS = ("balanced", "ambiguous", "k-canonical", "s-canonical")


def _balanced_rows(rng, n):
    """Rows of a balanced split graph on n >= 4 vertices, with its clique mask.

    The clique is 0..k-1 (2 <= k <= n - 2), the stable set k..n-1.  Every
    clique vertex sees a stable vertex and every stable vertex misses a clique
    vertex, so no vertex changes sides and no pair trades places: the
    partition is unique.
    """
    while True:
        k = rng.randint(2, n - 2)
        clique = (1 << k) - 1
        rows = [clique ^ 1 << v if v < k else 0 for v in range(n)]
        for v in range(k):
            for u in range(k, n):
                if rng.random() < 0.5:
                    rows[v] |= 1 << u
                    rows[u] |= 1 << v
        if all(rows[v] >> k for v in range(k)) and \
                all(rows[u] & clique != clique for u in range(k, n)):
            return rows, clique


def _split_graph(rng, n, kind):
    """A graph of the class ``kind`` on n >= 6 vertices, its vertices shuffled.

    A balanced graph plus a swing set A: A is a clique joined to the whole
    clique side, one vertex for an ambiguous graph and 2..n-4 of them for a
    k-canonical one; an s-canonical graph is the complement of a k-canonical one.
    """
    swings = {"balanced": 0, "ambiguous": 1}.get(kind)
    if swings is None:
        swings = rng.randint(2, n - 4)
    rows, clique = _balanced_rows(rng, n - swings)
    joined = clique | ((1 << n) - 1 ^ (1 << n - swings) - 1)
    rows += [joined ^ 1 << v for v in range(n - swings, n)]
    for v in range(n - swings):
        if clique >> v & 1:
            rows[v] |= joined ^ clique
    g = Graph(n, tuple(rows))
    if kind == "s-canonical":
        g = complement(g)
    p = list(range(n))
    rng.shuffle(p)
    g = relabel(g, p)
    assert classify(g).value == kind
    return g


def _shuffled(rng, n):
    p = list(range(n))
    rng.shuffle(p)
    return p


def _image(p, labels):
    return tuple(sorted(p[v] for v in labels))


@pytest.mark.parametrize("n", range(12, 17))
def test_round_trips_and_equivariance_at_workload_sizes(n):
    """All four pairs on seeded graphs of n vertices: compose(decompose(g)) = g,
    decompose(compose(a, rest)) = (a, rest) with the rest on a scattered label
    set, decompositions commute with relabeling, and compositions with maps of
    the whole universe 0..15 (so onto label sets with gaps)."""
    rng = random.Random(f"bijections/{n}")
    inserted, removed_top = set(), 0
    for i in range(48):
        kind = _KINDS[i % 4]
        g = _split_graph(rng, n, kind)
        whole = EmbeddedGraph.whole(g)
        p, q = _shuffled(rng, n), _shuffled(rng, 16)
        h = relabel(g, p)
        if kind == "k-canonical":
            a, rest = uk_decompose(g)
            removed_top += n - 1 in a
            assert uk_compose(a, rest) == whole
            assert uk_decompose(h) == (_image(p, a), rest.relabeled(p))
            assert uk_compose(_image(q, a), rest.relabeled(q)) == whole.relabeled(q)
            inserted.update(_image(q, a))
            for c in all_colorings(g):
                ps, crest = cuk_decompose(c)
                assert cuk_compose(ps, crest) == EmbeddedColored.whole(c)
                moved = EmbeddedColored.whole(c).relabeled(p)
                assert cuk_decompose(moved) == (
                    PointedSet(_image(p, ps.elements), p[ps.point]), crest.relabeled(p))
                qps = PointedSet(_image(q, ps.elements), q[ps.point])
                assert cuk_compose(qps, crest.relabeled(q)) == EmbeddedColored.whole(c).relabeled(q)
        elif kind == "ambiguous":
            a, rest = amb_decompose(g)
            removed_top += a == n - 1
            assert amb_compose(a, rest) == whole
            assert amb_decompose(h) == (p[a], rest.relabeled(p))
            assert amb_compose(q[a], rest.relabeled(q)) == whole.relabeled(q)
            inserted.add(q[a])
        for c in all_colorings(g):
            b = split_to_bicolored(c)
            assert bicolored_to_split(b) == c
            moved = EmbeddedColored.whole(c).relabeled(p).core
            assert split_to_bicolored(moved) == BicoloredGraph(
                relabel(b.graph, p), _image(p, b.green), _image(p, b.red))

        # compositions onto a rest whose labels have gaps, the new labels anywhere in 0..n-1
        if kind == "balanced":
            a = rng.randrange(n)
            rest = EmbeddedGraph(tuple(v for v in range(n) if v != a), _split_graph(rng, n - 1, kind))
            out = amb_compose(a, rest)
            assert out.labels == tuple(range(n)) and amb_decompose(out.core) == (a, rest)
            inserted.add(a)
        colored = all_colorings(_split_graph(rng, n - 3, kind))
        a = tuple(sorted(rng.sample(range(n), 3)))
        rest = EmbeddedColored(tuple(v for v in range(n) if v not in a), rng.choice(colored))
        out = uk_compose(a, rest)
        assert out.labels == tuple(range(n)) and uk_decompose(out.core) == (a, rest)
        ps = PointedSet(a, rng.choice(a))
        out = cuk_compose(ps, rest)
        assert out.labels == tuple(range(n)) and cuk_decompose(out) == (ps, rest)
        inserted.update(a)
    assert {0, n - 1} <= inserted and removed_top  # ranks inserted at both ends, the top one deleted


# sha256 of the JSON lines of ``_bijection_outputs_at_workload_sizes``, pinned
# while every map still moved its pieces through edge lists
LARGE_BIJECTION_OUTPUTS_SHA256 = "f2ba988356a3b1115e74d379201a12091d72315703a39edc94791b51375b3771"


def _bijection_outputs_at_workload_sizes():
    """200 seeded graphs, 40 of each size n = 12..16 and 50 of each class: the
    swing report, each decomposition and its composition, the composition of
    the images under a map of 0..15, every coloring's bicolored round trip and
    cuk pair, compositions onto scattered label sets, and every piece relabeled."""
    rng = random.Random("bijection-outputs")
    for i in range(200):
        n, kind = 12 + i % 5, _KINDS[i // 5 % 4]
        g = _split_graph(rng, n, kind)
        q = _shuffled(rng, 16)
        rep = swing_report(g)
        yield [kind, rep.to_json()]
        pieces = [EmbeddedGraph.whole(g)]
        if kind == "k-canonical":
            a, rest = uk_decompose(g)
            pieces.append(rest)
            yield [list(a), rest.to_json(), uk_compose(a, rest).to_json(),
                   uk_compose(_image(q, a), rest.relabeled(q)).to_json()]
        elif kind == "ambiguous":
            a, rest = amb_decompose(g)
            pieces.append(rest)
            yield [a, rest.to_json(), amb_compose(a, rest).to_json(),
                   amb_compose(q[a], rest.relabeled(q)).to_json()]
        elif kind == "balanced" and n < 16:
            yield amb_compose(q[n], EmbeddedGraph.whole(g).relabeled(q)).to_json()
        for c in all_colorings(g):
            b = split_to_bicolored(c)
            yield [c.to_json(), b.to_json(), bicolored_to_split(b).to_json()]
            whole = EmbeddedColored.whole(c)
            pieces.append(whole)
            if n < 15:
                yield uk_compose((q[n], q[n + 1]), whole.relabeled(q)).to_json()
            if kind == "k-canonical":
                ps, rest = cuk_decompose(c)
                pieces.append(rest)
                qps = PointedSet(_image(q, ps.elements), q[ps.point])
                yield [ps.to_json(), rest.to_json(), cuk_compose(ps, rest).to_json(),
                       cuk_compose(qps, rest.relabeled(q)).to_json()]
        for piece in pieces:
            yield [piece.relabeled(p).to_json() for p in (q, _shuffled(rng, 16))]


def test_bijection_outputs_at_workload_sizes_are_pinned():
    digest = hashlib.sha256()
    for out in _bijection_outputs_at_workload_sizes():
        digest.update(json.dumps(out, sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == LARGE_BIJECTION_OUTPUTS_SHA256
