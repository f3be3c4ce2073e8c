"""Acceptance gate: the eight binding criteria, one test and one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass lines.  Every comparison is exact (integers, or squared integer forms
for the ratio inequalities); the only tolerances are the ones stated here:
six decimal places for the parity constants and one percent for the
asymptotic ratio at n = 200.
"""

import itertools
import json
import random
import time
from math import comb

import mpmath
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
from splitspecies.asymptotics import asymptotic_bicolored, theta
from splitspecies.counting import (
    bicolored_labeled,
    split_labeled,
    split_labeled_bp,
)
from splitspecies.enumeration import ClassTag, enumerate_labeled
from splitspecies.graphs import Graph, relabel
from splitspecies.series import (
    EGF,
    OGF,
    SeriesName,
    constant,
    convert,
    derive_labeled_chain,
    from_fractions,
    monomial,
    named,
)
from splitspecies.structure import SplitClass, all_colorings, classify


def report(criterion, text):
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


def test_criterion_1_formula_agreement_to_318():
    start = time.monotonic()
    for n in range(1, 319):
        assert split_labeled_bp(n) == split_labeled(n), f"formulas disagree at n={n}"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"318-order sweep took {elapsed:.1f}s (target < 60s)"
    report(1, f"double-sum and subtraction formulas agree exactly for n <= 318 "
              f"({elapsed:.1f}s)")


def test_criterion_2_labeled_oracle_vs_formulas(census7):
    chain = derive_labeled_chain(7)
    s_counts = chain["S"]
    u_counts = chain["U"]
    b_counts = chain["B"]
    assert [split_labeled(n) for n in range(1, 7)] == [1, 2, 8, 58, 632, 9654]
    for n in range(0, 7):
        lab = census7[n].labeled
        assert lab[ClassTag.BICOLORED] == bicolored_labeled(n)
        assert lab[ClassTag.SPLIT] == split_labeled(n)
        assert lab[ClassTag.SPLIT] == s_counts[n]
        assert lab[ClassTag.UNBALANCED] == u_counts[n]
        assert lab[ClassTag.BALANCED] == b_counts[n]
        assert lab[ClassTag.COLORED_SPLIT] == lab[ClassTag.BICOLORED_NO_ISOLATED_GREEN]
    report(2, "brute-force labeled counts equal the formula and series values, n <= 6")


def test_criterion_3_unlabeled_identities(census7):
    s_tilde = [census7[n].unlabeled[ClassTag.SPLIT] for n in range(8)]
    for n in range(0, 8):
        unl = census7[n].unlabeled
        assert unl[ClassTag.UNBALANCED] == sum(s_tilde[:n])
        assert unl[ClassTag.BICOLORED] == sum(s_tilde[: n + 1])
        assert unl[ClassTag.COLORED_SPLIT] == unl[ClassTag.SPLIT]
    report(3, "unlabeled partial-sum and colored-count identities hold exactly, n <= 7")


def _class_graphs(n, code):
    from splitspecies.enumeration import _split_data

    data = _split_data(n)
    return [Graph.from_edge_word(n, int(data.words[q]))
            for q in range(len(data.words)) if int(data.classes[q]) == code]


def test_criterion_4_bijection_suite(census7):
    checked = 0
    # exhaustive round trips, n <= 6
    for n in range(0, 7):
        for g in _class_graphs(n, 2):
            a, rest = uk_decompose(g)
            assert uk_compose(a, rest).core == g
            checked += 1
        for g in _class_graphs(n, 1):
            a, rest = amb_decompose(g)
            assert amb_compose(a, rest).core == g
            checked += 1
        for c in enumerate_labeled(n, ClassTag.COLORED_SPLIT):
            if classify(c.graph) is SplitClass.K_CANONICAL:
                ps, rest = cuk_decompose(c)
                assert cuk_compose(ps, rest).core == c
                checked += 1
            b = split_to_bicolored(c)
            assert bicolored_to_split(b) == c
            checked += 1
    # equivariance, exhaustive n <= 4, then randomized below
    for n in range(0, 5):
        for g in _class_graphs(n, 2):
            a, rest = uk_decompose(g)
            for p in itertools.permutations(range(n)):
                a2, rest2 = uk_decompose(relabel(g, p))
                assert a2 == tuple(sorted(p[v] for v in a))
                assert rest2 == rest.relabeled(p)
                checked += 1
    # inverse direction: every composable input at n <= 6, every embedding
    for n in range(1, 7):
        for k in range(1, n + 1):
            m = n - k
            colored_rests = list(enumerate_labeled(m, ClassTag.COLORED_SPLIT))
            balanced_rests = _class_graphs(m, 0)
            for labels in itertools.combinations(range(n), m):
                attach = tuple(sorted(set(range(n)) - set(labels)))
                if k >= 2:
                    for core in colored_rests:
                        rest = EmbeddedColored(labels, core)
                        out = uk_compose(attach, rest)
                        assert uk_decompose(out.core) == (attach, rest)
                        checked += 1
                        for point in attach:
                            ps = PointedSet(attach, point)
                            cout = cuk_compose(ps, rest)
                            assert cuk_decompose(cout) == (ps, rest)
                            checked += 1
                if k == 1:
                    (a,) = attach
                    for core in balanced_rests:
                        rest = EmbeddedGraph(labels, core)
                        out = amb_compose(a, rest)
                        assert amb_decompose(out.core) == (a, rest)
                        checked += 1
    # random cases at n = 7: round trips and equivariance for all four pairs
    rng = random.Random(318)
    kcan7 = _class_graphs(7, 2)
    amb7 = _class_graphs(7, 1)
    for _ in range(1000):
        p = list(range(7))
        rng.shuffle(p)
        g = rng.choice(kcan7)
        a, rest = uk_decompose(g)
        assert uk_compose(a, rest).core == g
        a2, rest2 = uk_decompose(relabel(g, p))
        assert a2 == tuple(sorted(p[v] for v in a)) and rest2 == rest.relabeled(p)
        colored = rng.choice(all_colorings(g))
        ps, crest = cuk_decompose(colored)
        assert cuk_compose(ps, crest).core == colored
        relabeled = EmbeddedColored.whole(colored).relabeled(p).core
        ps2, crest2 = cuk_decompose(relabeled)
        assert ps2 == PointedSet(tuple(sorted(p[v] for v in ps.elements)), p[ps.point])
        assert crest2 == crest.relabeled(p)
        b = split_to_bicolored(colored)
        assert bicolored_to_split(b) == colored
        b2 = split_to_bicolored(relabeled)
        assert b2.graph == relabel(b.graph, p)
        assert b2.green == tuple(sorted(p[v] for v in b.green))
        h = rng.choice(amb7)
        v, hrest = amb_decompose(h)
        assert amb_compose(v, hrest).core == h
        v2, hrest2 = amb_decompose(relabel(h, p))
        assert v2 == p[v] and hrest2 == hrest.relabeled(p)
        checked += 9
    # implied convolution identities on oracle counts, n <= 6
    lab = [census7[n].labeled for n in range(8)]
    for n in range(0, 7):
        cs = [lab[m][ClassTag.COLORED_SPLIT] for m in range(n + 1)]
        assert lab[n][ClassTag.K_CANONICAL] == sum(comb(n, k) * cs[n - k]
                                                   for k in range(2, n + 1))
        if n >= 1:
            assert lab[n][ClassTag.AMBIGUOUS] == n * lab[n - 1][ClassTag.BALANCED]
        assert lab[n][ClassTag.COLORED_SPLIT] == lab[n][ClassTag.BICOLORED_NO_ISOLATED_GREEN]
    report(4, f"round trips, equivariance, and count identities: {checked} cases, 0 failures")


def test_criterion_5_series_integrality_to_100():
    """The class series, built as RationalSeries products from the bicolored
    closed form alone, have integer counts equal to the integer chain."""
    order = 100
    chain = derive_labeled_chain(order)
    one = constant(1, EGF, order)
    x = monomial(EGF, order)
    a = named(SeriesName.A_FACTOR, EGF, order)
    bc = convert(from_fractions([bicolored_labeled(n) for n in range(order + 1)], OGF), EGF)
    series = {"BC": bc, "S": (one - x) * bc}
    series["U"] = a * series["S"]
    series["B"] = series["S"] - series["U"]
    series["cS"] = bc / named(SeriesName.E, EGF, order)
    series["UK"] = named(SeriesName.E_GE2, EGF, order) * series["cS"]
    series["Uamb"] = x * series["B"]
    assert series.keys() == chain.keys()
    for key, ser in series.items():
        counts = ser.counts()  # raises if any n! * coeff is fractional
        assert counts == chain[key], key
        assert all(v >= 0 for v in counts), key
    assert a.coeff(0) == 0
    assert all(0 <= a.coeff(i) <= 1 for i in range(order + 1))
    report(5, "class series from the bicolored closed form have non-negative integer "
              "counts equal to the integer chain to n = 100; 0 <= a_i <= 1 with a_0 = 0")


def test_criterion_6_asymptotics():
    bits = 256  # c(even) = theta_even, c(odd) = 2^{-1/4} theta_odd
    with mpmath.workprec(bits):
        c_even = mpmath.ldexp(theta("even", bits)[0], -bits)
        fourth_root = mpmath.mpf(2) ** (mpmath.mpf(1) / 4)
        c_odd = mpmath.ldexp(theta("odd", bits)[0], -bits) / fourth_root
        assert abs(c_even - mpmath.mpf("2.128937")) < 1e-6
        assert abs(c_odd - mpmath.mpf("2.128931")) < 1e-6

        def err(n):  # |b_n / asymptotic(n) - 1|, from the lower end of the bracket
            low_end = asymptotic_bicolored(n, bits)[0]
            return abs(mpmath.mpf(bicolored_labeled(n) << bits) / low_end - 1)

        for anchors in ((50, 100, 150, 200), (51, 101, 151, 201)):
            errs = [err(n) for n in anchors]
            assert all(errs[i] > errs[i + 1] for i in range(len(errs) - 1)), anchors
        assert err(200) < mpmath.mpf("0.01")
    chain = derive_labeled_chain(200)
    u = chain["U"]
    s = chain["S"]
    for n in range(2, 201):  # threshold pinned at 2 (only n = 1 violates)
        assert (1 << (n + 1)) * u[n] ** 2 <= n**4 * s[n] ** 2, n
    report(6, "parity constants to 6 decimals; |b_n/asym - 1| < 1% at 200 and "
              "decreasing per parity; u/s bound exact for 2 <= n <= 200")


def test_criterion_7_ratio_lemmas_to_500():
    prev_b = bicolored_labeled(0)
    prev_s = split_labeled(0)
    for n in range(1, 501):
        b = bicolored_labeled(n)
        s = split_labeled(n)
        if n >= 1:  # pinned threshold for the bicolored sequence
            assert b * b >= (1 << (n + 1)) * prev_b * prev_b, f"b-ratio fails at {n}"
        if n >= 3:  # pinned threshold for the split sequence
            assert s * s >= (1 << (n + 1)) * prev_s * prev_s, f"s-ratio fails at {n}"
        prev_b, prev_s = b, s
    report(7, "b and s growth-ratio inequalities hold exactly from their pinned "
              "thresholds (1 and 3) through n = 500")


def test_criterion_8_cli_determinism(capsys):
    from splitspecies.cli import main

    def run():
        code = main(["verify", "--suite", "identities", "--max-n", "6"])
        out = capsys.readouterr().out
        return code, out

    code1, out1 = run()
    code2, out2 = run()
    code3, out3 = run()
    assert code1 == code2 == code3 == 0
    assert out1 == out2 == out3
    assert json.loads(out1)["discrepancies"] == []
    report(8, "verify --suite identities exits 0 with byte-identical reports "
              "across three runs")
