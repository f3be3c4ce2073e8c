"""Parity constants, growth-rate ratios, and the exact inequality checks."""

import json
import os

import mpmath
import pytest

from splitspecies.asymptotics import (
    asymptotic_bicolored,
    c_constant,
    check_b_ratio,
    check_b_ratio_unlabeled,
    ratio_report,
    u_over_s_bound_violations,
    u_over_s_monotone_from,
)
from splitspecies.counting import bicolored_labeled, split_labeled, unbalanced_labeled
from splitspecies.errors import TooLarge

from conftest import S_UNLABELED, TESTDATA


def _thresholds():
    with open(os.path.join(TESTDATA, "thresholds.json")) as f:
        return json.load(f)


def test_c_constants_match_known_digits():
    even = c_constant("even")
    odd = c_constant("odd")
    assert abs(even - mpmath.mpf("2.128937")) < 1e-6
    assert abs(odd - mpmath.mpf("2.128931")) < 1e-6


def test_c_constants_bracket():
    even = c_constant("even", 256)
    odd = c_constant("odd", 256)
    assert mpmath.mpf("2.12893") < odd < even < mpmath.mpf("2.12894")


def test_c_constant_refinement_consistency():
    lo = c_constant("even", 64)
    hi = c_constant("even", 256)
    assert abs(lo - hi) < mpmath.mpf(2) ** -60


def test_c_constant_rejects_bad_input():
    with pytest.raises(ValueError):
        c_constant("both")
    with pytest.raises(ValueError):
        c_constant("even", 32)


def test_asymptotic_value_smoke():
    value = asymptotic_bicolored(4)
    ratio = mpmath.mpf(bicolored_labeled(4)) / value
    assert 0 < ratio < 2  # no closeness claim this small, just sanity


def test_asymptotic_handles_large_n_without_overflow():
    value = asymptotic_bicolored(400)
    assert mpmath.log(value, 2) > 39000  # 2^{n^2/4} dominates


def test_b_over_asymptotic_error_decreasing_by_parity():
    for anchors in ((50, 100, 150, 200), (51, 101, 151, 201)):
        errs = []
        for n in anchors:
            r = mpmath.mpf(bicolored_labeled(n)) / asymptotic_bicolored(n)
            errs.append(abs(r - 1))
        assert all(errs[i] > errs[i + 1] for i in range(len(errs) - 1))
    final = mpmath.mpf(bicolored_labeled(200)) / asymptotic_bicolored(200)
    assert abs(final - 1) < mpmath.mpf("0.01")


def test_b_ratio_exact_examples():
    # b_2/b_1 = 3 >= 2^{3/2}: squared comparison 36 >= 8 * 4
    assert bicolored_labeled(2) ** 2 >= (1 << 3) * bicolored_labeled(1) ** 2
    assert check_b_ratio(2, "bicolored") == []


def test_ratio_violations_match_pinned_thresholds():
    pins = _thresholds()
    assert check_b_ratio(200, "bicolored") == pins["bicolored_ratio_violations"]
    assert check_b_ratio(200, "split") == pins["split_ratio_violations"]
    assert u_over_s_bound_violations(120) == pins["u_over_s_bound_violations"]
    assert u_over_s_monotone_from(120) == pins["u_over_s_monotone_from"]


def test_b_ratio_check_too_large():
    with pytest.raises(TooLarge):
        check_b_ratio(501)


def test_violations_form_initial_segment():
    viol = check_b_ratio(120, "split")
    assert viol == list(range(1, len(viol) + 1))


def test_u_over_s_examples():
    assert unbalanced_labeled(3) == split_labeled(3)  # ratio exactly 1 at n = 3
    # and the bound holds from the pinned threshold on
    pins = _thresholds()
    start = pins["u_over_s_bound_threshold"]
    for n in range(start, 60):
        u, s = unbalanced_labeled(n), split_labeled(n)
        assert (1 << (n + 1)) * u * u <= n**4 * s * s


def test_unlabeled_ratio_check():
    assert check_b_ratio_unlabeled(S_UNLABELED) == []
    # s~_n = b~_n - b~_{n-1} holds exactly on the oracle data
    btilde = [sum(S_UNLABELED[: k + 1]) for k in range(len(S_UNLABELED))]
    for n in range(1, len(S_UNLABELED)):
        assert S_UNLABELED[n] == btilde[n] - btilde[n - 1]


def test_ratio_report_shape_and_flags():
    report = ratio_report(30, unlabeled_base=S_UNLABELED)
    assert [r.n for r in report.rows] == list(range(1, 31))
    for r in report.rows:
        assert r.b_ratio > 0 and r.s_over_b > 0 and r.u_over_s > 0 and r.bound > 0
    assert [r.n for r in report.unlabeled_rows] == list(range(1, 8))
    for r in report.unlabeled_rows:
        assert r.scaled_labeled > 0  # observational column only
    data = report.to_json()
    assert len(data["rows"]) == 30
    csv = report.to_csv()
    assert csv.splitlines()[0].startswith("n,b_ratio")
    assert report.to_csv() == csv  # deterministic


def test_short_unlabeled_base_gives_no_rows():
    for base in ([], [1]):
        assert ratio_report(5, unlabeled_base=base).unlabeled_rows == []
        assert check_b_ratio_unlabeled(base) == []


def test_ratio_report_bound_column_is_exact():
    report = ratio_report(40)
    pins = _thresholds()
    start = pins["u_over_s_bound_threshold"]
    for r in report.rows:
        assert r.bound_holds == (r.n >= start or r.n not in pins["u_over_s_bound_violations"])
