"""Parity constants, growth-rate ratios, and the exact inequality checks.

mpmath is the oracle here: it sums the parity constants as Jacobi theta
values and renders the report's ratios, which the package computes and
prints from integers alone.
"""

import json
import os

import mpmath
import pytest

from splitspecies.asymptotics import (
    DEFAULT_BITS,
    MAX_BITS,
    MIN_BITS,
    _bracketed,
    _decimal,
    asymptotic_bicolored,
    check_b_ratio,
    check_b_ratio_unlabeled,
    ratio_report,
    theta,
    u_over_s_bound_violations,
    u_over_s_monotone_from,
)
from splitspecies.counting import bicolored_labeled, chain_count, split_labeled
from splitspecies.errors import BrokenInvariant, OutOfRange, TooLarge
from splitspecies.series import derive_labeled_chain

from conftest import S_UNLABELED, TESTDATA


def _thresholds():
    with open(os.path.join(TESTDATA, "thresholds.json")) as f:
        return json.load(f)


def parity_constants(bits=256):
    """c(even) = theta_even and c(odd) = 2^{-1/4} theta_odd, from ``theta`` at ``bits``."""
    with mpmath.workprec(bits):
        even = mpmath.ldexp(theta("even", bits)[0], -bits)
        odd = mpmath.ldexp(theta("odd", bits)[0], -bits) * mpmath.mpf(2) ** (-mpmath.mpf(1) / 4)
        return even, odd


def abs_err(n, bits=256, digits=8):
    """``mpmath.nstr(|b_n / asymptotic(n) - 1|, digits)``, the same from both ends
    of the integer bracket."""
    lo, hi = asymptotic_bicolored(n, bits)
    with mpmath.workprec(bits):
        ends = {mpmath.nstr(abs(mpmath.mpf(bicolored_labeled(n) << bits) / end - 1), digits)
                for end in (lo, hi)}
    assert len(ends) == 1, (n, ends)
    return ends.pop()


def test_c_constants_match_known_digits():
    even, odd = parity_constants()
    assert abs(even - mpmath.mpf("2.128937")) < 1e-6
    assert abs(odd - mpmath.mpf("2.128931")) < 1e-6


def test_c_constants_bracket():
    even, odd = parity_constants(256)
    assert mpmath.mpf("2.12893") < odd < even < mpmath.mpf("2.12894")


@pytest.mark.parametrize("bits", [MIN_BITS, DEFAULT_BITS, 1000])
def test_theta_brackets_the_jacobi_theta_values(bits):
    """theta_even = theta_3(0, 1/2); theta_odd = 2^{1/4} theta_2(0, 1/2)."""
    with mpmath.workprec(bits + 64):
        half = mpmath.mpf(1) / 2
        exact = {"even": mpmath.jtheta(3, 0, half),
                 "odd": mpmath.mpf(2) ** (half / 2) * mpmath.jtheta(2, 0, half)}
        for parity, value in exact.items():
            lo, hi = theta(parity, bits)
            assert hi == lo + 4
            assert lo <= mpmath.ldexp(value, bits) <= hi, parity


def test_c_constant_refinement_consistency():
    for parity in ("even", "odd"):
        lo, hi = theta(parity, 64)
        lo2, hi2 = theta(parity, 256)
        assert lo << 192 <= lo2 <= hi2 <= hi << 192


def test_c_constant_rejects_bad_input():
    with pytest.raises(OutOfRange):
        theta("both")
    with pytest.raises(OutOfRange):
        theta("even", 32)
    with pytest.raises(TooLarge):
        theta("odd", MAX_BITS + 1)


def test_asymptotic_value_smoke():
    lo, hi = asymptotic_bicolored(4)
    b = bicolored_labeled(4) << DEFAULT_BITS
    assert 0 < b < 2 * lo and lo < hi  # no closeness claim this small, just sanity


def test_asymptotic_handles_large_n_without_overflow():
    lo, _ = asymptotic_bicolored(400)
    assert lo.bit_length() - DEFAULT_BITS > 39000  # 2^{n^2/4} dominates


def test_b_over_asymptotic_error_decreasing_by_parity():
    for anchors in ((50, 100, 150, 200), (51, 101, 151, 201)):
        errs = [mpmath.mpf(abs_err(n)) for n in anchors]
        assert all(errs[i] > errs[i + 1] for i in range(len(errs) - 1))
    assert mpmath.mpf(abs_err(200)) < mpmath.mpf("0.01")


def test_b_over_asymptotic_error_matches_pinned_anchors():
    pins = _thresholds()["b_over_asymptotic_abs_err"]
    assert sorted(pins, key=int) == ["50", "51", "100", "101", "150", "151", "200", "201"]
    assert {n: abs_err(int(n)) for n in pins} == pins


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
    assert chain_count("U", 3) == split_labeled(3)  # ratio exactly 1 at n = 3
    # and the bound holds from the pinned threshold on
    pins = _thresholds()
    start = pins["u_over_s_bound_threshold"]
    for n in range(start, 60):
        u, s = chain_count("U", n), split_labeled(n)
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
        assert min(float(x) for x in (r.b_ratio, r.s_over_b, r.u_over_s, r.bound)) > 0
    assert [r.n for r in report.unlabeled_rows] == list(range(1, 8))
    for r in report.unlabeled_rows:
        assert float(r.scaled_labeled) > 0  # observational column only
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


def _mpmath_row(n, s_n, u_n):
    """One labeled report row as mpmath renders it at 272 bits."""
    b_n = bicolored_labeled(n)
    with mpmath.workprec(DEFAULT_BITS + 16):
        half = mpmath.mpf(1) / 2
        c = mpmath.jtheta(2 if n % 2 else 3, 0, half)  # the sums over k + 1/2 or k
        asym = c * mpmath.binomial(n, n // 2) * mpmath.mpf(2) ** (mpmath.mpf(n * n) / 4)
        bound = mpmath.mpf(n * n) / mpmath.mpf(2) ** (mpmath.mpf(n + 1) / 2)
        return [mpmath.nstr(x, 17) for x in (
            mpmath.mpf(b_n) / asym, mpmath.mpf(s_n) / b_n, mpmath.mpf(u_n) / s_n, bound)]


def test_ratio_report_prints_what_mpmath_prints():
    """Every printed ratio agrees with mpmath's 17 digits of the same quantity."""
    report = ratio_report(201)
    chain = derive_labeled_chain(201)
    for n in list(range(1, 41)) + [99, 100, 200, 201]:
        r = report.rows[n - 1]
        expected = _mpmath_row(n, chain["S"][n], chain["U"][n])
        assert [r.b_ratio, r.s_over_b, r.u_over_s, r.bound] == expected, n


@pytest.mark.parametrize("num, den", [
    (1, 2), (1, 3), (2, 3), (10**17 - 1, 1), (10**17, 1), (2**70, 1),
    (10**20 - 1, 1), (10**20 - 1, 10**25), (1, 10**4), (1, 10**5), (99999, 10**9),
    (999999999999999999, 10**22), (999999999999999949, 10**21), (7, 2**200),
    (2**300 + 1, 3**190),
])
def test_decimal_prints_like_mpmath_nstr_17(num, den):
    """Fixed and exponent forms, the carry of a rounding into an 18th digit,
    and the stripped zeros all follow ``mpmath.nstr(x, 17)``."""
    with mpmath.workprec(2000):
        assert _decimal(num, den) == mpmath.nstr(mpmath.mpf(num) / den, 17)


def test_precision_doubles_until_the_bracket_settles():
    """At 64 bits, where the report starts, the b_ratio bracket at n = 79
    straddles a 17-digit rounding boundary; the report doubles the precision
    and prints the 256-bit digits."""
    b = bicolored_labeled(79)
    lo, hi = asymptotic_bicolored(79, MIN_BITS)
    assert _decimal(b << MIN_BITS, hi) != _decimal(b << MIN_BITS, lo)
    lo, hi = asymptotic_bicolored(79, DEFAULT_BITS)
    settled = _decimal(b << DEFAULT_BITS, hi)
    assert settled == _decimal(b << DEFAULT_BITS, lo)
    assert ratio_report(79).rows[78].b_ratio == settled


def test_unsettled_bracket_at_the_cap_is_an_internal_error():
    seen = []

    def ends(p):
        seen.append(p)
        return (1, 3), (2, 3)
    with pytest.raises(BrokenInvariant):
        _bracketed(ends)
    assert seen == [MIN_BITS << k for k in range((MAX_BITS // MIN_BITS).bit_length())]
    assert seen[-1] == MAX_BITS
