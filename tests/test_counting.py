"""Closed-form counters, the double-sum formula, and the cross check."""

import sys
from fractions import Fraction
from math import comb

import pytest

from splitspecies.counting import (
    MAX_FORMULA_N,
    bicolored_labeled,
    chain_count,
    split_labeled,
    split_labeled_bp,
)
from splitspecies.checks import cross_check
from splitspecies.errors import NonIntegralResult
from splitspecies.series import decimal

from conftest import BC_LABELED, S_LABELED, U_LABELED


def test_bicolored_labeled_examples():
    assert bicolored_labeled(0) == 1
    assert bicolored_labeled(4) == 162
    assert bicolored_labeled(6) == 18306
    assert [bicolored_labeled(n) for n in range(8)] == BC_LABELED


def test_bicolored_labeled_matches_the_term_by_term_sum():
    """The halved sum equals sum_k C(n,k) 2^{k(n-k)} over every k, for every n <= 500."""
    for n in range(501):
        assert bicolored_labeled(n) == sum(comb(n, k) << (k * (n - k)) for k in range(n + 1)), n


def test_split_labeled_examples():
    assert split_labeled(3) == 8
    assert split_labeled(4) == 58
    assert split_labeled(5) == 632
    assert [split_labeled(n) for n in range(8)] == S_LABELED


def test_split_labeled_bp_examples():
    assert split_labeled_bp(3) == 8
    assert split_labeled_bp(4) == 58
    with pytest.raises(ValueError):
        split_labeled_bp(0)


def test_split_labeled_bp_rejects_a_non_integral_total(monkeypatch):
    import splitspecies.counting as counting
    from math import comb

    # one binomial off by one leaves the fractional part's numerator
    # indivisible by n + 1 = 6
    monkeypatch.setattr(counting, "comb", lambda a, b: comb(a, b) + ((a, b) == (6, 2)))
    with pytest.raises(NonIntegralResult):
        split_labeled_bp(5)


@pytest.mark.parametrize("n", list(range(1, 41)))
def test_formulas_agree_small(n):
    assert split_labeled_bp(n) == split_labeled(n)


def _double_sum_as_printed(n):
    """1 + sum_{k=2}^n C(n,k) [(2^k - 1)^{n-k}
    - sum_{j=1}^{n-k} (jk/(j+1)) C(n-k,j) (2^{k-1} - 1)^{n-k-j}], in Fractions."""
    return 1 + sum(comb(n, k) * ((2**k - 1) ** (n - k)
                                 - sum(Fraction(j * k, j + 1) * comb(n - k, j)
                                       * (2 ** (k - 1) - 1) ** (n - k - j)
                                       for j in range(1, n - k + 1)))
                   for k in range(2, n + 1))


def test_split_labeled_bp_is_the_double_sum_as_printed():
    """The paired Horner passes give the formula's own value, term order aside."""
    for n in range(1, 41):
        assert split_labeled_bp(n) == _double_sum_as_printed(n), n


def test_formulas_agree_at_the_cap():
    """The largest n the formulas suite takes, MAX_FORMULA_N; this is the one
    test that evaluates the double sum there (criterion 1 and the CLI sweep
    stop at 318)."""
    assert split_labeled_bp(MAX_FORMULA_N) == split_labeled(MAX_FORMULA_N)


def test_unbalanced_labeled_examples():
    assert chain_count("U", 1) == 1
    assert chain_count("U", 2) == 2
    assert chain_count("U", 3) == 8
    assert [chain_count("U", n) for n in range(8)] == U_LABELED
    assert chain_count("B", 4) == 12


def test_counts_partition():
    for n in range(0, 30):
        assert chain_count("U", n) + chain_count("B", n) == split_labeled(n)


def test_counters_monotone_nondecreasing():
    prev_s = prev_b = prev_u = 0
    for n in range(1, 40):
        s, b, u = split_labeled(n), bicolored_labeled(n), chain_count("U", n)
        assert s >= prev_s and b >= prev_b and u >= prev_u
        prev_s, prev_b, prev_u = s, b, u


def test_chain_count_keys():
    assert chain_count("UK", 6) == 1617
    assert chain_count("Uamb", 6) == 1440
    assert chain_count("cS", 7) == 227893


def test_cross_check_small_oracle():
    assert cross_check(6) == []


def test_cross_check_trivial():
    assert cross_check(0) == []


def test_decimal_handles_huge_counts():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        text = decimal(split_labeled(318))
        assert sys.get_int_max_str_digits() == 4300  # lifted only for the conversion
    finally:
        sys.set_int_max_str_digits(limit)
    assert text.isdigit() and len(text) > 4300


def test_decimal_leaves_the_digit_cap_alone(monkeypatch):
    """Printing past the int-to-str cap changes no process-wide setting."""
    def refuse(limit):
        raise AssertionError(f"decimal set the int-to-str digit cap to {limit}")
    monkeypatch.setattr(sys, "set_int_max_str_digits", refuse)
    assert decimal(10**5000 + 1) == "1" + "0" * 4999 + "1"
    assert decimal(-(10**5000 + 1)) == "-1" + "0" * 4999 + "1"
    assert decimal(-(10**1200)) == "-1" + "0" * 1200
    assert [decimal(v) for v in (0, 7, -7, 10**600 - 1)] == ["0", "7", "-7", "9" * 600]
