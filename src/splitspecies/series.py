"""Truncated power series with exact rational coefficients.

A series carries a counting convention tag, "egf" or "ogf".  The tag never
changes the arithmetic -- sums and Cauchy products act on raw coefficients --
but mixing tags in one expression is almost always a bug, so it raises.
Counts are read off per convention: n! * [x^n] for an egf, [x^n] for an ogf.

The named atoms cover the generating functions this package needs:

    E            exp(x)                 (labeled sets)
    X            x                      (a single element)
    E_GE1        exp(x) - 1             (nonempty sets)
    E_GE2        exp(x) - 1 - x         (sets of size >= 2)
    GEOMETRIC    1/(1-x)                (unlabeled sets / sequences)
    A_FACTOR     (2 - x - 2 exp(-x)) / (1 - x)
    U_FACTOR_LABELED    ((2-x) exp(x) - 2) / ((1-x) exp(x))
    U_FACTOR_UNLABELED  x / (1-x)

A_FACTOR and U_FACTOR_LABELED are two routes to the same function, the
multiplier that turns the split-graph series into the unbalanced-split-graph
series; computing both and comparing is one of the package's sanity checks.

The derivation chains return integer counts, not series:
``derive_labeled_chain`` gets every labeled class from the bicolored closed
form alone, by one binomial convolution (cS = BC / E) and recurrences, and
``derive_unlabeled_chain`` gets the unlabeled ones from a supplied base of
unlabeled split counts by running sums.  ``RationalSeries`` products of the
named atoms are their independent check; no production path builds one.
"""

from __future__ import annotations

import enum
from itertools import accumulate
from math import factorial
from typing import TYPE_CHECKING, Sequence

from .errors import (
    ConventionMismatch,
    MalformedInput,
    NonIntegralResult,
    NotAUnit,
    OutOfRange,
    check_size,
)
from .record import Record

if TYPE_CHECKING:  # fractions loads only where a Fraction is built
    from fractions import Fraction

EGF = "egf"
OGF = "ogf"


_LIMB = 10**600  # a limb prints in 600 digits, under any int-to-str digit cap (>= 640)


def decimal(value: int) -> str:
    """Decimal string of an arbitrarily large integer.

    Chain coefficients reach tens of thousands of digits, past the
    interpreter's int-to-str digit cap, so the value prints in base-10^600
    limbs; no process-wide setting changes.
    """
    sign, value = ("-", -value) if value < 0 else ("", value)
    limbs = []
    while value >= _LIMB:
        value, limb = divmod(value, _LIMB)
        limbs.append(limb)
    return sign + str(value) + "".join(f"{limb:0600d}" for limb in reversed(limbs))


class SeriesName(enum.Enum):
    E = "E"
    X = "X"
    E_GE1 = "E>=1"
    E_GE2 = "E>=2"
    GEOMETRIC = "1/(1-x)"
    A_FACTOR = "A"
    U_FACTOR_LABELED = "U-factor-labeled"
    U_FACTOR_UNLABELED = "U-factor-unlabeled"


class RationalSeries(Record):
    """Coefficients 0..order of a truncated power series, all exact rationals."""

    __slots__ = _fields = ("coeffs", "convention")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, i: int) -> Fraction:
        return self.coeffs[i]

    def counts(self) -> list[int]:
        """Structure counts per size; raises if any is not a whole number."""
        out = []
        for i, c in enumerate(self.coeffs):
            value = c * factorial(i) if self.convention == EGF else c
            if value.denominator != 1:
                raise NonIntegralResult(f"coefficient {i} gives non-integer count {value}")
            out.append(int(value))
        return out

    def truncated(self, order: int) -> "RationalSeries":
        return RationalSeries(self.coeffs[: order + 1], self.convention)

    def __add__(self, other: "RationalSeries") -> "RationalSeries":
        a, b = _aligned(self, other)
        return RationalSeries(tuple(x + y for x, y in zip(a.coeffs, b.coeffs)), a.convention)

    def __sub__(self, other: "RationalSeries") -> "RationalSeries":
        a, b = _aligned(self, other)
        return RationalSeries(tuple(x - y for x, y in zip(a.coeffs, b.coeffs)), a.convention)

    def __mul__(self, other: "RationalSeries") -> "RationalSeries":
        from fractions import Fraction

        a, b = _aligned(self, other)
        n = a.order
        out = [Fraction(0)] * (n + 1)
        for i, x in enumerate(a.coeffs):
            if x == 0:
                continue
            for j in range(n + 1 - i):
                y = b.coeffs[j]
                if y:
                    out[i + j] += x * y
        return RationalSeries(tuple(out), a.convention)

    def __truediv__(self, other: "RationalSeries") -> "RationalSeries":
        a, b = _aligned(self, other)
        if b.coeffs[0] == 0:
            raise NotAUnit("division requires a nonzero constant term")
        n = a.order
        inv_b0 = 1 / b.coeffs[0]
        out: list[Fraction] = []
        for i in range(n + 1):
            acc = a.coeffs[i]
            for j in range(1, i + 1):
                if b.coeffs[j]:
                    acc -= b.coeffs[j] * out[i - j]
            out.append(acc * inv_b0)
        return RationalSeries(tuple(out), a.convention)


def _aligned(a: RationalSeries, b: RationalSeries) -> tuple[RationalSeries, RationalSeries]:
    if a.convention != b.convention:
        raise ConventionMismatch(f"{a.convention} vs {b.convention}")
    order = min(a.order, b.order)
    return a.truncated(order), b.truncated(order)


def from_fractions(values: Sequence, convention: str) -> RationalSeries:
    from fractions import Fraction

    return RationalSeries(tuple(Fraction(v) for v in values), convention)


def constant(value, convention: str, order: int) -> RationalSeries:
    return from_fractions([value] + [0] * order, convention)


def monomial(convention: str, order: int) -> RationalSeries:
    """The series x."""
    from fractions import Fraction

    coeffs = [Fraction(0)] * (order + 1)
    if order >= 1:
        coeffs[1] = Fraction(1)
    return RationalSeries(tuple(coeffs), convention)


def convert(s: RationalSeries, to_convention: str) -> RationalSeries:
    """Reinterpret the same counts under the other convention."""
    if s.convention == to_convention:
        return s
    if to_convention == OGF:  # egf -> ogf: multiply by n!
        coeffs = tuple(c * factorial(i) for i, c in enumerate(s.coeffs))
    else:
        coeffs = tuple(c / factorial(i) for i, c in enumerate(s.coeffs))
    return RationalSeries(coeffs, to_convention)


def named(name: SeriesName, convention: str, order: int) -> RationalSeries:
    """The named atomic series, truncated at the given order."""
    from fractions import Fraction

    if name is SeriesName.E:
        return from_fractions([Fraction(1, factorial(i)) for i in range(order + 1)], convention)
    if name is SeriesName.X:
        return monomial(convention, order)
    if name is SeriesName.E_GE1:
        return named(SeriesName.E, convention, order) - constant(1, convention, order)
    if name is SeriesName.E_GE2:
        return named(SeriesName.E_GE1, convention, order) - monomial(convention, order)
    if name is SeriesName.GEOMETRIC:
        return from_fractions([1] * (order + 1), convention)
    if name is SeriesName.A_FACTOR:
        # 2 - x - 2e^{-x}, then the 1/(1-x) partial-sum factor
        numer = [Fraction(0), Fraction(1)] + [
            Fraction(-2 * (-1) ** i, factorial(i)) for i in range(2, order + 1)
        ]
        numer = from_fractions(numer[: order + 1], convention)
        return numer / (constant(1, convention, order) - monomial(convention, order))
    if name is SeriesName.U_FACTOR_LABELED:
        e = named(SeriesName.E, convention, order)
        one = constant(1, convention, order)
        two_minus_x = constant(2, convention, order) - monomial(convention, order)
        return (two_minus_x * e - constant(2, convention, order)) / ((one - monomial(convention, order)) * e)
    if name is SeriesName.U_FACTOR_UNLABELED:
        return from_fractions([0] + [1] * order, convention)
    raise OutOfRange(f"unknown series name {name}")


# ---------------------------------------------------------------------------
# Derivation chains
# ---------------------------------------------------------------------------

MAX_CHAIN_ORDER = 400  # largest order of the labeled chain, hence of every report built on it


def _check_non_negative(counts: dict[str, list[int]]) -> None:
    for key, values in counts.items():
        for i, count in enumerate(values):
            if count < 0:
                raise NonIntegralResult(f"{key} count at {i} is negative")


def derive_labeled_chain(order: int) -> dict[str, list[int]]:
    """All labeled class counts at sizes 0..order, from the bicolored closed form.

    Returns count lists keyed "BC", "S", "U", "B", "cS", "UK", "Uamb", the
    egf identities

        S    = (1 - x) BC          U  = A * S          B = S - U
        cS   = BC / E              UK = E_{>=2} * cS   Uamb = x * B

    read on counts.  cS = BC / E is the one binomial convolution,
    bc_n = sum_k C(n,k) cs_k.  E cS = BC and E_{>=2} = E - 1 - x give
    UK = BC - (1 + x) cS, so uk_n = bc_n - cs_n - n cs_{n-1}.  With
    A = (2 - x - 2e^{-x}) / (1 - x), e^{-x} S = (1 - x) cS gives
    (1 - x) U = (2 - x) S - 2 (1 - x) cS, so u_n = n u_{n-1} + 2 s_n
    - n s_{n-1} - 2 (cs_n - n cs_{n-1}).  Both are 0 at n = 0.  The
    RationalSeries products of the named atoms are the independent check of
    these identities.  Every count is checked to be non-negative.
    """
    check_size(order, high=MAX_CHAIN_ORDER, what="chain order")
    from .counting import bicolored_labeled  # counting imports this module

    bc = [bicolored_labeled(0)]
    s, cs, u, uk = bc[:], bc[:], [0], [0]
    row = [1]  # C(n, k) for k = 0..n, one Pascal row at a time
    for n in range(1, order + 1):
        row = [1] + [row[k - 1] + row[k] for k in range(1, n)] + [1]
        bc.append(bicolored_labeled(n))
        s.append(bc[n] - n * bc[n - 1])
        cs.append(bc[n] - sum(row[k] * cs[k] for k in range(n)))
        uk.append(bc[n] - cs[n] - n * cs[n - 1])
        u.append(n * u[n - 1] + 2 * s[n] - n * s[n - 1] - 2 * (cs[n] - n * cs[n - 1]))
    b = [x - y for x, y in zip(s, u)]
    uamb = [n * b[n - 1] if n else 0 for n in range(order + 1)]
    counts = {"BC": bc, "S": s, "U": u, "B": b, "cS": cs, "UK": uk, "Uamb": uamb}
    _check_non_negative(counts)
    return counts


def check_unlabeled_base(base: Sequence[int]) -> None:
    """Raise MalformedInput unless ``base`` can be unlabeled split counts s~_0..s~_m.

    The terms must be positive integers, each at least the sum of those
    before it: s~_n - (s~_0 + ... + s~_{n-1}) counts the unlabeled balanced
    graphs.  Past this check a negative chain count is a bug, not bad data.
    A base longer than the labeled chain's, MAX_CHAIN_ORDER + 1 terms,
    raises TooLarge.
    """
    if not isinstance(base, (list, tuple)) or not all(type(v) is int and v > 0 for v in base):
        raise MalformedInput("an unlabeled base must be a list of positive integers")
    check_size(len(base), high=MAX_CHAIN_ORDER + 1, what="unlabeled base length")
    if any(v < total for v, total in zip(base, accumulate(base, initial=0))):
        raise MalformedInput("each unlabeled base term must be at least the sum of those before it")


def derive_unlabeled_chain(base: Sequence[int]) -> dict[str, list[int]]:
    """Unlabeled class counts at sizes 0..m, from unlabeled split counts s~_0..s~_m.

    Returns count lists keyed "S", "U", "B", "BC", the ogf identities

        U = x/(1-x) * S        BC = 1/(1-x) * S        B = S - U

    read on counts: BC_n = s~_0 + ... + s~_n and U_n = BC_n - s~_n.  The
    base is checked first (check_unlabeled_base); past that check a negative
    count is a bug (NonIntegralResult).
    """
    check_unlabeled_base(base)
    s = list(base)
    bc = list(accumulate(s))
    u = [t - x for t, x in zip(bc, s)]
    b = [x - y for x, y in zip(s, u)]
    counts = {"S": s, "U": u, "B": b, "BC": bc}
    _check_non_negative(counts)
    return counts
