"""Exact evaluation of the growth formulas and ratio inequalities.

The bicolored count grows like  c(n) * C(n, n/2) * 2^{n^2/4}  with a constant
that depends only on the parity of n:

    c(even) = sum_{k in Z} 2^{-k^2}          ~ 2.128937
    c(odd)  = sum_{k in Z} 2^{-(k+1/2)^2}    ~ 2.128931

c(even) = theta_even and c(odd) = 2^{-1/4} theta_odd, theta_odd = sum_{k in Z}
2^{-k(k+1)}; at odd n the 2^{-1/4} cancels the 2^{1/4} in 2^{n^2/4}.  So the
growth formula is C(n, floor(n/2)) * 2^{floor(n^2/4)} * theta_{parity(n)}, a
dyadic series that ``asymptotic_bicolored`` brackets between two integers.

Every pass/fail decision here is made in exact integer arithmetic on squared
forms (for example b_n/b_{n-1} >= 2^{(n+1)/2} becomes
b_n^2 >= 2^{n+1} b_{n-1}^2).  The ratio report prints 17 digits of exact
ratios, and of integer brackets for its two irrational columns: no floats.
"""

from __future__ import annotations

from math import comb, factorial, isqrt
from typing import Callable

from .counting import MAX_FORMULA_N, bicolored_labeled, split_labeled
from .errors import BrokenInvariant, OutOfRange, check_size
from .record import Record
from .series import MAX_CHAIN_ORDER, derive_labeled_chain, derive_unlabeled_chain

DEFAULT_BITS = 256
MIN_BITS = 64  # least precision; the irrational report columns start at it
MAX_BITS = 1 << 16  # most precision: bracket sizes and times grow with it


def theta(parity: str, bits: int = DEFAULT_BITS) -> tuple[int, int]:
    """Integers (lo, hi) with lo <= 2^bits * theta_parity <= hi = lo + 4, where
    theta_even = sum_{k in Z} 2^{-k^2} and theta_odd = sum_{k in Z} 2^{-k(k+1)}.

    ``lo`` sums the terms 2^{bits-e} with e <= bits; the rest add less than 2.
    """
    if parity not in ("even", "odd"):
        raise OutOfRange(f"parity must be 'even' or 'odd', got {parity!r}")
    check_size(bits, low=MIN_BITS, high=MAX_BITS, what="bits")
    odd = parity == "odd"
    total, k = (0, 0) if odd else (1 << bits, 1)
    while k * (k + odd) <= bits:
        total += 2 << (bits - k * (k + odd))  # the +k and -k (or -k-1) terms together
        k += 1
    return total, total + 4


def asymptotic_bicolored(n: int, bits: int = DEFAULT_BITS) -> tuple[int, int]:
    """Integers (lo, hi) bracketing 2^bits * C(n, floor(n/2)) * 2^{floor(n^2/4)}
    * theta_{parity(n)}, that is 2^bits * c(n) * C(n, floor(n/2)) * 2^{n^2/4}."""
    check_size(n, low=1)
    lo, hi = theta("odd" if n % 2 else "even", bits)
    scale = comb(n, n // 2) << (n * n // 4)
    return scale * lo, scale * hi


# ---------------------------------------------------------------------------
# Exact inequality checks
# ---------------------------------------------------------------------------

def _ratio_at_least_sqrt2_power(x_n: int, x_prev: int, n: int) -> bool:
    """x_n / x_prev >= 2^{(n+1)/2}, exactly, via squaring."""
    return x_n * x_n >= (1 << (n + 1)) * x_prev * x_prev


def _u_over_s_within_bound(u_n: int, s_n: int, n: int) -> bool:
    """u_n / s_n <= n^2 / 2^{(n+1)/2}, exactly, via squaring."""
    return (1 << (n + 1)) * u_n * u_n <= n**4 * s_n * s_n


_RATIO_COUNTERS = {"bicolored": bicolored_labeled, "split": split_labeled}


def check_b_ratio(n_max: int, kind: str = "bicolored") -> list[int]:
    """All n <= n_max violating x_n/x_{n-1} >= 2^{(n+1)/2} (exact check).

    ``kind`` selects the sequence: "bicolored" (b_n) or "split" (s_n).
    The violations form an initial segment; past it the inequality holds.
    """
    check_size(n_max, high=MAX_FORMULA_N, what="n_max")
    counter = _RATIO_COUNTERS.get(kind)
    if counter is None:
        raise OutOfRange(f"kind must be one of {sorted(_RATIO_COUNTERS)}, got {kind!r}")
    prev = counter(0)
    violations = []
    for n in range(1, n_max + 1):
        cur = counter(n)
        if not _ratio_at_least_sqrt2_power(cur, prev, n):
            violations.append(n)
        prev = cur
    return violations


def check_b_ratio_unlabeled(base: list[int]) -> list[int]:
    """Violations of b~_n/b~_{n-1} >= 2^{(n+1)/2}/n on supplied unlabeled data.

    ``base`` holds unlabeled split counts s~_0..s~_m; the bicolored values
    are their partial sums, read off the unlabeled chain.
    """
    btilde = derive_unlabeled_chain(base)["BC"]
    violations = []
    for n in range(1, len(btilde)):
        if n * n * btilde[n] ** 2 < (1 << (n + 1)) * btilde[n - 1] ** 2:
            violations.append(n)
    return violations


def u_over_s_bound_violations(n_max: int) -> list[int]:
    """All n <= n_max violating u_n/s_n <= n^2 / 2^{(n+1)/2} (exact check)."""
    chain = derive_labeled_chain(check_size(n_max, what="n_max"))
    u, s = chain["U"], chain["S"]
    violations = []
    for n in range(1, n_max + 1):
        if not _u_over_s_within_bound(u[n], s[n], n):
            violations.append(n)
    return violations


def u_over_s_monotone_from(n_max: int) -> int:
    """Smallest N with u_n/s_n strictly decreasing for all n >= N up to n_max.

    Comparisons are exact cross-multiplications.
    """
    chain = derive_labeled_chain(check_size(n_max, what="n_max"))
    u, s = chain["U"], chain["S"]
    threshold = 1
    for n in range(1, n_max):
        # decreasing step n -> n+1 means u_{n+1} s_n < u_n s_{n+1}
        if not u[n + 1] * s[n] < u[n] * s[n + 1]:
            threshold = n + 1
    return threshold


# ---------------------------------------------------------------------------
# Ratio report
# ---------------------------------------------------------------------------

def _decimal(num: int, den: int) -> str:
    """num/den > 0 printed as ``mpmath.nstr(num/den, 17)`` prints it.

    Truncate to 20 significant digits, round half up to 17, print in fixed
    form when the decimal exponent e has -5 < e < 17, and strip trailing zeros.
    """
    e = (num.bit_length() - den.bit_length() - 1) * 30103 // 100000 - 1  # <= log10(num/den)
    digits = num * 10 ** (19 - e) // den if e <= 19 else num // (den * 10 ** (e - 19))
    extra = len(str(digits)) - 20  # 20 to 23 digits; a floor of a floor truncates
    digits, e = (digits // 10**extra + 500) // 1000, e + extra
    if digits == 10**17:  # the rounding carried into an 18th digit
        digits, e = 10**16, e + 1
    text = str(digits)
    if -5 < e < 17:
        text = "0." + "0" * (-1 - e) + text if e < 0 else text[:e + 1] + "." + text[e + 1:]
        exponent = ""
    else:
        text, exponent = text[0] + "." + text[1:], f"e{e:+d}"
    text = text.rstrip("0")
    return (text + "0" if text.endswith(".") else text) + exponent


def _bracketed(ends) -> str:
    """Print the real number between the fractions (num, den) that ``ends(p)``
    gives at p bits.  Printing is monotone, so once both ends print alike, so
    does the number; until then the precision doubles from MIN_BITS, up to
    MAX_BITS.
    """
    bits = MIN_BITS
    while True:
        low, high = (_decimal(num, den) for num, den in ends(bits))
        if low == high:
            return low
        if bits == MAX_BITS:
            raise BrokenInvariant(f"a {bits}-bit bracket does not settle 17 digits")
        bits = min(2 * bits, MAX_BITS)


def _b_ratio(n: int, b_n: int) -> str:
    """b_n / asymptotic(n), from one ``asymptotic_bicolored`` call per precision."""
    def ends(p):
        lo, hi = asymptotic_bicolored(n, p)
        return (b_n << p, hi), (b_n << p, lo)
    return _bracketed(ends)


def _bound(n: int) -> str:
    """n^2 / 2^{(n+1)/2}: exact at odd n, n^2 sqrt(2) / 2^{n/2+1} at even n."""
    if n % 2:
        return _decimal(n * n, 1 << (n + 1) // 2)

    def ends(p):
        root = isqrt(2 << 2 * p)  # root <= 2^p sqrt(2) < root + 1
        den = 1 << (n // 2 + 1 + p)
        return (n * n * root, den), (n * n * (root + 1), den)
    return _bracketed(ends)


class RatioRow(Record):
    """One labeled row: ``b_ratio`` is b_n / asymptotic(n), ``bound`` is
    n^2 / 2^{(n+1)/2}, and ``bound_holds`` the exact test u_n/s_n <= bound.
    The ratios are their printed 17-digit strings."""

    __slots__ = _fields = ("n", "b_ratio", "s_over_b", "u_over_s", "bound", "bound_holds")


class UnlabeledRatioRow(Record):
    """One unlabeled row; ``scaled_labeled``, b~_n * n! / b_n, is observational only.
    The ratios are their printed 17-digit strings."""

    __slots__ = _fields = ("n", "s_tilde", "b_tilde", "u_tilde", "s_over_b", "u_over_s",
                           "scaled_labeled")


class RatioReport(Record):
    """The rows of ``ratio_report``, labeled and (optionally) unlabeled."""

    __slots__ = _fields = ("rows", "unlabeled_rows")

    def to_json(self) -> dict:
        return {"rows": [dict(zip(r._fields, r._values)) for r in self.rows],
                "unlabeled_rows": [dict(zip(r._fields, r._values)) for r in self.unlabeled_rows]}

    def to_csv(self) -> str:
        # the columns are the fields; bound_holds prints as true or false
        lines = [",".join(RatioRow._fields)]
        lines += [",".join(str(v).lower() for v in r._values) for r in self.rows]
        if self.unlabeled_rows:
            lines.append(",".join(UnlabeledRatioRow._fields))
            lines += [",".join(map(str, r._values)) for r in self.unlabeled_rows]
        return "\n".join(lines) + "\n"


def ratio_report(n_max: int, unlabeled_base: list[int] | Callable[[], list[int]] | None = None,
                 what: str = "n_max") -> RatioReport:
    """Exact counts with their asymptotic and mutual ratios, for n = 1..n_max.

    The two irrational columns start at MIN_BITS of precision, and each
    doubles as needed to settle its 17 printed digits.  If ``unlabeled_base``
    (unlabeled split counts s~_0..s~_m, or a function that returns them) is
    supplied, unlabeled analogue rows follow, including the observational
    b~_n * n!/b_n column.  The chain's cap ``MAX_CHAIN_ORDER`` caps n_max
    and m.  n_max is checked first, under the name ``what``, so a base given
    as a function (a file read, say) is called only for a good n_max.
    """
    check_size(n_max, high=MAX_CHAIN_ORDER, what=what)
    if callable(unlabeled_base):
        unlabeled_base = unlabeled_base()
    # the unlabeled chain checks its base, so a bad base fails before the labeled chain is built
    tilde = None if unlabeled_base is None else derive_unlabeled_chain(unlabeled_base)
    chain = derive_labeled_chain(n_max)
    b, u, s = chain["BC"], chain["U"], chain["S"]
    rows = [RatioRow(n=n, b_ratio=_b_ratio(n, b[n]), s_over_b=_decimal(s[n], b[n]),
                     u_over_s=_decimal(u[n], s[n]), bound=_bound(n),
                     bound_holds=_u_over_s_within_bound(u[n], s[n], n))
            for n in range(1, n_max + 1)]
    unlabeled_rows = []
    if tilde is not None:
        for n in range(1, len(unlabeled_base)):
            s_t, b_t, u_t = tilde["S"][n], tilde["BC"][n], tilde["U"][n]
            unlabeled_rows.append(UnlabeledRatioRow(
                n=n, s_tilde=s_t, b_tilde=b_t, u_tilde=u_t,
                s_over_b=_decimal(s_t, b_t),
                u_over_s=_decimal(u_t, s_t),
                scaled_labeled=_decimal(b_t * factorial(n), bicolored_labeled(n)),
            ))
    return RatioReport(rows, unlabeled_rows)
