"""High-precision evaluation of the growth formulas and ratio inequalities.

The bicolored count grows like  c(n) * C(n, n/2) * 2^{n^2/4}  with a constant
that depends only on the parity of n:

    c(even) = sum_{k in Z} 2^{-k^2}          ~ 2.128937
    c(odd)  = sum_{k in Z} 2^{-(k+1/2)^2}    ~ 2.128931

Every pass/fail decision here is made in exact integer arithmetic on squared
forms (for example b_n/b_{n-1} >= 2^{(n+1)/2} becomes
b_n^2 >= 2^{n+1} b_{n-1}^2); arbitrary-precision floats (mpmath, default 256
bits) are used only to report the ratios themselves.  mpmath is imported by
the functions that use it, on first use, so the exact checks do not load it.
"""

from __future__ import annotations

from math import comb, factorial

from .counting import MAX_FORMULA_N, bicolored_labeled, split_labeled
from .errors import OutOfRange, check_size
from .record import Record
from .series import check_unlabeled_base, derive_labeled_chain, derive_unlabeled_chain

DEFAULT_BITS = 256
MIN_BITS = 64  # least working precision of the reported ratios


def c_constant(parity: str, bits: int = DEFAULT_BITS):
    """The parity constant, summed until the tail is below 2^-bits."""
    import mpmath

    if parity not in ("even", "odd"):
        raise OutOfRange(f"parity must be 'even' or 'odd', got {parity!r}")
    check_size(bits, low=MIN_BITS, what="bits")
    with mpmath.workprec(bits + 16):
        two = mpmath.mpf(2)
        half = mpmath.mpf(1) / 2
        total = mpmath.mpf(1) if parity == "even" else mpmath.mpf(0)
        k = 1 if parity == "even" else 0
        while True:
            expo = -(k * k) if parity == "even" else -((k + half) ** 2)
            term = 2 * two**expo  # the +k and -k (or -k-1) terms together
            total += term
            if term < two ** (-bits - 8):
                break
            k += 1
        return +total


def asymptotic_bicolored(n: int, bits: int = DEFAULT_BITS):
    """c(n) * C(n, floor(n/2)) * 2^{n^2/4}, as an arbitrary-precision float."""
    import mpmath

    check_size(n, low=1)
    with mpmath.workprec(bits + 16):
        c = c_constant("even" if n % 2 == 0 else "odd", bits)
        return +(c * comb(n, n // 2) * mpmath.mpf(2) ** (mpmath.mpf(n * n) / 4))


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
    check_unlabeled_base(base)
    btilde = derive_unlabeled_chain(len(base) - 1, base)["BC"]
    violations = []
    for n in range(1, len(btilde)):
        if n * n * btilde[n] ** 2 < (1 << (n + 1)) * btilde[n - 1] ** 2:
            violations.append(n)
    return violations


def u_over_s_bound_violations(n_max: int) -> list[int]:
    """All n <= n_max violating u_n/s_n <= n^2 / 2^{(n+1)/2} (exact check)."""
    chain = derive_labeled_chain(max(check_size(n_max, what="n_max"), 8))
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
    chain = derive_labeled_chain(max(check_size(n_max, what="n_max"), 8))
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

class RatioRow(Record):
    """One labeled row: ``b_ratio`` is b_n / asymptotic(n), ``bound`` is
    n^2 / 2^{(n+1)/2}, and ``bound_holds`` the exact test u_n/s_n <= bound."""

    __slots__ = _fields = ("n", "b_ratio", "s_over_b", "u_over_s", "bound", "bound_holds")

    def __init__(self, n: int, b_ratio, s_over_b, u_over_s, bound, bound_holds: bool):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "b_ratio", b_ratio)
        object.__setattr__(self, "s_over_b", s_over_b)
        object.__setattr__(self, "u_over_s", u_over_s)
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "bound_holds", bound_holds)


class UnlabeledRatioRow(Record):
    """One unlabeled row; ``scaled_labeled``, b~_n * n! / b_n, is observational only."""

    __slots__ = _fields = ("n", "s_tilde", "b_tilde", "u_tilde", "s_over_b", "u_over_s",
                           "scaled_labeled")

    def __init__(self, n: int, s_tilde: int, b_tilde: int, u_tilde: int, s_over_b, u_over_s,
                 scaled_labeled):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "s_tilde", s_tilde)
        object.__setattr__(self, "b_tilde", b_tilde)
        object.__setattr__(self, "u_tilde", u_tilde)
        object.__setattr__(self, "s_over_b", s_over_b)
        object.__setattr__(self, "u_over_s", u_over_s)
        object.__setattr__(self, "scaled_labeled", scaled_labeled)


class RatioReport(Record):
    """The rows of ``ratio_report``, labeled and (optionally) unlabeled."""

    __slots__ = _fields = ("bits", "rows", "unlabeled_rows")

    def __init__(self, bits: int, rows: list[RatioRow] | None = None,
                 unlabeled_rows: list[UnlabeledRatioRow] | None = None):
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "rows", [] if rows is None else rows)
        object.__setattr__(self, "unlabeled_rows", [] if unlabeled_rows is None else unlabeled_rows)

    def to_json(self) -> dict:
        import mpmath

        def fmt(x):
            return mpmath.nstr(x, 17)

        return {
            "bits": self.bits,
            "rows": [
                {"n": r.n, "b_ratio": fmt(r.b_ratio), "s_over_b": fmt(r.s_over_b),
                 "u_over_s": fmt(r.u_over_s), "bound": fmt(r.bound),
                 "bound_holds": r.bound_holds}
                for r in self.rows
            ],
            "unlabeled_rows": [
                {"n": r.n, "s_tilde": r.s_tilde, "b_tilde": r.b_tilde,
                 "u_tilde": r.u_tilde, "s_over_b": fmt(r.s_over_b),
                 "u_over_s": fmt(r.u_over_s), "scaled_labeled": fmt(r.scaled_labeled)}
                for r in self.unlabeled_rows
            ],
        }

    def to_csv(self) -> str:
        import mpmath

        def fmt(x):
            return mpmath.nstr(x, 17)

        lines = ["n,b_ratio,s_over_b,u_over_s,bound,bound_holds"]
        for r in self.rows:
            lines.append(f"{r.n},{fmt(r.b_ratio)},{fmt(r.s_over_b)},{fmt(r.u_over_s)},"
                         f"{fmt(r.bound)},{str(r.bound_holds).lower()}")
        if self.unlabeled_rows:
            lines.append("n,s_tilde,b_tilde,u_tilde,s_over_b,u_over_s,scaled_labeled")
            for r in self.unlabeled_rows:
                lines.append(f"{r.n},{r.s_tilde},{r.b_tilde},{r.u_tilde},"
                             f"{fmt(r.s_over_b)},{fmt(r.u_over_s)},{fmt(r.scaled_labeled)}")
        return "\n".join(lines) + "\n"


def ratio_report(n_max: int, bits: int = DEFAULT_BITS,
                 unlabeled_base: list[int] | None = None) -> RatioReport:
    """Exact counts with their asymptotic and mutual ratios, for n = 1..n_max.

    If ``unlabeled_base`` (unlabeled split counts s~_0..s~_m) is supplied,
    unlabeled analogue rows are appended, including the observational
    b~_n * n!/b_n column.  The chain's cap ``MAX_CHAIN_ORDER`` caps n_max.
    """
    import mpmath

    check_size(bits, low=MIN_BITS, what="bits")
    if unlabeled_base is not None:
        check_unlabeled_base(unlabeled_base)
    chain = derive_labeled_chain(max(check_size(n_max, what="n_max"), 8))
    u, s = chain["U"], chain["S"]
    report = RatioReport(bits=bits)
    with mpmath.workprec(bits + 16):
        for n in range(1, n_max + 1):
            b_n = bicolored_labeled(n)
            asym = asymptotic_bicolored(n, bits)
            bound = mpmath.mpf(n * n) / mpmath.mpf(2) ** (mpmath.mpf(n + 1) / 2)
            report.rows.append(RatioRow(
                n=n,
                b_ratio=+(mpmath.mpf(b_n) / asym),
                s_over_b=+(mpmath.mpf(s[n]) / mpmath.mpf(b_n)),
                u_over_s=+(mpmath.mpf(u[n]) / mpmath.mpf(s[n])),
                bound=+bound,
                bound_holds=_u_over_s_within_bound(u[n], s[n], n),
            ))
        if unlabeled_base is not None:
            tilde = derive_unlabeled_chain(len(unlabeled_base) - 1, unlabeled_base)
            for n in range(1, len(unlabeled_base)):
                s_t, b_t, u_t = tilde["S"][n], tilde["BC"][n], tilde["U"][n]
                report.unlabeled_rows.append(UnlabeledRatioRow(
                    n=n, s_tilde=s_t, b_tilde=b_t, u_tilde=u_t,
                    s_over_b=+(mpmath.mpf(s_t) / b_t),
                    u_over_s=+(mpmath.mpf(u_t) / s_t),
                    scaled_labeled=+(mpmath.mpf(b_t) * factorial(n) / bicolored_labeled(n)),
                ))
    return report
