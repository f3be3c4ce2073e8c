"""Closed-form counters and cross-formula verification.

Two independent formulas count labeled split graphs:

* ``split_labeled``: b_n - n * b_{n-1}, where b_n = sum_k C(n,k) 2^{k(n-k)}
  counts labeled bicolored graphs;
* ``split_labeled_bp``: the older double sum

      1 + sum_{k=2}^n C(n,k) [ (2^k - 1)^{n-k}
            - sum_{j=1}^{n-k} (jk/(j+1)) C(n-k,j) (2^{k-1} - 1)^{n-k-j} ]

  whose inner terms are genuinely fractional.  It is evaluated term by term
  in integers: the identities C(m,j)/(j+1) = C(m+1,j+1)/(m+1) and
  C(n,k)/(n-k+1) = C(n+1,k)/(n+1) put every fractional term over the one
  denominator n + 1, the inner j-sum runs by Horner's rule in 2^{k-1} - 1,
  and the fractional part's numerator must divide by n + 1 exactly.

``cross_check`` compares the two for every n up to a bound -- hundreds of
orders in a few seconds -- and also compares all formula- and series-derived
counts against the exhaustive enumeration oracle at small n.
"""

from __future__ import annotations

import time
from math import comb

from .errors import NonIntegralResult, OutOfRange, check_size
from .record import Record
from .series import decimal, derive_labeled_chain, derive_unlabeled_chain

MAX_FORMULA_N = 500  # largest n_max of the formula checks (cross_check, check_b_ratio)


def bicolored_labeled(n: int) -> int:
    """Labeled bicolored graphs: choose the green set, then any cross edges.

    b_n = sum_k C(n,k) 2^{k(n-k)}, whose terms k and n - k are equal: the
    terms below n/2 are summed once, with a running binomial, and doubled,
    and an even n adds the middle term.
    """
    half = 0
    c = 1  # C(n, k)
    for k in range((check_size(n) + 1) // 2):
        half += c << (k * (n - k))
        c = c * (n - k) // (k + 1)
    if n % 2:
        return 2 * half
    return 2 * half + (c << (n * n // 4))  # the middle term, k = n/2


def split_labeled(n: int) -> int:
    """Labeled split graphs: b_n - n * b_{n-1} (bicolored_labeled checks n)."""
    if n == 0:
        return 1
    return bicolored_labeled(n) - n * bicolored_labeled(n - 1)


def split_labeled_bp(n: int) -> int:
    """Labeled split graphs by the double-sum formula, term by exact term.

    Raises NonIntegralResult if the total fails to come out an integer
    (which would mean an implementation error, not an input error).
    """
    check_size(n, low=1)
    whole = 1
    frac = 0  # the fractional terms, all over the one denominator n + 1
    for k in range(2, n + 1):
        m = n - k
        whole += comb(n, k) * ((1 << k) - 1) ** m
        acc = 0  # sum_j j C(m+1, j+1) (2^{k-1} - 1)^{m-j}, by Horner's rule
        c = m + 1  # C(m+1, j) before the update below, C(m+1, j+1) after it
        for j in range(1, m + 1):
            c = c * (m + 1 - j) // (j + 1)
            acc = (acc << (k - 1)) - acc + j * c  # acc * (2^{k-1} - 1) + term
        frac += k * comb(n + 1, k) * acc
    quotient, remainder = divmod(frac, n + 1)
    if remainder:
        raise NonIntegralResult(f"double-sum total for n={n} leaves remainder "
                                f"{remainder} mod {n + 1}")
    return whole - quotient


def chain_count(key: str, n: int, *, upto: bool = False) -> int | list[int]:
    """Count at size n of one series in the labeled chain (keys as in derive_labeled_chain).

    With ``upto``, the list of counts at every size 0..n, read off one chain,
    whose order check bounds n.  An unknown key raises OutOfRange.
    """
    chain = derive_labeled_chain(n)
    if key not in chain:
        raise OutOfRange(f"key must be one of {sorted(chain)}, got {key!r}")
    return chain[key] if upto else chain[key][n]


def unbalanced_labeled(n: int) -> int:
    """Labeled unbalanced split graphs, from the series chain."""
    return chain_count("U", n)


def balanced_labeled(n: int) -> int:
    return split_labeled(n) - unbalanced_labeled(n)


# ---------------------------------------------------------------------------
# Cross check
# ---------------------------------------------------------------------------

class CrossCheckReport(Record):
    """Outcome of ``cross_check``; ``elapsed_ms``, its wall time, stays out of the JSON form."""

    __slots__ = _fields = ("checked_to", "discrepancies", "elapsed_ms")

    def __init__(self, checked_to: int, discrepancies: list, elapsed_ms: int):
        object.__setattr__(self, "checked_to", checked_to)
        object.__setattr__(self, "discrepancies", discrepancies)
        object.__setattr__(self, "elapsed_ms", elapsed_ms)

    @property
    def ok(self) -> bool:
        return not self.discrepancies

    def to_json(self) -> dict:
        return {"checked_to": self.checked_to, "discrepancies": self.discrepancies}


def cross_check(max_n: int) -> CrossCheckReport:
    """Verify the two split-graph formulas agree up to max_n, plus oracle checks.

    Formula-vs-formula runs for 1 <= n <= max_n.  Formula and series counts
    are also compared against exhaustive enumeration: labeled classes at
    n <= min(max_n, 6), unlabeled identities at n <= min(max_n, 7).

    Discrepancies are collected in the report, never raised.
    """
    check_size(max_n, high=MAX_FORMULA_N, what="max_n")
    start = time.monotonic()
    discrepancies = []

    def mismatch(kind: str, n: int, expected, got):
        discrepancies.append({
            "check": kind, "n": n,
            "expected": decimal(expected) if isinstance(expected, int) else str(expected),
            "got": decimal(got) if isinstance(got, int) else str(got),
        })

    for n in range(1, max_n + 1):
        direct = split_labeled(n)
        bp = split_labeled_bp(n)
        if direct != bp:
            mismatch("split-formula-agreement", n, direct, bp)

    from .enumeration import ClassTag, count_labeled as lab, count_unlabeled as unl

    chain = derive_labeled_chain(8)
    for n in range(0, min(max_n, 6) + 1):
        checks = [
            ("oracle-bicolored", bicolored_labeled(n), lab(n, ClassTag.BICOLORED)),
            ("oracle-split", split_labeled(n), lab(n, ClassTag.SPLIT)),
            ("oracle-unbalanced", chain["U"][n], lab(n, ClassTag.UNBALANCED)),
            ("oracle-balanced", chain["B"][n], lab(n, ClassTag.BALANCED)),
            ("oracle-split-series", chain["S"][n], lab(n, ClassTag.SPLIT)),
            ("oracle-colored-split", chain["cS"][n], lab(n, ClassTag.COLORED_SPLIT)),
            ("oracle-colored-equals-bicolored-star", lab(n, ClassTag.COLORED_SPLIT),
             lab(n, ClassTag.BICOLORED_NO_ISOLATED_GREEN)),
        ]
        for kind, expected, got in checks:
            if expected != got:
                mismatch(kind, n, expected, got)

    top = min(max_n, 7)
    base = [unl(n, ClassTag.SPLIT) for n in range(top + 1)]
    unlabeled = derive_unlabeled_chain(top, base)
    for n in range(0, top + 1):
        checks = [
            ("oracle-unlabeled-unbalanced", unlabeled["U"][n], unl(n, ClassTag.UNBALANCED)),
            ("oracle-unlabeled-bicolored", unlabeled["BC"][n], unl(n, ClassTag.BICOLORED)),
            ("oracle-unlabeled-colored-split", unl(n, ClassTag.SPLIT),
             unl(n, ClassTag.COLORED_SPLIT)),
        ]
        for kind, expected, got in checks:
            if expected != got:
                mismatch(kind, n, expected, got)

    elapsed_ms = int((time.monotonic() - start) * 1000)
    return CrossCheckReport(max_n, discrepancies, elapsed_ms)
