"""Closed-form counters.

Two independent formulas count labeled split graphs:

* ``split_labeled``: b_n - n * b_{n-1}, where b_n = sum_k C(n,k) 2^{k(n-k)}
  counts labeled bicolored graphs;
* ``split_labeled_bp``: the older double sum

      1 + sum_{k=2}^n C(n,k) [ (2^k - 1)^{n-k}
            - sum_{j=1}^{n-k} (jk/(j+1)) C(n-k,j) (2^{k-1} - 1)^{n-k-j} ]

  whose inner terms are genuinely fractional.  It is evaluated term by term
  in integers: the identities C(m,j)/(j+1) = C(m+1,j+1)/(m+1) and
  C(n,k)/(n-k+1) = C(n+1,k)/(n+1) put every fractional term over the one
  denominator n + 1, and (n+1) C(n,k-1) = k C(n+1,k) puts the whole term
  of k - 1, C(n,k-1) (2^{k-1} - 1)^{n-k+1}, over it with the same factor as
  the j-sum of k.  Both have the base 2^{k-1} - 1, so one Horner pass per k
  evaluates the pair, with no separate power, and the numerator of the
  total must divide by n + 1 exactly.
"""

from __future__ import annotations

from math import comb

from .errors import NonIntegralResult, OutOfRange, check_size
from .series import derive_labeled_chain

MAX_FORMULA_N = 500  # largest n of the closed forms, hence of the formula checks


def bicolored_labeled(n: int) -> int:
    """Labeled bicolored graphs: choose the green set, then any cross edges.

    b_n = sum_k C(n,k) 2^{k(n-k)}, whose terms k and n - k are equal: the
    terms below n/2 are summed once, with a running binomial, and doubled,
    and an even n adds the middle term.  MAX_FORMULA_N caps n.
    """
    half = 0
    c = 1  # C(n, k)
    for k in range((check_size(n, high=MAX_FORMULA_N) + 1) // 2):
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

    One Horner pass per k, in x = 2^{k-1} - 1 with m = n - k, evaluates the
    j-sum of k together with the whole term of k - 1, C(n,k-1) x^{m+1},
    which has the same base.  The j-sum of k is k C(n+1,k)/(n+1) times
    sum_j t_j x^{m-j}, t_j = j C(m+1,j+1) (see the module docstring), and
    (n+1) C(n,k-1) = k C(n+1,k) puts the whole term over the same factor, so
    the pass runs over the coefficients [1, 0, -t_1, ..., -t_m].  The pass of
    k = 2 starts at 0 (the whole terms start at k = 2); the whole term of
    k = n, (2^n - 1)^0, is the constant 1 added with the leading 1.

    MAX_FORMULA_N caps n, as it caps the closed form this sum is checked
    against.  Raises NonIntegralResult if the total fails to come out an
    integer (which would mean an implementation error, not an input error).
    """
    check_size(n, low=1, high=MAX_FORMULA_N)
    total = 0  # every pass, all over the one denominator n + 1
    for k in range(2, n + 1):
        m = n - k
        s = k - 1
        # Horner's rule from 1*x + 0 (0 at k = 2) to x^{m+1} - sum_j t_j x^{m-j}
        acc = (1 << s) - 1 if k > 2 else 0
        c = m + 1  # C(m+1, j) before the update below, C(m+1, j+1) after it
        for j in range(1, m + 1):
            c = c * (m + 1 - j) // (j + 1)
            acc = (acc << s) - acc - j * c  # acc * x - t_j
        total += k * comb(n + 1, k) * acc
    quotient, remainder = divmod(total, n + 1)
    if remainder:
        raise NonIntegralResult(f"double-sum total for n={n} leaves remainder "
                                f"{remainder} mod {n + 1}")
    return quotient + min(n, 2)  # the leading 1, and the whole term of k = n when n >= 2


def chain_count(key: str, n: int, *, upto: bool = False) -> int | list[int]:
    """Count at size n of one series in the labeled chain (keys as in derive_labeled_chain).

    With ``upto``, the list of counts at every size 0..n, read off one chain,
    whose order check bounds n.  An unknown key raises OutOfRange.
    """
    chain = derive_labeled_chain(n)
    if key not in chain:
        raise OutOfRange(f"key must be one of {sorted(chain)}, got {key!r}")
    return chain[key] if upto else chain[key][n]
