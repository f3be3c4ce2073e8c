"""Reference values the benchmark checks outputs against.

Nothing here imports the package under test.  Labeled counts come from the
bicolored closed form and integer binomial convolutions; small unlabeled
counts come from the golden census files; graph classes come from an
exhaustive clique/stable-set subset scan.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from math import comb

CHAIN_CLASSES = ("balanced", "unbalanced", "ambiguous", "k-canonical", "s-canonical",
                 "colored-split", "bicolored-no-isolated-green")
CLOSED_FORM_CLASSES = ("split", "bicolored", "all-graphs")
ALL_CLASSES = CLOSED_FORM_CLASSES + CHAIN_CLASSES


# ---------------------------------------------------------------------------
# Labeled counts as exact integers
# ---------------------------------------------------------------------------

def closed_form_counts(max_n: int) -> dict[str, list[int]]:
    """Counts 0..max_n of all graphs, bicolored graphs (b_n) and split graphs (s_n)."""
    b = [sum(comb(n, k) << (k * (n - k)) for k in range(n + 1)) for n in range(max_n + 1)]
    return {
        "all-graphs": [1 << (n * (n - 1) // 2) for n in range(max_n + 1)],
        "bicolored": b,
        "split": [1] + [b[n] - n * b[n - 1] for n in range(1, max_n + 1)],
    }


def labeled_counts(max_n: int) -> dict[str, list[int]]:
    """Counts 0..max_n of every labeled class.

        b_n  = sum_k C(n,k) 2^{k(n-k)}            s_n  = b_n - n b_{n-1}
        a_k  = k! [x^k] (2 - x - 2e^{-x})/(1-x)   u_n  = sum_k C(n,k) a_k s_{n-k}
        cs_n = b_n - sum_{k<n} C(n,k) cs_k        uk_n = sum_{k>=2} C(n,k) cs_{n-k}
        bal_n = s_n - u_n                         amb_n = n bal_{n-1}
    """
    ns = range(max_n + 1)
    closed = closed_form_counts(max_n)
    b, s = closed["bicolored"], closed["split"]
    # a_k = k * a_{k-1} + c_k with c_1 = 1 and c_k = -2(-1)^k for k >= 2
    a = [0] * (max_n + 1)
    for k in range(1, max_n + 1):
        a[k] = k * a[k - 1] + (1 if k == 1 else -2 * (-1) ** k)
    u = [sum(comb(n, k) * a[k] * s[n - k] for k in range(n + 1)) for n in ns]
    bal = [s[n] - u[n] for n in ns]
    cs: list[int] = []
    for n in ns:
        cs.append(b[n] - sum(comb(n, k) * cs[k] for k in range(n)))
    uk = [sum(comb(n, k) * cs[n - k] for k in range(2, n + 1)) for n in ns]
    amb = [0] + [n * bal[n - 1] for n in range(1, max_n + 1)]
    return {
        **closed, "balanced": bal, "unbalanced": u,
        "ambiguous": amb, "k-canonical": uk, "s-canonical": uk,
        "colored-split": cs, "bicolored-no-isolated-green": cs,
    }


def count_text(tag: str, kind: str, values: dict[int, int]) -> str:
    """The text-format stdout of ``count`` for the given counts."""
    return "".join(f"{tag} {kind} n={n}: {v}\n" for n, v in values.items())


# ---------------------------------------------------------------------------
# Golden census files (n <= 7)
# ---------------------------------------------------------------------------

def load_censuses(root: str, max_n: int = 7) -> list[dict]:
    out = []
    for n in range(max_n + 1):
        with open(os.path.join(root, "testdata", f"census-n{n}.json")) as f:
            out.append(json.load(f))
    unlabeled_split = _load_unlabeled_split(root)
    for n, census in enumerate(out):
        if census["n"] != n or census["unlabeled"]["split"] != unlabeled_split[n]:
            raise ValueError(f"golden census n={n} disagrees with unlabeled-split.json")
    return out


def _load_unlabeled_split(root: str) -> list[int]:
    with open(os.path.join(root, "testdata", "unlabeled-split.json")) as f:
        return [int(v) for v in json.load(f)["values"]]


# ---------------------------------------------------------------------------
# Asymptotic report rows
# ---------------------------------------------------------------------------

ASYM_HEADER = "n,b_ratio,s_over_b,u_over_s,bound,bound_holds"
ASYM_REL_TOL = 1e-12


def _c_constant(odd: bool) -> float:
    """sum_{k in Z} 2^{-k^2} (even n) or 2^{-(k+1/2)^2} (odd n), to double precision."""
    if odd:
        return 2 * 2 ** -0.25 * sum(2.0 ** -(k * (k + 1)) for k in range(12))
    return 1 + 2 * sum(2.0 ** -(k * k) for k in range(1, 12))


def asym_rows(max_n: int, counts: dict[str, list[int]]) -> list[tuple]:
    """Expected (n, b_ratio, s_over_b, u_over_s, bound, bound_holds) rows."""
    b, s, u = counts["bicolored"], counts["split"], counts["unbalanced"]
    rows = []
    for n in range(1, max_n + 1):
        # 2^{n^2/4} = 2^{n^2 // 4} * 2^{(n^2 mod 4)/4}, the second factor 1 or 2^{1/4}
        main = Fraction(b[n], comb(n, n // 2) << (n * n // 4))
        b_ratio = float(main) / (_c_constant(n % 2 == 1) * 2 ** ((n * n % 4) / 4))
        # n^2 / 2^{(n+1)/2}, split the same way
        bound = float(Fraction(n * n, 1 << ((n + 1) // 2))) / 2 ** (((n + 1) % 2) / 2)
        holds = (1 << (n + 1)) * u[n] ** 2 <= n**4 * s[n] ** 2
        rows.append((n, b_ratio, float(Fraction(s[n], b[n])), float(Fraction(u[n], s[n])),
                     bound, holds))
    return rows


def check_asym_csv(text: str, rows: list) -> str | None:
    """None if the CSV report matches the reference rows, else the first difference."""
    lines = text.split("\n")
    if lines[0] != ASYM_HEADER or lines[-1] != "" or len(lines) != len(rows) + 2:
        return f"unexpected report shape ({len(lines) - 2} rows)"
    for line, ref in zip(lines[1:-1], rows):
        cells = line.split(",")
        if len(cells) != 6 or cells[0] != str(ref[0]) or cells[5] != str(ref[5]).lower():
            return f"row {ref[0]}: {line!r}"
        for cell, want in zip(cells[1:5], ref[1:5]):
            got = float(cell)
            if abs(got - want) > ASYM_REL_TOL * abs(want):
                return f"row {ref[0]}: {cell} != {want!r}"
    return None


# ---------------------------------------------------------------------------
# Graph classes by exhaustive subset scan
# ---------------------------------------------------------------------------

def partitions(n: int, rows: list[int]) -> list[int]:
    """Clique masks K of every clique/stable-set partition (K, V - K)."""
    size = 1 << n
    clique = bytearray(size)
    stable = bytearray(size)
    clique[0] = stable[0] = 1
    for m in range(1, size):
        v = (m & -m).bit_length() - 1
        rest = m & (m - 1)
        clique[m] = clique[rest] and rows[v] & rest == rest
        stable[m] = stable[rest] and not rows[v] & rest
    full = size - 1
    return [k for k in range(size) if clique[k] and stable[full ^ k]]


def graph_reference(n: int, rows: list[int]) -> dict:
    """Class, swing set and S-max coloring count read off the partition list.

    One partition: balanced.  Two: ambiguous.  Three or more: k-canonical
    when the largest clique side occurs once, else s-canonical.
    """
    ks = partitions(n, rows)
    if not ks:
        return {"class": "not-split", "is_split": False, "is_split_complement": False}
    sizes = [k.bit_count() for k in ks]
    if len(ks) == 1:
        cls = "balanced"
    elif len(ks) == 2:
        cls = "ambiguous"
    else:
        cls = "k-canonical" if sizes.count(max(sizes)) == 1 else "s-canonical"
    always_k = always_s = (1 << n) - 1
    for k in ks:
        always_k &= k
        always_s &= ~k
    swings = ((1 << n) - 1) & ~always_k & ~always_s
    return {
        "class": cls,
        "swings": [v for v in range(n) if swings >> v & 1],
        "colorings": sizes.count(min(sizes)),
        "is_split": True,
        "is_split_complement": True,
    }


# ---------------------------------------------------------------------------
# CLI output checks
# ---------------------------------------------------------------------------

def check_cli(check: dict, stdout: bytes) -> str | None:
    """None if a CLI op's stdout matches its reference, else the reason."""
    text = stdout.decode()
    kind = check["type"]
    if kind == "text":
        if text == check["text"]:
            return None
        got, want = text.splitlines(), check["text"].splitlines()
        for i, (a, b) in enumerate(zip(got, want)):
            if a != b:
                return f"line {i + 1}: got {a[:80]!r}, want {b[:80]!r}"
        return f"got {len(got)} lines, want {len(want)}"
    if kind == "asym":
        return check_asym_csv(text, check["rows"])
    if kind == "identities":
        report = json.loads(text)
        want = {"suite": "identities", "max_n": check["max_n"], "discrepancies": []}
        if {k: report.get(k) for k in want} != want or not report.get("checks_run"):
            return f"report {text[:200]!r}"
        return None
    if kind == "enumerate":
        lines = text.splitlines()
        if len(lines) != check["count"]:
            return f"{len(lines)} structures, want {check['count']}"
        if len(set(lines)) != len(lines):
            return "duplicate structures"
        if any(json.loads(line)["n"] != check["n"] for line in lines):
            return "structure of the wrong size"
        return None
    raise ValueError(f"unknown check {kind}")
