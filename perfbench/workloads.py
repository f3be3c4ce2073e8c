"""The four workloads: op lists drawn from a seed, with their references.

Each generator returns a list of ops.  An op carries its input (what the
program receives) and its reference (what the output must be), both
computed here, before any timing starts.  Draws are stratified so that the
total work of a pass barely depends on the seed.
"""

from __future__ import annotations

import random

import reference

FORMULAS_MAX_N = 318  # acceptance criterion 1's range
FORMULAS_OPS = 96

GRAPH_SIZES = range(8, 17)
GRAPH_KINDS = ("balanced", "ambiguous", "k-canonical", "s-canonical", "not-split")
GRAPHS_PER_CELL = 5  # graphs per (size, kind)


def _strata(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """One value from each of ``count`` equal slices of lo..hi, in random order."""
    span = hi - lo + 1
    out = [rng.randint(lo + i * span // count, lo + (i + 1) * span // count - 1)
           for i in range(count)]
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# formulas: both split-graph formulas in-process
# ---------------------------------------------------------------------------

def formulas_ops(seed: int, root: str) -> list[dict]:
    rng = random.Random(f"formulas/{seed}")
    ns = _strata(rng, FORMULAS_OPS, 1, FORMULAS_MAX_N)
    split = reference.closed_form_counts(FORMULAS_MAX_N)["split"]
    return [{"n": n, "ref": hex(split[n])} for n in ns]


# ---------------------------------------------------------------------------
# counts: labeled counts and the asymptotic report through the CLI
# ---------------------------------------------------------------------------

# The sweeps and reports get narrow ranges: their cost grows as a high power
# of the size (a chain sweep about N^5), so wide ranges would make a pass's
# work depend on the seed.
COUNTS_CLOSED_POINTS = 10   # n over 1..318
COUNTS_CHAIN_POINTS = 10    # n over 1..64
COUNTS_CHAIN_SWEEPS = ((74, 75), (80, 81))
COUNTS_CLOSED_SWEEP = (280, 318)
COUNTS_ASYM = ((100, 103), (130, 133), (160, 163))


def counts_ops(seed: int, root: str) -> list[dict]:
    rng = random.Random(f"counts/{seed}")
    counts = {**reference.labeled_counts(COUNTS_ASYM[-1][1]),
              **reference.closed_form_counts(FORMULAS_MAX_N)}
    ops = []

    def count_op(tag: str, ns: range, flag: str, size: int):
        argv = ["count", "--class", tag, "--labeled", flag, str(size)]
        text = reference.count_text(tag, "labeled", {n: counts[tag][n] for n in ns})
        ops.append({"argv": argv, "check": {"type": "text", "text": text}})

    for n in _strata(rng, COUNTS_CLOSED_POINTS, 1, FORMULAS_MAX_N):
        count_op(rng.choice(reference.CLOSED_FORM_CLASSES), range(n, n + 1), "--n", n)
    for n in _strata(rng, COUNTS_CHAIN_POINTS, 1, 64):
        count_op(rng.choice(reference.CHAIN_CLASSES), range(n, n + 1), "--n", n)
    for lo, hi in COUNTS_CHAIN_SWEEPS:
        top = rng.randint(lo, hi)
        count_op(rng.choice(reference.CHAIN_CLASSES), range(top + 1), "--max-n", top)
    top = rng.randint(*COUNTS_CLOSED_SWEEP)
    count_op(rng.choice(("split", "bicolored")), range(top + 1), "--max-n", top)
    for lo, hi in COUNTS_ASYM:
        top = rng.randint(lo, hi)
        ops.append({"argv": ["asym", "--max-n", str(top)],
                    "check": {"type": "asym", "max_n": top,
                              "rows": reference.asym_rows(top, counts)}})
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# oracle: brute-force census and enumeration through the CLI
# ---------------------------------------------------------------------------

ORACLE_BIG_OPS = 1          # m = 7 per pass
ORACLE_COMPUTE_SIZES = (3, 4, 5, 6) * 2 + (3, 4, 5)
ORACLE_ENUMERATE_SIZES = (4, 5, 6) * 2 + (5,)


def oracle_ops(seed: int, root: str) -> list[dict]:
    rng = random.Random(f"oracle/{seed}")
    censuses = reference.load_censuses(root)
    ops = []

    def compute_op(m: int):
        if rng.random() < 0.5:
            ops.append({"argv": ["verify", "--suite", "identities", "--max-n", str(m)],
                        "check": {"type": "identities", "max_n": m}})
            return
        tag = rng.choice(reference.ALL_CLASSES)
        text = reference.count_text(tag, "unlabeled",
                                    {n: censuses[n]["unlabeled"][tag] for n in range(m + 1)})
        ops.append({"argv": ["count", "--class", tag, "--unlabeled", "--max-n", str(m)],
                    "check": {"type": "text", "text": text}})

    for _ in range(ORACLE_BIG_OPS):
        compute_op(7)
    for m in ORACLE_COMPUTE_SIZES:
        compute_op(m)
    for m in ORACLE_ENUMERATE_SIZES:
        tag = rng.choice(reference.ALL_CLASSES)
        ops.append({"argv": ["enumerate", "--class", tag, "--n", str(m)],
                    "check": {"type": "enumerate", "n": m,
                              "count": censuses[m]["labeled"][tag]}})
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# graphs: structure and bijections on seeded split graphs, in-process
# ---------------------------------------------------------------------------

def _edges(n: int, rows: list[int]) -> list[list[int]]:
    return [[i, j] for j in range(n) for i in range(j) if rows[i] >> j & 1]


def _balanced_rows(rng: random.Random, n: int, extra: int) -> tuple[list[int], int]:
    """A balanced split graph on n vertices, with room for ``extra`` more.

    Clique 0..k-1, stable set k..n-1 with k = n // 2; every clique vertex
    has a stable neighbour and every stable vertex misses a clique vertex, so
    no vertex can change sides.  Returns the rows (sized n + extra) and the
    clique mask.  (A fixed k keeps the cost of graphs of one size and kind
    close together, so the seed barely moves the median and tail ops.)
    """
    k = n // 2
    while True:
        rows = [0] * (n + extra)
        for i in range(k):
            for j in range(i + 1, k):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            for j in range(k, n):
                if rng.random() < 0.5:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        clique = (1 << k) - 1
        if all(rows[i] >> k for i in range(k)) and all(rows[j] & clique != clique
                                                       for j in range(k, n)):
            return rows, clique


def _complement(n: int, rows: list[int]) -> list[int]:
    full = (1 << n) - 1
    return [~r & full & ~(1 << v) for v, r in enumerate(rows)]


def _permuted(n: int, rows: list[int], p: list[int]) -> list[int]:
    out = [0] * n
    for v in range(n):
        for u in range(n):
            if rows[v] >> u & 1:
                out[p[v]] |= 1 << p[u]
    return out


def _graph_rows(rng: random.Random, n: int, kind: str) -> list[int]:
    if kind == "not-split":
        rows = [0] * n
        for j in range(n):
            for i in range(j):
                if rng.random() < 0.5:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        return rows
    if kind == "balanced":
        return _balanced_rows(rng, n, 0)[0]
    if kind == "ambiguous":  # balanced rest plus one vertex joined to its clique
        rows, clique = _balanced_rows(rng, n - 1, 1)
        swing = 1 << (n - 1)
    else:  # a swing clique A joined to the clique of a balanced rest
        size = 2 if n % 2 == 0 else 3
        rows, clique = _balanced_rows(rng, n - size, size)
        swing = ((1 << size) - 1) << (n - size)
        clique |= swing
    for v in range(n):
        if swing >> v & 1:
            rows[v] |= clique & ~(1 << v)
            for u in range(n):
                if clique >> u & 1 and u != v:
                    rows[u] |= 1 << v
    return _complement(n, rows) if kind == "s-canonical" else rows


def graphs_ops(seed: int, root: str) -> list[dict]:
    rng = random.Random(f"graphs/{seed}")
    ops = []
    for n in GRAPH_SIZES:
        for kind in GRAPH_KINDS * GRAPHS_PER_CELL:
            while True:
                rows = _graph_rows(rng, n, kind)
                p = list(range(n))
                rng.shuffle(p)
                rows = _permuted(n, rows, p)
                ref = reference.graph_reference(n, rows)
                if ref["class"] == kind:
                    break
            perm = list(range(n))
            rng.shuffle(perm)
            ops.append({"n": n, "edges": _edges(n, rows), "perm": perm, "ref": ref})
    rng.shuffle(ops)
    return ops


IN_PROCESS = {"formulas": formulas_ops, "graphs": graphs_ops}
CLI = {"counts": counts_ops, "oracle": oracle_ops}
WORKLOADS = {**IN_PROCESS, **CLI}
