"""The cross-route checks, each written once, and the routes that serve ``count``.

A row is ``(name, least n, expected(n), got(n))``: two routes to one count, or
two sides of one identity, that must agree at every n from the least on.  Rows
and the random checks reach the routes through their modules at call time, so
a route replaced on its module is the one checked.  This module imports every
route and no route imports it, so the closed forms, the series chain and the
oracle stay blind to each other.
"""

from __future__ import annotations

import random
from math import comb

from . import bijections, counting, enumeration, graphs, series, structure
from .enumeration import CENSUS_MAX_N, ClassTag as T
from .errors import check_size


def _lab(n: int, tag: T) -> int:
    return enumeration.count_labeled(n, tag)


def _unl(n: int, tag: T) -> int:
    return enumeration.count_unlabeled(n, tag)


def _unlabeled_chain(n: int) -> dict[str, list[int]]:
    """The unlabeled series chain at sizes 0..n, on the oracle's split counts."""
    return series.derive_unlabeled_chain([_unl(k, T.SPLIT) for k in range(n + 1)])


# each count builds only its class family; no row reads the unlabeled
# all-graphs count, the costliest one
IDENTITIES = (
    ("labeled-split-partition", 0, lambda n: _lab(n, T.SPLIT),
     lambda n: _lab(n, T.BALANCED) + _lab(n, T.UNBALANCED)),
    ("labeled-unbalanced-partition", 0, lambda n: _lab(n, T.UNBALANCED),
     lambda n: _lab(n, T.K_CANONICAL) + _lab(n, T.S_CANONICAL) + _lab(n, T.AMBIGUOUS)),
    ("labeled-uk-equals-us", 0, lambda n: _lab(n, T.K_CANONICAL), lambda n: _lab(n, T.S_CANONICAL)),
    ("unlabeled-uk-equals-us", 0, lambda n: _unl(n, T.K_CANONICAL),
     lambda n: _unl(n, T.S_CANONICAL)),
    ("labeled-split-formula", 0, lambda n: counting.split_labeled(n), lambda n: _lab(n, T.SPLIT)),
    ("labeled-bicolored-formula", 0, lambda n: counting.bicolored_labeled(n),
     lambda n: _lab(n, T.BICOLORED)),
    ("labeled-colored-equals-bicolored-star", 0, lambda n: _lab(n, T.COLORED_SPLIT),
     lambda n: _lab(n, T.BICOLORED_NO_ISOLATED_GREEN)),
    ("unlabeled-colored-equals-split", 0, lambda n: _unl(n, T.COLORED_SPLIT),
     lambda n: _unl(n, T.SPLIT)),
    ("unlabeled-unbalanced-partial-sums", 0, lambda n: _unlabeled_chain(n)["U"][n],
     lambda n: _unl(n, T.UNBALANCED)),
    ("unlabeled-bicolored-partial-sums", 0, lambda n: _unlabeled_chain(n)["BC"][n],
     lambda n: _unl(n, T.BICOLORED)),
    ("labeled-ambiguous-convolution", 1, lambda n: n * _lab(n - 1, T.BALANCED),
     lambda n: _lab(n, T.AMBIGUOUS)),
    ("labeled-k-canonical-convolution", 1,
     lambda n: sum(comb(n, k) * _lab(n - k, T.COLORED_SPLIT) for k in range(2, n + 1)),
     lambda n: _lab(n, T.K_CANONICAL)),
)

# The routes of the labeled counts.  CHAIN_KEYS names the labeled chain's
# series for each class it counts; ``count`` reads it for a class without a
# closed form in CLOSED_FORMS, and TABLE checks each entry against the oracle.
# All graphs get no row, as the oracle's labeled all-graphs count is the same
# formula; BC gets no chain key, as the chain takes BC from bicolored_labeled.
CLOSED_FORMS = {T.ALL_GRAPHS: lambda n: 1 << comb(check_size(n, high=counting.MAX_FORMULA_N), 2),
                T.SPLIT: lambda n: counting.split_labeled(n),
                T.BICOLORED: lambda n: counting.bicolored_labeled(n)}
CHAIN_KEYS = {T.SPLIT: "S", T.BALANCED: "B", T.UNBALANCED: "U", T.K_CANONICAL: "UK",
              T.S_CANONICAL: "UK", T.AMBIGUOUS: "Uamb", T.COLORED_SPLIT: "cS",
              T.BICOLORED_NO_ISOLATED_GREEN: "cS"}

TABLE = IDENTITIES + tuple(
    (f"oracle-{tag.value}", 0, lambda n, key=key: counting.chain_count(key, n),
     lambda n, tag=tag: _lab(n, tag))
    for tag, key in CHAIN_KEYS.items())

# the two closed forms of the labeled split count, past the oracle's reach
FORMULAS = (
    ("split-formula-agreement", 1, lambda n: counting.split_labeled(n),
     lambda n: counting.split_labeled_bp(n)),
)


def counts(tag: T, unlabeled: bool, ns, what: str = "n") -> dict[int, int]:
    """The counts of class ``tag`` at the sizes ``ns`` (a list or a range) that
    ``count`` prints.

    Unlabeled counts come from the oracle.  A labeled count comes from the
    class's closed form, or else from one chain built at max(ns).  Before
    any count, the largest size is checked against the cap of the route that
    serves it, under the name ``what``; a range, which may be too long to
    walk, is read off its ends.
    """
    ends = (ns[0], ns[-1]) if isinstance(ns, range) and ns else ns
    cap = (enumeration.size_cap(tag, unlabeled) if unlabeled
           else counting.MAX_FORMULA_N if tag in CLOSED_FORMS else series.MAX_CHAIN_ORDER)
    top = check_size(max([check_size(n, what=what) for n in ends], default=0), high=cap, what=what)
    if unlabeled:
        return {n: _unl(n, tag) for n in ns}
    if tag in CLOSED_FORMS:
        return {n: CLOSED_FORMS[tag](n) for n in ns}
    chain = counting.chain_count(CHAIN_KEYS[tag], top, upto=True)
    return {n: chain[n] for n in ns}


def run(rows, max_n: int):
    """Yield (name, n, expected, got) for each row at each n from its least to max_n."""
    for n in range(max_n + 1):
        for name, least, expected, got in rows:
            if n >= least:
                yield name, n, expected(n), got(n)


def identity_checks(max_n: int, what: str = "max_n") -> list:
    """The results of every row of ``IDENTITIES`` at each n up to max_n, which
    is first checked against the census cap ``CENSUS_MAX_N``; ``what`` names
    max_n in a size error."""
    return list(run(IDENTITIES, check_size(max_n, high=CENSUS_MAX_N, what=what)))


def discrepancies(results) -> list[dict]:
    """The results whose two sides differ, with counts as decimal strings."""
    return [{"check": name, "n": n, "expected": series.decimal(expected),
             "got": series.decimal(got)}
            for name, n, expected, got in results if expected != got]


def cross_check(max_n: int, what: str = "max_n") -> list[dict]:
    """Verify the two split-graph formulas agree up to max_n, plus every table row.

    Formula-vs-formula runs for 1 <= n <= max_n, then every row of ``TABLE``
    for n <= min(max_n, CENSUS_MAX_N).  Returns the discrepancies, never
    raises them; ``what`` names max_n in a size error.
    """
    check_size(max_n, high=counting.MAX_FORMULA_N, what=what)
    found = discrepancies(run(FORMULAS, max_n))
    return found + discrepancies(run(TABLE, min(max_n, CENSUS_MAX_N)))


RANDOM_MAX_N = 8  # the largest graph random_checks draws; its subset oracle scans 2^n sets


def random_checks(max_n: int, seed: int, cases: int,
                  what: str = "max_n") -> tuple[list[dict], list[dict]]:
    """Seeded random property checks: split test vs subset oracle on graphs
    of 0..max_n vertices, and round trips at min(max_n, CENSUS_MAX_N).

    max_n is first checked against ``RANDOM_MAX_N``, under the name ``what``.
    Returns the failures and the round trips skipped because their class has
    no graphs at the round trips' size.
    """
    check_size(max_n, high=RANDOM_MAX_N, what=what)
    rng = random.Random(seed)
    failures = []

    def subset_oracle(g: graphs.Graph) -> bool:
        full = g.vertex_mask()
        return any(structure.is_clique(g, km) and structure.is_stable(g, full ^ km)
                   for km in range(full + 1))

    for case in range(cases):
        n = rng.randint(0, max_n)
        edges = [(i, j) for j in range(n) for i in range(j) if rng.random() < 0.5]
        g = graphs.make_graph(n, edges)
        if graphs.is_split(g) != subset_oracle(g):
            failures.append({"check": "split-test-vs-subset-oracle", "case": case,
                             "graph": g.to_json()})
        if graphs.is_split(g) != graphs.is_split(graphs.complement(g)):
            failures.append({"check": "split-complement-closure", "case": case,
                             "graph": g.to_json()})

    n = min(max_n, CENSUS_MAX_N)
    kcanonical = list(enumeration._labeled_keys(n, T.K_CANONICAL))
    ambiguous = list(enumeration._labeled_keys(n, T.AMBIGUOUS))
    skipped = []
    if not kcanonical:
        skipped.append({"class": "k-canonical", "n": n, "checks": [
            "uk-round-trip", "uk-equivariance", "cuk-round-trip", "bicolored-round-trip"]})
    if not ambiguous:
        skipped.append({"class": "ambiguous", "n": n, "checks": ["amb-round-trip"]})
    for case in range(cases):
        if kcanonical:
            word = rng.choice(kcanonical)
            g = graphs.Graph.from_edge_word(n, word)
            a, rest = bijections.uk_decompose(g)
            if bijections.uk_compose(a, rest).core != g:
                failures.append({"check": "uk-round-trip", "case": case, "word": word})
            p = list(range(n))
            rng.shuffle(p)
            a2, rest2 = bijections.uk_decompose(graphs.relabel(g, p))
            if a2 != tuple(sorted(p[v] for v in a)) or rest2 != rest.relabeled(p):
                failures.append({"check": "uk-equivariance", "case": case, "word": word})
            colored = rng.choice(structure.all_colorings(g))
            ps, crest = bijections.cuk_decompose(colored)
            if bijections.cuk_compose(ps, crest).core != colored:
                failures.append({"check": "cuk-round-trip", "case": case, "word": word})
            back = bijections.bicolored_to_split(bijections.split_to_bicolored(colored))
            if back != colored:
                failures.append({"check": "bicolored-round-trip", "case": case, "word": word})

        if ambiguous:
            word = rng.choice(ambiguous)
            g = graphs.Graph.from_edge_word(n, word)
            v, rest = bijections.amb_decompose(g)
            if bijections.amb_compose(v, rest).core != g:
                failures.append({"check": "amb-round-trip", "case": case, "word": word})
    return failures, skipped
