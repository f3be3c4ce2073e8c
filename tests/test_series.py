"""Exact series arithmetic, named atoms, and the derivation chains."""

import hashlib
import random
from fractions import Fraction

import pytest

from splitspecies.errors import (
    ConventionMismatch,
    MalformedInput,
    NonIntegralResult,
    NotAUnit,
)
from splitspecies.series import (
    EGF,
    MAX_CHAIN_ORDER,
    OGF,
    SeriesName,
    constant,
    convert,
    decimal,
    derive_labeled_chain,
    derive_unlabeled_chain,
    from_fractions,
    monomial,
    named,
)

from conftest import (
    B_LABELED,
    BC_LABELED,
    CS_LABELED,
    S_LABELED,
    S_UNLABELED,
    U_LABELED,
    UAMB_LABELED,
    UK_LABELED,
)


def egf_of(counts):
    """The egf series whose n! [x^n] is counts[n]."""
    return convert(from_fractions(counts, OGF), EGF)


def test_atom_values():
    e = named(SeriesName.E, EGF, 6)
    assert e.counts() == [1] * 7  # every size has exactly one set
    x = named(SeriesName.X, EGF, 6)
    assert x.counts() == [0, 1, 0, 0, 0, 0, 0]
    ge2 = named(SeriesName.E_GE2, EGF, 6)
    assert ge2.counts() == [0, 0, 1, 1, 1, 1, 1]
    geo = named(SeriesName.GEOMETRIC, OGF, 6)
    assert geo.counts() == [1] * 7


def test_a_factor_low_coefficients():
    a = named(SeriesName.A_FACTOR, EGF, 10)
    assert a.coeff(0) == 0
    assert a.coeff(1) == 1
    assert a.coeff(2) == 0
    assert a.coeff(3) == Fraction(1, 3)
    assert a.coeff(4) == Fraction(1, 4)
    assert a.coeff(5) == Fraction(4, 15)


def test_a_factor_bounds_to_100():
    a = named(SeriesName.A_FACTOR, EGF, 100)
    assert a.coeff(0) == 0
    for i in range(101):
        assert 0 <= a.coeff(i) <= 1


def test_a_factor_two_expressions_agree():
    a = named(SeriesName.A_FACTOR, EGF, 40)
    b = named(SeriesName.U_FACTOR_LABELED, EGF, 40)
    assert a.coeffs == b.coeffs


def test_e_times_e_counts_subsets():
    e = named(SeriesName.E, EGF, 10)
    assert (e * e).counts() == [1 << n for n in range(11)]


def test_geometric_squared_counts_sizes():
    g = named(SeriesName.GEOMETRIC, OGF, 10)
    assert [int(c) for c in (g * g).coeffs] == list(range(1, 12))


def test_additive_and_multiplicative_identities():
    rng = random.Random(1)
    f = from_fractions([Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(12)], EGF)
    zero = constant(0, EGF, 11)
    one = constant(1, EGF, 11)
    assert (f + zero).coeffs == f.coeffs
    assert (one * f).coeffs == f.coeffs


def test_ring_laws_on_random_series():
    rng = random.Random(7)

    def rand_series():
        return from_fractions(
            [Fraction(rng.randint(-20, 20), rng.randint(1, 12)) for _ in range(21)], EGF
        )

    for _ in range(10):
        a, b, c = rand_series(), rand_series(), rand_series()
        assert ((a + b) + c).coeffs == (a + (b + c)).coeffs
        assert ((a * b) * c).coeffs == (a * (b * c)).coeffs
        assert (a * (b + c)).coeffs == (a * b + a * c).coeffs
        assert (a * b).coeffs == (b * a).coeffs


def test_division_inverts_multiplication():
    rng = random.Random(9)
    for _ in range(10):
        coeffs = [Fraction(rng.randint(-20, 20), rng.randint(1, 12)) for _ in range(21)]
        coeffs[0] = Fraction(rng.choice([1, -1, 2, 3]))  # any nonzero unit works here
        b = from_fractions(coeffs, EGF)
        a = from_fractions(
            [Fraction(rng.randint(-20, 20), rng.randint(1, 12)) for _ in range(21)], EGF
        )
        assert ((a / b) * b).coeffs == a.coeffs


def test_division_examples():
    one = constant(1, OGF, 8)
    geo = one / (one - monomial(OGF, 8))
    assert [int(c) for c in geo.coeffs] == [1] * 9
    e = named(SeriesName.E, EGF, 8)
    assert (e / e).coeffs == constant(1, EGF, 8).coeffs
    with pytest.raises(NotAUnit):
        _ = one / monomial(OGF, 8)


def test_convention_mismatch():
    with pytest.raises(ConventionMismatch):
        _ = named(SeriesName.E, EGF, 5) + named(SeriesName.GEOMETRIC, OGF, 5)


def test_convert_round_trip():
    e = named(SeriesName.E, EGF, 6)
    assert convert(convert(e, OGF), EGF).coeffs == e.coeffs
    assert [int(c) for c in convert(e, OGF).coeffs] == [1] * 7


def test_counts_rejects_non_integers():
    s = from_fractions([Fraction(1, 3)], OGF)
    with pytest.raises(NonIntegralResult):
        s.counts()


def test_labeled_chain_matches_frozen_counts():
    chain = derive_labeled_chain(7)
    assert chain["S"] == S_LABELED
    assert chain["U"] == U_LABELED
    assert chain["B"] == B_LABELED
    assert chain["cS"] == CS_LABELED
    assert chain["UK"] == UK_LABELED
    assert chain["Uamb"] == UAMB_LABELED
    assert chain["BC"] == BC_LABELED


def test_labeled_chain_bc_over_e_matches_bicolored_star_oracle(census7):
    """BC/E coefficients equal the no-isolated-green bicolored counts."""
    from splitspecies.enumeration import ClassTag

    chain = derive_labeled_chain(6)
    star = egf_of(chain["BC"]) / named(SeriesName.E, EGF, 6)
    assert star.counts() == [
        census7[n].labeled[ClassTag.BICOLORED_NO_ISOLATED_GREEN] for n in range(7)
    ]


def test_integer_chain_matches_series_products_to_60():
    """Each integer convolution of the chain equals its RationalSeries product."""
    order = 60
    chain = {key: egf_of(counts) for key, counts in derive_labeled_chain(order).items()}
    one = constant(1, EGF, order)
    x = monomial(EGF, order)
    assert ((one - x) * chain["BC"]).coeffs == chain["S"].coeffs
    assert (named(SeriesName.A_FACTOR, EGF, order) * chain["S"]).coeffs == chain["U"].coeffs
    assert (chain["S"] - chain["U"]).coeffs == chain["B"].coeffs
    assert (chain["BC"] / named(SeriesName.E, EGF, order)).coeffs == chain["cS"].coeffs
    assert (named(SeriesName.E_GE2, EGF, order) * chain["cS"]).coeffs == chain["UK"].coeffs
    assert (x * chain["B"]).coeffs == chain["Uamb"].coeffs


# sha256 of the lines "<key> <count>" of derive_labeled_chain(MAX_CHAIN_ORDER),
# key by key in the order below and n = 0..400 within each, pinned while the
# chain still read U and UK off binomial convolutions
LABELED_CHAIN_SHA256 = "00ecee464b2eff52c2bb3936d85ba1405fb2b3f38e907e82ec9f2e7efd4a095d"


def test_labeled_chain_is_pinned_to_its_cap():
    """Every count of every key that ``count --max-n`` and ``asym`` can serve."""
    assert MAX_CHAIN_ORDER == 400
    chain = derive_labeled_chain(MAX_CHAIN_ORDER)
    digest = hashlib.sha256()
    for key in ("BC", "S", "U", "B", "cS", "UK", "Uamb"):
        for count in chain[key]:
            digest.update(f"{key} {decimal(count)}\n".encode())
    assert digest.hexdigest() == LABELED_CHAIN_SHA256


def test_labeled_chain_integrality_to_100():
    chain = derive_labeled_chain(100)
    for key, counts in chain.items():
        assert all(v >= 0 for v in counts), key


def test_unlabeled_chain():
    base = [1, 1, 2, 4, 9, 21, 56, 164]
    chain = derive_unlabeled_chain(base)
    assert chain["U"] == [0, 1, 2, 4, 8, 17, 38, 94]
    assert chain["BC"] == [1, 2, 4, 8, 17, 38, 94, 258]
    assert chain["B"] == [1, 0, 0, 0, 1, 4, 18, 70]
    assert chain["U"][0] == 0  # the factor of x kills order zero
    short = derive_unlabeled_chain([1, 1, 2])
    assert short["BC"] == [1, 2, 4]


def random_unlabeled_base(seed, length):
    """Positive counts, each at least the sum of those before it (so B >= 0)."""
    rng = random.Random(seed)
    base = []
    for _ in range(length):
        base.append(sum(base) + rng.randint(1, 10**12))
    return base


@pytest.mark.parametrize("base", [S_UNLABELED, random_unlabeled_base(11, 40)],
                         ids=["oracle", "random"])
def test_unlabeled_chain_matches_series_products(base):
    """The running sums of the unlabeled chain equal its ogf products."""
    order = len(base) - 1
    chain = derive_unlabeled_chain(base)
    s = from_fractions(base, OGF)
    assert chain["S"] == s.counts()
    assert chain["BC"] == (named(SeriesName.GEOMETRIC, OGF, order) * s).counts()
    assert chain["U"] == (named(SeriesName.U_FACTOR_UNLABELED, OGF, order) * s).counts()
    assert chain["B"] == (s - named(SeriesName.U_FACTOR_UNLABELED, OGF, order) * s).counts()


def test_unlabeled_chain_rejects_negative_counts():
    with pytest.raises(MalformedInput):
        derive_unlabeled_chain([1, -3, 1])


def test_truncation_to_shorter_operand():
    a = named(SeriesName.E, EGF, 10)
    b = named(SeriesName.E, EGF, 4)
    assert (a + b).order == 4
