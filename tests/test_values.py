"""Value semantics of the package's immutable types: equality, hash, immutability."""

import pickle
from fractions import Fraction

import pytest

from splitspecies.asymptotics import RatioRow, UnlabeledRatioRow
from splitspecies.bijections import EmbeddedColored, EmbeddedGraph, PointedSet
from splitspecies.checks import CrossCheckReport
from splitspecies.enumeration import Census, ClassTag
from splitspecies.graphs import BicoloredGraph, Graph, make_graph
from splitspecies.series import EGF, OGF, RationalSeries
from splitspecies.structure import ColoredSplitGraph, KSPartition, SwingReport

G = make_graph(3, [(0, 1)])
H = make_graph(3, [(0, 1), (0, 2)])

# (type, constructor keywords, one other value per field to try alone)
CASES = [
    (Graph, dict(n=3, rows=G.rows), dict(rows=H.rows)),
    (BicoloredGraph, dict(graph=G, green=(0,), red=(1, 2)), dict(graph=H)),
    (ColoredSplitGraph, dict(graph=G, green=(0,), red=(1, 2)), dict(graph=H)),
    (PointedSet, dict(elements=(0, 1), point=0), dict(elements=(0, 1, 2), point=1)),
    (EmbeddedGraph, dict(labels=(0, 1, 2), core=G), dict(labels=(0, 1, 3), core=H)),
    (EmbeddedColored, dict(labels=(0, 1, 2), core=ColoredSplitGraph(G, (0,), (1, 2))),
     dict(labels=(0, 1, 3), core=ColoredSplitGraph(H, (0,), (1, 2)))),
    (KSPartition, dict(k=(0,), s=(1, 2)), dict(k=(0, 1), s=(2,))),
    (SwingReport, dict(swings=(1, 2), kind="stable", y=(0,), z=()),
     dict(swings=(1,), kind="singleton", y=(0, 2), z=(2,))),
    (RationalSeries, dict(coeffs=(Fraction(1), Fraction(1)), convention=EGF),
     dict(coeffs=(Fraction(1), Fraction(2)), convention=OGF)),
    (Census, dict(n=1, labeled={ClassTag.SPLIT: 1}, unlabeled={ClassTag.SPLIT: 1}),
     dict(n=2, labeled={ClassTag.SPLIT: 2}, unlabeled={ClassTag.SPLIT: 2})),
    (RatioRow, dict(n=4, b_ratio="0.5", s_over_b="1.5", u_over_s="0.25", bound="1.0",
                    bound_holds=True),
     dict(n=5, b_ratio="0.6", s_over_b="1.6", u_over_s="0.3", bound="1.1", bound_holds=False)),
    (UnlabeledRatioRow, dict(n=4, s_tilde=9, b_tilde=17, u_tilde=8, s_over_b="0.5",
                             u_over_s="0.8", scaled_labeled="1.2"),
     dict(n=5, s_tilde=21, b_tilde=38, u_tilde=17, s_over_b="0.6", u_over_s="0.9",
          scaled_labeled="1.3")),
]

# the two carriers of two-colored graphs have the same fields
SIBLING = {BicoloredGraph: ColoredSplitGraph, ColoredSplitGraph: BicoloredGraph}


@pytest.mark.parametrize("cls, fields, changes", CASES, ids=[c[0].__name__ for c in CASES])
def test_value_semantics(cls, fields, changes):
    a, b = cls(**fields), cls(*fields.values())
    assert a == b and not a != b
    if cls is Census:  # its counts are dicts, so it has no hash
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    assert pickle.loads(pickle.dumps(a)) == a

    for name, value in changes.items():
        assert a != cls(**{**fields, name: value}), name

    other = SIBLING.get(cls) or type("Other" + cls.__name__, (cls,), {"__slots__": ()})
    assert a != other(**fields) and other(**fields) != a
    assert a != tuple(fields.values())

    for name in fields:
        with pytest.raises(AttributeError):
            setattr(a, name, fields[name])
    assert a == b


@pytest.mark.parametrize("cls, args, named", [
    (Census, (1,), dict(labeled={}, unlabeled={})),
    (CrossCheckReport, (10,), dict(discrepancies=[], elapsed_ms=3)),
], ids=["Census", "CrossCheckReport"])
def test_the_generic_constructor_refuses_a_wrong_set_of_fields(cls, args, named):
    """Record's constructor takes each field once, by position or by name, and no other."""
    assert cls(*args, **named) == cls(*args, *named.values())
    missing = dict(named)
    missing.popitem()
    bad = [(args, missing),  # a field missing
           (args, {**named, "extra": 0}),  # an unknown keyword
           ((*args, *named.values(), 0), {}),  # one positional argument too many
           (args, {**named, cls._fields[0]: args[0]})]  # a field given twice
    for values, keywords in bad:
        with pytest.raises(TypeError):
            cls(*values, **keywords)
