"""Opt-in heavy checks, skipped unless SPLITSPECIES_RUN_SLOW=1.

These exercise the widest supported sizes: the n = 8 split census
(5,843,954 labeled graphs generated from their 8.5 million clique/stable
partitions in a 256 MB table indexed by edge word, then 557 orbits read off
that same table; about 2 s and 310 MB peak RSS on a 2-core x86-64 VM), the
full formula agreement through the command line (about 4 s there) and the
JSON lines of every class but all graphs at n = 7, against their objects.
"""

import json
import os

import pytest

slow = pytest.mark.skipif(
    os.environ.get("SPLITSPECIES_RUN_SLOW") != "1",
    reason="set SPLITSPECIES_RUN_SLOW=1 to run the heavy checks",
)


@slow
def test_labeled_split_count_n8_matches_formula():
    from splitspecies.counting import split_labeled
    from splitspecies.enumeration import ClassTag, count_labeled

    assert count_labeled(8, ClassTag.SPLIT) == split_labeled(8) == 5843954


@slow
def test_unlabeled_split_count_n8():
    from splitspecies.enumeration import ClassTag, count_unlabeled

    assert count_unlabeled(8, ClassTag.SPLIT) == 557


@slow
def test_cli_formula_sweep_to_318(capsys):
    from splitspecies.cli import main

    code = main(["verify", "--suite", "formulas", "--max-n", "318"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["discrepancies"] == []


@slow
def test_lines_are_the_encoded_structures_n7():
    from splitspecies.enumeration import ClassTag, enumerate_labeled

    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    for tag in ClassTag:
        if tag is not ClassTag.ALL_GRAPHS:  # 2^21 graphs
            expected = [encode(s.to_json()) for s in enumerate_labeled(7, tag)]
            assert list(enumerate_labeled(7, tag, lines=True)) == expected, tag
