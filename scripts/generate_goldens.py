#!/usr/bin/env python3
"""Regenerate the golden files under testdata/.

Produces:
  census-n{0..7}.json     exhaustive labeled/unlabeled class censuses
  unlabeled-split.json    oracle values s~_0..s~_7 (base for unlabeled chains)
  thresholds.json         empirically pinned "large enough n" thresholds

Run from the repository root:  python scripts/generate_goldens.py
It needs mpmath (the test extra) to print the anchors of thresholds.json.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import mpmath

from splitspecies.asymptotics import (
    asymptotic_bicolored,
    check_b_ratio,
    u_over_s_bound_violations,
    u_over_s_monotone_from,
)
from splitspecies.counting import bicolored_labeled
from splitspecies.enumeration import ClassTag, class_census, write_census_files

OUT = os.path.join(os.path.dirname(__file__), "..", "testdata")


def b_over_asymptotic_abs_err(n, bits=256):
    """mpmath.nstr(|b_n / asymptotic(n) - 1|, 8), the same from both ends of
    the integer bracket of the growth formula."""
    lo, hi = asymptotic_bicolored(n, bits)
    with mpmath.workprec(bits):
        ends = {mpmath.nstr(abs(mpmath.mpf(bicolored_labeled(n) << bits) / end - 1), 8)
                for end in (lo, hi)}
    if len(ends) != 1:
        raise SystemExit(f"the {bits}-bit bracket does not settle 8 digits at n = {n}")
    return ends.pop()


def main():
    os.makedirs(OUT, exist_ok=True)

    t0 = time.time()
    write_census_files(OUT)
    base = [class_census(n).unlabeled[ClassTag.SPLIT] for n in range(8)]
    with open(os.path.join(OUT, "unlabeled-split.json"), "w") as f:
        json.dump({"kind": "split/unlabeled/oracle", "max_n": 7, "values": base},
                  f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"census + unlabeled base: {time.time() - t0:.1f}s  base={base}")

    t0 = time.time()
    b_viol = check_b_ratio(500, "bicolored")
    s_viol = check_b_ratio(500, "split")
    us_viol = u_over_s_bound_violations(200)
    monotone_from = u_over_s_monotone_from(200)
    anchor = {str(n): b_over_asymptotic_abs_err(n) for n in (50, 100, 150, 200, 51, 101, 151, 201)}
    thresholds = {
        "bicolored_ratio_violations": b_viol,
        "bicolored_ratio_threshold": (b_viol[-1] + 1) if b_viol else 1,
        "split_ratio_violations": s_viol,
        "split_ratio_threshold": (s_viol[-1] + 1) if s_viol else 1,
        "u_over_s_bound_violations": us_viol,
        "u_over_s_bound_threshold": (us_viol[-1] + 1) if us_viol else 1,
        "u_over_s_monotone_from": monotone_from,
        "b_over_asymptotic_abs_err": anchor,
    }
    with open(os.path.join(OUT, "thresholds.json"), "w") as f:
        json.dump(thresholds, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"thresholds: {time.time() - t0:.1f}s  {thresholds['split_ratio_threshold']=}")


if __name__ == "__main__":
    main()
