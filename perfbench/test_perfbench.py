"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import inproc  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)}


@pytest.fixture(autouse=True)
def big_ints():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_ops(name):
    make = workloads.WORKLOADS[name]
    assert make(7, ROOT) == make(7, ROOT)
    assert make(7, ROOT) != make(8, ROOT)


def test_reference_counts_match_golden_censuses():
    counts = reference.labeled_counts(7)
    for n, census in enumerate(reference.load_censuses(ROOT)):
        for tag in reference.ALL_CLASSES:
            assert counts[tag][n] == census["labeled"][tag], (n, tag)


def test_graph_ops_cover_every_size_and_kind():
    ops = workloads.graphs_ops(3, ROOT)
    cells = sorted((op["n"], op["ref"]["class"]) for op in ops)
    want = sorted((n, k) for n in workloads.GRAPH_SIZES for k in workloads.GRAPH_KINDS
                  for _ in range(workloads.GRAPHS_PER_CELL))
    assert cells == want


# -- corrupted outputs are failures ---------------------------------------------

def test_corrupted_count_text_fails_the_check():
    text = reference.count_text("split", "labeled", {5: 632})
    assert reference.check_cli({"type": "text", "text": text}, text.encode()) is None
    assert reference.check_cli({"type": "text", "text": text}, text.replace("632", "633").encode())


def test_corrupted_asym_row_fails_the_check():
    rows = reference.asym_rows(12, reference.labeled_counts(12))
    lines = [reference.ASYM_HEADER] + [
        f"{n},{a!r},{b!r},{c!r},{d!r},{str(h).lower()}" for n, a, b, c, d, h in rows]
    good = "\n".join(lines) + "\n"
    check = {"type": "asym", "max_n": 12, "rows": rows}
    assert reference.check_cli(check, good.encode()) is None
    bad = good.replace(f"{rows[5][2]!r}", f"{rows[5][2] * (1 + 1e-9)!r}", 1)
    assert reference.check_cli(check, bad.encode())


def test_corrupted_enumeration_fails_the_check():
    check = {"type": "enumerate", "n": 2, "count": 2}
    good = b'{"edges":[],"n":2}\n{"edges":[[0,1]],"n":2}\n'
    assert reference.check_cli(check, good) is None
    assert reference.check_cli(check, b'{"edges":[],"n":2}\n{"edges":[],"n":2}\n')


def test_corrupted_formula_value_fails_the_check():
    op = workloads.formulas_ops(1, ROOT)[0]
    want = int(op["ref"], 16)
    assert inproc.formulas_check(op, (want, want)) is None
    assert inproc.formulas_check(op, (want + 1, want))
    assert inproc.formulas_check(op, (want, want - 1))


def test_corrupted_graph_output_fails_the_check():
    sys.path.insert(0, SRC)
    try:
        op = next(o for o in workloads.graphs_ops(1, ROOT) if o["ref"]["class"] == "k-canonical")
        out = inproc.graphs_op(op)
    finally:
        sys.path.remove(SRC)
    assert inproc.graphs_check(op, out) is None
    assert inproc.graphs_check(op, {**out, "class": "s-canonical"})
    assert inproc.graphs_check(op, {**out, "checks": {**out["checks"], "uk_round_trip": False}})


def test_wrong_cli_output_counts_as_a_failed_op(tmp_path):
    bench = run.Bench(ROOT, str(tmp_path))
    argv = ["count", "--class", "split", "--labeled", "--n", "5"]
    ops = [{"argv": argv, "check": {"type": "text", "text": "split labeled n=5: 632\n"}},
           {"argv": argv, "check": {"type": "text", "text": "split labeled n=5: 633\n"}}]
    result = bench.cli_pass(ops, False, [None, None])
    assert len(result.latencies) == 2
    assert len(result.failures) == 1 and result.failures[0].startswith("op 1 count")


# -- spans ----------------------------------------------------------------------

def test_self_time_subtracts_direct_children():
    ms = 1_000_000
    tree = [
        ["cli.main", 0, 100 * ms, None, 0],
        ["series.derive_labeled_chain", 10 * ms, 40 * ms, 0, 0],
        ["series.mul", 15 * ms, 25 * ms, 1, 0],
        ["series.mul", 50 * ms, 90 * ms, 0, 0],
    ]
    self_ms = spans.self_times_ms(tree)
    assert self_ms == {"cli.main": 30.0, "series.derive_labeled_chain": 20.0, "series.mul": 50.0}
    shares = spans.layer_shares(self_ms)
    assert shares == pytest.approx({"cli": 0.3, "series": 0.7})


def _spans_of(tmp_path, args: list[str]) -> tuple[dict, bytes]:
    out_path = tmp_path / "spans.json"
    traced = subprocess.run([sys.executable, os.path.join(HERE, "launch.py"), str(out_path), *args],
                            capture_output=True, env=ENV, cwd=ROOT, check=True)
    plain = subprocess.run([sys.executable, "-m", "splitspecies.cli", *args],
                           capture_output=True, env=ENV, cwd=ROOT, check=True)
    assert traced.stdout == plain.stdout
    return json.loads(out_path.read_text()), traced.stdout


def test_asym_op_nests_cli_asymptotics_and_series_spans(tmp_path):
    dump, _ = _spans_of(tmp_path, ["asym", "--max-n", "12"])
    tree = dump["spans"]

    def ancestors(idx):
        names = []
        while tree[idx][3] is not None:
            idx = tree[idx][3]
            names.append(tree[idx][0])
        return names

    mul = next(i for i, s in enumerate(tree) if s[0] == "series.mul")
    assert ancestors(mul) == ["series.derive_labeled_chain", "asymptotics.ratio_report", "cli.main"]
    bic = [i for i, s in enumerate(tree) if s[0] == "counting.bicolored_labeled"]
    assert bic and all(ancestors(i)[0] == "asymptotics.ratio_report" for i in bic)
    assert all(s[1] <= s[2] for s in tree)
    assert dump["counters"]["asymptotics.asymptotic_bicolored.calls"] == 12
    assert dump["import_ms"] > 0


def test_enumeration_op_counts_structures_and_census_stages(tmp_path):
    dump, stdout = _spans_of(tmp_path, ["enumerate", "--class", "balanced", "--n", "5"])
    c = dump["counters"]
    assert c["enumeration.enumerate_labeled.calls"] == 1
    assert c["enumeration.enumerate_labeled.structures"] == len(stdout.splitlines()) == 240
    assert c["enumeration.words_swept"] == 1 << 10
    assert c["enumeration.classified_graphs"] == c["enumeration.split_words_found"]
    names = {s[0] for s in dump["spans"]}
    assert {"enumeration.split_words", "enumeration.classify_bulk"} <= names


def test_install_patches_every_binding():
    code = """
import splitspecies.cli
from splitspecies import asymptotics, counting, series
import spans
spans.Tracer().install()
assert splitspecies.cli.ratio_report is asymptotics.ratio_report
assert asymptotics.derive_labeled_chain is counting.derive_labeled_chain is series.derive_labeled_chain
assert splitspecies.split_labeled_bp is counting.split_labeled_bp
for module, attr, name, _ in spans.TARGETS:
    obj = vars(__import__("splitspecies." + module, fromlist=["x"]))
    for part in attr.split("."):
        obj = obj[part] if isinstance(obj, dict) else getattr(obj, part)
    assert obj.__code__.co_name in ("wrapper", "gen_wrapper"), name
"""
    env = {**ENV, "PYTHONPATH": ENV["PYTHONPATH"] + os.pathsep + HERE}
    subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
