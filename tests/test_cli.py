"""The command-line interface: outputs, exit codes, determinism."""

import ast
import hashlib
import json
import os
import subprocess
import sys

import pytest

import splitspecies
from splitspecies import checks
from splitspecies.cli import main

from conftest import TESTDATA


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_graph(tmp_path, name, text):
    path = os.path.join(tmp_path, name)
    with open(path, "w") as f:
        f.write(text)
    return path


# Runs CLI commands in one fresh interpreter in which numpy cannot be imported;
# after each, prints its exit code and which of the watched modules are loaded.
_MODULE_PROBE = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
import splitspecies
import splitspecies.cli as cli
watched = ("dataclasses", "fractions", "inspect", "mpmath", "splitspecies.asymptotics",
           "splitspecies.enumeration")
seen = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    seen.append([code, [m for m in watched if m in sys.modules]])
print(json.dumps(seen))
"""


def test_light_commands_do_not_load_numpy_or_mpmath():
    """No command needs numpy or mpmath; none loads dataclasses.

    Labeled counts, the census commands, the seeded random suite and the
    asymptotic report all run with numpy unimportable and load no mpmath,
    and neither dataclasses nor inspect (which it imports) loads at start-up
    or in any command.  The package's own modules stay loaded: the span
    tracer patches them.
    """
    src = os.path.dirname(os.path.dirname(splitspecies.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    commands = [["count", "--class", "split", "--labeled", "--n", "20"],
                ["count", "--class", "balanced", "--labeled", "--n", "64"],
                ["verify", "--suite", "identities", "--max-n", "5"],
                ["count", "--class", "balanced", "--unlabeled", "--max-n", "6"],
                ["enumerate", "--class", "bicolored", "--n", "4"],
                ["verify", "--suite", "random", "--seed", "7"],
                ["asym", "--max-n", "5"]]
    done = subprocess.run([sys.executable, "-c", _MODULE_PROBE, json.dumps(commands)],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True)
    package = ["splitspecies.asymptotics", "splitspecies.enumeration"]
    assert json.loads(done.stdout) == [[0, package]] * 7


# Imports the package and runs commands in one fresh interpreter, itself
# loading no json; after each step, prints whether json is loaded.
_JSON_PROBE = """
import contextlib, io, sys
seen = [("import splitspecies", "json" in sys.modules)]
import splitspecies
seen.append(("after import splitspecies", "json" in sys.modules))
import splitspecies.cli as cli
seen.append(("after import splitspecies.cli", "json" in sys.modules))
for argv in (a.split() for a in sys.argv[1:]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    seen.append((" ".join(argv), code, "json" in sys.modules))
print(repr(seen))
"""


def test_text_and_csv_commands_do_not_load_json():
    """Start-up, every text or CSV command and enumerate run without the json module."""
    src = os.path.dirname(os.path.dirname(splitspecies.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    commands = ["count --class split --labeled --max-n 30",
                "count --class balanced --labeled --n 20 --format csv",
                "asym --max-n 20",
                "verify --suite formulas --max-n 20 --format text",
                "enumerate --class colored-split --n 4"]
    done = subprocess.run([sys.executable, "-c", _JSON_PROBE, *commands],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True)
    assert ast.literal_eval(done.stdout) == [
        ("import splitspecies", False),
        ("after import splitspecies", False),
        ("after import splitspecies.cli", False),
        *((argv, 0, False) for argv in commands)]


def test_count_bicolored_labeled(capsys):
    code, out, _ = run_cli(capsys, "count", "--class", "bicolored", "--labeled", "--n", "4")
    assert code == 0
    assert out.strip() == "bicolored labeled n=4: 162"


def test_count_split_json(capsys):
    code, out, _ = run_cli(capsys, "count", "--class", "split", "--labeled",
                           "--max-n", "5", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["counts"] == {"0": "1", "1": "1", "2": "2", "3": "8", "4": "58", "5": "632"}


def test_count_large_n_uses_formula(capsys):
    code, out, _ = run_cli(capsys, "count", "--class", "split", "--labeled",
                           "--n", "20", "--format", "json")
    assert code == 0
    value = int(json.loads(out)["counts"]["20"])
    from splitspecies.counting import split_labeled

    assert value == split_labeled(20)


def test_count_chain_sweep_matches_point_queries(capsys):
    code, sweep, _ = run_cli(capsys, "count", "--class", "balanced", "--labeled",
                             "--max-n", "70")
    assert code == 0
    points = []
    for n in range(71):
        code, out, _ = run_cli(capsys, "count", "--class", "balanced", "--labeled",
                               "--n", str(n))
        assert code == 0
        points.append(out)
    assert sweep == "".join(points)
    assert len(sweep.splitlines()) == 71


def test_count_unlabeled_oracle(capsys):
    code, out, _ = run_cli(capsys, "count", "--class", "split", "--unlabeled",
                           "--max-n", "6", "--format", "csv")
    assert code == 0
    assert out.splitlines()[-1] == "6,split,unlabeled,56"


def test_count_unlabeled_too_large_exits_3(capsys):
    code, _, err = run_cli(capsys, "count", "--class", "bicolored", "--unlabeled", "--n", "9")
    assert code == 3
    assert "error" in err


def test_enumerate_jsonl(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--class", "balanced", "--n", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 12
    assert all("edges" in json.loads(line) for line in lines)


# (largest n, sha256 of the stdout of ``enumerate --n 0`` .. ``--n <largest n>``,
# concatenated) per class; n = 6 gives outputs of several write blocks
ENUMERATE_SHA256 = {
    "all-graphs": (6, "6629f0adaccf30d8aa73691609f9d88b0037e57441e8e10cc8933b6a79e8a36f"),
    "split": (5, "ce0f4239777241710dfb4ab571ac0334bdbefb31894c275f0dad540df967b166"),
    "balanced": (5, "5df40da6c015399ed76898daa457067e4573e8274850b7affdb388c5110638e9"),
    "unbalanced": (5, "5b6b631663833ca64f1f246b0012a24b751cf09bef94ccba70ed181ac23db90f"),
    "k-canonical": (5, "e70b19d4879ea2af19c67d5959f6d99054ecf664feab8eb3d3ec5982695fd1b2"),
    "s-canonical": (5, "fc46df906e1e0cd18e6ace6a40fb866c7a567baa8e489bfa19ac7a4aee346c18"),
    "ambiguous": (5, "0895fd5993b0cf920269508889c054c5d740a08bed1e7d0beb7207280ddf0a0c"),
    "colored-split": (5, "d643a9012e12782bd562e1ba010743eadba1f073b56d10a591b4e111b2d66d01"),
    "bicolored": (6, "d5ba6602e01a6dd8383714e9a10647bba63f372c9df0bf500b88bffb3a0e39c7"),
    "bicolored-no-isolated-green":
        (5, "800428bb9b46f3b78b4c348de9e1c2831a1bfc199ca3df9f3c76b86e13d7f7e4"),
}


@pytest.mark.parametrize("tag", sorted(ENUMERATE_SHA256))
def test_enumerate_output_is_pinned(capsys, tag):
    """Byte-for-byte enumerate output, order included, for every class at n <= 5."""
    top, expected = ENUMERATE_SHA256[tag]
    digest = hashlib.sha256()
    for n in range(top + 1):
        code, out, _ = run_cli(capsys, "enumerate", "--class", tag, "--n", str(n))
        assert code == 0
        digest.update(out.encode())
    assert digest.hexdigest() == expected


# sha256 of the stdout of ``asym`` (--max-n 200) and of ``asym --max-n 30
# --unlabeled-base testdata/unlabeled-split.json``, as printed through mpmath;
# the JSON digests are of that output without its old top-level "bits" key
ASYM_SHA256 = {
    ("csv", False): "65d17014dd1dbc716f2471595dcb97764bd6b892a173e676e9829a522d565e52",
    ("json", False): "45a62ba5f3e2c607365528947a5489d4a675249ad47f34324667220e8c96d3b6",
    ("csv", True): "bb3a4d8e210df159e5b19f4114203d063d5f7c63e267ee0cf0e47ab4bae3a895",
    ("json", True): "8ddb7e66ca122c11a23fa79255f438e11e26f3f525c90a68bf6daa55b2fcd7a8",
}


@pytest.mark.parametrize("fmt, unlabeled", sorted(ASYM_SHA256))
def test_asym_output_is_pinned(capsys, fmt, unlabeled):
    """Byte-for-byte asym output, every printed digit of every ratio included."""
    argv = ["asym", "--format", fmt]
    if unlabeled:
        argv += ["--max-n", "30", "--unlabeled-base",
                 os.path.join(TESTDATA, "unlabeled-split.json")]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ASYM_SHA256[fmt, unlabeled]


# sha256 of the stdout of ``verify --suite identities --max-n 7``, as printed
# when every count was read from a whole census
VERIFY_SHA256 = {
    "text": "91196f25711f0f2c66d82dce8d839c4236006c81a2eb92a9c78d696ce56ac3a8",
    "json": "942583886446063bebe93a8e4b63969f48e4276681b1a7227053c5e105751dbb",
}


@pytest.mark.parametrize("fmt", sorted(VERIFY_SHA256))
def test_verify_identities_output_is_pinned(capsys, fmt):
    """Byte-for-byte identity battery output: every check, value and order."""
    code, out, _ = run_cli(capsys, "verify", "--suite", "identities", "--max-n", "7",
                           "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_SHA256[fmt]


def test_classify_split_graph(capsys, tmp_path):
    path = write_graph(tmp_path, "p4.g", "4\n0 1\n1 2\n2 3\n")
    code, out, _ = run_cli(capsys, "classify", "--graph", path)
    assert code == 0
    data = json.loads(out)
    assert data["class"] == "balanced"
    assert data["swing_report"]["kind"] == "empty"


def test_classify_non_split_exits_3(capsys, tmp_path):
    path = write_graph(tmp_path, "c4.g", "4\n0 1\n1 2\n2 3\n3 0\n")
    code, _, err = run_cli(capsys, "classify", "--graph", path)
    assert code == 3
    assert "partition" in err


def test_biject_uk(capsys, tmp_path):
    path = write_graph(tmp_path, "k2.g", "2\n0 1\n")
    code, out, _ = run_cli(capsys, "biject", "--map", "uk-decompose", "--graph", path)
    assert code == 0
    data = json.loads(out)
    assert data["swing_set"] == [0, 1]


def test_biject_wrong_class_exits_3(capsys, tmp_path):
    path = write_graph(tmp_path, "p4.g", "4\n0 1\n1 2\n2 3\n")
    code, _, err = run_cli(capsys, "biject", "--map", "uk-decompose", "--graph", path)
    assert code == 3 and "k-canonical" in err


def test_biject_colored_maps(capsys, tmp_path):
    colored = {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]], "green": [1, 2], "red": [0, 3]}
    path = os.path.join(tmp_path, "colored.json")
    with open(path, "w") as f:
        json.dump(colored, f)
    code, out, _ = run_cli(capsys, "biject", "--map", "split-to-bicolored", "--input", path)
    assert code == 0
    result = json.loads(out)["result"]
    assert [1, 2] not in result["edges"] and result["green"] == [1, 2]

    bicolored_path = os.path.join(tmp_path, "bicolored.json")
    with open(bicolored_path, "w") as f:
        json.dump(result, f)
    code, out, _ = run_cli(capsys, "biject", "--map", "bicolored-to-split",
                           "--input", bicolored_path)
    assert code == 0
    assert json.loads(out)["result"]["edges"] == colored["edges"]


def test_biject_names_the_keys_a_wrapped_result_lacks(capsys, tmp_path):
    """The wrapped output of split-to-bicolored is not a bicolored graph: fed
    back unchanged, it is refused with exit 3 and the missing keys named."""
    colored = {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]], "green": [1, 2], "red": [0, 3]}
    path = os.path.join(tmp_path, "colored.json")
    with open(path, "w") as f:
        json.dump(colored, f)
    code, wrapped, _ = run_cli(capsys, "biject", "--map", "split-to-bicolored", "--input", path)
    assert code == 0
    wrapped_path = os.path.join(tmp_path, "wrapped.json")
    with open(wrapped_path, "w") as f:
        f.write(wrapped)
    code, out, err = run_cli(capsys, "biject", "--map", "bicolored-to-split", "--input", wrapped_path)
    assert code == 3 and out == ""
    assert err == f'error: {wrapped_path}: the JSON object has no key "n" or "edges"\n'
    code, out, err = run_cli(capsys, "classify", "--graph", wrapped_path)
    assert code == 3 and out == "" and '"edges"' in err and "KeyError" not in err


@pytest.mark.parametrize("label", [-1, 10**11], ids=["negative", "huge"])
@pytest.mark.parametrize("map_name, carrier", [
    ("bicolored-to-split", {"n": 2, "edges": [], "green": [0], "red": [1]}),
    ("split-to-bicolored", {"n": 2, "edges": [[0, 1]], "green": [0, 1], "red": []}),
], ids=["bicolored", "colored"])
def test_biject_refuses_a_label_outside_the_vertices(capsys, tmp_path, label, map_name, carrier):
    """A label outside 0..n-1 exits 3 with one error line that names the file
    and no Python exception; 10^11 is refused before it is shifted into a mask."""
    path = os.path.join(tmp_path, "carrier.json")
    with open(path, "w") as f:
        json.dump({**carrier, "red": carrier["red"] + [label]}, f)
    code, out, err = run_cli(capsys, "biject", "--map", map_name, "--input", path)
    assert code == 3 and out == ""
    assert err == f"error: {path}: vertex label {label} lies outside 0..1\n"


def test_a_graph_file_error_names_the_file(capsys, tmp_path):
    path = write_graph(tmp_path, "g.json", '{"n": 2, "edges": [[0, 5]]}')
    code, out, err = run_cli(capsys, "classify", "--graph", path)
    assert (code, out) == (3, "")
    assert err == f"error: {path}: edge (0, 5) has an endpoint outside 0..1\n"


def test_verify_identities_passes_and_is_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "--suite", "identities", "--max-n", "5")
    code2, out2, _ = run_cli(capsys, "verify", "--suite", "identities", "--max-n", "5")
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["discrepancies"] == []


def test_verify_formulas_small(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "formulas", "--max-n", "12")
    assert code == 0
    data = json.loads(out)
    assert data == {"checked_to": 12, "discrepancies": []}
    assert err.startswith("formulas: ") and err.endswith(" ms\n")
    assert run_cli(capsys, "verify", "--suite", "formulas", "--max-n", "12")[:2] == (0, out)


def test_verify_random(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "random", "--seed", "3",
                           "--cases", "40")
    assert code == 0
    data = json.loads(out)
    assert data["failures"] == [] and data["seed"] == 3


def _failed_checks(out: str) -> set[tuple[str, int]]:
    return {(d["check"], d["n"]) for d in json.loads(out)["discrepancies"]}


def test_an_off_by_one_oracle_count_fails_both_suites(capsys, monkeypatch):
    """One labeled ambiguous count one too high at n = 4 breaks the two
    identities that read it, in both suites, and the formulas suite's
    chain-against-oracle row too; each prints them as FAIL lines."""
    from splitspecies import enumeration
    from splitspecies.enumeration import ClassTag

    count = enumeration.count_labeled
    monkeypatch.setattr(enumeration, "count_labeled",
                        lambda n, tag: count(n, tag) + ((n, tag) == (4, ClassTag.AMBIGUOUS)))
    fail_lines = ["FAIL labeled-unbalanced-partition n=4: expected 46, got 47",
                  "FAIL labeled-ambiguous-convolution n=4: expected 0, got 1"]
    oracle_line = "FAIL oracle-ambiguous n=4: expected 0, got 1"
    for suite, extra in (("identities", []), ("formulas", [oracle_line])):
        code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--max-n", "7")
        assert code == 1
        rows = {("labeled-unbalanced-partition", 4), ("labeled-ambiguous-convolution", 4)}
        assert _failed_checks(out) == rows | {("oracle-ambiguous", 4) for _ in extra}
        assert all("ok" not in d for d in json.loads(out)["discrepancies"])
        code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--max-n", "7",
                               "--format", "text")
        assert code == 1
        assert [line for line in out.splitlines() if line.startswith("FAIL")] == fail_lines + extra


def test_an_off_by_one_closed_form_fails_both_suites(capsys, monkeypatch):
    """b_3 one too high breaks the closed-form rows at n = 3 (and s_4, which
    reads b_3); the formulas suite also sees the double sum disagree."""
    from splitspecies import counting

    bicolored = counting.bicolored_labeled
    monkeypatch.setattr(counting, "bicolored_labeled", lambda n: bicolored(n) + (n == 3))
    code, out, _ = run_cli(capsys, "verify", "--suite", "identities", "--max-n", "7")
    assert code == 1
    assert _failed_checks(out) == {("labeled-bicolored-formula", 3),
                                   ("labeled-split-formula", 3), ("labeled-split-formula", 4)}
    code, out, _ = run_cli(capsys, "verify", "--suite", "formulas", "--max-n", "7")
    assert code == 1
    failed = _failed_checks(out)
    assert {("split-formula-agreement", 3), ("labeled-bicolored-formula", 3),
            ("oracle-split", 3)} <= failed
    assert min(n for _, n in failed) == 3


# the two chain mutations that no row caught before UK and Uamb had oracle
# rows: the UK convolution summed from k = 1, and Uamb = (n + 1) B_{n-1};
# each with the rows that must fail, those of every class reading its key
CHAIN_MUTATIONS = {
    "oracle-k-canonical": ("UK", lambda chain, n: chain["UK"][n] + n * chain["cS"][n - 1],
                           {"oracle-k-canonical", "oracle-s-canonical"}),
    "oracle-ambiguous": ("Uamb", lambda chain, n: (n + 1) * chain["B"][n - 1],
                         {"oracle-ambiguous"}),
}


@pytest.mark.parametrize("row", sorted(CHAIN_MUTATIONS))
def test_a_broken_chain_series_fails_its_oracle_row(capsys, monkeypatch, row):
    from splitspecies import counting

    key, mutated, rows = CHAIN_MUTATIONS[row]
    derive = counting.derive_labeled_chain

    def broken(order):
        chain = derive(order)
        chain[key] = chain[key][:1] + [mutated(chain, n) for n in range(1, order + 1)]
        return chain

    monkeypatch.setattr(counting, "derive_labeled_chain", broken)
    code, out, _ = run_cli(capsys, "verify", "--suite", "formulas", "--max-n", "7")
    assert code == 1
    assert {name for name, _ in _failed_checks(out)} == rows


@pytest.mark.parametrize("tag", checks.CHAIN_KEYS, ids=lambda tag: tag.value)
def test_every_chain_served_class_has_its_oracle_row(capsys, monkeypatch, tag):
    """A chain count one too high at n = 5 is what ``count`` prints for each
    class it serves from the chain, and ``verify`` names that class's row;
    split is served by its closed form, which stays as it was."""
    from splitspecies import counting

    key = checks.CHAIN_KEYS[tag]
    derive = counting.derive_labeled_chain
    right = derive(5)[key][5]

    def bumped(order):
        chain = derive(order)
        if order >= 5:
            chain[key][5] += 1
        return chain

    monkeypatch.setattr(counting, "derive_labeled_chain", bumped)
    code, out, _ = run_cli(capsys, "count", "--class", tag.value, "--labeled", "--n", "5")
    served = right if tag in checks.CLOSED_FORMS else right + 1
    assert (code, out) == (0, f"{tag.value} labeled n=5: {served}\n")
    code, out, _ = run_cli(capsys, "verify", "--suite", "formulas", "--max-n", "7")
    assert code == 1
    assert (f"oracle-{tag.value}", 5) in _failed_checks(out)


def test_verify_identities_refuses_past_the_census_before_any_work(capsys, monkeypatch):
    from splitspecies import enumeration

    def refuse(*args):
        raise AssertionError("a census was built before --max-n was checked")

    for name in ("count_labeled", "count_unlabeled", "_split_data"):
        monkeypatch.setattr(enumeration, name, refuse)
    code, out, err = run_cli(capsys, "verify", "--suite", "identities", "--max-n", "8")
    assert (code, out, err) == (3, "", "error: --max-n is capped at 7, got 8\n")


@pytest.mark.parametrize("max_n", [2, 3])
def test_verify_random_small_max_n(capsys, monkeypatch, max_n):
    """No ambiguous graph exists at n = 2, 3: those round trips are skipped
    and reported, and the split tests stay within --max-n."""
    from splitspecies import graphs

    sizes = []
    make_graph = graphs.make_graph
    monkeypatch.setattr(graphs, "make_graph", lambda n, edges: sizes.append(n) or make_graph(n, edges))
    code, out, _ = run_cli(capsys, "verify", "--suite", "random", "--max-n", str(max_n),
                           "--cases", "40")
    assert code == 0
    data = json.loads(out)
    assert data["failures"] == []
    assert data["skipped"] == [{"class": "ambiguous", "n": max_n, "checks": ["amb-round-trip"]}]
    assert max(sizes) == max_n


def test_asym_csv(capsys):
    code, out, _ = run_cli(capsys, "asym", "--max-n", "8", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,b_ratio,s_over_b,u_over_s,bound,bound_holds"
    assert len(lines) == 9


def test_asym_json_with_unlabeled_base(capsys):
    base = os.path.join(TESTDATA, "unlabeled-split.json")
    code, out, _ = run_cli(capsys, "asym", "--max-n", "6", "--format", "json",
                           "--unlabeled-base", base)
    assert code == 0
    data = json.loads(out)
    assert len(data["rows"]) == 6 and len(data["unlabeled_rows"]) == 7


@pytest.mark.parametrize("content", ["[1, 5, 2]", "{}"], ids=["bare-list", "no-values"])
def test_asym_base_without_values_object_names_the_shape(capsys, tmp_path, content):
    path = write_graph(tmp_path, "base.json", content)
    code, out, err = run_cli(capsys, "asym", "--max-n", "3", "--unlabeled-base", path)
    assert code == 3 and out == ""
    assert err == f'error: {path}: must be a JSON object with a "values" list\n'


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "formulas", "--max-n", "501"),
    ("asym", "--max-n", "401"),
])
def test_counting_caps_exit_3(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("error: --max-n ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("klass", ["all-graphs", "split", "bicolored"])
def test_closed_forms_count_at_their_cap(capsys, klass):
    code, out, err = run_cli(capsys, "count", "--class", klass, "--labeled", "--n", "500")
    assert code == 0 and err == "" and out.startswith(f"{klass} labeled n=500: ")


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["count", "--class", "split"])  # labeled/unlabeled missing
    assert exc.value.code == 2


def test_unknown_class_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["count", "--class", "nonsense", "--labeled", "--n", "3"])
    assert exc.value.code == 2


def _cli_process(argv, stdout):
    """The CLI in a fresh interpreter, on this checkout's package."""
    src = os.path.dirname(os.path.dirname(splitspecies.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, "-m", "splitspecies.cli", *argv],
                            env=dict(os.environ, PYTHONPATH=path),
                            stdout=stdout, stderr=subprocess.PIPE)


@pytest.mark.parametrize("argv", [
    ("enumerate", "--class", "split", "--n", "6"),
    ("count", "--class", "split", "--labeled", "--max-n", "300"),
])
def test_a_reader_that_closes_the_pipe_early_gets_141_and_no_traceback(argv):
    """As under ``| head -1``: the reader takes one line of output far larger
    than a pipe's buffer, then closes the pipe."""
    proc = _cli_process(argv, subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 141
    assert err == b""
    assert first.endswith(b"\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ("count", "--class", "split", "--labeled", "--n", "3"),
    ("enumerate", "--class", "split", "--n", "6"),
])
def test_a_full_disk_on_stdout_exits_74_with_one_error_line(argv):
    """Output to /dev/full fails every write with ENOSPC: the status is
    EX_IOERR, not 1 (a found discrepancy), and stderr holds no traceback."""
    with open("/dev/full", "wb") as full:
        proc = _cli_process(argv, full)
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait() == 74
    assert err.startswith("error: cannot write output (") and len(err.splitlines()) == 1


def test_missing_file_exits_3(capsys):
    code, _, err = run_cli(capsys, "classify", "--graph", "/nonexistent/file.g")
    assert code == 3


@pytest.mark.parametrize("argv", [
    ["classify", "--graph"],
    ["biject", "--map", "cuk-decompose", "--input"],
    ["asym", "--max-n", "3", "--unlabeled-base"],
], ids=lambda argv: argv[0])
def test_unreadable_input_path_exits_3(capsys, tmp_path, argv):
    code, out, err = run_cli(capsys, *argv, str(tmp_path))  # a directory
    assert code == 3 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


# (argv, content of the file named by "{file}" or None, exit code)
BAD_INVOCATIONS = {
    "malformed-text": (["classify", "--graph", "{file}"], "4\n0 x\n", 3),
    "text-edge-of-three": (["classify", "--graph", "{file}"], "4\n0 1 2\n", 3),
    "malformed-json": (["classify", "--graph", "{file}"], '{"n": 4, "edges": [[0, 1]', 3),
    "json-edges-not-pairs": (["classify", "--graph", "{file}"], '{"n": 4, "edges": [7]}', 3),
    "colored-json-without-green": (
        ["biject", "--map", "split-to-bicolored", "--input", "{file}"],
        '{"n": 2, "edges": [[0, 1]], "red": [1]}', 3),
    "bicolored-malformed-json": (
        ["biject", "--map", "bicolored-to-split", "--input", "{file}"], "[1, 2", 3),
    "graph-json-bool-endpoint": (["classify", "--graph", "{file}"],
                                 '{"n": 3, "edges": [[true, 2]]}', 3),
    "colored-json-bool-label": (
        ["biject", "--map", "split-to-bicolored", "--input", "{file}"],
        '{"n": 2, "edges": [[0, 1]], "green": [true], "red": [0]}', 3),
    "count-labeled-negative-n": (["count", "--class", "split", "--labeled", "--n", "-1"], None, 3),
    "count-all-graphs-negative-n": (
        ["count", "--class", "all-graphs", "--labeled", "--n", "-1"], None, 3),
    "count-unlabeled-negative-n": (
        ["count", "--class", "balanced", "--unlabeled", "--n", "-1"], None, 3),
    "count-negative-max-n": (["count", "--class", "split", "--labeled", "--max-n", "-1"], None, 3),
    # one past counting.MAX_FORMULA_N, the cap of the closed forms and of count --max-n
    "count-all-graphs-past-cap": (
        ["count", "--class", "all-graphs", "--labeled", "--n", "501"], None, 3),
    "count-split-past-cap": (["count", "--class", "split", "--labeled", "--n", "501"], None, 3),
    "count-bicolored-past-cap": (
        ["count", "--class", "bicolored", "--labeled", "--n", "501"], None, 3),
    "count-past-cap-max-n": (
        ["count", "--class", "all-graphs", "--labeled", "--max-n", "501"], None, 3),
    "enumerate-negative-n": (["enumerate", "--class", "split", "--n", "-1"], None, 3),
    "enumerate-format-option": (
        ["enumerate", "--class", "split", "--n", "3", "--format", "jsonl"], None, 2),
    "verify-negative-max-n": (["verify", "--suite", "identities", "--max-n", "-1"], None, 3),
    "verify-negative-cases": (["verify", "--suite", "random", "--cases", "-5"], None, 3),
    "verify-identities-past-census": (["verify", "--suite", "identities", "--max-n", "8"], None, 3),
    "asym-negative-max-n": (["asym", "--max-n", "-1"], None, 3),
    "asym-bits-option": (["asym", "--max-n", "5", "--bits", "256"], None, 2),
    "asym-base-zero": (["asym", "--max-n", "3", "--unlabeled-base", "{file}"],
                       '{"values": [1, 0, 2]}', 3),
    "asym-base-negative": (["asym", "--max-n", "3", "--unlabeled-base", "{file}"],
                           '{"values": [1, -1, 2]}', 3),
    "asym-base-float": (["asym", "--max-n", "3", "--unlabeled-base", "{file}"],
                        '{"values": [1, 1.5]}', 3),
    "asym-base-string": (["asym", "--max-n", "3", "--unlabeled-base", "{file}"],
                         '{"values": "12"}', 3),
    "asym-base-bool": (["asym", "--max-n", "3", "--unlabeled-base", "{file}"],
                       '{"values": [1, true]}', 3),
    "asym-base-below-partial-sum": (["asym", "--max-n", "3", "--unlabeled-base", "{file}"],
                                    '{"values": [1, 5, 2]}', 3),
    "asym-base-past-cap": (["asym", "--max-n", "3", "--unlabeled-base", "{file}"],
                           json.dumps({"values": [1 << k for k in range(402)]}), 3),
    "uk-decompose-without-graph": (["biject", "--map", "uk-decompose"], None, 2),
    "colored-map-without-input": (["biject", "--map", "cuk-decompose"], None, 2),
}


@pytest.mark.parametrize("case", sorted(BAD_INVOCATIONS))
def test_bad_invocations_exit_with_documented_codes(capsys, tmp_path, case):
    argv, content, expected = BAD_INVOCATIONS[case]
    if content is not None:
        path = write_graph(tmp_path, "input", content)
        argv = [path if a == "{file}" else a for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse reports usage errors this way
        code = exc.code
    out, err = capsys.readouterr()
    assert code == expected and out == ""
    if expected == 3:
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        if case.endswith("-max-n"):  # a bad size names the flag that gave it
            assert err.startswith("error: --max-n ")
    else:
        assert "usage:" in err and ("is required" in err or "unrecognized arguments" in err)


def test_internal_invariant_failure_exits_4(capsys, monkeypatch):
    from splitspecies import counting
    from splitspecies.errors import NonIntegralResult, SplitSpeciesError

    assert not issubclass(NonIntegralResult, SplitSpeciesError)

    def broken(n):
        raise NonIntegralResult(f"double-sum total for n={n} leaves remainder 1")

    monkeypatch.setattr(counting, "split_labeled_bp", broken)
    code, out, err = run_cli(capsys, "verify", "--suite", "formulas", "--max-n", "3")
    assert code == 4 and out == ""
    assert err == "error: internal invariant failed: double-sum total for n=1 leaves remainder 1\n"


def test_a_monochrome_bicolored_key_exits_4(capsys, monkeypatch):
    from splitspecies import enumeration

    keys = enumeration._bicolored_keys

    def broken(n, tag):
        out = keys(n, tag)
        out[out.index(0b11)] |= 1 << n  # green {0, 1}, given their edge (bit 0)
        return out

    monkeypatch.setattr(enumeration, "_bicolored_keys", broken)
    code, out, err = run_cli(capsys, "enumerate", "--class", "bicolored", "--n", "4")
    assert code == 4 and out == ""
    assert err.startswith("error: internal invariant failed: bicolored key ")
    assert "at n=4 " in err


def _lonely_green_exits_4(capsys, monkeypatch, klass, generator):
    """``enumerate --class klass --n 4`` with the first key of ``generator``
    that has a green vertex stripped of that vertex's red edges exits 4."""
    from splitspecies import enumeration
    from splitspecies.graphs import bits_of, edge_bit

    keys = getattr(enumeration, generator)

    def broken(n, *tag):
        out = keys(n, *tag)
        full = (1 << n) - 1
        i = next(i for i, key in enumerate(out) if key & full)
        green = out[i] & full
        v = bits_of(green)[0]
        out[i] &= ~sum(1 << (edge_bit(v, r) + n) for r in bits_of(full ^ green))
        return out

    monkeypatch.setattr(enumeration, generator, broken)
    code, out, err = run_cli(capsys, "enumerate", "--class", klass, "--n", "4")
    assert code == 4 and out == ""
    assert err.startswith(f"error: internal invariant failed: {klass} key ")
    assert err.endswith(" at n=4 has a green vertex with no red neighbour\n")


def test_a_colored_split_key_with_a_lonely_green_vertex_exits_4(capsys, monkeypatch):
    _lonely_green_exits_4(capsys, monkeypatch, "colored-split", "_colored_split_keys")


def test_a_bicolored_key_with_an_isolated_green_vertex_exits_4(capsys, monkeypatch):
    _lonely_green_exits_4(capsys, monkeypatch, "bicolored-no-isolated-green", "_bicolored_keys")


def test_broken_swing_invariant_exits_4(capsys, tmp_path, monkeypatch):
    """A partition list whose swing set is neither a clique nor a stable set
    is a bug, not bad input: exit 4, not 3.  Each of the listed clique sides
    {0}, {1}, {2} is the empty one plus one vertex, so on the one-edge graph
    all three vertices swing."""
    from splitspecies import structure

    monkeypatch.setattr(structure, "_clique_sides", lambda g: [0b000, 0b001, 0b010, 0b100])
    path = write_graph(tmp_path, "edge.g", "3\n0 1\n")
    code, out, err = run_cli(capsys, "classify", "--graph", path)
    assert code == 4 and out == ""
    assert err == "error: internal invariant failed: swing set neither clique nor stable\n"
