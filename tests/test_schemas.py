"""CLI JSON outputs validate against the shipped schemas."""

import json
import os

import jsonschema
import pytest

from splitspecies import bijections, enumeration, graphs
from splitspecies.cli import main
from splitspecies.enumeration import ClassTag

from conftest import TESTDATA

SCHEMA_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "splitspecies", "schemas")


def load_schema(name):
    with open(os.path.join(SCHEMA_DIR, name)) as f:
        return json.load(f)


def cli_json(capsys, *argv):
    assert main(list(argv)) == 0
    return json.loads(capsys.readouterr().out)


def test_count_output_schema(capsys):
    data = cli_json(capsys, "count", "--class", "split", "--labeled",
                    "--max-n", "6", "--format", "json")
    jsonschema.validate(data, load_schema("count.schema.json"))


def test_classify_output_schema(capsys, tmp_path):
    path = os.path.join(tmp_path, "g.g")
    with open(path, "w") as f:
        f.write("2\n0 1\n")
    data = cli_json(capsys, "classify", "--graph", path)
    jsonschema.validate(data, load_schema("classify.schema.json"))


def test_verify_identities_schema(capsys):
    data = cli_json(capsys, "verify", "--suite", "identities", "--max-n", "4")
    jsonschema.validate(data, load_schema("verify-identities.schema.json"))


def test_verify_formulas_schema(capsys, monkeypatch):
    schema = load_schema("verify-formulas.schema.json")
    data = cli_json(capsys, "verify", "--suite", "formulas", "--max-n", "10")
    jsonschema.validate(data, schema)
    # a failing report: the labeled ambiguous count at n = 4 one too high
    count = enumeration.count_labeled
    monkeypatch.setattr(enumeration, "count_labeled",
                        lambda n, tag: count(n, tag) + ((n, tag) == (4, ClassTag.AMBIGUOUS)))
    assert main(["verify", "--suite", "formulas", "--max-n", "7"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["discrepancies"]
    jsonschema.validate(data, schema)
    for field, value in (("n", "4"), ("got", 1)):  # counts are strings, sizes integers
        bad = {**data, "discrepancies": [{**data["discrepancies"][0], field: value}]}
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(bad, schema)


def test_asym_schema(capsys):
    data = cli_json(capsys, "asym", "--max-n", "6", "--format", "json")
    jsonschema.validate(data, load_schema("ratio-report.schema.json"))


def test_enumerate_lines_match_graph_schemas(capsys):
    assert main(["enumerate", "--class", "split", "--n", "3"]) == 0
    graph_schema = load_schema("graph.schema.json")
    for line in capsys.readouterr().out.strip().splitlines():
        jsonschema.validate(json.loads(line), graph_schema)
    assert main(["enumerate", "--class", "colored-split", "--n", "3"]) == 0
    colored_schema = load_schema("colored-graph.schema.json")
    for line in capsys.readouterr().out.strip().splitlines():
        jsonschema.validate(json.loads(line), colored_schema)


def test_census_golden_files_match_schema():
    schema = load_schema("census.schema.json")
    for n in range(8):
        with open(os.path.join(TESTDATA, f"census-n{n}.json")) as f:
            jsonschema.validate(json.load(f), schema)


def test_verify_random_schema(capsys, monkeypatch):
    for max_n in ("1", "2", "6"):  # k-canonical round trips skipped, ambiguous ones, none
        data = cli_json(capsys, "verify", "--suite", "random", "--max-n", max_n, "--cases", "5")
        jsonschema.validate(data, load_schema("verify-random.schema.json"))
    # failures of both kinds: on a random graph, and on a round trip's edge word
    monkeypatch.setattr(graphs, "is_split", lambda g: False)
    monkeypatch.setattr(bijections, "amb_compose", lambda v, rest: rest)
    assert main(["verify", "--suite", "random", "--max-n", "5", "--cases", "5"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert {"graph", "word"} <= {key for failure in data["failures"] for key in failure}
    jsonschema.validate(data, load_schema("verify-random.schema.json"))


# (map, option, file name, content): the graphs of the biject tests in
# test_cli.py, an ambiguous graph (P4 and a vertex joined to its middle) and
# a colored triangle
BIJECT_INPUTS = [
    ("uk-decompose", "--graph", "k2.g", "2\n0 1\n"),
    ("amb-decompose", "--graph", "amb.g", "5\n0 1\n1 2\n2 3\n1 4\n2 4\n"),
    ("cuk-decompose", "--input", "k3.json",
     '{"n": 3, "edges": [[0, 1], [0, 2], [1, 2]], "green": [0, 1], "red": [2]}'),
    ("split-to-bicolored", "--input", "colored.json",
     '{"n": 4, "edges": [[0, 1], [1, 2], [2, 3]], "green": [1, 2], "red": [0, 3]}'),
    ("bicolored-to-split", "--input", "bicolored.json",
     '{"n": 4, "edges": [[0, 1], [2, 3]], "green": [1, 2], "red": [0, 3]}'),
]


def test_biject_schema(capsys, tmp_path):
    schema = load_schema("biject.schema.json")
    for name, option, filename, content in BIJECT_INPUTS:
        path = os.path.join(tmp_path, filename)
        with open(path, "w") as f:
            f.write(content)
        data = cli_json(capsys, "biject", "--map", name, option, path)
        assert data["map"] == name
        jsonschema.validate(data, schema)
        with pytest.raises(jsonschema.ValidationError):  # each branch names its map
            jsonschema.validate({**data, "map": "no-such-map"}, schema)
