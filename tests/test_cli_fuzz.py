"""Seeded fuzz of malformed input files through the command line.

Whatever a graph file or a colored-graph file holds, ``classify`` and
``biject --map split-to-bicolored`` must end with a documented exit code
(0 success, 2 usage, 3 bad input) and never with a traceback.  The runs are
derandomized, so every run tries the same inputs.
"""

import contextlib
import io
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from splitspecies.cli import main  # noqa: E402

FUZZ = settings(derandomize=True, max_examples=150, deadline=None, database=None)

VALID_TEXT = ["4\n0 1\n1 2\n2 3\n", "3\n0 1\n", "0\n", "5\n0 1\n0 2\n1 2\n2 3\n2 4\n"]
VALID_COLORED = [
    {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]], "green": [1, 2], "red": [0, 3]},
    {"n": 2, "edges": [[0, 1]], "green": [0], "red": [1]},
    {"n": 1, "edges": [], "green": [], "red": [0]},
]
DEEP = "[" * 100_000 + "]" * 100_000

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.sampled_from(["n", "edges", "green", "red", "x"]), inner, max_size=5),
    max_leaves=20,
)


@st.composite
def mutated_text(draw):
    """A valid .g file with characters replaced, inserted or deleted."""
    text = draw(st.sampled_from(VALID_TEXT))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        c = draw(st.sampled_from("0123456789 -\nx.{"))
        text = draw(st.sampled_from([text[:i] + c + text[i + 1:], text[:i] + c + text[i:],
                                     text[:i] + text[i + 1:]]))
    return text


@st.composite
def mutated_document(draw):
    """A valid colored-graph document with fields dropped or replaced."""
    doc = dict(draw(st.sampled_from(VALID_COLORED)))
    for key in draw(st.lists(st.sampled_from(sorted(doc)), max_size=3)):
        if draw(st.booleans()):
            doc.pop(key, None)
        else:
            doc[key] = draw(json_values)
    return doc


documents = st.one_of(mutated_document(), json_values).map(json.dumps)
graph_files = st.one_of(
    mutated_text(),
    st.text(alphabet="0123456789 -\n\tx,[]{}\":", max_size=40),
    documents,
    st.binary(max_size=16),
)


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


def run_on_file(path, content, argv):
    with open(path, "wb") as f:
        f.write(content if isinstance(content, bytes) else content.encode())
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv + [str(path)])
        except SystemExit as exc:  # argparse reports usage errors this way
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def check_outcome(code, out, err):
    assert code in (0, 2, 3), (code, err)
    assert "Traceback" not in err
    if code == 0:
        json.loads(out)
    else:
        assert out == "" and err.startswith("error: ") and len(err.splitlines()) == 1


@FUZZ
@given(content=graph_files)
@example(content=DEEP)
@example(content='{"n": ' + DEEP + "}")
def test_classify_survives_malformed_graph_files(input_path, content):
    check_outcome(*run_on_file(input_path, content, ["classify", "--graph"]))


@FUZZ
@given(content=documents)
@example(content='{"green": ' + DEEP + "}")
def test_split_to_bicolored_survives_malformed_colored_files(input_path, content):
    check_outcome(*run_on_file(input_path, content,
                               ["biject", "--map", "split-to-bicolored", "--input"]))
