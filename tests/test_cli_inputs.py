"""The exit-code contract over ``cli.main``'s inputs besides argv.

``ALACARTE_FUEL`` (the fuel of ``lang trace`` and ``fuzz-preservation``
run without ``--fuel``), the ``lang trace`` environment file and the
``--replay`` file are each answered, whatever they hold, with exit code 0,
1 or 2 and no traceback.  A fuel that is no integer is named in one
bounded line, and a replay case of an unknown sort exits 2.
"""

import json
import os
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from alacarte import cli

from test_cli_routes import VALUES, _outcome, sexprs

STEPPING = "(app (clos () (pvar x (ty a)) (var x)) (con c (ty a)))"

fuel_texts = st.one_of(
    st.text(alphabet=st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00")),
    st.integers(-5, 10**6).map(str),
    st.integers(4000, 6000).map(lambda n: "9" * n),
    st.sampled_from(["", " 7 ", "+3", "1_000", "1__0", "0x10", "٣", "1e3", "-0"]),
)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=8),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=6), kids, max_size=4),
    max_leaves=10,
)
replay_cases = st.fixed_dictionaries(
    {
        "rho": st.sampled_from(["()", "((x (con c (ty a))))", "((x (var y)))"]) | sexprs,
        "sort": st.sampled_from(["exp", "dec", "xyz", ""]),
        "term": st.sampled_from(VALUES) | sexprs,
    }
)


def _contract(argv):
    code, out, err = _outcome(cli.main, argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    return code, out, err


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    folder = tmp_path_factory.mktemp("inputs")
    (folder / "env.sexpr").write_text("()", encoding="utf-8")
    return folder


@settings(max_examples=300, derandomize=True, deadline=None)
@given(fuel_texts)
def test_every_fuel_text_exits_0_1_or_2_in_one_bounded_line(folder, text):
    with mock.patch.dict(os.environ, {"ALACARTE_FUEL": text}):
        for argv in (
            ["lang", "trace", str(folder / "env.sexpr"), STEPPING],
            ["fuzz-preservation", "--count", "1"],
        ):
            code, _, err = _contract(argv)
            if code == 2:
                assert len(err.splitlines()) == 1 and len(err) < 200, err


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.binary(max_size=64) | st.sampled_from([b"()", b"((x (con c (ty a))))", b"(", b"((x (var y)))"]))
def test_every_environment_file_exits_0_1_or_2(folder, data):
    path = folder / "any-env"
    path.write_bytes(data)
    _contract(["lang", "trace", str(path), STEPPING])


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.binary(max_size=64) | json_values.map(lambda v: json.dumps(v).encode()) | replay_cases.map(lambda c: json.dumps(c).encode()))
def test_every_replay_file_exits_0_1_or_2(folder, data):
    path = folder / "any-case.json"
    path.write_bytes(data)
    _contract(["fuzz-preservation", "--replay", str(path)])


def test_a_fuel_of_too_many_digits_is_named_so_and_quoted_in_part(capsys, monkeypatch):
    monkeypatch.setenv("ALACARTE_FUEL", "9" * 5000)
    assert cli.main(["fuzz-preservation", "--count", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"ALACARTE_FUEL has too many digits, got {'9' * 40!r}... (5000 characters)\n"


def test_a_replay_case_of_an_unknown_sort_exits_2(capsys, tmp_path):
    case_file = tmp_path / "case.json"
    case_file.write_text(json.dumps({"rho": "()", "sort": "xyz", "term": "(con c (ty a))"}), encoding="utf-8")
    assert cli.main(["fuzz-preservation", "--replay", str(case_file)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "replay case sort must be 'exp' or 'dec', not 'xyz'\n")
