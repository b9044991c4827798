"""How ``cli.main`` parses argv, and the exit-code contract over argv.

Argv whose first words name a command is parsed by that command's own
subparser; the nested parser serves argv naming no command and argv that
leaves words over.  Here both routes give the same result, help and errors
for argv drawn from the CLI's own vocabulary; the benchmark's ``cli``
corpus runs without touching the nested parser; and ``cli.main`` answers
arbitrary argv with exit code 0, 1 or 2 and no traceback.
"""

import contextlib
import importlib.util
import io
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from alacarte import cli

WORKLOADS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

COMMANDS = [
    ("arith", "eval"),
    ("arith", "derive"),
    ("arith", "preserve"),
    ("lang", "parse"),
    ("lang", "print"),
    ("lang", "typecheck"),
    ("lang", "step"),
    ("lang", "trace"),
    ("laws",),
    ("fuzz-preservation",),
    ("dump",),
]
FAST_COMMANDS = [c for c in COMMANDS if c[0] in ("arith", "dump") or c[-1] in ("parse", "print", "typecheck", "step")]
WORDS = sorted({w for c in COMMANDS for w in c} | {"bogus", ""})
# every option, abbreviations of each, and what no command takes
OPTIONS = [
    "--relation", "--rel", "--r",
    "--sort", "--so", "--s",
    "--env", "--en", "--e",
    "--emit-derivation", "--emit-derivations", "--emit",
    "--fuel", "--fu", "--f",
    "--suite", "--su",
    "--seed", "--see",
    "--count", "--c",
    "--replay", "--rep",
    "--signature", "--sig",
    "-h", "--help", "--he", "--h",
    "--", "-", "-x", "--bogus",
]  # fmt: skip
VALUES = [
    "eval", "typof", "istrm", "exp", "dec", "typ", "pat", "arith", "lang",
    "kernel", "indexed", "mutual", "()", "(tenv ())", "(tenv ((x (ty a))))",
    "((x (con c0 (ty b))))", "(lit 1)", "(add (lit 1) (lit -2))", "(var x)",
    "(con c0 (ty b))", "(app (var f) (var x))", "-1", "-7", "0", "3", "2.5",
]  # fmt: skip
ATOMS = [
    "lit", "add", "val", "var", "con", "cn", "vr", "ty", "arrow", "tenv", "env", "clos", "closure",
    "apply", "app", "scope", "join", "match", "pcon", "pvar", "papp", "pat", "id",
    "x", "y", "c0", "a", "b", "1", "-3", "0", "12345678901234567890", "(", ")", "'", '"',
]  # fmt: skip

texts = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=8)
tokens = st.one_of(
    st.sampled_from(WORDS),
    st.sampled_from(OPTIONS),
    st.sampled_from(VALUES),
    st.builds(lambda o, v: f"{o}={v}", st.sampled_from(OPTIONS), st.sampled_from(VALUES) | texts),
    st.integers(-100, 100).map(str),
    texts,
)
sexprs = st.recursive(
    st.sampled_from(ATOMS),
    lambda kids: st.lists(kids, max_size=4).map(lambda xs: "(" + " ".join(xs) + ")"),
    max_leaves=12,
)


def _argv(commands, args):
    prefixes = st.one_of(
        st.sampled_from(commands).map(list),
        st.sampled_from(sorted({c[0] for c in commands})).map(lambda w: [w]),
        st.lists(st.sampled_from(WORDS), max_size=2),
    )
    return st.builds(lambda p, rest: p + rest, prefixes, st.lists(args, max_size=6))


def _outcome(call, argv):
    """What ``call(argv)`` returns or exits with, and what it wrote to stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = call(argv)
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_command_has_its_own_parser():
    assert sorted(cli._parsers()[1]) == sorted(COMMANDS)


@settings(max_examples=2500, derandomize=True, deadline=None)
@given(_argv(COMMANDS, tokens))
def test_both_routes_parse_argv_alike(argv):
    def fast(argv):
        return vars(cli._parse_args(argv))

    def nested(argv):
        return vars(cli._build_parser().parse_args(argv))

    assert _outcome(fast, argv) == _outcome(nested, argv)


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(_argv(FAST_COMMANDS, tokens | sexprs))
def test_every_argv_exits_0_1_or_2_without_a_traceback(argv):
    code, _, err = _outcome(cli.main, argv)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)


@pytest.fixture
def nested_calls(monkeypatch):
    """The argv that reach the nested parser, which still parses them."""
    top, calls = cli._build_parser(), []
    for name in ("parse_args", "parse_known_args"):

        def recorded(argv=None, *rest, _parse=getattr(top, name)):
            calls.append(list(argv))
            return _parse(argv, *rest)

        monkeypatch.setattr(top, name, recorded)
    return calls


def test_every_cli_command_kind_skips_the_nested_parser(nested_calls, tmp_path):
    wl = _workloads()
    kinds = wl.Cli.kinds
    ops = wl.Cli(1).ops  # the corpus cycles through ``kinds``
    for i, (argv, expected) in enumerate(ops[: 4 * len(kinds)]):
        kind = kinds[i % len(kinds)].split()
        assert argv[: len(kind)] == kind
        assert wl.run_cli(argv) == (0, expected), argv
    env_file = tmp_path / "env.sexpr"
    env_file.write_text("()", encoding="utf-8")
    assert wl.run_cli(["lang", "trace", str(env_file), "(con c (ty a))"]) == (0, "(con c (ty a))\nvalue\n")
    code, out = wl.run_cli(["fuzz-preservation", "--count", "1"])
    assert code == 0 and out.startswith("checked 1 configurations"), out
    assert nested_calls == []


def test_a_leftover_word_reaches_the_nested_parser(nested_calls):
    argv = ["arith", "eval", "(lit 1)", "extra"]
    code, out, err = _outcome(cli.main, argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage: alacarte [-h]")
    assert err.endswith("alacarte: error: unrecognized arguments: extra\n")
    assert nested_calls[0] == argv
