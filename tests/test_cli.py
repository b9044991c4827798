"""Exit codes, stream discipline, round-trips, and byte determinism."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import alacarte
from alacarte import cli, testkit
from alacarte.lang_l import Ty, cn, print_dec, print_exp
from alacarte.mutual import biterm_to_json


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# arith


def test_arith_eval(capsys):
    code, out, err = run(capsys, "arith", "eval", "(add (lit 2) (lit 3))")
    assert (code, out, err) == (0, "(val 5)\n", "")


def test_arith_derive_json(capsys):
    code, out, err = run(capsys, "arith", "derive", "(lit 3)")
    assert code == 0 and err == ""
    js = json.loads(out)
    assert js["rule"] == "ev1"
    assert js["index"] == ["(lit 3)", "(val 3)"]


def test_arith_preserve(capsys):
    code, out, err = run(capsys, "arith", "preserve", "(add (lit 1) (lit 2))")
    assert code == 0
    js = json.loads(out)
    assert js["rule"] == "tof1"
    assert js["index"] == ["(lit 3)", "N"]


def test_parse_failure_exit_2(capsys):
    code, out, err = run(capsys, "arith", "eval", "(add (lit 2)")
    assert code == 2
    assert out == ""
    assert "parse error" in err


# ---------------------------------------------------------------------------
# lang


def test_lang_typecheck_con(capsys):
    code, out, err = run(capsys, "lang", "typecheck", "--env", "()", "(con c (ty a))")
    assert (code, out, err) == (0, "(ty a)\n", "")


def test_lang_typecheck_untypable_exit_1(capsys):
    code, out, err = run(capsys, "lang", "typecheck", "(var x)")
    assert code == 1
    assert out == ""
    assert "untypable" in err


def test_lang_parse_print_identity_over_corpus(capsys):
    corpus = testkit.gen_well_typed_config(testkit.GenConfig(seed=20, count=40))
    for config in corpus:
        sort = config.sort
        text = (print_dec if sort == "dec" else print_exp)(config.term)
        code, out, _ = run(capsys, "lang", "parse", "--sort", sort, text)
        assert code == 0
        assert out.strip() == text
        code, out2, _ = run(capsys, "lang", "print", "--sort", sort, text)
        assert out2.strip() == text


def test_lang_step_emits_rule(capsys):
    code, out, err = run(
        capsys,
        "lang",
        "step",
        "--env",
        "((x (con c (ty a))))",
        "(var x)",
    )
    assert code == 0
    assert out == "E-VAR (con c (ty a))\n"


# ---------------------------------------------------------------------------
# trace


def env_file(tmp_path, text="()"):
    p = tmp_path / "env.sexpr"
    p.write_text(text, encoding="utf-8")
    return str(p)


def test_trace_value_input_zero_steps(capsys, tmp_path):
    code, out, err = run(
        capsys, "lang", "trace", env_file(tmp_path), "(con c (ty a))"
    )
    assert code == 0
    assert out == "(con c (ty a))\nvalue\n"


def test_trace_beta_to_value(capsys, tmp_path):
    redex = "(app (clos () (pvar x (ty a)) (var x)) (con c (ty a)))"
    code, out, err = run(capsys, "lang", "trace", env_file(tmp_path), redex)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == redex
    assert lines[1].startswith("--E-BETA-->")
    assert lines[-1] == "value"


def test_trace_match_failure_is_stuck_exit_0(capsys, tmp_path):
    stuck = "(app (clos () (pcon c (ty a)) (var x)) (con d (ty a)))"
    code, out, err = run(capsys, "lang", "trace", env_file(tmp_path), stuck)
    assert code == 0
    assert out.strip().splitlines()[-1] == "stuck"


def test_trace_emit_derivations(capsys, tmp_path):
    redex = "(app (clos () (pvar x (ty a)) (var x)) (con c (ty a)))"
    code, out, err = run(
        capsys, "lang", "trace", env_file(tmp_path), redex, "--emit-derivations"
    )
    assert code == 0
    json_lines = [l for l in out.splitlines() if l.startswith("{")]
    assert json_lines
    js = json.loads(json_lines[0])
    assert js["family"] == "ExpStep" and js["rule"] == "E-BETA"


def test_trace_fuel_exhausted(capsys, tmp_path):
    redex = "(app (clos () (pvar x (ty a)) (var x)) (con c (ty a)))"
    code, out, err = run(
        capsys, "lang", "trace", env_file(tmp_path), redex, "--fuel", "1"
    )
    assert code == 0
    assert out.strip().splitlines()[-1] == "fuel exhausted"


# ---------------------------------------------------------------------------
# laws, fuzzing, dump


def test_laws_kernel_json(capsys):
    code, out, err = run(capsys, "laws", "--suite", "kernel")
    assert code == 0
    js = json.loads(out)
    assert js["suite"] == "kernel" and js["failed"] == 0


def test_fuzz_small_run(capsys):
    code, out, err = run(capsys, "fuzz-preservation", "--seed", "42", "--count", "50")
    assert code == 0
    assert "50 configurations" in out
    assert "0 counterexamples" in out


def test_fuzz_vacuous(capsys):
    code, out, err = run(capsys, "fuzz-preservation", "--count", "0")
    assert code == 0
    assert "0 configurations" in out


def test_fuzz_counterexamples_exit_1_and_replay(capsys, tmp_path, monkeypatch):
    from alacarte.lang_l import syntax, typing as ltyping

    monkeypatch.setattr(
        ltyping, "env_union", lambda a, b: syntax.Env(b.items() + a.items())
    )
    code, out, err = run(capsys, "fuzz-preservation", "--seed", "42", "--count", "150")
    assert code == 1
    cases = [json.loads(l) for l in out.splitlines() if l.startswith("{")]
    assert cases
    case_file = tmp_path / "case.json"
    case_file.write_text(json.dumps(cases[0]), encoding="utf-8")
    code, out, err = run(capsys, "fuzz-preservation", "--replay", str(case_file))
    assert code == 1  # same mutation still active: verdict reproduces
    monkeypatch.undo()
    code, out, err = run(capsys, "fuzz-preservation", "--replay", str(case_file))
    assert code == 0  # fixed union: the case passes again


def test_dump_term_and_signature(capsys):
    code, out, _ = run(capsys, "dump", "(lit 3)")
    assert code == 0
    assert json.loads(out) == {"ctor": "inl:lit", "payload": [3], "rec": []}
    code, out, _ = run(capsys, "dump", "--signature", "lang")
    assert code == 0
    assert json.loads(out)["signature"] == "lang_l"


def test_dump_exp_and_dec_with_type_pattern_and_env_payloads(capsys):
    code, out, err = run(capsys, "dump", "--sort", "exp", "(con c (ty a))")
    assert (code, err) == (0, "")
    assert json.loads(out)["payload"] == ["c", ["ty", "a"]]
    dec = "(join (env ((y (con c (ty a))))) (match (pvar x (arrow (ty a) (ty b))) (var f)))"
    code, out, err = run(capsys, "dump", "--sort", "dec", dec)
    assert (code, err) == (0, "")
    env, match = json.loads(out)["rec1"]
    assert env["payload"] == [[["y", biterm_to_json(cn("c", Ty("a")))]]]
    assert match["payload"] == [["pvar", "x", ["arrow", ["ty", "a"], ["ty", "b"]]]]


def test_unparsable_fuel_variable_exit_2(capsys, monkeypatch):
    monkeypatch.setenv("ALACARTE_FUEL", "abc")
    code, out, err = run(capsys, "fuzz-preservation", "--count", "1")
    assert (code, out) == (2, "")
    assert err == "ALACARTE_FUEL must be an integer, got 'abc'\n"
    code, out, err = run(capsys, "arith", "eval", "(lit 1)")  # fuel unused
    assert (code, out, err) == (0, "(val 1)\n", "")


def test_replay_case_missing_key_or_not_json_exit_2(capsys, tmp_path):
    case_file = tmp_path / "case.json"
    cases = (
        (json.dumps({"sort": "exp", "term": "(var x)"}), "rho"),
        ("{", "not JSON"),
        (json.dumps({"rho": "((x (var y)))", "sort": "exp", "term": "(var x)"}), "not a value"),
        (
            json.dumps(
                {"rho": "((x (app (con c (ty a)) (con d (ty a)))))", "sort": "exp", "term": "(var x)"}
            ),
            "does not typecheck",
        ),
    )
    for text, says in cases:
        case_file.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "fuzz-preservation", "--replay", str(case_file))
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and says in err


def test_usage_error_exit_2(capsys):
    code, out, err = run(capsys, "laws", "--suite", "nonsense")
    assert code == 2


def test_byte_determinism(capsys):
    argvs = [
        ["arith", "derive", "(add (lit 1) (lit 2))"],
        ["lang", "typecheck", "--env", "()", "(con c (ty a))", "--emit-derivation"],
        ["laws", "--suite", "indexed"],
        ["fuzz-preservation", "--seed", "7", "--count", "20"],
        ["dump", "--signature", "arith"],
    ]
    for argv in argvs:
        code1, out1, err1 = run(capsys, *argv)
        code2, out2, err2 = run(capsys, *argv)
        assert (code1, out1, err1) == (code2, out2, err2)


def test_no_data_on_error_stream(capsys):
    code, out, err = run(capsys, "arith", "eval", "(lit 9)")
    assert err == ""


# ---------------------------------------------------------------------------
# what a command pays for


def test_arith_commands_load_no_lang_modules():
    src = str(Path(alacarte.__file__).resolve().parent.parent)
    script = (
        "import json, sys\n"
        "from alacarte import cli\n"
        "codes = [cli.main(['arith', 'eval', '(lit 1)']),\n"
        "         cli.main(['arith', 'preserve', '(add (lit 1) (lit 2))'])]\n"
        "print(json.dumps([codes, sorted(sys.modules)]))\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    codes, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0, 0]
    assert "alacarte.arith" in loaded
    unwanted = ("alacarte.lang_l", "alacarte.mutual", "alacarte.testkit")
    assert [m for m in loaded if m.startswith(unwanted)] == []


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    run(capsys, "arith", "eval", "(lit 1)")
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run(capsys, "arith", "eval", "(lit 2)") == (0, "(val 2)\n", "")
    assert run(capsys, "lang", "parse", "(var x)") == (0, "(var x)\n", "")
    assert built == []


DUP_EXP = "(scope (match (papp (pvar x (ty a)) (pvar x (ty a))) (con c (ty a))) (var x))"
DUP_DEC = "(match (papp (pvar x (ty a)) (pvar x (ty a))) (con c (ty a)))"
DUP_ENV = "((f (clos () (papp (pvar x (ty a)) (pvar x (ty a))) (var x))))"
DUP_LINE = "parse error: pattern binds 'x' twice"


@pytest.mark.parametrize(
    "argv, says",
    [
        pytest.param(["lang", "parse", DUP_EXP], DUP_LINE, id="parse-exp"),
        pytest.param(["lang", "parse", "--sort", "dec", DUP_DEC], DUP_LINE, id="parse-dec"),
        pytest.param(["lang", "typecheck", DUP_EXP], DUP_LINE, id="typecheck"),
        pytest.param(["lang", "step", DUP_EXP], DUP_LINE, id="step"),
        pytest.param(["lang", "step", "--env", DUP_ENV, "(con c (ty a))"], DUP_LINE, id="step-env"),
        pytest.param(["lang", "trace", "{env}", DUP_EXP], DUP_LINE, id="trace"),
        pytest.param(["lang", "trace", "{dup_env}", "(con c (ty a))"], DUP_LINE, id="trace-env-file"),
        pytest.param(["dump", "--sort", "exp", DUP_EXP], DUP_LINE, id="dump-exp"),
        pytest.param(["dump", "--sort", "dec", DUP_DEC], DUP_LINE, id="dump-dec"),
        pytest.param(["fuzz-preservation", "--replay", "{dup_case}"], DUP_LINE, id="replay-case"),
        pytest.param(["lang", "trace", "{dir}", "(con c (ty a))"], "Is a directory: '{dir}'", id="trace-dir"),
        pytest.param(["fuzz-preservation", "--replay", "{dir}"], "Is a directory: '{dir}'", id="replay-dir"),
        pytest.param(["lang", "trace", "{latin1}", "(con c (ty a))"], "{latin1}: not UTF-8 text", id="trace-not-utf8"),
    ],
)
def test_bad_lang_text_and_file_arguments_exit_2_with_one_line(capsys, tmp_path, argv, says):
    files = {
        "env": env_file(tmp_path),
        "dup_env": str(tmp_path / "dup_env.sexpr"),
        "dup_case": str(tmp_path / "dup_case.json"),
        "dir": str(tmp_path),
        "latin1": str(tmp_path / "latin1.sexpr"),
    }
    Path(files["dup_env"]).write_text(DUP_ENV, encoding="utf-8")
    case = {"rho": "()", "sort": "exp", "term": DUP_EXP}
    Path(files["dup_case"]).write_text(json.dumps(case), encoding="utf-8")
    Path(files["latin1"]).write_bytes("((x (con caf\xe9 (ty a))))".encode("latin-1"))
    code, out, err = run(capsys, *(a.format(**files) for a in argv))
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert says.format(**files) in err


DUP_KEY_LINE = "parse error: environment binds 'x' twice"
TWICE = "((x (con c (ty a))) (x (con d (ty a))))"


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["lang", "parse", "--sort", "dec", f"(env {TWICE})"], id="parse-env-dec"),
        pytest.param(["lang", "parse", f"(clos {TWICE} (pvar y (ty a)) (var y))"], id="parse-closure"),
        pytest.param(["lang", "step", "--env", TWICE, "(var x)"], id="step-env"),
        pytest.param(["lang", "typecheck", "--env", "((x (ty a)) (x (ty b)))", "(var x)"], id="typecheck-env"),
        pytest.param(["lang", "typecheck", "--env", "(tenv ((x (ty a)) (x (ty b))))", "(var x)"], id="typecheck-tenv"),
        pytest.param(["lang", "parse", "(con f (arrow (tenv ((x (ty a)) (x (ty a)))) (ty a)))"], id="parse-tenv-type"),
        pytest.param(["dump", "--sort", "dec", f"(env {TWICE})"], id="dump-dec"),
    ],
)
def test_an_environment_literal_binding_a_key_twice_exits_2_with_one_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", DUP_KEY_LINE + "\n")


def test_an_environment_literal_binding_each_key_once_still_prints_as_parsed(capsys):
    text = "(env ((x (con c (ty a))) (y (con d (ty a)))))"
    assert run(capsys, "lang", "parse", "--sort", "dec", text) == (0, text + "\n", "")


def test_negative_count_exits_2(capsys):
    code, out, err = run(capsys, "fuzz-preservation", "--count", "-3")
    assert (code, out, err) == (2, "", "count must be non-negative\n")
    code, out, err = run(capsys, "fuzz-preservation", "--count", "0", "--fuel", "5")
    assert (code, err) == (0, "")
    assert "checked 0 configurations" in out


# ---------------------------------------------------------------------------
# input nested deeper than the recursion limit


def _left_nested_adds(depth: int) -> str:
    return "(add " * depth + "(lit 1)" + "".join(f" (lit {k}))" for k in range(depth))


def _apps(depth: int) -> str:
    return "(app " * depth + "(var f)" + " (var x))" * depth


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["arith", "eval", _left_nested_adds(3000)], id="arith-eval"),
        pytest.param(["lang", "parse", _apps(1500)], id="lang-parse"),
        pytest.param(["dump", "--sort", "exp", _apps(1500)], id="dump-exp"),
    ],
)
def test_input_nested_too_deeply_exits_1_with_one_line(argv):
    src = str(Path(alacarte.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "alacarte.cli", *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "input nested too deeply\n")
