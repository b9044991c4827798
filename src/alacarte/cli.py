"""Command-line front door; the only module performing I/O.

Exit codes: 0 success, 1 domain failure (untypable term, invalid
derivation, law failure, counterexample found), 2 usage or parse error.
Data goes to stdout, diagnostics to stderr, and identical argument vectors
produce byte-identical output.

The argument parser is built once per process, and each command imports
only the modules of its own language: ``arith`` commands never load
``lang_l``, ``mutual`` or ``testkit``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys

from . import sexpr
from .indexed import InvalidDerivationError, validate


def _emit(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _fail(msg: str, code: int) -> int:
    print(msg, file=sys.stderr)
    return code


def _default_fuel() -> int:
    """The fuel of commands run without ``--fuel``; ValueError if unparsable."""
    text = os.environ.get("ALACARTE_FUEL", "50")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"ALACARTE_FUEL must be an integer, got {text!r}") from None


# ---------------------------------------------------------------------------
# arith commands


def _cmd_arith_eval(args) -> int:
    from . import arith

    t = arith.parse_term(args.expr)
    print(arith.print_val(arith.eval_(t)))
    return 0


def _cmd_arith_derive(args) -> int:
    from . import arith

    t = arith.parse_term(args.expr)
    builders = {
        "eval": arith.build_eval_derivation,
        "typof": arith.build_typof_derivation,
        "istrm": arith.build_istrm,
    }
    d = builders[args.relation](t)
    verdict = validate(d)
    if not verdict:
        return _fail(f"invalid derivation: {verdict.reason}", 1)
    print(_emit(arith.derivation_json(d)))
    return 0


def _cmd_arith_preserve(args) -> int:
    from . import arith

    t = arith.parse_term(args.expr)
    evald = arith.build_eval_derivation(t)
    typd = arith.build_typof_derivation(t)
    out = arith.preservation(evald, typd)
    alt = arith.preservation_via_istrm(arith.build_istrm(t), typd)
    if out.root.conclusion != alt.root.conclusion:
        return _fail("preservation routes disagree", 1)
    verdict = validate(out)
    if not verdict:
        return _fail(f"invalid derivation: {verdict.reason}", 1)
    print(_emit(arith.derivation_json(out)))
    return 0


# ---------------------------------------------------------------------------
# lang commands


@contextlib.contextmanager
def _lang_text():
    """Report a pattern that binds a variable twice as a parse error."""
    from .lang_l import DuplicateBindingError

    try:
        yield
    except DuplicateBindingError as exc:
        raise sexpr.SexprError(str(exc)) from None


def _lang(op: str, sort: str):
    """``lang_l.<op>_<sort>``, e.g. ``parse_env``, ``print_pat`` or ``step_dec``."""
    from . import lang_l

    return getattr(lang_l, f"{op}_{sort}")


def _parse_lang(sort: str, text: str):
    with _lang_text():
        return _lang("parse", sort)(text)


def _parse_tenv(text: str):
    from .lang_l.syntax import Env, _assoc, tenv_of_sexpr, typ_of_sexpr

    expr = sexpr.read(text)
    if isinstance(expr, list) and (not expr or isinstance(expr[0], list)):
        return Env((k, typ_of_sexpr(v)) for k, v in _assoc(expr))
    return tenv_of_sexpr(expr)


def _end_state(sort: str, term) -> str:
    """How a term that takes no step ends: ``value``, ``terminal`` or ``stuck``."""
    from .lang_l import is_value

    if sort == "exp" and is_value(term):
        return "value"
    if sort == "dec" and term.root.ctor == "env":
        return "terminal"
    return "stuck"


def _cmd_lang_parse(args) -> int:
    print(_lang("print", args.sort)(_parse_lang(args.sort, args.expr)))
    return 0


def _cmd_lang_typecheck(args) -> int:
    from . import lang_l

    gamma = _parse_tenv(args.env)
    term = _parse_lang(args.sort, args.expr)
    res = _lang("typecheck", args.sort)(gamma, term)
    if res is None:
        return _fail(f"untypable: {lang_l.untypable_reason(gamma, term)}", 1)
    t, deriv = res
    print(lang_l.print_typ(t))
    if args.emit_derivation:
        print(_emit(lang_l.typing_derivation_json(deriv)))
    return 0


def _cmd_lang_step(args) -> int:
    from . import lang_l

    rho = _parse_lang("env", args.env)
    term = _parse_lang(args.sort, args.expr)
    sub = _lang("step", args.sort)(rho, term)
    if sub is None:
        print(_end_state(args.sort, term))
        return 0
    succ, deriv = sub
    print(f"{deriv.root.rule} {_lang('print', args.sort)(succ)}")
    if args.emit_derivation:
        print(_emit(lang_l.step_derivation_json(deriv)))
    return 0


def _cmd_lang_trace(args) -> int:
    from . import lang_l

    with open(args.env_file, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            return _fail(f"{args.env_file}: not UTF-8 text ({exc.reason} at byte {exc.start})", 2)
    rho = _parse_lang("env", text)
    term = _parse_lang(args.sort, args.expr)
    step, show = _lang("step", args.sort), _lang("print", args.sort)
    print(show(term))
    for _ in range(args.fuel):
        sub = step(rho, term)
        if sub is None:
            break
        term, deriv = sub
        print(f"--{deriv.root.rule}--> {show(term)}")
        if args.emit_derivations:
            print(_emit(lang_l.step_derivation_json(deriv)))
    else:
        if step(rho, term) is not None:
            print("fuel exhausted")
            return 0
    print(_end_state(args.sort, term))
    return 0


# ---------------------------------------------------------------------------
# laws / fuzzing / dump


def _cmd_laws(args) -> int:
    from . import testkit

    report = testkit.law_suite(args.suite)
    print(_emit(report.to_json()))
    if not report.ok:
        for line in report.lines():
            print(line, file=sys.stderr)
        return 1
    return 0


_REPLAY_KEYS = ("rho", "sort", "term")


def _cmd_fuzz(args) -> int:
    from . import testkit

    if args.replay:
        with open(args.replay, encoding="utf-8") as fh:
            try:
                case = json.load(fh)
            except ValueError as exc:
                return _fail(f"replay file is not JSON: {exc}", 2)
        if not isinstance(case, dict) or not all(
            isinstance(case.get(k), str) for k in _REPLAY_KEYS
        ):
            return _fail(
                f"replay case must be a JSON object with string keys {', '.join(_REPLAY_KEYS)}",
                2,
            )
        with _lang_text():
            try:
                steps, cx = testkit.replay_case(case, fuel=args.fuel)
            except testkit.BadReplayCaseError as exc:
                return _fail(str(exc), 2)
        if cx is None:
            print(f"replay ok: {steps} steps preserved typing")
            return 0
        print(_emit(cx))
        print("replay reproduced the counterexample", file=sys.stderr)
        return 1
    report = testkit.run_preservation_fuzz(args.seed, args.count, fuel=args.fuel)
    print(
        f"checked {report.configs} configurations, {report.steps_checked} steps, "
        f"{len(report.counterexamples)} counterexamples"
    )
    if report.counterexamples:
        for cx in report.counterexamples:
            print(_emit(cx))
        return 1
    return 0


def _cmd_dump(args) -> int:
    if args.signature == "arith":
        from . import arith
        from .kernel import signature_to_json

        print(_emit(signature_to_json(arith.TRM)))
        return 0
    if args.signature == "lang":
        from .lang_l import LANG
        from .mutual import bisignature_to_json

        print(_emit(bisignature_to_json(LANG)))
        return 0
    if args.expr is None:
        return _fail("dump needs an expression or --signature", 2)
    if args.sort == "arith":
        from . import arith
        from .kernel import term_to_json

        print(_emit(term_to_json(arith.parse_term(args.expr))))
    else:
        from .mutual import biterm_to_json

        print(_emit(biterm_to_json(_parse_lang(args.sort, args.expr))))
    return 0


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once: ``parse_args`` never mutates it."""
    top = argparse.ArgumentParser(prog="alacarte")
    sub = top.add_subparsers(dest="command", required=True)

    p_arith = sub.add_parser("arith", help="the literals-and-addition language")
    arith_sub = p_arith.add_subparsers(dest="subcommand", required=True)
    p = arith_sub.add_parser("eval")
    p.add_argument("expr")
    p.set_defaults(run=_cmd_arith_eval)
    p = arith_sub.add_parser("derive")
    p.add_argument("expr")
    p.add_argument("--relation", choices=("eval", "typof", "istrm"), default="eval")
    p.set_defaults(run=_cmd_arith_derive)
    p = arith_sub.add_parser("preserve")
    p.add_argument("expr")
    p.set_defaults(run=_cmd_arith_preserve)

    p_lang = sub.add_parser("lang", help="the declarations/expressions language")
    lang_sub = p_lang.add_subparsers(dest="subcommand", required=True)
    for name in ("parse", "print"):
        p = lang_sub.add_parser(name)
        p.add_argument("expr")
        p.add_argument("--sort", choices=("exp", "dec", "typ", "pat"), default="exp")
        p.set_defaults(run=_cmd_lang_parse)
    p = lang_sub.add_parser("typecheck")
    p.add_argument("expr")
    p.add_argument("--env", default="()")
    p.add_argument("--sort", choices=("exp", "dec"), default="exp")
    p.add_argument("--emit-derivation", action="store_true")
    p.set_defaults(run=_cmd_lang_typecheck)
    p = lang_sub.add_parser("step")
    p.add_argument("expr")
    p.add_argument("--env", default="()")
    p.add_argument("--sort", choices=("exp", "dec"), default="exp")
    p.add_argument("--emit-derivation", action="store_true")
    p.set_defaults(run=_cmd_lang_step)
    p = lang_sub.add_parser("trace")
    p.add_argument("env_file")
    p.add_argument("expr")
    p.add_argument("--sort", choices=("exp", "dec"), default="exp")
    p.add_argument("--fuel", type=int, default=None)
    p.add_argument("--emit-derivations", action="store_true")
    p.set_defaults(run=_cmd_lang_trace)

    p = sub.add_parser("laws", help="run a module's law suite")
    p.add_argument("--suite", choices=("kernel", "indexed", "mutual"), required=True)
    p.set_defaults(run=_cmd_laws)

    p = sub.add_parser("fuzz-preservation", help="subject-reduction fuzzing")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--count", type=int, default=100)
    p.add_argument("--fuel", type=int, default=None)
    p.add_argument("--replay", default=None)
    p.set_defaults(run=_cmd_fuzz)

    p = sub.add_parser("dump", help="canonical JSON for terms and signatures")
    p.add_argument("expr", nargs="?")
    p.add_argument("--sort", choices=("arith", "exp", "dec"), default="arith")
    p.add_argument("--signature", choices=("arith", "lang"), default=None)
    p.set_defaults(run=_cmd_dump)

    return top


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if hasattr(args, "fuel"):
        if args.fuel is None:
            try:
                args.fuel = _default_fuel()
            except ValueError as exc:
                return _fail(str(exc), 2)
        if args.fuel < 0:
            return _fail("fuel must be non-negative", 2)
    if getattr(args, "count", 0) < 0:
        return _fail("count must be non-negative", 2)
    try:
        return args.run(args)
    except sexpr.SexprError as exc:
        return _fail(f"parse error: {exc}", 2)
    except OSError as exc:
        return _fail(str(exc), 2)
    except InvalidDerivationError as exc:
        return _fail(f"invalid derivation: {exc}", 1)
    except RecursionError:
        return _fail("input nested too deeply", 1)


if __name__ == "__main__":
    sys.exit(main())
