"""The benchmark's workloads: seeded inputs, the timed op, and its reference.

Each workload class builds its inputs from the seed in ``__init__`` (that
is the set-up the benchmark times), lists them in ``ops``, runs one op with
``run`` and judges the output with ``check`` against an expectation that
set-up computed from an independent reference.  Ops are used in list order
and the list is cycled; warm-up runs the last ``warm_ops`` of them, which
the timed loop reaches last.  The first ``pass_size`` ops form the fixed
pass that the traced run repeats and that the output digest covers.

The program is called only through module attributes (``arith.eval_``,
not a name imported from it), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

from alacarte import arith, cli, indexed, kernel, lang_l, mutual, sexpr, testkit
from alacarte.lang_l.syntax import tenv_to_sexpr

FUEL = 50


class ReferenceMismatch(Exception):
    """Set-up found the program disagreeing with a reference."""


# ---------------------------------------------------------------------------
# shared generators


def random_term(rng: random.Random, leaves: int, lo: int, hi: int, max_depth: int = 32):
    """An arith term with ``leaves`` literals drawn from [lo, hi].

    Splits are uniform among those that keep every subtree within
    ``max_depth``, so nesting stays far below the recursion depths at which
    the program's recursive layers fail.
    """
    if leaves == 1:
        return arith.lit(rng.randint(lo, hi))
    cap = 2 ** max(max_depth - 1, 0)
    left = rng.randint(max(1, leaves - cap), min(leaves - 1, cap))
    return arith.add(
        random_term(rng, left, lo, hi, max_depth - 1),
        random_term(rng, leaves - left, lo, hi, max_depth - 1),
    )


def term_nodes(t) -> int:
    return 1 + sum(term_nodes(c) for c in t.root.rec)


def biterm_nodes(t) -> int:
    return 1 + sum(biterm_nodes(c) for c in t.root.rec1 + t.root.rec2)


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def run_cli(argv):
    """One in-process CLI call: exit code and captured stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue()


def preserve_json(t) -> dict:
    """The preservation output for ``t``, checked against the oracle."""
    v = testkit.oracle_eval(t).vv
    out = arith.preservation(arith.build_eval_derivation(t), arith.build_typof_derivation(t))
    if out.root.conclusion[1] != arith.N or arith.lit_value(out.root.conclusion[0]) != v:
        raise ReferenceMismatch(f"preservation concludes {out.root.conclusion!r}, oracle says {v}")
    return arith.derivation_json(out)


def config_printer(config):
    return lang_l.print_dec if config.sort == "dec" else lang_l.print_exp


def step_stdout(config) -> str:
    """What ``lang step`` prints for the configuration, from the library stepper."""
    stepper = lang_l.step_dec if config.sort == "dec" else lang_l.step_exp
    sub = stepper(config.rho, config.term)
    if sub is not None:
        succ, d = sub
        return f"{d.root.rule} {config_printer(config)(succ)}\n"
    if config.sort == "exp" and lang_l.is_value(config.term):
        return "value\n"
    if config.sort == "dec" and config.term.root.ctor == "env":
        return "terminal\n"
    return "stuck\n"


def lang_case(kind: str, config):
    """(argv, expected stdout) for a lang command on a generated configuration."""
    text = config_printer(config)(config.term)
    sort = ["--sort", config.sort]
    if kind == "lang parse":
        return ["lang", "parse", *sort, text], text + "\n"
    if kind == "lang typecheck":
        gamma = sexpr.write(tenv_to_sexpr(config.gamma))
        typ = config.typd.root.conclusion[2]
        return ["lang", "typecheck", "--env", gamma, *sort, text], lang_l.print_typ(typ) + "\n"
    if kind == "lang step":
        env = lang_l.print_env(config.rho)
        return ["lang", "step", "--env", env, *sort, text], step_stdout(config)
    raise ValueError(kind)


def arith_case(kind: str, t, relation: str = "eval"):
    """(argv, expected stdout) for an arith command on term ``t``."""
    text = arith.print_term(t)
    if kind == "arith eval":
        return ["arith", "eval", text], f"(val {testkit.oracle_eval(t).vv})\n"
    if kind == "arith derive":
        builder = {
            "eval": arith.build_eval_derivation,
            "typof": arith.build_typof_derivation,
            "istrm": arith.build_istrm,
        }[relation]
        d = builder(t)
        if not indexed.validate(d):
            raise ReferenceMismatch(f"{relation} derivation of {text} does not validate")
        if relation == "eval" and d.root.conclusion[1].vv != testkit.oracle_eval(t).vv:
            raise ReferenceMismatch(f"eval derivation of {text} disagrees with the oracle")
        argv = ["arith", "derive", "--relation", relation, text]
        return argv, _dumps(arith.derivation_json(d)) + "\n"
    if kind == "arith preserve":
        return ["arith", "preserve", text], _dumps(preserve_json(t)) + "\n"
    if kind == "dump":
        return ["dump", text], _dumps(kernel.term_to_json(t)) + "\n"
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# workloads


class ArithEnum:
    """Folds over a seeded sample of every depth-<=4 term, literals in {-2..2}."""

    name = "arith-enum"
    sample_size = 200_000  # distinct ops, about twice what one 12 s run completes
    pass_size = 1_000
    warm_ops = 200

    def __init__(self, seed: int):
        rng = random.Random(seed)
        layers = testkit.term_layers(testkit.arith_enum(4, testkit.ARITH_POOL_FULL))
        # the whole enumeration stays alive: it is the workload's working set
        self.terms = [t for layer in layers for t in layer]
        self.indices = rng.sample(range(len(self.terms)), self.sample_size)
        self.ops = [self.terms[i] for i in self.indices]
        self.expected = [testkit.oracle_eval(t).vv for t in self.ops]

    def run(self, t):
        return arith.eval_(t), kernel.mfold(kernel.lift(arith.eval_g), t)

    def check(self, i: int, out) -> bool:
        v = self.expected[i]
        return out[0].vv == v and out[1].vv == v

    def input_text(self, i: int) -> str:
        return f"{self.indices[i]} {arith.print_term(self.ops[i])}"

    @staticmethod
    def output_text(out) -> str:
        return f"{out[0].vv} {out[1].vv}"

    def counts(self) -> dict:
        return {
            "enumerated": len(self.terms),
            "sample": len(self.ops),
            "pass_nodes": sum(term_nodes(t) for t in self.ops[: self.pass_size]),
        }

    def startup_cases(self, n: int):
        return [arith_case("arith eval", t) for t in self.ops[:n]]


class ArithDeep:
    """The relational pipeline on seeded terms of tens to hundreds of nodes."""

    name = "arith-deep"
    # leaves per term, cycled in this order; nodes = 2 * leaves - 1
    leaves = (8, 12, 16, 24, 32, 48, 64, 96, 128)
    per_size = 250  # 2,250 distinct ops, over twice what one 12 s run completes
    literal_range = 10**6  # wide, so subterms are rarely shared
    pass_size = 18
    warm_ops = 3

    def __init__(self, seed: int):
        rng = random.Random(seed)
        n = self.per_size * len(self.leaves)
        self.ops = [
            random_term(rng, self.leaves[i % len(self.leaves)], -self.literal_range, self.literal_range)
            for i in range(n)
        ]
        self.expected = [testkit.oracle_eval(t).vv for t in self.ops]
        self.expected_index = [[f"(lit {v})", "N"] for v in self.expected]

    def run(self, t):
        evald = arith.build_eval_derivation(t)
        typd = arith.build_typof_derivation(t)
        istrm = arith.build_istrm(t)
        verdict = indexed.validate(evald)
        agreement = arith.eval_of_derivation(evald)
        out = arith.preservation(evald, typd)
        alt = arith.preservation_via_istrm(istrm, typd)
        return verdict.ok, agreement, out.root.conclusion, alt.root.conclusion, arith.derivation_json(out)

    def check(self, i: int, out) -> bool:
        ok, agreement, concl, alt, js = out
        v = self.expected[i]
        return (
            ok
            and agreement.ok
            and agreement.evaluated.vv == v
            and all(c[1] == arith.N and arith.lit_value(c[0]) == v for c in (concl, alt))
            and js["index"] == self.expected_index[i]
        )

    def input_text(self, i: int) -> str:
        return arith.print_term(self.ops[i])

    @staticmethod
    def output_text(out) -> str:
        return _dumps(out[4])

    def counts(self) -> dict:
        return {"terms": len(self.ops), "nodes": sum(term_nodes(t) for t in self.ops)}

    def startup_cases(self, n: int):
        return [arith_case("arith preserve", t) for t in self.ops[:n]]


class LangFuzz:
    """Subject-reduction checking of a seeded corpus of well-typed configurations."""

    name = "lang-fuzz"
    corpus_size = 3_000
    pass_size = 500
    warm_ops = 100

    def __init__(self, seed: int):
        self.ops = testkit.gen_well_typed_config(testkit.GenConfig(seed=seed, count=self.corpus_size))
        self.expected = []
        self.end_states: dict[str, int] = {}
        for config in self.ops:
            steps, end = self.reference_walk(config)
            self.expected.append(steps)
            self.end_states[end] = self.end_states.get(end, 0) + 1

    @staticmethod
    def reference_walk(config):
        """Steps to the end state, checking each step by validation and retyping.

        Independent of ``subject_reduction``: every step derivation must
        validate and every successor must typecheck at the original type.
        """
        stepper = lang_l.step_dec if config.sort == "dec" else lang_l.step_exp
        typecheck = lang_l.typecheck_dec if config.sort == "dec" else lang_l.typecheck_exp
        typ = config.typd.root.conclusion[2]
        term, steps = config.term, 0
        while steps < FUEL:
            sub = stepper(config.rho, term)
            if sub is None:
                break
            term, d = sub
            if not mutual.validate_bi(d):
                raise ReferenceMismatch(f"step derivation does not validate at step {steps}")
            res = typecheck(config.gamma, term)
            if res is None or res[0] != typ:
                raise ReferenceMismatch(f"successor of step {steps} lost its type")
            steps += 1
        else:
            if stepper(config.rho, term) is not None:
                return steps, "fuel"
        if config.sort == "exp":
            return steps, "value" if lang_l.is_value(term) else "stuck"
        return steps, "terminal" if term.root.ctor == "env" else "stuck"

    def run(self, config):
        return testkit.check_configuration(config, FUEL)

    def check(self, i: int, out) -> bool:
        steps, counterexample = out
        return counterexample is None and steps == self.expected[i]

    def input_text(self, i: int) -> str:
        config = self.ops[i]
        return f"{config.sort} {lang_l.print_env(config.rho)} {config_printer(config)(config.term)}"

    @staticmethod
    def output_text(out) -> str:
        return f"{out[0]} {out[1] is None}"

    def counts(self) -> dict:
        return {
            "configs": len(self.ops),
            "nodes": sum(biterm_nodes(c.term) for c in self.ops),
            "steps": sum(self.expected),
            "end_states": dict(sorted(self.end_states.items())),
        }

    def startup_cases(self, n: int):
        return [lang_case("lang step", c) for c in self.ops[:n]]


class Cli:
    """In-process ``cli.main`` calls over a seeded argv corpus of every command kind."""

    name = "cli"
    kinds = (
        "arith eval",
        "arith derive",
        "arith preserve",
        "lang parse",
        "lang typecheck",
        "lang step",
        "dump",
    )
    per_kind = 100
    pass_size = 140
    warm_ops = 50

    def __init__(self, seed: int):
        rng = random.Random(seed)
        configs = testkit.gen_well_typed_config(testkit.GenConfig(seed=seed, count=200))
        self.ops = []
        for i in range(self.per_kind * len(self.kinds)):
            kind = self.kinds[i % len(self.kinds)]
            if kind.startswith("lang"):
                self.ops.append(lang_case(kind, rng.choice(configs)))
            elif kind == "dump" and rng.random() < 0.2:
                # `dump --sort exp` is left out: it cannot encode type payloads
                if rng.random() < 0.5:
                    case = ["dump", "--signature", "arith"], kernel.signature_to_json(arith.TRM)
                else:
                    case = ["dump", "--signature", "lang"], mutual.bisignature_to_json(lang_l.LANG)
                self.ops.append((case[0], _dumps(case[1]) + "\n"))
            else:
                t = random_term(rng, rng.randint(1, 12), -50, 50)
                relation = rng.choice(("eval", "typof", "istrm"))
                self.ops.append(arith_case(kind, t, relation))

    def run(self, case):
        return run_cli(case[0])

    def check(self, i: int, out) -> bool:
        return out == (0, self.ops[i][1])

    def input_text(self, i: int) -> str:
        return json.dumps(self.ops[i][0])

    @staticmethod
    def output_text(out) -> str:
        return f"{out[0]}\n{out[1]}"

    def counts(self) -> dict:
        return {"cases": len(self.ops), "argv_chars": sum(len(" ".join(a)) for a, _ in self.ops)}

    def startup_cases(self, n: int):
        return self.ops[:n]


WORKLOADS = {w.name: w for w in (ArithEnum, ArithDeep, LangFuzz, Cli)}
