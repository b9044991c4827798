"""Enumerators, generators, and independent brute-force oracles.

Everything here is deterministic: enumeration follows constructor
declaration order, then payload pool order, then subterm lexicographic
order, and generators derive all randomness from the configured seed, so
identical configurations produce identical corpora and reports.

``oracle_eval`` is the independent evaluator used as the equivalence oracle
for the arithmetic language; it recurses over term structure directly, on
ints, and deliberately shares no code with the kernel fold paths.
"""

from __future__ import annotations

import gc
import random
from dataclasses import dataclass, field
from itertools import chain, product, starmap
from typing import Any, Iterator, Optional

from . import arith
from .arith import Val
from .indexed import Derivation, InvalidDerivationError, WrongIndexError
from .kernel import Signature, Term
from .mutual import BiDerivation, BiTerm
from .lang_l import (
    Arrow,
    CounterexampleError,
    Env,
    EMPTY_ENV,
    NonValueError,
    PApp,
    PCon,
    PVar,
    Ty,
    apply_,
    bindings,
    closure,
    cn,
    env_union,
    match_,
    env_,
    join_,
    parse_env,
    parse_exp,
    parse_dec,
    print_dec,
    print_env,
    print_exp,
    scope,
    step_dec,
    step_derivation_json,
    step_exp,
    subject_reduction,
    typecheck_dec,
    typecheck_env,
    typecheck_exp,
    vr,
)
from .lang_l.syntax import tenv_to_sexpr
from .lang_l.typing import env_typing
from . import sexpr


class GenerationError(Exception):
    pass


# ---------------------------------------------------------------------------
# exhaustive enumeration


@dataclass(frozen=True)
class EnumSpec:
    signature: Signature
    max_depth: int
    pools: dict[str, tuple]  # payload kind -> candidate values, in pool order


BiEnumSpec = EnumSpec


def term_layers(spec: EnumSpec) -> list[list[Term]]:
    """Terms grouped by exact depth; ``layers[d]`` holds the depth-d terms, sort 1's first.

    Layer d is built directly, with no per-tuple filter.  Each sort's terms
    below depth d are kept in order of depth, so its depth-(d - 1) terms are
    the fresh tail of that list, and a constructor's depth-d terms are those
    whose slot tuples take some recursive slot from a fresh tail.  Terms are
    built by the signature's generated constructors.  Every new term holds
    only earlier terms and pool values, so no cycle is made, and the cycle
    collector is paused for the call instead of re-scanning the growing
    enumeration; its prior state is restored on the way out.
    """
    sig = spec.signature
    layers: list[list[Term]] = [[] for _ in range(spec.max_depth + 1)]
    below: dict[str, list[Term]] = {kind: [] for kind in sig.rec_kinds}  # per sort, by its slot kind
    fresh_from = dict.fromkeys(sig.rec_kinds, 0)  # where each sort's depth-(d - 1) terms start in ``below``
    pools = {kind: tuple(pool) for kind, pool in spec.pools.items()}
    collecting = gc.isenabled()
    gc.disable()
    try:
        for d in range(1, spec.max_depth + 1):
            new = []
            for table in sig.sorts:
                made = []
                for ctor, kinds in table.items():
                    recursive = any(k in below for k in kinds)
                    if (d == 1) == recursive:
                        continue
                    build = Signature.constructor(sig, ctor)
                    candidates = [below[k] if k in below else pools[k] for k in kinds]
                    if recursive:
                        starts = [fresh_from.get(k) for k in kinds]
                        slot_tuples = chain.from_iterable(_fresh_products(candidates, starts))
                    else:
                        slot_tuples = product(*candidates)
                    made.extend(starmap(build, slot_tuples))
                new.append(made)
            for kind, made in zip(sig.rec_kinds, new):
                fresh_from[kind] = len(below[kind])
                below[kind].extend(made)
            layers[d] = list(chain.from_iterable(new))
    finally:
        if collecting:
            gc.enable()
    return layers


def _fresh_products(candidates, starts, fixed=()):
    """``itertools.product`` pieces yielding, in product order, the slot tuples with a fresh slot.

    ``candidates[i]`` lists slot i's values and ``starts[i]`` is where its
    fresh tail begins, or None for a payload slot; ``fixed`` holds the
    one-value lists of the slots already chosen, none of them fresh.  An
    older choice recurses until a later recursive slot takes the fresh
    tail; a fresh choice leaves the remaining slots free.
    """
    i = len(fixed)
    values, start = candidates[i], starts[i]
    if start is None:  # a payload slot before some recursive slot
        for x in values:
            yield from _fresh_products(candidates, starts, fixed + ((x,),))
        return
    if any(s is not None for s in starts[i + 1 :]):  # a later slot can still be the fresh one
        for x in values[:start]:
            yield from _fresh_products(candidates, starts, fixed + ((x,),))
    if start < len(values):
        yield product(*fixed, values[start:], *candidates[i + 1 :])


def enumerate_terms(spec: EnumSpec) -> Iterator[Term]:
    """All terms of depth up to the bound, exhaustively and without duplicates."""
    for layer in term_layers(spec):
        yield from layer


def _product(candidate_lists):
    if not candidate_lists:
        yield ()
        return
    head, *rest = candidate_lists
    for x in head:
        for tail in _product(rest):
            yield (x,) + tail


def biterm_layers(spec: EnumSpec) -> list[tuple[list[Term], list[Term]]]:
    """``term_layers`` of a two-sort signature, each layer split by component."""
    return [
        tuple([t for t in layer if t.component == component] for component in (1, 2))
        for layer in term_layers(spec)
    ]


def enumerate_biterms(spec: EnumSpec) -> Iterator[Term]:
    yield from enumerate_terms(spec)


# ---------------------------------------------------------------------------
# the independent arithmetic oracle


def oracle_eval(t: Term) -> Val:
    """Direct structural recursion; the equivalence oracle for evaluation."""
    return Val(_oracle_int(t))


def _oracle_int(t: Term) -> int:
    """The value of ``t`` as an int, by recursion on its nodes; ``oracle_eval`` builds its one ``Val``."""
    node = t.root
    if node.ctor == arith.LIT:
        return node.payload[0]
    a, b = node.rec
    return _oracle_int(a) + _oracle_int(b)


ARITH_POOL_FULL = (-2, -1, 0, 1, 2)
ARITH_POOL_SMALL = (-1, 0, 1)


def arith_enum(max_depth: int, pool=ARITH_POOL_SMALL) -> EnumSpec:
    return EnumSpec(arith.TRM, max_depth, {"int": tuple(pool)})


# ---------------------------------------------------------------------------
# seeded generation of well-typed configurations


# the generator's term depth, largest value environment and retry budget
MAX_DEPTH, ENV_SIZE, RETRY_BUDGET = 3, 2, 1000


@dataclass(frozen=True)
class GenConfig:
    seed: int
    count: int
    well_typed: bool = True


@dataclass(frozen=True)
class Configuration:
    sort: str  # "dec" | "exp"
    rho: Env
    gamma: Optional[Env]
    envd: Optional[Derivation]
    term: BiTerm
    typd: Optional[BiDerivation]


_TY_A, _TY_B = Ty("a"), Ty("b")
_VARS = ("x", "y", "z")


class _Gen:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self._con_names: dict[Any, str] = {}

    def typ(self, depth: int):
        if depth > 0 and self.rng.random() < 0.3:
            return Arrow(self.typ(depth - 1), self.typ(depth - 1))
        return self.rng.choice((_TY_A, _TY_B))

    def con_name(self, t) -> str:
        # one constant name per type keeps constructor patterns matchable
        if t not in self._con_names:
            self._con_names[t] = f"c{len(self._con_names)}"
        return self._con_names[t]

    def value(self, t, depth: int):
        r = self.rng.random()
        if isinstance(t, Arrow) and depth > 0 and r < 0.5:
            return self.closure_value(t.dom, t.cod, depth)
        if depth > 0 and r < 0.25:
            u = self.typ(0)
            head = cn(self.con_name(Arrow(u, t)), Arrow(u, t))
            return apply_(head, self.value(u, depth - 1))
        return cn(self.con_name(t), t)

    def closure_value(self, t1, t2, depth: int):
        rho0 = self.value_env(self.rng.randrange(0, 2), depth - 1)
        p = self.pattern(t1, depth - 1)
        gamma0 = env_typing(rho0)
        body_gamma = env_union(gamma0, bindings(p))
        body = self.exp(t2, body_gamma, depth - 1)
        return closure(rho0, p, body)

    def pattern(self, t, depth: int):
        r = self.rng.random()
        if r < 0.5:
            return PVar(self.rng.choice(_VARS), t)
        if r < 0.85 or depth <= 0:
            return PCon(self.con_name(t), t)
        u = self.typ(0)
        return PApp(
            PCon(self.con_name(Arrow(u, t)), Arrow(u, t)), self.pattern(u, depth - 1)
        )

    def match_value(self, p):
        match p:
            case PVar(_, t):
                return self.value(t, 1)
            case PCon(x, t):
                return cn(x, t)
            case PApp(fn, arg):
                return apply_(self.match_value(fn), self.match_value(arg))

    def value_env(self, size: int, depth: int) -> Env:
        names = self.rng.sample(_VARS, k=min(size, len(_VARS)))
        return Env((x, self.value(self.typ(1), max(depth, 0))) for x in names)

    def exp(self, t, gamma: Env, depth: int):
        bound = [x for x, tx in gamma.items() if tx == t]
        r = self.rng.random()
        if bound and r < 0.3:
            return vr(self.rng.choice(bound))
        if depth <= 0 or r < 0.5:
            return self.value(t, max(depth, 1))
        if r < 0.75:
            t1 = self.typ(depth - 1)
            p = self.pattern(t1, depth - 1)
            gamma0 = env_typing(rho0 := self.value_env(self.rng.randrange(0, 2), depth - 1))
            body = self.exp(t, env_union(gamma0, bindings(p)), depth - 1)
            fn = closure(rho0, p, body)
            arg = self.match_value(p)
            # occasionally delay one side behind a scope so the congruence
            # rules for application get exercised
            s = self.rng.random()
            if s < 0.25:
                fn = scope(env_(EMPTY_ENV), fn)
            elif s < 0.5:
                arg = scope(env_(EMPTY_ENV), arg)
            return apply_(fn, arg)
        d, gammad = self.dec(gamma, depth - 1)
        return scope(d, self.exp(t, env_union(gamma, gammad), depth - 1))

    def dec(self, gamma: Env, depth: int):
        r = self.rng.random()
        if depth <= 0 or r < 0.4:
            rho = self.value_env(self.rng.randrange(0, ENV_SIZE + 1), depth)
            return env_(rho), env_typing(rho)
        if r < 0.75:
            tp = self.typ(0)
            p = self.pattern(tp, depth - 1)
            return match_(p, self.exp(tp, gamma, depth - 1)), bindings(p)
        d1, g1 = self.dec(gamma, depth - 1)
        d2, g2 = self.dec(env_union(gamma, g1), depth - 1)
        return join_(d1, d2), env_union(g1, g2)

    def wild_term(self, depth: int):
        # arbitrary, possibly untypable
        if self.rng.random() < 0.5:
            return self.exp(self.typ(1), EMPTY_ENV, depth)
        if self.rng.random() < 0.5:
            return apply_(cn("c0", _TY_A), vr("zz"))
        return scope(env_(EMPTY_ENV), vr(self.rng.choice(_VARS)))


def gen_well_typed_config(cfg: GenConfig) -> list[Configuration]:
    """A seeded corpus of configurations; type-directed when the flag is on."""
    rng = random.Random(cfg.seed)
    gen = _Gen(rng)
    out: list[Configuration] = []
    budget = RETRY_BUDGET
    while len(out) < cfg.count:
        try:
            rho = gen.value_env(rng.randrange(0, ENV_SIZE + 1), MAX_DEPTH - 1)
            sort = rng.choice(("dec", "exp"))
            if not cfg.well_typed:
                term = gen.wild_term(MAX_DEPTH)
                if sort == "dec":
                    term, _ = gen.dec(EMPTY_ENV, MAX_DEPTH - 1)
                out.append(Configuration(sort, rho, None, None, term, None))
                continue
            env_res = typecheck_env(rho)
            if env_res is None:
                raise GenerationError("generated environment is untypable")
            gamma, envd = env_res
            if sort == "dec":
                term, _ = gen.dec(gamma, MAX_DEPTH - 1)
                res = typecheck_dec(gamma, term)
            else:
                term = gen.exp(gen.typ(1), gamma, MAX_DEPTH)
                res = typecheck_exp(gamma, term)
            if res is None:
                raise GenerationError("generated term is untypable")
            out.append(Configuration(sort, rho, gamma, envd, term, res[1]))
        except GenerationError:
            budget -= 1
            if budget < 0:
                raise
    return out


# ---------------------------------------------------------------------------
# subject-reduction fuzzing


@dataclass
class FuzzReport:
    seed: int
    configs: int
    steps_checked: int
    counterexamples: list[dict]

    @property
    def ok(self) -> bool:
        return not self.counterexamples

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "configs": self.configs,
            "steps_checked": self.steps_checked,
            "counterexamples": self.counterexamples,
        }


def check_configuration(config: Configuration, fuel: int) -> tuple[int, Optional[dict]]:
    """Step a configuration to exhaustion, checking preservation at each step.

    Returns the number of steps checked and a counterexample report, if any.
    """
    rho, gamma, envd, typd = config.rho, config.gamma, config.envd, config.typd
    term = config.term
    step = step_dec if config.sort == "dec" else step_exp
    printer = print_dec if config.sort == "dec" else print_exp
    steps = 0
    for i in range(fuel):
        sub = step(rho, term)
        if sub is None:
            break
        succ, stepd = sub
        try:
            typd = subject_reduction(rho, stepd, gamma, envd, typd)
        except (CounterexampleError, InvalidDerivationError, WrongIndexError) as exc:
            reason = getattr(exc, "reason", None) or str(exc)
            return steps, {
                "sort": config.sort,
                "rho": print_env(rho),
                "gamma": sexpr.write(tenv_to_sexpr(gamma)),
                "term": printer(config.term),
                "step_index": i,
                "at": printer(term),
                "rule": stepd.root.rule,
                "step_derivation": step_derivation_json(stepd),
                "reason": reason,
            }
        term = succ
        steps += 1
    return steps, None


def run_preservation_fuzz(seed: int, count: int, fuel: int = 50) -> FuzzReport:
    corpus = gen_well_typed_config(GenConfig(seed=seed, count=count))
    report = FuzzReport(seed, len(corpus), 0, [])
    for config in corpus:
        steps, cx = check_configuration(config, fuel)
        report.steps_checked += steps
        if cx is not None:
            report.counterexamples.append(cx)
    return report


class BadReplayCaseError(ValueError):
    """A replay case whose ``rho`` is not a typable environment of values."""


def replay_case(case: dict, fuel: int = 50) -> tuple[int, Optional[dict]]:
    """Re-run a dumped counterexample case from its serialized form; its ``sort`` is ``exp`` or ``dec``."""
    if case["sort"] not in ("exp", "dec"):
        raise BadReplayCaseError(f"replay case sort must be 'exp' or 'dec', not {case['sort']!r}")
    rho = parse_env(case["rho"])
    parse = parse_dec if case["sort"] == "dec" else parse_exp
    term = parse(case["term"])
    try:
        typed = typecheck_env(rho)
    except NonValueError as exc:
        raise BadReplayCaseError(f"replay case rho: {exc}") from None
    if typed is None:
        raise BadReplayCaseError("replay case rho does not typecheck")
    gamma, envd = typed
    tc = typecheck_dec if case["sort"] == "dec" else typecheck_exp
    res = tc(gamma, term)
    if res is None:
        return 0, {**case, "reason": "term no longer typechecks"}
    config = Configuration(case["sort"], rho, gamma, envd, term, res[1])
    return check_configuration(config, fuel)


# ---------------------------------------------------------------------------
# law suites


@dataclass
class LawReport:
    suite: str
    checked: int = 0
    failed: int = 0
    laws: dict = field(default_factory=dict)  # law -> [checked, failed]
    witnesses: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def record(self, law: str, ok: bool, witness=None):
        self.checked += 1
        counts = self.laws.setdefault(law, [0, 0])
        counts[0] += 1
        if not ok:
            self.failed += 1
            counts[1] += 1
            self.witnesses.append({"law": law, "witness": repr(witness)})

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "checked": self.checked,
            "failed": self.failed,
            "witnesses": self.witnesses,
        }

    def lines(self) -> list[str]:
        status = "PASS" if self.ok else "FAIL"
        out = [f"suite {self.suite}: {status} ({self.checked} checks, {self.failed} failed)"]
        for law, (checked, failed) in self.laws.items():
            word = "PASS" if failed == 0 else "FAIL"
            out.append(f"  {law}: {word} ({checked} checks, {failed} failed)")
        out.extend(f"  witness: {w['law']}: {w['witness']}" for w in self.witnesses)
        return out


def _compose(g, f):
    return lambda x: g(f(x))


def _kernel_laws(report: LawReport, fmap_fn=None):
    from . import kernel

    fmap_fn = fmap_fn or kernel.fmap
    rng = random.Random(7)
    sig = arith.TRM
    pool = ARITH_POOL_FULL
    # depth-1 nodes over an integer carrier
    nodes = [sig.node(arith.LIT, (x,)) for x in pool]
    nodes += [sig.node(arith.ADD, (a, b)) for a in pool for b in pool]
    ident = lambda x: x
    fns = [lambda x: x + 1, lambda x: -x, lambda x: x * 2]
    for n in nodes:
        report.record("fmap-identity", fmap_fn(ident, n) == n, n)
    for _ in range(1000):
        n = rng.choice(nodes)
        f, g = rng.choice(fns), rng.choice(fns)
        lhs = fmap_fn(_compose(g, f), n)
        rhs = fmap_fn(g, fmap_fn(f, n))
        report.record("fmap-composition", lhs == rhs, n)
    terms = list(enumerate_terms(arith_enum(4)))
    for t in terms:
        report.record("in-out", kernel.in_(kernel.out_(t)) == t, t)
        n = kernel.out_(t)
        report.record("out-in", kernel.out_(kernel.in_(n)) == n, t)
    lifted = kernel.lift(arith.eval_g)
    for t in terms:
        n = kernel.out_(t)
        lhs = kernel.fold_c(arith.eval_g, kernel.in_(n))
        rhs = arith.eval_g(fmap_fn(lambda c: kernel.fold_c(arith.eval_g, c), n))
        report.record("fold-computation", lhs == rhs, t)
        lhs = kernel.mfold(lifted, kernel.in_(n))
        rhs = kernel.step_once(lifted, n, lambda s: kernel.mfold(lifted, s))
        report.record("mfold-computation", lhs == rhs, t)
        report.record(
            "lift-coherence",
            kernel.mfold(lifted, t) == kernel.fold_c(arith.eval_g, t),
            t,
        )
    verdict = kernel.check_uniqueness(lifted, oracle_eval, terms[:200])
    report.record("uniqueness-oracle", verdict.ok, verdict)
    for t in terms:
        n = kernel.out_(t)
        side, inner = kernel.project(sig, n)
        back = (
            kernel.inject_left(sig, inner)
            if side == "left"
            else kernel.inject_right(sig, inner)
        )
        report.record("coproduct-surjective", back == n, t)
        report.record(
            "coproduct-disjoint",
            (kernel.project_left(sig, n) is None)
            != (kernel.project_right(sig, n) is None),
            t,
        )


def _indexed_laws(report: LawReport):
    from . import indexed

    terms = list(enumerate_terms(arith_enum(3)))
    derivs = [arith.build_eval_derivation(t) for t in terms]
    ident = lambda w, a: a
    tag = lambda w, a: ("t", a)
    untag = lambda w, a: a[1]
    for d in derivs:
        n = d.root
        report.record("ifmap-identity", indexed.ifmap(ident, n) == n, n.rule)
        lhs = indexed.ifmap(untag, indexed.ifmap(tag, n))
        report.record("ifmap-composition", lhs == n, n.rule)
        report.record("din-dout", indexed.din(indexed.dout(d)) == d, n.conclusion)
        report.record("validate-sound-for-din", bool(indexed.validate(d)), n.conclusion)
    depth_alg = lambda rec, w, node: 1 + max(
        (rec(wi, h) for _, wi, h in node.premises), default=0
    )
    concl_alg = lambda rec, w, node: w
    for d in derivs:
        w = d.root.conclusion
        lhs = indexed.ifold(depth_alg, w, indexed.din(d.root))
        rhs = indexed.istep_once(
            depth_alg, w, d.root, lambda wi, di: indexed.ifold(depth_alg, wi, di)
        )
        report.record("ifold-computation", lhs == rhs, w)
        report.record("ifold-index-coherence", indexed.ifold(concl_alg, w, d) == w, w)


def _mutual_laws(report: LawReport):
    from . import mutual
    from .lang_l import LANG

    pools = _lang_pools()
    layers = biterm_layers(BiEnumSpec(LANG, 3, pools))
    decs = [t for layer in layers for t in layer[0]]
    exps = [t for layer in layers for t in layer[1]]
    ident = lambda x: x
    tag = lambda x: ("t", x)
    untag = lambda x: x[1]
    for t in decs[:300] + exps[:300]:
        n = t.root
        report.record("bifmap-identity", mutual.bifmap(ident, ident, n) == n, n.ctor)
        lhs = mutual.bifmap(untag, untag, mutual.bifmap(tag, tag, n))
        report.record("bifmap-composition", lhs == n, n.ctor)
    for t in decs + exps:
        report.record("bi-in-out", mutual.in_bi(mutual.out_bi(t)) == t, t.component)
    size = lambda r1, r2, n: 1 + sum(r1(h) for h in n.rec1) + sum(r2(h) for h in n.rec2)
    size_alg = mutual.BiMendlerAlgebra(step1=size, step2=size)
    rebuild_step = lambda r1, r2, n: mutual.in_bi(mutual.bifmap(r1, r2, n))
    rebuild = mutual.BiMendlerAlgebra(step1=rebuild_step, step2=rebuild_step)
    for t in decs + exps:
        fold = mutual.bifold_1 if t.component == 1 else mutual.bifold_2
        lhs = fold(size_alg, t)
        rhs = mutual.bistep_once(
            size_alg,
            t.root,
            lambda s: mutual.bifold_1(size_alg, s),
            lambda s: mutual.bifold_2(size_alg, s),
        )
        report.record("bifold-computation", lhs == rhs, t.component)
        report.record("bifold-rebuild-identity", fold(rebuild, t) == t, t.component)


def _lang_pools() -> dict[str, tuple]:
    ty_a = Ty("a")
    arrow = Arrow(ty_a, ty_a)
    return {
        "id": ("x", "y"),
        "typ": (ty_a, arrow),
        "pat": (PVar("x", ty_a), PCon("c", ty_a)),
        "envE": (EMPTY_ENV, Env([("x", cn("c", ty_a))])),
    }


_SUITES = {
    "kernel": _kernel_laws,
    "indexed": _indexed_laws,
    "mutual": _mutual_laws,
}


def law_suite(module_id: str, **overrides) -> LawReport:
    """Run every invariant registered for the named module."""
    if module_id not in _SUITES:
        raise ValueError(f"unknown law suite {module_id!r}")
    report = LawReport(module_id)
    _SUITES[module_id](report, **overrides)
    return report
