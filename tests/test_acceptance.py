"""The acceptance suite: one test per criterion, each timed at its budget.

Enumeration scales: the oracle-equivalence and term-isomorphism sweeps run
over every arithmetic term of depth <= 4 with literals in {-2..2} (819,030
terms); derivation-building sweeps use the same depth with literals in
{-1, 0, 1} (21,612 terms) and the double preservation sweep uses literals
in {0, 1} (1,446 terms), which keeps every criterion inside its stated
wall-clock budget on one core.  Where a full-scale sweep would otherwise
recompute shared subterms, results are tabulated bottom-up over the shared
enumeration (one algebra/oracle step per distinct term) and the end-to-end
functions are additionally run exhaustively at depth <= 3 and on a strided
depth-4 sample.

Each criterion records one line, printed in the terminal summary.
"""

import random
import time
from contextlib import contextmanager

import pytest

from alacarte import arith, cli, kernel, testkit
from alacarte.arith import EVAL_SIG, N, Val, add, lit
from alacarte.indexed import Derivation, din, dout, ifold, istep_once, rule, validate
from alacarte.indexed import IndexedSignature
from alacarte.kernel import (
    fmap,
    fold_c,
    in_,
    lift,
    mfold,
    out_,
    reflect,
    reify,
    step_once,
)
from alacarte.lang_l import (
    EMPTY_ENV,
    Env,
    LANG,
    Ty,
    cn,
    print_dec,
    print_exp,
    step_dec,
    step_exp,
    typecheck_dec,
    typecheck_exp,
)
from alacarte.mutual import (
    bifmap,
    bifold_1,
    bifold_2,
    bistep_once,
    din_bi,
    dout_bi,
    hfold_1,
    hfold_2,
    hstep_once,
    in_bi,
    out_bi,
)

from conftest import ACCEPTANCE_LINES


@contextmanager
def criterion(number: int, budget: float, description: str):
    start = time.perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = time.perf_counter() - start
        status = "PASS" if ok and elapsed < budget else "FAIL"
        ACCEPTANCE_LINES.append(
            f"criterion {number:2d}: {status} ({elapsed:5.1f}s / {budget:4.0f}s) {description}"
        )
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget"


# ---------------------------------------------------------------------------
# shared enumerations (built once; criteria time only their own checks)


@pytest.fixture(scope="module")
def full_layers():
    import gc

    layers = testkit.term_layers(testkit.arith_enum(4, testkit.ARITH_POOL_FULL))
    # the enumeration stays alive for the whole module; excluding it from
    # collector scans keeps the timed sweeps free of GC pauses
    gc.freeze()
    return layers


@pytest.fixture(scope="module")
def small_terms():
    return list(testkit.enumerate_terms(testkit.arith_enum(4)))


@pytest.fixture(scope="module")
def tiny_terms():
    return list(testkit.enumerate_terms(testkit.arith_enum(4, (0, 1))))


@pytest.fixture(scope="module")
def lang_terms():
    layers = testkit.biterm_layers(testkit.BiEnumSpec(LANG, 3, testkit._lang_pools()))
    decs = [t for layer in layers for t in layer[0]]
    exps = [t for layer in layers for t in layer[1]]
    return decs, exps


# ---------------------------------------------------------------------------
# 1. functor / bi-functor laws


def test_criterion_1_functor_laws():
    with criterion(1, 5.0, "fmap/ifmap/bifmap identity and composition"):
        rng = random.Random(1)
        pool = testkit.ARITH_POOL_FULL
        fns = [lambda x: x + 1, lambda x: -x, lambda x: x * 2, lambda x: x - 3]

        nodes = [arith.TRM.node(arith.LIT, (x,)) for x in pool]
        nodes += [arith.TRM.node(arith.ADD, (a, b)) for a in pool for b in pool]
        for n in nodes:
            assert fmap(lambda x: x, n) == n
        for _ in range(1200):
            n, f, g = rng.choice(nodes), rng.choice(fns), rng.choice(fns)
            assert fmap(lambda x: g(f(x)), n) == fmap(g, fmap(f, n))

        from alacarte.indexed import ifmap

        dnodes = [EVAL_SIG.dnode("ev1", {"x": x}) for x in pool]
        dnodes += [
            EVAL_SIG.dnode(
                "ev2",
                {"e1": lit(a), "e2": lit(b), "x1": Val(a), "x2": Val(b), "v": Val(a + b)},
                (a, b),  # opaque witness carrier
            )
            for a in pool
            for b in pool
        ]
        for n in dnodes:
            assert ifmap(lambda w, a: a, n) == n
        for _ in range(1200):
            n, f, g = rng.choice(dnodes), rng.choice(fns), rng.choice(fns)
            lhs = ifmap(lambda w, a: g(f(a)), n)
            rhs = ifmap(lambda w, a: g(a), ifmap(lambda w, a: f(a), n))
            assert lhs == rhs

        pools = testkit._lang_pools()
        binodes = []
        for component in (1, 2):
            for ctor, kinds in LANG.ctors[component - 1].items():
                candidates = [
                    (0, 1) if k in ("rec1", "rec2") else pools[k] for k in kinds
                ]
                for slots in testkit._product(candidates):
                    binodes.append(LANG.node(component, ctor, slots))
        ident = lambda x: x
        for n in binodes:
            assert bifmap(ident, ident, n) == n
        for _ in range(1200):
            n = rng.choice(binodes)
            f1, f2, g1, g2 = (rng.choice(fns) for _ in range(4))
            lhs = bifmap(lambda x: g1(f1(x)), lambda x: g2(f2(x)), n)
            rhs = bifmap(g1, g2, bifmap(f1, f2, n))
            assert lhs == rhs


# ---------------------------------------------------------------------------
# 2. isomorphism laws


def test_criterion_2_isomorphisms(full_layers, small_terms, lang_terms):
    with criterion(2, 30.0, "in/out, din/dout, bi in/out round-trips"):
        for layer in full_layers:
            for t in layer:
                n = out_(t)
                assert in_(n) == t
                assert out_(in_(n)) == n
        for t in small_terms:
            for d in (
                arith.build_eval_derivation(t),
                arith.build_typof_derivation(t),
                arith.build_istrm(t),
            ):
                node = dout(d)
                assert din(node) == d
                assert dout(din(node)) == node
        decs, exps = lang_terms
        for t in decs + exps:
            n = out_bi(t)
            assert in_bi(n) == t
            assert out_bi(in_bi(n)) == n
        # derivations over the same enumeration: typings where a term is
        # typable, step derivations where a configuration can move
        gamma = Env([("x", Ty("a")), ("y", Ty("a"))])
        rho = Env([("x", cn("c", Ty("a"))), ("y", cn("c", Ty("a")))])
        rounded = 0
        for t in decs + exps:
            tc = typecheck_dec if t.component == 1 else typecheck_exp
            res = tc(gamma, t)
            candidates = [res[1]] if res is not None else []
            stepper = step_dec if t.component == 1 else step_exp
            sub = stepper(rho, t)
            if sub is not None:
                candidates.append(sub[1])
            for d in candidates:
                node = dout_bi(d)
                assert din_bi(node) == d
                assert dout_bi(din_bi(node)) == node
                rounded += 1
        assert rounded > 1000


# ---------------------------------------------------------------------------
# 3. computation rules


def _walk_bi(d):
    yield d
    for _, _, w in d.root.premises:
        yield from _walk_bi(w)


def test_criterion_3_computation_rules(small_terms, lang_terms):
    with criterion(3, 30.0, "fold/mfold/ifold/hfold computation rules"):
        alg = arith.eval_g
        lifted = lift(alg)
        # enumeration is closed under subterms, so checking each term's root
        # node covers every node of every enumerated term
        for t in small_terms:
            n = out_(t)
            assert fold_c(alg, in_(n)) == alg(fmap(lambda c: fold_c(alg, c), n))
            assert mfold(lifted, in_(n)) == step_once(
                lifted, n, lambda s: mfold(lifted, s)
            )
        depth_alg = lambda rec, w, node: 1 + max(
            (rec(wi, h) for _, wi, h in node.premises), default=0
        )
        for t in small_terms:
            d = arith.build_eval_derivation(t)
            w = d.root.conclusion
            lhs = ifold(depth_alg, w, din(d.root))
            rhs = istep_once(
                depth_alg, w, d.root, lambda wi, di: ifold(depth_alg, wi, di)
            )
            assert lhs == rhs

        from alacarte.mutual import BiMendlerAlgebra, IndexedBiMendlerAlgebra

        size = BiMendlerAlgebra(
            step1=lambda r1, r2, n: 1
            + sum(r1(h) for h in n.rec1)
            + sum(r2(h) for h in n.rec2),
            step2=lambda r1, r2, n: 1
            + sum(r1(h) for h in n.rec1)
            + sum(r2(h) for h in n.rec2),
        )
        decs, exps = lang_terms
        for t in decs + exps:
            fold = bifold_1 if t.component == 1 else bifold_2
            lhs = fold(size, t)
            rhs = bistep_once(
                size,
                out_bi(t),
                lambda s: bifold_1(size, s),
                lambda s: bifold_2(size, s),
            )
            assert lhs == rhs

        hdepth = IndexedBiMendlerAlgebra(
            step1=lambda r1, r2, w, n: 1
            + max(
                (r1(wi, h) if f == 1 else r2(wi, h) for f, wi, h in n.premises),
                default=0,
            ),
            step2=lambda r1, r2, w, n: 1
            + max(
                (r1(wi, h) if f == 1 else r2(wi, h) for f, wi, h in n.premises),
                default=0,
            ),
        )

        def check_h(d):
            for sub in _walk_bi(d):
                w = sub.root.conclusion
                fold = hfold_1 if sub.family == 1 else hfold_2
                lhs = fold(hdepth, w, din_bi(sub.root))
                rhs = hstep_once(
                    hdepth,
                    w,
                    sub.root,
                    lambda wi, di: hfold_1(hdepth, wi, di),
                    lambda wi, di: hfold_2(hdepth, wi, di),
                )
                assert lhs == rhs

        gamma = Env([("x", Ty("a")), ("y", Ty("a"))])
        rho = Env([("x", cn("c", Ty("a"))), ("y", cn("c", Ty("a")))])
        checked_typing = checked_step = 0
        for t in decs + exps:
            tc = typecheck_dec if t.component == 1 else typecheck_exp
            res = tc(gamma, t)
            if res is not None:
                check_h(res[1])
                checked_typing += 1
            stepper = step_dec if t.component == 1 else step_exp
            sub = stepper(rho, t)
            if sub is not None:
                check_h(sub[1])
                checked_step += 1
        assert checked_typing > 100 and checked_step > 100


# ---------------------------------------------------------------------------
# 4. representation isomorphism


def test_criterion_4_representation_isomorphism(small_terms):
    with criterion(4, 10.0, "tree terms <-> fold-carrying terms"):
        lifted = lift(arith.eval_g)
        for t in small_terms:
            ft = reflect(t)
            assert reify(ft) == t
        for t in small_terms[:2000]:
            ft = reflect(t)
            assert kernel.ft_fold(lifted, ft) == mfold(lifted, t)
            assert in_(fmap(reify, kernel.ft_out(ft))) == t


# ---------------------------------------------------------------------------
# 5. oracle equivalence


def test_criterion_5_oracle_equivalence(full_layers):
    import gc

    with criterion(5, 10.0, "eval equals the independent oracle, depth <= 4"):
        eval_g, Node, LIT, _id = arith.eval_g, kernel.Node, arith.LIT, id
        eval_table: dict[int, Val] = {}
        oracle_table: dict[int, int] = {}  # the oracle's vv contents
        checked = 0
        # the sweep allocates no reference cycles; keep the collector out of
        # the timed loop
        gc.disable()
        try:
            for layer in full_layers:
                for t in layer:
                    n = t.root
                    if n.ctor == LIT:
                        ev = eval_g(n)  # no recursive slots: already a value node
                        ov = n.payload[0]
                    else:
                        a, b = n.rec
                        # one evaluation-algebra step per distinct term
                        ev = eval_g(
                            Node(
                                n.sig,
                                n.ctor,
                                (eval_table[_id(a)], eval_table[_id(b)]),
                                n.payload,
                            )
                        )
                        # one oracle step per distinct term (field reads only)
                        ov = oracle_table[_id(a)] + oracle_table[_id(b)]
                    if ev.vv != ov:
                        pytest.fail(
                            f"eval {ev} != oracle {ov} at {arith.print_term(t)}"
                        )
                    tid = _id(t)
                    eval_table[tid] = ev
                    oracle_table[tid] = ov
                    checked += 1
        finally:
            gc.enable()
        assert checked == 819030
        # end-to-end spot checks of the real functions against the tables
        for layer in full_layers[:4]:
            for t in layer:
                assert arith.eval_(t) == eval_table[id(t)]
                assert testkit.oracle_eval(t).vv == oracle_table[id(t)]
        for t in full_layers[4][::101]:
            assert arith.eval_(t) == eval_table[id(t)]
            assert testkit.oracle_eval(t).vv == oracle_table[id(t)]


# ---------------------------------------------------------------------------
# 6. agreement between eval and the evaluation relation


def test_criterion_6_agreement(small_terms):
    with criterion(6, 10.0, "eval derivations validate and agree with eval"):
        # the builder validates every node as it goes (din), so the built
        # derivation is valid by construction; agreement is the conclusion
        # check against eval.  The full revalidating agreement operation runs
        # on every seventh term as well.
        for i, t in enumerate(small_terms):
            d = arith.build_eval_derivation(t)
            assert d.root.conclusion == (t, arith.eval_(t))
            if i % 7 == 0:
                assert arith.eval_of_derivation(d).ok
        # a validating derivation with a wrong value cannot exist: forging
        # one is rejected, so agreement holds over all validating derivations
        forged = Derivation(
            EVAL_SIG,
            EVAL_SIG.dnode(
                "ev2",
                {
                    "e1": lit(1),
                    "e2": lit(2),
                    "x1": Val(1),
                    "x2": Val(2),
                    "v": Val(9),
                },
                (arith.build_eval_derivation(lit(1)), arith.build_eval_derivation(lit(2))),
            ),
        )
        assert not validate(forged)


# ---------------------------------------------------------------------------
# 7. arith preservation, both routes


def test_criterion_7_preservation(tiny_terms):
    with criterion(7, 10.0, "preservation via Eval and via the lifted predicate"):
        for t in tiny_terms:
            td = arith.build_typof_derivation(t)
            out_a = arith.preservation(arith.build_eval_derivation(t), td)
            out_b = arith.preservation_via_istrm(arith.build_istrm(t), td)
            assert validate(out_a)
            assert validate(out_b)
            assert out_a.root.conclusion == out_b.root.conclusion
            assert out_a.root.conclusion == (lit(arith.eval_(t).vv), N)


# ---------------------------------------------------------------------------
# 8. uniqueness sampling


def test_criterion_8_uniqueness(small_terms):
    with criterion(8, 5.0, "fold uniqueness sampled against the oracle"):
        lifted = lift(arith.eval_g)
        verdict = kernel.check_uniqueness(lifted, testkit.oracle_eval, small_terms)
        assert verdict.ok and verdict.kind == "ok"
        broken = kernel.check_uniqueness(
            lifted, lambda t: Val(0), [lit(0), lit(1), add(lit(1), lit(1))]
        )
        assert not broken.ok and broken.kind == "hypothesis-violation"


# ---------------------------------------------------------------------------
# 9. subject reduction for the full language


def test_criterion_9_subject_reduction_fuzz():
    with criterion(9, 60.0, "1000 well-typed configurations, zero counterexamples"):
        report = testkit.run_preservation_fuzz(seed=42, count=1000, fuel=50)
        assert report.configs == 1000
        assert report.counterexamples == []
        assert report.steps_checked > 1000


# ---------------------------------------------------------------------------
# 10. mutation sensitivity


def test_criterion_10_mutation_sensitivity(monkeypatch):
    with criterion(10, 120.0, "three injected defects each caught by a suite"):
        # (a) swapped fmap slots: the functor-law suite fails composition
        def swapped(f, n):
            return kernel.Node(
                n.sig, n.ctor, tuple(f(x) for x in reversed(n.rec)), n.payload
            )

        report = testkit.law_suite("kernel", fmap_fn=swapped)
        assert not report.ok
        assert any(w["law"] == "fmap-composition" for w in report.witnesses)

        # (b) left-biased env union in typing only: the fuzz suite reports
        # counterexamples to subject reduction
        from alacarte.lang_l import syntax, typing as ltyping

        monkeypatch.setattr(
            ltyping, "env_union", lambda a, b: syntax.Env(b.items() + a.items())
        )
        fuzz = testkit.run_preservation_fuzz(seed=42, count=200, fuel=50)
        assert fuzz.counterexamples
        monkeypatch.undo()

        # (c) dropped side condition in the addition evaluation rule: a
        # wrong-sum derivation now validates, and the agreement suite
        # (value = eval of the term) catches it
        rules = [EVAL_SIG.rules["ev1"]]
        ev2 = EVAL_SIG.rules["ev2"]
        rules.append(rule("ev2", ev2.params, [ix for _, ix in ev2.premises], (), ev2.conclusion))
        mutant = IndexedSignature("Eval-without-sum-check", rules)
        forged = Derivation(
            mutant,
            mutant.dnode(
                "ev2",
                {"e1": lit(1), "e2": lit(2), "x1": Val(1), "x2": Val(2), "v": Val(9)},
                (
                    _re_sign(arith.build_eval_derivation(lit(1)), mutant),
                    _re_sign(arith.build_eval_derivation(lit(2)), mutant),
                ),
            ),
        )
        assert validate(forged)  # the mutant no longer rejects it...
        e, v = forged.root.conclusion
        assert v != arith.eval_(e)  # ...but agreement flags the wrong value
        assert not validate(
            Derivation(EVAL_SIG, _re_sign(forged, EVAL_SIG).root)
        )  # the real signature still rejects it


def _re_sign(d, sig):
    from alacarte.indexed import DNode

    node = d.root
    moved = DNode(
        sig,
        node.family,
        node.rule,
        node.params,
        tuple((fam, ix, _re_sign(w, sig)) for fam, ix, w in node.premises),
        node.conclusion,
    )
    return Derivation(sig, moved)


# ---------------------------------------------------------------------------
# 11. CLI round-trip and determinism


def test_criterion_11_cli_roundtrip_and_determinism(capsys):
    with criterion(11, 10.0, "parse/print identity and byte-identical reruns"):
        corpus = testkit.gen_well_typed_config(testkit.GenConfig(seed=23, count=120))
        for config in corpus:
            printer = print_dec if config.sort == "dec" else print_exp
            text = printer(config.term)
            code = cli.main(["lang", "parse", "--sort", config.sort, text])
            out = capsys.readouterr().out
            assert code == 0 and out.strip() == text
        for t in testkit.enumerate_terms(testkit.arith_enum(3)):
            text = arith.print_term(t)
            code = cli.main(["arith", "eval", text])
            out = capsys.readouterr().out
            assert code == 0
            assert out.strip() == arith.print_val(testkit.oracle_eval(t))
        argvs = [
            ["arith", "derive", "(add (lit 1) (lit 2))", "--relation", "eval"],
            ["lang", "typecheck", "--env", "()", "(con c (ty a))"],
            ["fuzz-preservation", "--seed", "5", "--count", "25"],
            ["dump", "(add (lit -1) (lit 2))"],
        ]
        for argv in argvs:
            code1 = cli.main(argv)
            cap1 = capsys.readouterr()
            code2 = cli.main(argv)
            cap2 = capsys.readouterr()
            assert code1 == code2
            assert cap1.out.encode() == cap2.out.encode()
            assert cap1.err.encode() == cap2.err.encode()
