"""Rule expressions are written into the generated ``search`` and ``derive`` when they can be verified.

A rule expression that is a plain lambda has its body written into the
generated code; the body's text is taken from the lambda's source and kept
only if it compiles to the lambda's own code.  Anything else is called, as
before, and gives the same derivations and rejections.  An inlined body
reads its module's globals through the module when it runs, so a spy set on
one after the rule was compiled is still called, and an exception raised in
it propagates as the lambda's would.
"""

import linecache
from dataclasses import replace
from weakref import WeakKeyDictionary

import pytest

from alacarte import arith, indexed
from alacarte.arith import EVAL_SIG, Val, _lit, add, lit
from alacarte.indexed import IndexedSignature, InvalidDerivationError, _AtSubject, din, rule, search, validate
from alacarte.lang_l import EMPTY_ENV, Env, Ty, cn, typing
from alacarte.lang_l.step import STEP_SIG
from alacarte.lang_l.typing import TYPING_SIG, TYPOENV_SIG, TYPOPAT_SIG

LIBRARY = (arith.EVAL_SIG, arith.TYPOF_SIG, arith.ISTRM_SIG, TYPOPAT_SIG, TYPOENV_SIG, TYPING_SIG, STEP_SIG)

# rule expressions of the library that are called, not inlined, as (signature, rule) pairs
CALLED = []


def _expressions(r):
    """Each rule expression of ``r`` with its arity: premise indices, side conditions, definitions, conclusion."""
    yield from ((ix, 1) for _, ix in r.premises)
    yield from ((pred, 1) for _, pred in r.side_conditions)
    yield from ((define, 2) for _, define in r.defines)
    yield (r.conclusion.at, 2) if isinstance(r.conclusion, _AtSubject) else (r.conclusion, 1)


def _source(fn) -> str:
    return "".join(linecache.getlines(fn.__code__.co_filename))


def test_every_library_expression_inlines():
    found = [(sig.name, r.name, fn, arity) for sig in LIBRARY for r in sig.rules.values() for fn, arity in _expressions(r)]
    assert len(found) == 69
    assert [(s, name) for s, name, fn, arity in found if indexed._inline(fn, arity) is None] == CALLED


def test_an_inlined_search_keeps_its_parameters_in_locals():
    arith.build_eval_derivation(add(lit(1), lit(2)))
    src = _source(EVAL_SIG._search_tables[arith.TRM][1, arith.ADD])
    assert "P0_v = _mod0._new_val(P0_x1.vv + P0_x2.vv)" in src
    assert "if P0_v.vv == P0_x1.vv + P0_x2.vv:" in src
    assert "P0 =" not in src and "_side" not in src and "_ix" not in src


def _closure():
    k = 0
    return lambda P: P["v"].vv == P["x1"].vv + P["x2"].vv + k


# the sum side condition of ev2, written in ways that must be called
REFUSED = {
    "closure": _closure(),
    "default": lambda P, k=0: P["v"].vv == P["x1"].vv + P["x2"].vv + k,
    "comprehension": lambda P: P["v"].vv == sum([P[k].vv for k in ("x1", "x2")]),
    "walrus": lambda P: P["v"].vv == (a := P["x1"].vv) + P["x2"].vv,
    "no source": eval('lambda P: P["v"].vv == P["x1"].vv + P["x2"].vv'),
}


def _eval_with(side=None, premises=None):
    """``EVAL_SIG`` with ev2's sum side condition or premise indices replaced."""
    ev1, ev2 = EVAL_SIG.rules.values()
    ev2 = replace(
        ev2,
        side_conditions=ev2.side_conditions if side is None else (("sum", side),),
        premises=ev2.premises if premises is None else tuple(zip((1, 1), premises)),
    )
    return IndexedSignature("Eval", [ev1, ev2], layout=EVAL_SIG.layout)


TERMS = [lit(4), add(lit(1), lit(2)), add(add(lit(-3), lit(5)), add(lit(0), lit(7)))]
GOOD = {"e1": lit(1), "e2": lit(2), "x1": Val(1), "x2": Val(2), "v": Val(3)}
BAD = {**GOOD, "v": Val(4)}


def _outcomes(sig):
    """What ``sig`` builds and rejects: search derivations as JSON, then ``derive``, ``din`` and ``validate`` verdicts."""
    out = [arith.derivation_json(search(sig, 1, None, t)[1]) for t in TERMS]
    witnesses = tuple(search(sig, 1, None, x)[1] for x in (lit(1), lit(2)))
    out.append(arith.derivation_json(sig.derive("ev2", GOOD, witnesses, add(lit(1), lit(2)))))
    for call in (
        lambda: sig.derive("ev2", BAD, witnesses),
        lambda: sig.derive_given("ev2", (), BAD, witnesses),
        lambda: din(sig.dnode("ev2", BAD, witnesses)),
    ):
        with pytest.raises(InvalidDerivationError) as exc:
            call()
        out.append(str(exc.value))
    out.append(validate(indexed.Derivation(sig, sig.dnode("ev2", BAD, witnesses))).reason)
    return out


@pytest.mark.parametrize("how", sorted(REFUSED))
def test_a_side_condition_that_cannot_inline_is_called_with_the_same_outcomes(how):
    side = REFUSED[how]
    assert indexed._inline(side, 1) is None
    sig = _eval_with(side=side)
    assert _outcomes(sig) == _outcomes(EVAL_SIG)
    search(sig, 1, None, add(lit(1), lit(2)))
    assert "if _side0_0(P0):" in _source(sig._search_tables[arith.TRM][1, arith.ADD])
    assert "    if not _side0(P):" in _source(sig.rules["ev2"].compiled)


def test_a_generator_and_an_f_string_are_called():
    assert indexed._inline(lambda P: (yield P["v"]), 1) is None
    assert indexed._inline(lambda P: f"{P['v']}" != "", 1) is None


def test_without_code_positions_every_expression_is_called_with_the_same_outcomes(monkeypatch):
    expected = _outcomes(EVAL_SIG)
    monkeypatch.setattr(indexed, "_POSITIONS", False)  # as on Python 3.10
    monkeypatch.setattr(indexed, "_BODIES", WeakKeyDictionary())
    sig = IndexedSignature("Eval", [replace(r) for r in EVAL_SIG.rules.values()], layout=EVAL_SIG.layout)
    assert all(indexed._inline(fn, arity) is None for r in sig.rules.values() for fn, arity in _expressions(r))
    assert _outcomes(sig) == expected
    src = _source(sig._search_tables[arith.TRM][1, arith.ADD])
    assert "if _side0_0(P0):" in src and "_mod0" not in src


def test_called_search_expressions_share_one_mapping_of_the_parameters_bound_where_each_runs():
    seen, mappings = [], set()

    def index(*keys):
        return lambda P: seen.append(dict(P)) or mappings.add(id(P)) or (P[keys[0]], P[keys[1]])

    sig = _eval_with(premises=(index("e1", "x1"), index("e2", "x2")))
    assert _outcomes(sig) == _outcomes(EVAL_SIG)
    seen.clear()
    mappings.clear()
    search(sig, 1, None, add(lit(1), lit(2)))
    assert len(mappings) == 1  # one mapping per rule instance, as the checker passes
    out = indexed._OUT
    assert seen == [{"e1": lit(1), "e2": lit(2), "x1": out}, {"e1": lit(1), "e2": lit(2), "x1": Val(1), "x2": out}]


def test_a_parameter_no_identifier_can_name_gets_a_local_of_its_own():
    primed = IndexedSignature(
        "Primed",
        [rule("p", params=("x'",), subject=(_lit, "x'"), conclusion=lambda P, s: (s, Val(P["x'"])))],
        layout=("subject", "output"),
    )
    assert search(primed, 1, None, lit(3))[0] == Val(3)
    assert "P0_0 = payload[0]" in _source(primed._search_tables[arith.TRM][1, arith.LIT])


def test_two_lambdas_on_one_line_each_inline_their_own_body():
    premises = (lambda P: (P["e1"], P["x1"]), lambda P: (P["e2"], P["x2"]))
    bodies = [indexed._render(indexed._inline(ix, 1), {}, "P") for ix in premises]
    assert bodies == ["(P['e1'], P['x1'])", "(P['e2'], P['x2'])"]
    sig = _eval_with(premises=premises)
    assert _outcomes(sig) == _outcomes(EVAL_SIG)
    assert "    ix0 = (P['e1'], P['x1'])\n    ix1 = (P['e2'], P['x2'])\n" in _source(sig.rules["ev2"].compiled)


def test_a_spy_on_a_global_an_inlined_side_condition_reads_sees_every_call(monkeypatch):
    ((_, pred),) = TYPOENV_SIG.rules["te_env"].side_conditions
    assert indexed._inline(pred, 1) is not None
    rho = Env([("x", cn("z", Ty("nat"))), ("y", cn("o", Ty("nat")))])
    gamma = typing.env_typing(rho)
    TYPOENV_SIG.derive("te_env", {"rho": rho, "gamma": gamma})  # compiled before the spy is set
    calls = []
    real = typing.env_typing

    def spy(r):
        calls.append(r)
        return real(r)

    monkeypatch.setattr(typing, "env_typing", spy)
    for _ in range(3):
        assert TYPOENV_SIG.derive("te_env", {"rho": rho, "gamma": gamma})._certified
    with pytest.raises(InvalidDerivationError, match="side condition 'pointwise' failed"):
        TYPOENV_SIG.derive("te_env", {"rho": rho, "gamma": EMPTY_ENV})
    assert calls == [rho] * 4
    assert "_mod0.env_typing(P['rho'])" in _source(TYPOENV_SIG.rules["te_env"].compiled)


def test_an_exception_in_an_inlined_expression_propagates_as_the_lambdas_would():
    ev2 = EVAL_SIG.rules["ev2"]
    ((_, pred),) = ev2.side_conditions
    params = {**GOOD, "x1": 1}
    with pytest.raises(AttributeError) as called:
        pred(params)
    with pytest.raises(AttributeError) as inlined:
        EVAL_SIG.derive("ev2", params, (search(EVAL_SIG, 1, None, lit(1))[1], search(EVAL_SIG, 1, None, lit(2))[1]))
    assert str(inlined.value) == str(called.value) == "'int' object has no attribute 'vv'"

    define = lambda P, s: P["x"] // (P["x"] - P["x"])  # noqa: E731
    broken = IndexedSignature(
        "Broken",
        [rule("b", params=("x", "y"), subject=(_lit, "x"), define=(("y", define),), conclusion=lambda P, s: (s, P["y"]))],
        layout=("subject", "output"),
    )
    assert indexed._inline(define, 2) is not None
    with pytest.raises(ZeroDivisionError) as inlined:
        search(broken, 1, None, lit(3))
    with pytest.raises(ZeroDivisionError) as called:
        define({"x": 3}, lit(3))
    assert str(inlined.value) == str(called.value)
    assert "P0_y = P0_x // (P0_x - P0_x)" in _source(broken._search_tables[arith.TRM][1, arith.LIT])
