"""The library's hot paths build terms, derivations, values and handles without an ``__init__`` call.

``Node``, ``Term``, ``DNode``, ``Derivation`` and ``arith.Val`` each have a
generated ``__init__`` and a generated factory, ``Cls._positional``, that
builds the same value more cheaply (see ``kernel.value_class``); ``mfold``
and the generated indexed folds build each ``Handle`` by ``object.__new__``
and two slot stores.  Here each class's ``__init__`` is replaced by a trap
that records its call.  The inputs and expected values are built first,
outside the trap.  Then the arith builders, both preservation routes,
``eval_`` and ``mfold(lift(eval_g))``, and ``in_``, ``fold_c`` of another
algebra and ``eval_g`` itself on arith nodes, the stepper, the expression
typechecker and subject reduction run without one call.
"""

import importlib.util
import random
from pathlib import Path

import pytest

from alacarte import arith, testkit
from alacarte.indexed import Derivation, DNode
from alacarte.kernel import Handle, Node, Term, fold_c, in_, lift, mfold, out_
from alacarte.lang_l import step_dec, step_exp, subject_reduction
from alacarte.lang_l.typing import typecheck_exp

WORKLOADS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _random_terms():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    rng = random.Random(5)
    return [arith.lit(4), arith.add(arith.lit(1), arith.lit(-2))] + [
        module.random_term(rng, n, -9, 9) for n in (3, 8, 20)
    ]


def _size(t):
    return 1 + sum(map(_size, t.root.rec))


def _trap_inits(monkeypatch):
    """Trap each class's ``__init__``; the calls made to a trap, by class name."""
    calls = []

    def trap(name):
        def __init__(self, *args, **kwargs):
            calls.append(name)
            raise AssertionError(f"the library called {name}.__init__")

        return __init__

    for cls in (Node, Term, DNode, Derivation, arith.Val, Handle):
        monkeypatch.setattr(cls, "__init__", trap(cls.__name__))
    for build in (lambda: Node(arith.TRM_G1, "lit", (), (1,)), lambda: arith.Val(1), lambda: Handle(1, object())):
        with pytest.raises(AssertionError):
            build()
    assert calls == ["Node", "Val", "Handle"]
    calls.clear()
    return calls


def test_the_arith_paths_call_no_init(monkeypatch):
    terms = _random_terms()
    four = arith.Val(4)
    calls = _trap_inits(monkeypatch)
    for t in terms:
        d, td, w = arith.build_eval_derivation(t), arith.build_typof_derivation(t), arith.build_istrm(t)
        v = arith.eval_(t)
        assert mfold(lift(arith.eval_g), t) == v
        assert in_(out_(t)) == t
        assert fold_c(lambda n: 1 + sum(n.rec), t) == _size(t)  # an algebra that ``case`` did not return
        for out in (arith.preservation(d, td), arith.preservation_via_istrm(w, td)):
            assert out.root.conclusion == (arith._lit(v.vv), arith.N)
    assert arith.eval_g(out_(terms[0])) == four  # the copair, called on a node
    assert calls == []


def test_stepping_typing_and_subject_reduction_call_no_init(monkeypatch):
    configs = testkit.gen_well_typed_config(testkit.GenConfig(seed=13, count=40))
    calls = _trap_inits(monkeypatch)
    steps = typed = 0
    for c in configs:
        if c.sort == "exp":
            assert typecheck_exp(c.gamma, c.term)[1] == c.typd
            typed += 1
        step = step_dec if c.sort == "dec" else step_exp
        term, typd = c.term, c.typd
        for _ in range(10):
            sub = step(c.rho, term)
            if sub is None:
                break
            term, stepd = sub
            typd = subject_reduction(c.rho, stepd, c.gamma, c.envd, typd)
            steps += 1
    assert steps > 20 and typed > 5
    assert calls == []
