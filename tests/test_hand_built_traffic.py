"""The library builds every derivation node through ``derive``.

``dnode``, ``din`` and ``din_bi`` serve hand-built nodes only: here each is
replaced, at every binding in a loaded ``alacarte`` module, by a trap that
records its call, and the arith builders, both preservation routes, the
typecheckers, the stepper, subject reduction, the preservation check and
every command kind of the benchmark's ``cli`` corpus run without one.
"""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

from alacarte import arith, indexed, mutual, testkit
from alacarte.lang_l import build_typopat, step_dec, step_exp, subject_reduction
from alacarte.lang_l.typing import typecheck_dec, typecheck_env, typecheck_exp

WORKLOADS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def trapped(monkeypatch):
    """The calls made to a trapped ``dnode``, ``din`` or ``din_bi``, by name."""
    targets = {
        "dnode": indexed.IndexedSignature.dnode,
        "din": indexed.din,
        "din_bi": mutual.din_bi,
    }
    calls, bindings = [], []

    def trap(name):
        def trapped_call(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"the library called {name}")

        return trapped_call

    holders = [m for name, m in sys.modules.items() if name == "alacarte" or name.startswith("alacarte.")]
    holders += [v for m in list(holders) for v in vars(m).values() if isinstance(v, type)]
    for holder in dict.fromkeys(holders):
        for attr, value in list(vars(holder).items()):
            for name, target in targets.items():
                if value is target:
                    monkeypatch.setattr(holder, attr, trap(name))
                    bindings.append(f"{getattr(holder, '__name__', holder)}.{attr}")
    assert {"IndexedSignature.dnode", "IndexedBiSignature.dnode", "alacarte.indexed.din", "alacarte.mutual.din_bi"} <= set(bindings)
    with pytest.raises(AssertionError):
        arith.EVAL_SIG.dnode("ev1", {"x": 1})
    calls.clear()
    return calls


def _terms():
    rng = random.Random(3)
    deep = [_workloads().random_term(rng, n, -9, 9) for n in (3, 8, 20)]
    return [arith.lit(4), arith.add(arith.lit(1), arith.lit(-2)), *deep]


def test_the_arith_builders_and_both_preservation_routes_build_no_node_by_hand(trapped):
    for t in _terms():
        d, td, w = arith.build_eval_derivation(t), arith.build_typof_derivation(t), arith.build_istrm(t)
        v = arith.eval_(t).vv
        for out in (arith.preservation(d, td), arith.preservation_via_istrm(w, td)):
            assert out.root.conclusion == (arith.lit(v), arith.N)
    assert trapped == []


def test_the_typecheckers_stepper_and_subject_reduction_build_no_node_by_hand(trapped):
    configs = testkit.gen_well_typed_config(testkit.GenConfig(seed=11, count=40))
    steps = patterns = 0
    for c in configs:
        assert typecheck_env(c.rho)[1] == c.envd
        typecheck = typecheck_dec if c.sort == "dec" else typecheck_exp
        assert typecheck(c.gamma, c.term)[1] == c.typd
        for typing in (c.typd, c.envd):
            stack = [typing]
            while stack:
                d = stack.pop()
                if "p" in d.root.params_dict():
                    assert build_typopat(d.root.params_dict()["p"]) is not None
                    patterns += 1
                stack.extend(w for _, _, w in d.root.premises)
        step = step_dec if c.sort == "dec" else step_exp
        term, typd = c.term, c.typd
        for _ in range(10):
            sub = step(c.rho, term)
            if sub is None:
                break
            term, stepd = sub
            typd = subject_reduction(c.rho, stepd, c.gamma, c.envd, typd)
            steps += 1
        assert testkit.check_configuration(c, 50)[1] is None
    assert steps > 20 and patterns > 20
    assert trapped == []


def test_every_cli_command_kind_builds_no_node_by_hand(trapped):
    wl = _workloads()
    kinds = wl.Cli.kinds
    ops = wl.Cli(1).ops  # the corpus cycles through ``kinds``
    for i, (argv, expected) in enumerate(ops[: 4 * len(kinds)]):
        kind = kinds[i % len(kinds)].split()
        assert argv[: len(kind)] == kind
        assert wl.run_cli(argv) == (0, expected), argv
    assert trapped == []
