"""The benchmark tracer's two-family layers count the calls subject reduction makes.

``perfbench/tracer.py`` is loaded as ``test_tracer_targets.py`` loads it and
installed around ``testkit.check_configuration`` on a seeded corpus.  Each
preservation step validates its step and typing derivations and its output
with ``validate_bi``, its environment typing with ``validate``, and folds
the step derivation with ``hfold_1`` or ``hfold_2``.  ``TP_ALG``'s steps
are ``cases`` tables, so that fold runs the code generated from them and
calls no traced ``hstep_once``.  The expected totals are counted here by
stepping the same corpus without the tracer.
"""

import sys

from alacarte import testkit
from alacarte.lang_l import step_dec, step_exp

from test_tracer_targets import _tracer

FUEL = 50


def _steps(configs) -> int:
    """Steps taken at fuel ``FUEL``, with no tracer."""
    steps = 0
    for c in configs:
        step = step_dec if c.sort == "dec" else step_exp
        term = c.term
        for _ in range(FUEL):
            sub = step(c.rho, term)
            if sub is None:
                break
            term, _ = sub
            steps += 1
    return steps


def _bindings() -> dict:
    """Every attribute of every loaded ``alacarte`` module and of the classes they bind."""
    holders = [m for name, m in sys.modules.items() if name == "alacarte" or name.startswith("alacarte.")]
    holders += [v for m in list(holders) for v in vars(m).values() if isinstance(v, type)]
    return {(id(h), attr): value for h in dict.fromkeys(holders) for attr, value in list(vars(h).items())}


def test_the_two_family_layers_count_one_preservation_check_per_step():
    configs = testkit.gen_well_typed_config(testkit.GenConfig(seed=11, count=20))
    steps = _steps(configs)
    assert steps > 20
    module = _tracer()
    for targets, _ in module.LAYERS.values():
        for target in targets:
            module._resolve(target)  # imports every module the tracer wraps
    tracer = module.Tracer()
    before = _bindings()
    tracer.install()
    try:
        tracer.enabled = True
        checked = 0
        for c in configs:
            taken, counterexample = testkit.check_configuration(c, FUEL)
            assert counterexample is None
            checked += taken
        tracer.enabled = False
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    calls = dict(zip(tracer.layers, tracer.calls))
    assert checked == steps
    assert calls["mutual.validate_bi"] == 3 * steps
    assert calls["indexed.validate"] == steps
    assert calls["mutual.hfold"] == steps
