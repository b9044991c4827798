"""The benchmark tracer's targets are distinct functions bound where it looks for them.

``perfbench/tracer.py`` reads each traced function from its holder's own
``__dict__`` and wraps every module attribute bound to the same object.  A
target the holder only inherits cannot be installed, and two module-level
targets that are one function object (say, ``mutual.din_bi`` made an alias
of ``indexed.din``) would have each call counted in both layers.
"""

import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bound_targets():
    """``(target, holder, function)`` for every traced function of every layer."""
    tracer = _tracer()
    for targets, _ in tracer.LAYERS.values():
        for target in targets:
            holder, attr = tracer._resolve(target)
            yield target, holder, vars(holder).get(attr)


def test_every_target_is_bound_in_its_holders_own_namespace():
    for target, _, fn in _bound_targets():
        assert callable(fn), target


def test_no_two_module_level_targets_are_the_same_function():
    seen = {}
    for target, holder, fn in _bound_targets():
        if isinstance(holder, type):
            continue
        assert id(fn) not in seen, f"{target} is {seen[id(fn)]}"
        seen[id(fn)] = target
    assert seen
