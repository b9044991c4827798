"""The value classes' factory and the relation paths on every supported interpreter found on ``PATH``.

``kernel.value_class``'s factory re-types an instance of an unfrozen twin
class (``__class__ = cls``), which each interpreter allows by its own
layout rules.  ``pyproject.toml`` promises Python 3.10 and later, so the
check below runs in a subprocess under each of ``python3.10``,
``python3.12`` and ``python3.13`` that is on ``PATH``; it needs only the
standard library.  Beside the factory it runs the paths that interpret or
generate relation code: ``din(dnode(...))``, the generated ``derive``, and
``ifold`` and ``hfold`` of ``cases`` tables and of a plain step.  A pyenv
shim that does not start because no version it selects provides the
command is run with ``PYENV_VERSION`` set to an installed version of that
series.  Only an interpreter that is absent, or that starts under no
installed version, is skipped.
"""

import os
import re
import shutil
import subprocess
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

CHECK = r"""
import copy, dataclasses, io, pickle
from alacarte import arith
from alacarte.arith import EVAL_SIG, TRM_G1, TypN, Val, add, lit
from alacarte.indexed import Derivation, DNode, IndexedSignature, din, hfold, ifold
from alacarte.kernel import Node, Signature, SortedAlgebra, Term, value_class
from alacarte.lang_l import LANG, Arrow, Env, PApp, PCon, PVar, Ty, TypeEnv

def roundtrip(value):
    shared = {}
    class Keep(pickle.Pickler):
        def persistent_id(self, obj):
            if isinstance(obj, (Signature, IndexedSignature)):
                shared[id(obj)] = obj
                return id(obj)
    class Load(pickle.Unpickler):
        def persistent_load(self, pid):
            return shared[pid]
    buf = io.BytesIO()
    Keep(buf).dump(value)
    return Load(io.BytesIO(buf.getvalue())).load()

node = Node(TRM_G1, "lit", (), (3,))
dnode = DNode(EVAL_SIG, 1, "ev1", (("x", 1),), (), 1)
samples = [
    node, Term(TRM_G1, node), Node(LANG, "vr", (), ("x",)), dnode, Derivation(EVAL_SIG, dnode),
    Val(3), TypN(), Ty("a"), Arrow(Ty("a"), Ty("b")), TypeEnv(Env([("x", Ty("a"))])),
    PVar("x", Ty("a")), PCon("c", Ty("a")), PApp(PCon("c", Ty("a")), PVar("x", Ty("b"))),
]
for value in samples:
    cls = type(value)
    names = [f.name for f in dataclasses.fields(cls)]
    built = cls._positional(*[getattr(value, f.name) for f in dataclasses.fields(cls) if f.init])
    assert type(built) is cls, cls
    assert all(getattr(built, n) is getattr(value, n) for n in names), cls
    assert built == value and hash(built) == hash(value) and repr(built) == repr(value), cls
    for name in names + ["not_a_field"]:
        for act in (lambda: setattr(built, name, None), lambda: delattr(built, name)):
            try:
                act()
            except dataclasses.FrozenInstanceError:
                pass
            else:
                raise AssertionError(f"{cls.__name__}.{name} is not frozen")
    for twin in (copy.copy(built), roundtrip(built), dataclasses.replace(built)):
        assert type(twin) is cls and twin == value and repr(twin) == repr(value), cls
assert Derivation._positional(EVAL_SIG, dnode)._certified is False
assert EVAL_SIG.derive("ev1", {"x": 1}, (), lit(1))._certified is True
assert add(lit(1), lit(2)).root.rec == (lit(1), lit(2))

t = add(add(lit(1), lit(2)), lit(3))
d, td, w = arith.build_eval_derivation(t), arith.build_typof_derivation(t), arith.build_istrm(t)
n = d.root
assert din(EVAL_SIG.dnode(n.rule, n.params_dict(), [c for _, _, c in n.premises])) == d
by_hfold = lambda step, w, d: hfold(1, SortedAlgebra((step,)), w, d)
for fold in (ifold, by_hfold):
    assert fold(arith._preservation_step, n.conclusion, d)(td) == arith.preservation(d, td)
    assert fold(arith._istrm_preservation_step, w.root.conclusion, w)(td) == arith.preservation_via_istrm(w, td)
    assert fold(lambda rec, w, node: 1 + sum(rec(ix, h) for _, ix, h in node.premises), n.conclusion, d) == 5

class Base:
    __slots__ = ("x",)

class OnSlots(Base):
    a: int

try:
    value_class(OnSlots)
except TypeError:
    pass
else:
    raise AssertionError("a slotted base was accepted")
print("ok")
"""


def _starts(exe, env) -> bool:
    return subprocess.run([exe, "-c", "pass"], capture_output=True, env=env, timeout=60).returncode == 0


def _interpreter(version):
    """``(exe, env)`` running ``python{version}``, or None if it is not on ``PATH`` or starts under no installed version."""
    exe = shutil.which(f"python{version}")
    if exe is None:
        return None
    if _starts(exe, os.environ):
        return exe, dict(os.environ)
    pyenv = shutil.which("pyenv")  # a shim whose selected versions lack the command
    if pyenv is None:
        return None
    listed = subprocess.run([pyenv, "versions", "--bare"], capture_output=True, text=True, timeout=60).stdout.split()
    for installed in reversed([v for v in listed if re.fullmatch(rf"{re.escape(version)}\.\d+", v)]):
        env = dict(os.environ, PYENV_VERSION=installed)
        if _starts(exe, env):
            return exe, env
    return None


@pytest.mark.parametrize("version", ["3.10", "3.12", "3.13"])
def test_the_factory_check_passes_under(version):
    found = _interpreter(version)
    if found is None:
        pytest.skip(f"python{version} is not on PATH, or starts under no installed version")
    exe, env = found
    env.update(PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([exe, "-c", CHECK], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0 and done.stdout == "ok\n", done.stderr
