"""The value classes' factory on every supported interpreter found on ``PATH``.

``kernel.value_class``'s factory re-types an instance of an unfrozen twin
class (``__class__ = cls``), which each interpreter allows by its own
layout rules.  ``pyproject.toml`` promises Python 3.10 and later, so the
check below runs in a subprocess under each of ``python3.10``,
``python3.12`` and ``python3.13`` that is on ``PATH`` and starts; it needs
only the standard library.  An interpreter that is absent, or that does
not start (a version manager's shim for a version not installed), is
skipped.
"""

import os
import shutil
import subprocess
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

CHECK = r"""
import copy, dataclasses, io, pickle
from alacarte.arith import EVAL_SIG, TRM_G1, TypN, Val, add, lit
from alacarte.indexed import Derivation, DNode, IndexedSignature
from alacarte.kernel import Node, Signature, Term, value_class
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


@pytest.mark.parametrize("version", ["3.10", "3.12", "3.13"])
def test_the_factory_check_passes_under(version):
    exe = shutil.which(f"python{version}")
    if exe is None or subprocess.run([exe, "-c", "pass"], capture_output=True).returncode != 0:
        pytest.skip(f"python{version} is not on PATH or does not start")
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([exe, "-c", CHECK], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0 and done.stdout == "ok\n", done.stderr
