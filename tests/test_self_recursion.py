"""The directly self-recursive functions in ``src/`` are a pinned list.

A function is directly self-recursive when its body, nested functions
included, calls its own name.  Each such function recurses on the Python
stack with its own depth limit, so a new one is a visible decision: add it
here, or run the recursion through a library fold or ``indexed.search``.
The arith derivation builders are ``search`` calls and must stay off it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PINNED = [
    "alacarte/arith.py:_index_encoder.encode",
    "alacarte/arith.py:_index_encoder.term_text",
    "alacarte/arith.py:term_of_sexpr",
    "alacarte/arith.py:term_to_sexpr",
    "alacarte/indexed.py:_build",
    "alacarte/indexed.py:_pattern",
    "alacarte/indexed.py:_walk_json",
    "alacarte/kernel.py:_node_to_json",
    "alacarte/kernel.py:fold_c",
    "alacarte/kernel.py:mfold.recurse",
    "alacarte/kernel.py:term_from_json",
    "alacarte/lang_l/syntax.py:_match",
    "alacarte/lang_l/syntax.py:dec_of_sexpr",
    "alacarte/lang_l/syntax.py:dec_to_sexpr",
    "alacarte/lang_l/syntax.py:encode_index",
    "alacarte/lang_l/syntax.py:exp_of_sexpr",
    "alacarte/lang_l/syntax.py:exp_to_sexpr",
    "alacarte/lang_l/syntax.py:is_data_value",
    "alacarte/lang_l/syntax.py:pat_of_sexpr",
    "alacarte/lang_l/syntax.py:pat_to_sexpr",
    "alacarte/lang_l/syntax.py:typ_of_sexpr",
    "alacarte/lang_l/syntax.py:typ_to_sexpr",
    "alacarte/lang_l/typing.py:_tc_dec",
    "alacarte/lang_l/typing.py:_tc_exp",
    "alacarte/lang_l/typing.py:_transport",
    "alacarte/lang_l/typing.py:build_typopat",
    "alacarte/lang_l/typing.py:pat_type",
    "alacarte/testkit.py:_fresh_products",
    "alacarte/testkit.py:_oracle_int",
    "alacarte/testkit.py:_product",
]


def _self_recursive(path: Path) -> list[str]:
    """``file:qualified name`` of each function in ``path`` whose body calls its own name."""
    found = []
    stack = [(ast.parse(path.read_text()), "")]
    while stack:
        node, prefix = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                calls = {n.func.id for n in ast.walk(child) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}
                if child.name in calls:
                    found.append(f"{path.relative_to(SRC).as_posix()}:{prefix}{child.name}")
                stack.append((child, f"{prefix}{child.name}."))
            else:
                stack.append((child, f"{prefix}{child.name}." if isinstance(child, ast.ClassDef) else prefix))
    return found


def test_the_self_recursive_functions_are_the_pinned_ones():
    found = sorted(name for path in sorted(SRC.rglob("*.py")) for name in _self_recursive(path))
    assert found == PINNED


def test_the_arith_builders_are_not_on_the_list():
    builders = {f"alacarte/arith.py:{name}" for name in ("build_eval_derivation", "build_typof_derivation", "build_istrm")}
    assert not builders & set(PINNED)
