"""The library reads no input with int().

int(2.9) is 2 and int(True) is 1, so an int() call on an input accepts a
non-integer as some index.  Inputs are checked with ``errors.is_int`` and
``errors.all_ints`` instead; int() stays only where it parses text or
turns a known bool into 0 or 1.
"""

import ast
import os
from collections import Counter

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "ntpg")

# (module, enclosing function): the int() calls allowed there
ALLOWED = {
    ("cli", "_parse_field"): 1,                   # the p of 'Fp:<p>'
    ("cli", "_parse_subgroup_spec"): 1,           # '--subgroups a,b;c'
    ("cli", "main"): 1,                           # NTPG_WORKERS
    ("fields", "RationalField.parse"): 2,         # numerator, denominator
    ("fields", "PrimeField.parse"): 2,
    ("cocycles", "standard_fibered_space.classes"): 1,    # int(k == i)
}


def _int_calls(tree):
    """The qualified name of the function around each int(...) call."""
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                walk(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call) and \
                    isinstance(child.func, ast.Name) and child.func.id == "int":
                found.append(".".join(scope))
            walk(child, scope)

    walk(tree, [])
    return found


def test_int_is_called_only_on_text_and_bools():
    calls = Counter()
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                tree = ast.parse(fh.read(), filename=name)
            calls.update((name[:-3], scope) for scope in _int_calls(tree))
    assert dict(calls) == ALLOWED
