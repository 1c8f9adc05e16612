"""The library checks what it derives through ``groups._built``.

A ``Subgroup``, ``GroupHom``, ``FiniteAction`` or ``FiniteGroupoid`` built
bare reports a failed check as an input error; through ``_built`` the same
failure is an ``InternalInconsistency``, a library bug.  Bare calls stay
only where the values checked are ones a caller passed in.  Likewise
``make_group`` validates only a table read from input: every table the
library derives comes from ``groups._built_group``.
"""

import ast
import os
from collections import Counter

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "ntpg")
CLASSES = {"Subgroup", "GroupHom", "FiniteAction", "FiniteGroupoid"}

# (module, enclosing function, class): the bare calls allowed there
ALLOWED = {
    ("jsonio", "load_subgroup", "Subgroup"): 1,
    ("jsonio", "load_action", "FiniteAction"): 1,
    ("jsonio", "load_groupoid_action", "FiniteAction"): 1,
    ("jsonio", "load_groupoid", "FiniteGroupoid"): 1,
    ("actions", "automorphism_action", "FiniteAction"): 1,  # its rows
    ("actions", "automorphism_action", "GroupHom"): 1,      # each twist
    ("cocycles", "FiberedSpace.__init__", "FiniteAction"): 1,   # its perms
    ("actions", "trivial_action", "FiniteAction"): 1,    # its set_size
}


def _bare_calls(tree, names=CLASSES):
    """(qualified enclosing name, callee) for each call of a name in names,
    by name or as a module attribute."""
    found = []

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                walk(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call):
                f = child.func
                name = f.id if isinstance(f, ast.Name) else \
                    f.attr if isinstance(f, ast.Attribute) else None
                if name in names:
                    found.append((".".join(scope), name))
            walk(child, scope)

    walk(tree, [])
    return found


def _src_calls(names):
    """Counter of (module, enclosing name, callee) over src/ntpg."""
    calls = Counter()
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                tree = ast.parse(fh.read(), filename=name)
            calls.update((name[:-3],) + call
                         for call in _bare_calls(tree, names))
    return calls


def test_derived_structures_are_checked_through_built():
    assert dict(_src_calls(CLASSES)) == ALLOWED


def test_make_group_validates_only_a_loaded_table():
    assert dict(_src_calls({"make_group"})) == {
        ("jsonio", "load_group", "make_group"): 1}


def test_a_bare_call_is_found_by_name_and_by_attribute():
    tree = ast.parse("def f(G):\n"
                     "    groups.Subgroup(G, [0])\n"
                     "    return _built(FiniteAction, G, 1, [[0]])\n"
                     "class A:\n"
                     "    def g(self):\n"
                     "        return GroupHom(self, self, [0])\n")
    assert _bare_calls(tree) == [("f", "Subgroup"), ("A.g", "GroupHom")]
