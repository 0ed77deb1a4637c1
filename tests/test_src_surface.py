"""src/ holds what the verifier runs: every function is referenced or exported."""

import ast
from pathlib import Path

import hallalg

SRC = Path(hallalg.__file__).parent


def _walk(node, owner, defs, refs):
    """Add (qualified name, name) of every top-level function and method under
    node to defs, and every name and attribute read under node to refs, except
    a function's reads of its own name.  A function whose decorator is a call,
    such as verify's @_suite("algebra"), is registered by it and not listed."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.FunctionDef):
            if not any(isinstance(d, ast.Call) for d in child.decorator_list):
                defs.append((f"{owner}.{child.name}" if owner else child.name, child.name))
            inner = set()
            _walk(child, None, [], inner)       # nested functions belong to their parent
            refs |= inner - {child.name}
        elif isinstance(child, ast.ClassDef):
            _walk(child, child.name, defs, refs)
        else:
            if isinstance(child, ast.Name):
                refs.add(child.id)
            elif isinstance(child, ast.Attribute):
                refs.add(child.attr)
            _walk(child, owner, defs, refs)


def unreferenced():
    """"module:name" of every non-dunder top-level function or method of
    src/hallalg whose name no code there reads and that __init__ does not
    export.  Names are matched by spelling alone, so a method counts as
    referenced when any attribute of that name is read."""
    defs, refs = [], set()
    for path in sorted(SRC.glob("*.py")):
        found = []
        _walk(ast.parse(path.read_text()), None, found, refs)
        defs.extend((path.stem, qual, name) for qual, name in found)
    return sorted(f"{module}:{qual}" for module, qual, name in defs
                  if not (name.startswith("__") and name.endswith("__"))
                  and name not in refs and qual not in vars(hallalg))


def test_every_src_function_is_referenced_or_exported():
    assert unreferenced() == []


def test_the_check_sees_a_dead_function_and_a_dead_method():
    """The walk on a small module: a dead function, a dead method and a
    function that only calls itself are found; a called method, a decorated
    registration and a property are not."""
    tree = ast.parse(
        "def dead(): pass\n"
        "def rec(n): return rec(n - 1)\n"
        "@register('x')\n"
        "def registered(): pass\n"
        "class C:\n"
        "    def used(self): return self.shape\n"
        "    def unused(self): return self.used()\n"
        "    @property\n"
        "    def shape(self): return 0\n")
    defs, refs = [], set()
    _walk(tree, None, defs, refs)
    assert sorted(q for q, name in defs if name not in refs) == ["C.unused", "dead", "rec"]


def private_context_reads(tree):
    """The `_`-prefixed attributes read through ctx or self.ctx under tree."""
    def through_ctx(node):
        return (isinstance(node, ast.Name) and node.id == "ctx"
                or isinstance(node, ast.Attribute) and node.attr == "ctx"
                and isinstance(node.value, ast.Name) and node.value.id == "self")
    return sorted(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                  and node.attr.startswith("_") and through_ctx(node.value))


def test_only_quiver_reads_the_private_state_of_a_context():
    """RepCategory's tables and memo are quiver.py's own: no other src/
    module reads an attribute `_...` of ctx or self.ctx."""
    assert {path.name: private_context_reads(ast.parse(path.read_text()))
            for path in sorted(SRC.glob("*.py")) if path.name != "quiver.py"} == {
        path.name: [] for path in sorted(SRC.glob("*.py")) if path.name != "quiver.py"}


def test_the_boundary_check_sees_private_context_reads():
    tree = ast.parse("ctx._memo\nself.ctx._canon\nctx.classify\nother._memo\n"
                     "self._memo\nctx.field._p\n")
    assert private_context_reads(tree) == ["_canon", "_memo"]
