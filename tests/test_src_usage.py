"""src/ keeps only what a command, a script or the benchmark calls: every
function, method and class defined in src/rotorspec is referenced by name
somewhere in src/, scripts/ or perfbench/ outside its own definition.
Helpers that only tests need live in tests/reference.py."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

def _references(tree) -> Counter:
    """Names read in `tree`: identifiers, attributes, and string constants
    that are identifiers (perfbench's tracer patches functions by name)."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            names[node.value] += 1
    return names


def _exported(tree) -> Counter:
    """The names listed in a module's __all__, which do not count as uses."""
    return Counter(elt.value for node in tree.body if isinstance(node, ast.Assign)
                   and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                   for elt in node.value.elts)


def _definitions(body, owner=""):
    """(qualified name, node) of the functions and classes of a module body
    and, recursively, of its classes' bodies."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield owner + node.name, node
            if isinstance(node, ast.ClassDef):
                yield from _definitions(node.body, f"{owner}{node.name}.")


def test_every_src_definition_has_a_caller_outside_tests():
    trees = {path: ast.parse(path.read_text(encoding="utf-8"))
             for folder in ("src/rotorspec", "scripts", "perfbench")
             for path in sorted((ROOT / folder).glob("*.py"))}
    references = Counter()
    for tree in trees.values():
        references.update(_references(tree))
        references.subtract(_exported(tree))
    unused = []
    for path, tree in trees.items():
        if path.parent.name != "rotorspec":
            continue
        for qualified, node in _definitions(tree.body):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if references[name] - _references(node)[name] <= 0:
                unused.append(f"{path.name}: {qualified}")
    assert not unused, "defined in src/ but used only by tests (move to tests/reference.py): " \
        + ", ".join(unused)
