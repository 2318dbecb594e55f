"""Source hygiene, read from the package's syntax trees with `ast`: public
names resolve, module-level imports are read, private helpers are used,
validation is bypassed only in named places."""

import ast
import importlib
from collections import Counter
from pathlib import Path

import platycosms

SOURCES = {
    path.stem: ast.parse(path.read_text(), filename=str(path))
    for path in sorted(Path(platycosms.__file__).parent.glob("*.py"))
}


def _all_names(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def _loaded_names(node: ast.AST) -> Counter:
    """Names read below `node`: loads of a name and attributes read by name."""
    out = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
    return out


def test_every_all_entry_resolves():
    for stem, tree in SOURCES.items():
        name = "platycosms" if stem == "__init__" else f"platycosms.{stem}"
        module = importlib.import_module(name)
        missing = [n for n in _all_names(tree) if not hasattr(module, n)]
        assert not missing, f"{name}.__all__ names what it lacks: {missing}"


def test_no_module_level_import_goes_unread():
    for stem, tree in SOURCES.items():
        reads = _loaded_names(tree) + Counter(_all_names(tree))
        unread = []
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if not reads[bound]:
                        unread.append(bound)
        assert not unread, f"{stem}.py imports names it never reads: {unread}"


def test_every_private_helper_is_referenced():
    """A module-level private function or class that no code in the
    package names (its own body aside) is dead."""
    refs = Counter()
    private = []
    for stem, tree in SOURCES.items():
        for node in tree.body:
            defined = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined = node.name
                if defined.startswith("_") and not defined.startswith("__"):
                    private.append(f"{stem}.{defined}")
            names = _loaded_names(node)
            if isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
            names.pop(defined, None)
            refs += names
    dead = [name for name in private if not refs[name.split(".", 1)[1]]]
    assert not dead, f"private helpers that nothing references: {dead}"


def test_validation_is_bypassed_only_in_trusted_constructors():
    """`object.__new__` makes an instance without its `__init__`, so
    without the validation in `__post_init__`.  It may appear only in a
    function whose name starts with `_trusted`, whose docstring says what
    holds the invariants instead."""
    trusted, stray = set(), []

    def visit(stem, node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(stem, child, child.name)
                continue
            if (isinstance(child, ast.Attribute) and child.attr == "__new__"
                    and isinstance(child.value, ast.Name) and child.value.id == "object"):
                if function and function.startswith("_trusted"):
                    trusted.add(f"{stem}.{function}")
                else:
                    stray.append(f"{stem}.py:{child.lineno}")
            visit(stem, child, function)

    for stem, tree in SOURCES.items():
        visit(stem, tree, None)
    assert not stray, f"object.__new__ outside a _trusted constructor: {stray}"
    assert trusted == {"euclid._trusted", "spectrum._trusted_table"}
