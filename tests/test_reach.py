"""Every public function and class of the package, every public method and
property of its classes, and every module-level UPPER_CASE constant, is
reached from outside its own definition: by the package, a script or the
benchmark.

Tests do not count as callers, and neither do the re-exports of
`lethargy/__init__.py`.  A use is a name, an attribute or a string naming it
(perfbench wraps functions by their names).  A public name that nothing
reaches computes numbers that no report carries, and a constant that nothing
reads sets nothing, so either gets a reader or goes.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lethargy"

# name -> why it stays without a caller
ALLOWED = {
    "lethargy_majorant": "acceptance criterion 06 and ROADMAP item 6: target sequence "
                         "of the slow-decay ladder",
}


def _names(node) -> set:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            out.add(sub.value)
    return out


def _caller_files() -> list:
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    return files + sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


def _public_definitions() -> dict:
    """name -> defining module, over the top level of every package module."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                out[node.name] = path.name
    return out


def _assigned(node) -> list:
    """The names a top-level assignment binds."""
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _constants() -> dict:
    """name -> defining module, over the module-level UPPER_CASE assignments."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            out.update((name, path.name) for name in _assigned(node) if name.isupper())
    return out


def _public_methods() -> dict:
    """Class.name -> defining module, over the public methods and properties
    of every package class."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                out.update((f"{node.name}.{sub.name}", path.name) for sub in node.body
                           if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"))
    return out


def _outside_uses(node) -> set:
    """The names `node` uses, except each definition's own name inside its
    body: a class's methods are visited one by one."""
    if isinstance(node, ast.ClassDef):
        names = set().union(*map(_outside_uses, node.body),
                            *map(_names, node.decorator_list + node.bases + node.keywords))
    else:
        names = _names(node)
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names.discard(node.name)
    return names.difference(_assigned(node))


def _uses() -> set:
    """Names used anywhere in the caller files, except inside the definition
    or top-level assignment of the same name."""
    used = set()
    for path in _caller_files():
        for node in ast.parse(path.read_text()).body:
            used |= _outside_uses(node)
    return used


def test_every_public_definition_has_a_caller():
    used = _uses()
    unreached = sorted(f"{module}:{name}" for name, module in _public_definitions().items()
                       if name not in used and name not in ALLOWED)
    assert not unreached, f"public names that no package module, script or benchmark uses: {unreached}"


def test_every_public_method_has_a_caller():
    used = _uses()
    unreached = sorted(f"{module}:{name}" for name, module in _public_methods().items()
                       if name.split(".")[1] not in used)
    assert not unreached, f"public methods that no package module, script or benchmark uses: {unreached}"


def test_every_constant_is_read():
    used = _uses()
    unread = sorted(f"{module}:{name}" for name, module in _constants().items() if name not in used)
    assert not unread, f"module constants that no package module, script or benchmark reads: {unread}"


def test_allowlist_holds_only_unreached_definitions():
    defined = _public_definitions()
    used = _uses()
    assert all(name in defined and name not in used for name in ALLOWED)
