"""Every public function and class of the package, every public method and
property of its classes, and every module-level UPPER_CASE constant, is
reached from outside its own definition: by the package, a script or the
benchmark.  Every parameter with a default of a public function or method is
passed, by keyword or by position, by some call there.

Tests do not count as callers, and neither do the re-exports of
`lethargy/__init__.py`.  A use is a name, an attribute or a string naming it
(perfbench wraps functions by their names).  A public name that nothing
reaches computes numbers that no report carries, a constant that nothing
reads sets nothing, and a parameter that no call passes is its default, so
each gets a reader or goes.
"""

import ast
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lethargy"

# name -> why it stays without a caller
ALLOWED = {
    "lethargy_majorant": "acceptance criterion 06 and ROADMAP item 6: target sequence "
                         "of the slow-decay ladder",
}


# (function, parameter) -> why its default stays though no call passes it
ALLOWED_PARAMETERS = {
    ("jackson_audit", "samples"): "the only way a test feeds a chosen element, such as the "
                                  "quantizer ramp whose c_n must equal m(n)",
    ("jackson_audit", "n_list"): "the levels of a chosen element's c_n, with `samples`",
    ("main", "argv"): "the console entry point parses sys.argv; tests pass their arguments",
    ("verify_witness", "seed"): "passed through getattr in cli._witness",
    ("verify_slow_decay", "seed"): "passed through getattr in cli._witness",
}
# descriptor and config tables: their builders' keyword-only parameters are
# keys, which the descriptor or config passes
KEY_TABLES = ("KINDS", "CARRIERS", "FAMILIES", "SEMINORMS")


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


def _key_builders() -> set:
    """The qualified names of the functions and methods that KEY_TABLES hold."""
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if set(_assigned(node)) & set(KEY_TABLES) and isinstance(node.value, ast.Dict):
                out.update(ast.unparse(value) for value in node.value.values
                           if isinstance(value, (ast.Name, ast.Attribute)))
    return out


def _defaulted(fn, bound: bool) -> list:
    """(parameter, position) of fn's parameters with a default: the position
    among the arguments a call passes (a bound method's first is its object),
    None for a keyword-only one."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    out = [(a.arg, i - bound) for i, a in enumerate(positional) if i >= first]
    return out + [(a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                  if d is not None]


def _defaulted_parameters() -> dict:
    """(qualified name, parameter) -> (module, position), over the parameters
    with a default of every public function and method, but the keyword-only
    ones of the KEY_TABLES builders."""
    builders, out = _key_builders(), {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            defs = [(node.name, node, False)] if isinstance(node, ast.FunctionDef) else []
            if isinstance(node, ast.ClassDef):
                defs = [(f"{node.name}.{sub.name}", sub, not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod" for d in sub.decorator_list))
                        for sub in node.body if isinstance(sub, ast.FunctionDef)]
            for qualname, fn, bound in defs:
                if fn.name.startswith("_"):
                    continue
                out.update(((qualname, param), (path.name, position))
                           for param, position in _defaulted(fn, bound)
                           if position is not None or qualname not in builders)
    return out


def _calls() -> dict:
    """name -> [(positional count, keyword names)] over every call of a
    function or method of that name in the caller files; a spread passes
    every position (*args) or keyword (**kwargs, as the name None)."""
    out = {}
    for path in _caller_files():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                spread = any(isinstance(a, ast.Starred) for a in node.args)
                out.setdefault(name, []).append((math.inf if spread else len(node.args),
                                                 {k.arg for k in node.keywords}))
    return out


def _unset_parameters() -> list:
    """(name, parameter, module) of the defaulted parameters that no call passes."""
    calls = _calls()
    out = []
    for (qualname, param), (module, position) in _defaulted_parameters().items():
        name = qualname.split(".")[-1]
        if not any(position is not None and position < count or param in keywords
                   or None in keywords for count, keywords in calls.get(name, [])):
            out.append((name, param, module))
    return out


def test_every_defaulted_parameter_is_passed():
    unset = sorted(f"{module}:{name}({param})" for name, param, module in _unset_parameters()
                   if (name, param) not in ALLOWED_PARAMETERS)
    assert not unset, f"parameters that no package module, script or benchmark passes: {unset}"


def test_parameter_allowlist_holds_only_unset_parameters():
    unset = {(name, param) for name, param, _ in _unset_parameters()}
    assert set(ALLOWED_PARAMETERS) <= unset
