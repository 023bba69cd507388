"""No public name or parameter in ``src/wot`` that only tests use.

Every public module-level function and class of ``src/wot`` must be
loaded, as a name or an attribute, somewhere in ``src/wot`` or
``perfbench`` outside its own definition. An import or an ``__all__``
entry does not count as a use.

Every parameter with a default must be passed, by position or by keyword,
by some call there outside its own definition. That covers public
module-level functions, public methods, the ``__init__`` of public
classes and the defaulted fields of public dataclasses. Calls are matched
by name, and a call with ``*args`` or ``**kwargs`` passes everything.

Every field of a public dataclass, and every public attribute that a
public class sets on ``self`` in its ``__init__``, must be read as an
attribute somewhere there. Reads are matched by name, so a field that
shares its name with another class's read attribute passes unseen.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "wot"


def _trees(directory):
    return [(path, ast.parse(path.read_text(encoding="utf-8"), str(path)))
            for path in sorted(directory.glob("*.py"))]


def _public(node):
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
        and not node.name.startswith("_")


def test_every_public_definition_is_used_outside_tests():
    loads = []  # (path, line, name)
    for path, tree in _trees(SRC) + _trees(ROOT / "perfbench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loads.append((path, node.lineno, node.id))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loads.append((path, node.lineno, node.attr))

    unused = []
    for path, tree in _trees(SRC):
        for node in tree.body:
            if not _public(node):
                continue
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(name == node.name and not (where == path and line in inside)
                       for where, line, name in loads):
                unused.append(f"{path.name}::{node.name}")
    assert unused == []


def _defaulted(function, skip_self):
    """``(name, position)`` of each defaulted parameter; keyword-only ones have no position."""
    args = function.args
    positional = args.posonlyargs + args.args
    if skip_self and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in function.decorator_list):
        positional = positional[1:]
    with_default = positional[len(positional) - len(args.defaults):] if args.defaults else []
    found = [(arg.arg, positional.index(arg)) for arg in with_default]
    found += [(arg.arg, None) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
              if default is not None]
    return found


def _is_dataclass(node):
    return any("dataclass" in ast.unparse(d) for d in node.decorator_list)


def _defaulted_parameters(tree):
    """``(label, called name, parameter, position, definition)`` for each defaulted parameter."""
    module = tree.body
    for node in module:
        if not _public(node):
            continue
        if not isinstance(node, ast.ClassDef):
            for name, position in _defaulted(node, skip_self=False):
                yield node.name, node.name, name, position, node
            continue
        if _is_dataclass(node):
            fields = [s for s in node.body
                      if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]
            for position, field in enumerate(fields):
                if field.value is not None:
                    yield node.name, node.name, field.target.id, position, node
        for method in node.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name == "__init__":
                label, called = node.name, node.name
            elif method.name.startswith("_"):
                continue
            else:
                label, called = f"{node.name}.{method.name}", method.name
            for name, position in _defaulted(method, skip_self=True):
                yield label, called, name, position, method


def test_every_defaulted_parameter_is_passed_outside_tests():
    calls = []  # (path, line, called name, positional count, keywords, passes everything)
    for path, tree in _trees(SRC) + _trees(ROOT / "perfbench"):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            keywords = {k.arg for k in node.keywords}
            star = None in keywords or any(isinstance(a, ast.Starred) for a in node.args)
            calls.append((path, node.lineno, name, len(node.args), keywords, star))

    unpassed = []
    for path, tree in _trees(SRC):
        for label, called, param, position, definition in _defaulted_parameters(tree):
            inside = range(definition.lineno, definition.end_lineno + 1)
            if not any(name == called and not (where == path and line in inside)
                       and (star or param in keywords
                            or (position is not None and position < npos))
                       for where, line, name, npos, keywords, star in calls):
                unpassed.append(f"{path.stem}.{label}({param})")
    assert unpassed == []


def _stored_attributes(tree):
    """``(class, attribute)`` per dataclass field and per public ``self.x`` set in ``__init__``."""
    for node in tree.body:
        if not (_public(node) and isinstance(node, ast.ClassDef)):
            continue
        if _is_dataclass(node):
            for field in node.body:
                if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name):
                    yield node.name, field.target.id
        for method in node.body:
            if isinstance(method, ast.FunctionDef) and method.name == "__init__":
                for target in ast.walk(method):
                    if isinstance(target, ast.Attribute) and isinstance(target.ctx, ast.Store) \
                            and isinstance(target.value, ast.Name) and target.value.id == "self" \
                            and not target.attr.startswith("_"):
                        yield node.name, target.attr


def test_every_stored_attribute_is_read_outside_tests():
    read = {node.attr for _, tree in _trees(SRC) + _trees(ROOT / "perfbench")
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = sorted({f"{path.stem}.{cls}.{attr}" for path, tree in _trees(SRC)
                     for cls, attr in _stored_attributes(tree) if attr not in read})
    assert unread == []
