"""No public name or parameter in ``src/wot`` that only tests use.

Every public module-level function and class of ``src/wot``, and every
public module-level UPPER_CASE constant, must be loaded, as a name or an
attribute, somewhere in ``src/wot`` or ``perfbench`` outside its own
definition. An import or an ``__all__`` entry does not count as a use.

Every parameter with a default must be passed, by position or by keyword,
by some call there outside its own definition. That covers public
module-level functions, public methods, the ``__init__`` of public
classes and the defaulted fields of public dataclasses. Calls are matched
by name, and a call with ``*args`` or ``**kwargs`` passes everything.

Every field of a public dataclass, and every public attribute that a
public class sets on ``self`` in its ``__init__``, must be read as an
attribute somewhere there. Reads are matched by name, so a field that
shares its name with another class's read attribute passes unseen.

Every file ``src/wot`` writes goes through ``protocol._replace_file``,
which replaces a file rather than truncating it in place: no
``write_bytes``, ``write_text`` or write-mode ``open`` anywhere else.

The frame codec, ``wot.framing``, imports nothing from ``wot.base_ot``: it
moves the transfer's fields and mask block without knowing the transfer.

The frame cap has one owner: no module of ``src/wot`` but ``wot.framing``
reads ``MAX_FRAME_LEN``, and ``wot.net``, which only carries frames,
imports no frame-size helper.

Group elements are bytes outside ``wot.group``: ``wot.framing`` converts
no bytes to an integer or back (no ``from_bytes``, no ``to_bytes``), and
no module but ``wot.group`` loads ``is_member``, so a peer's element
becomes one only through ``group.decode_elements``.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "wot"


def _trees(directory):
    return [(path, ast.parse(path.read_text(encoding="utf-8"), str(path)))
            for path in sorted(directory.glob("*.py"))]


def _public(node):
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
        and not node.name.startswith("_")


def _public_names(node):
    """The public names a module-level statement defines: a function, a class or a constant."""
    if _public(node):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else \
        [node.target] if isinstance(node, ast.AnnAssign) else []
    return [t.id for t in targets
            if isinstance(t, ast.Name) and re.fullmatch(r"[A-Z][A-Z0-9_]*", t.id)]


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
            inside = range(node.lineno, node.end_lineno + 1)
            for defined in _public_names(node):
                if not any(name == defined and not (where == path and line in inside)
                           for where, line, name in loads):
                    unused.append(f"{path.name}::{defined}")
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


_WRITE_HELPER = ("protocol.py", "_replace_file")
_WRITE_FLAGS = ("O_WRONLY", "O_RDWR", "O_CREAT", "O_TRUNC", "O_APPEND")


def _mode_argument(call, position):
    for keyword in call.keywords:
        if keyword.arg == "mode":
            return keyword.value
    return call.args[position] if len(call.args) > position else None


def _opens_for_writing(call):
    """Whether ``call`` writes a file or opens one for writing, as far as its source shows."""
    callee = ast.unparse(call.func)
    if callee.split(".")[-1] in ("write_bytes", "write_text"):
        return True
    if callee == "os.open":
        flags = " ".join(map(ast.unparse, call.args[1:] + [k.value for k in call.keywords]))
        return any(flag in flags for flag in _WRITE_FLAGS) or "O_" not in flags
    if callee in ("open", "io.open", "os.fdopen"):
        mode = _mode_argument(call, 1)
    elif callee.endswith(".open"):  # Path.open and the like take the mode first
        mode = _mode_argument(call, 0)
    else:
        return False
    if mode is None:
        return False
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))


def _file_writes(path, tree):
    helper = range(0)
    for node in tree.body:
        if (path.name, getattr(node, "name", None)) == _WRITE_HELPER:
            helper = range(node.lineno, node.end_lineno + 1)
    return [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and node.lineno not in helper
            and _opens_for_writing(node)]


def test_every_file_write_goes_through_the_replacing_helper():
    assert [write for path, tree in _trees(SRC) for write in _file_writes(path, tree)] == []


@pytest.mark.parametrize("source, writes", [
    ("p.write_bytes(b'')", True),
    ("(d / 'x').write_text('')", True),
    ("open(p, 'wb')", True),
    ("open(p, mode='a')", True),
    ("open(p, 'r+b')", True),
    ("open(p, m)", True),
    ("p.open('xb')", True),
    ("os.open(p, os.O_WRONLY | os.O_CREAT)", True),
    ("os.open(p, flags)", True),
    ("os.fdopen(fd, 'w')", True),
    ("open(p, encoding='utf-8')", False),
    ("open(p, 'rb')", False),
    ("p.open()", False),
    ("os.open(p, os.O_RDONLY)", False),
    ("p.read_bytes()", False),
])
def test_write_guard_sees_each_way_to_write(source, writes):
    assert _opens_for_writing(ast.parse(source).body[0].value) is writes


def test_framing_imports_nothing_from_base_ot():
    tree = ast.parse((SRC / "framing.py").read_text(encoding="utf-8"))
    names = [name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
             for name in [getattr(node, "module", None) or ""] + [a.name for a in node.names]]
    assert [name for name in names if "base_ot" in name.split(".")] == []


FRAME_SIZE_HELPERS = {"_manifest_len", "_ct_data_len", "_ot_batch_resp_len",
                      "_check_manifest_fits"}


def _names(tree):
    """Every name a module loads or imports, as a name or an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (alias.name.rsplit(".", 1)[-1] for alias in node.names)


def test_only_framing_reads_the_frame_cap():
    readers = [path.name for path, tree in _trees(SRC)
               if path.name != "framing.py" and "MAX_FRAME_LEN" in _names(tree)]
    assert readers == []
    net = ast.parse((SRC / "net.py").read_text(encoding="utf-8"))
    assert FRAME_SIZE_HELPERS & set(_names(net)) == set()


def test_framing_converts_no_element():
    framing = ast.parse((SRC / "framing.py").read_text(encoding="utf-8"))
    assert {"from_bytes", "to_bytes"} & set(_names(framing)) == set()


def test_only_group_checks_membership():
    checkers = [path.name for path, tree in _trees(SRC)
                if path.name != "group.py" and "is_member" in _names(tree)]
    assert checkers == []
