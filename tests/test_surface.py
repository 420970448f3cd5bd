"""Every top-level name and method in ``src/kcmlab`` is reached by the
program: some code in ``src/`` or ``bench/`` outside its own definition
refers to it, or it is a CLI command.  Every field of a dataclass there is
read: some code in ``src/`` or ``bench/`` loads an attribute of that name.
Reference code that only tests call lives in ``tests/reference.py``.

References are read from the syntax tree: a name or an attribute.  A
method counts only through an attribute.  Imports alone and the re-exports
in ``kcmlab/__init__.py`` do not count, and dunder methods, which Python
calls implicitly, are not checked.  A method that overrides one of an outside
base class (``click.Group.invoke``) is reached through that base.
"""

import ast
import importlib
import inspect
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "kcmlab")
BENCH = os.path.join(ROOT, "bench")

# Kept on purpose although nothing in src/ or bench/ calls them:
ALLOWED = {
    # bound in droplets only so that the traced benchmark can patch it there
    "bootstrap.closure_region",
    # the sweep-to-fit reader, which `fit --manifest` is to call
    "harness.medians_from_manifest",
}


def _py_files(directory):
    return sorted(os.path.join(directory, f) for f in os.listdir(directory) if f.endswith(".py"))


def _parse(path):
    with open(path) as fh:
        return ast.parse(fh.read(), path)


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions():
    """(module, qualified name, is_method, first line, last line) for every
    top-level function, class, assigned name and method in src/kcmlab."""
    out = []
    for path in _py_files(SRC):
        module = os.path.basename(path)[:-3]
        if module == "__init__":
            continue
        for node in _parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                out.append((module, node.name, False, node.lineno, node.end_lineno))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name) and not _is_dunder(target.id):
                        out.append((module, target.id, False, node.lineno, node.end_lineno))
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not _is_dunder(sub.name):
                        out.append((module, f"{node.name}.{sub.name}", True,
                                    sub.lineno, sub.end_lineno))
    return out


def _is_dataclass(node):
    """Whether a class is decorated ``@dataclass`` or ``@dataclass(...)``."""
    for d in node.decorator_list:
        d = d.func if isinstance(d, ast.Call) else d
        if isinstance(d, ast.Name) and d.id == "dataclass":
            return True
    return False


def _fields():
    """(module, Class.field) for every field of a dataclass in src/kcmlab."""
    out = []
    for path in _py_files(SRC):
        module = os.path.basename(path)[:-3]
        for node in _parse(path).body:
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                out.extend((module, f"{node.name}.{sub.target.id}") for sub in node.body
                           if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name))
    return out


def _references():
    """(path, name, line, via attribute, loaded) for every reference in
    src/kcmlab (but its __init__) and bench/."""
    refs = []
    for path in _py_files(SRC) + _py_files(BENCH):
        if os.path.basename(path) == "__init__.py" and path.startswith(SRC):
            continue
        for node in ast.walk(_parse(path)):
            if isinstance(node, (ast.Name, ast.Attribute)):
                via_attr = isinstance(node, ast.Attribute)
                refs.append((path, node.attr if via_attr else node.id, node.lineno, via_attr,
                             isinstance(node.ctx, ast.Load)))
    return refs


def _is_cli_command(module, name):
    if module != "cli":
        return False
    import click

    return isinstance(getattr(importlib.import_module("kcmlab.cli"), name, None), click.Command)


def _overrides_outside_base(module, qualname):
    cls_name, method = qualname.split(".")
    cls = getattr(importlib.import_module(f"kcmlab.{module}"), cls_name)
    return any(
        not base.__module__.startswith("kcmlab") and method in vars(base)
        for base in inspect.getmro(cls)[1:]
    )


def _unreached():
    refs = _references()
    missing = []
    for module, name, is_method, first, last in _definitions():
        path = os.path.join(SRC, module + ".py")
        short = name.split(".")[-1]
        reached = any(
            ref == short and (via_attr or not is_method)
            and not (where == path and first <= line <= last)
            for where, ref, line, via_attr, _ in refs
        )
        if reached or _is_cli_command(module, name):
            continue
        if is_method and _overrides_outside_base(module, name):
            continue
        missing.append(f"{module}.{name}")
    read = {name for _, name, _, via_attr, load in refs if via_attr and load}
    missing += [f"{module}.{name}" for module, name in _fields() if name.split(".")[-1] not in read]
    return missing


def test_every_name_is_reached():
    assert sorted(set(_unreached()) - ALLOWED) == []


def test_allowed_names_exist_and_are_unreached():
    # an allowance that the program has come to use, or whose name is
    # gone, should leave the list
    assert set(_unreached()) >= ALLOWED


@pytest.mark.parametrize("name", ["Configuration", "sample_bernoulli", "constraint_satisfied",
                                  "classify_family"])
def test_package_does_not_export_test_only_names(name):
    import kcmlab

    assert not hasattr(kcmlab, name)
    assert name not in kcmlab.__all__
