"""The public surface: each submodule's ``__all__`` declares its names once.

``margfit/__init__.py`` star-imports the submodules and builds its own
``__all__`` from theirs, so these lists are the only declaration of the
package's public names. The acceptance gate imports only those names.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
from collections import Counter
from pathlib import Path

import pytest

import margfit

# every public submodule; the CLI is an entry point, not part of the namespace
MODULES = sorted(
    name
    for _, name, _ in pkgutil.iter_modules(margfit.__path__)
    if name != "cli" and not name.startswith("_")
)


def _module(name):
    return importlib.import_module(f"margfit.{name}")


@pytest.mark.parametrize("name", MODULES)
def test_defined_public_names_are_declared(name):
    module = _module(name)
    defined = {
        attr
        for attr, obj in vars(module).items()
        if not attr.startswith("_")
        and (inspect.isclass(obj) or inspect.isfunction(obj))
        and obj.__module__ == module.__name__
    }
    assert defined <= set(module.__all__), defined - set(module.__all__)


def test_no_name_is_declared_twice():
    counts = Counter(attr for name in MODULES for attr in _module(name).__all__)
    assert [attr for attr, k in counts.items() if k > 1] == []


def test_every_declared_name_resolves_on_the_package():
    for name in MODULES:
        module = _module(name)
        for attr in module.__all__:
            assert getattr(margfit, attr) is getattr(module, attr), attr
    declared = {attr for name in MODULES for attr in _module(name).__all__}
    assert set(margfit.__all__) == declared | {"__version__"}


def _private(dotted: str) -> bool:
    return any(part.startswith("_") for part in dotted.split("."))


def test_acceptance_gate_uses_no_private_name():
    """The gate's design values are computed without margfit's internals (the
    oracle's integrator among them), so it may import only public names."""
    tree = ast.parse(Path(__file__).with_name("test_acceptance.py").read_text())
    aliases, private = set(), []
    for node in ast.walk(tree):
        module = getattr(node, "module", None) or ""
        if isinstance(node, ast.ImportFrom) and module.split(".")[0] == "margfit":
            names = (f"{module}.{a.name}" for a in node.names)
            private += [name for name in names if _private(name)]
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.split(".")[0] == "margfit":
                    aliases.add(a.asname or "margfit")
                    private += [a.name] if _private(a.name) else []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in aliases:
                private.append(f"{root.id}...{node.attr}")
    assert private == []
