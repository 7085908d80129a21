"""The public surface: each submodule's ``__all__`` declares its names once.

``margfit/__init__.py`` star-imports the submodules and builds its own
``__all__`` from theirs, so these lists are the only declaration of the
package's public names.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
from collections import Counter

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
