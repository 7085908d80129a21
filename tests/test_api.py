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
import re
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


def _referenced_names(path: Path) -> set:
    """The names a Python file's code refers to: names, attributes, imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
    return names


def test_every_public_name_has_a_user():
    """A public name is used by another module's code, by the benchmark's
    code, or documented in the README; API that only the tests use goes."""
    src = Path(margfit.__file__).parent
    repo = Path(__file__).resolve().parents[1]
    used = {path.stem: _referenced_names(path) for path in src.glob("*.py")}
    bench = set().union(*map(_referenced_names, (repo / "perfbench").glob("*.py")))
    readme = (repo / "README.md").read_text()
    unused = [
        attr
        for name in MODULES
        for attr in _module(name).__all__
        if not any(attr in names for stem, names in used.items() if stem != name)
        and attr not in bench
        and not re.search(rf"\b{attr}\b", readme)
    ]
    assert unused == []


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


# calls that evaluate or solve the weighted score; a loop around one of them
# is a Newton loop over the relative-risk score (the scalar searches and the
# oracle's quadrature nodes solve other equations, with other calls)
_SCORE_CALLS = {
    "score",
    "moments",
    "weighted_score",
    "score_jacobian",
    "solve_score",
    "_newton",
    "_fit",
    "_solved",
}
_LOOPS = (
    ast.For,
    ast.AsyncFor,
    ast.While,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)


def _score_loops(tree):
    """(function, call) for each score call inside a loop, by innermost function."""
    found = []

    def visit(node, func, in_loop):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name, False)
                continue
            if isinstance(child, ast.Lambda):
                visit(child, func, False)
                continue
            if in_loop and isinstance(child, ast.Call):
                callee = child.func
                name = getattr(callee, "attr", None) or getattr(callee, "id", None)
                if name in _SCORE_CALLS:
                    found.append((func, name))
            visit(child, func, in_loop or isinstance(child, _LOOPS))

    visit(tree, "<module>", False)
    return found


# the block solvers that draw a new dataset on each pass: no two passes
# share a beta-free state, so their solves cannot stack into one Newton
_PER_DATASET = {("simulate", "_reps"), ("resample", "_bootstrap_draws")}


def test_only_newton_iterates_the_score():
    """``estimate._newton`` is the package's one Newton loop: every batch of
    scores (a study replication's estimators, a block of random-weight draws)
    is one call of it, so no caller forks a second loop over solves of one
    dataset."""
    loops = []
    allowed = {("estimate", "_newton"), *_PER_DATASET}
    for path in sorted(Path(margfit.__file__).parent.glob("*.py")):
        for func, call in _score_loops(ast.parse(path.read_text())):
            if (path.stem, func) not in allowed:
                loops.append(f"{path.stem}.{func} calls {call} in a loop")
    assert loops == []


def test_the_newton_guard_sees_a_loop_of_solves():
    source = "def fits(data, schemes):\n    return [solve_score(data, s) for s in schemes]"
    assert _score_loops(ast.parse(source)) == [("fits", "solve_score")]


# the functions that may iterate: the bracket search and Brent's method that
# every scalar search uses, the batched Newton over the score, calibration's
# bisection and the oracle's vectorised node Newton
_SOLVERS = {
    "marginal._expand",
    "marginal._brentq",
    "estimate._newton",
    "simulate.calibrate_censoring",
    "simulate._failure_law_nodes",
}


def _is_iteration(node) -> bool:
    """A ``while`` loop, or a ``for _ in range(...)`` loop."""
    if isinstance(node, ast.While):
        return True
    return (
        isinstance(node, ast.For)
        and isinstance(node.target, ast.Name)
        and node.target.id == "_"
        and isinstance(node.iter, ast.Call)
        and getattr(node.iter.func, "id", None) == "range"
    )


def _iterating_functions(tree) -> list[str]:
    """The innermost function around each iteration loop in ``tree``."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if _is_iteration(child):
                found.append(func)
            visit(child, func)

    visit(tree, "<module>")
    return found


def test_scalar_searches_use_the_shared_solver():
    """A loop that iterates to a tolerance lives in one of the package's
    solvers; every other scalar search brackets with ``_expand`` and solves
    with ``_brentq``, rather than running a loop of its own."""
    loops = []
    for path in sorted(Path(margfit.__file__).parent.glob("*.py")):
        for func in _iterating_functions(ast.parse(path.read_text())):
            if f"{path.stem}.{func}" not in _SOLVERS:
                loops.append(f"{path.stem}.{func}")
    assert loops == []


def test_the_solver_guard_sees_both_loop_forms():
    source = (
        "def halve(x):\n"
        "    while x > 1.0:\n"
        "        x /= 2.0\n"
        "    return x\n"
        "def root(x):\n"
        "    for _ in range(9):\n"
        "        x = x / 2.0 + 1.0 / x\n"
        "    return x\n"
        "def show(xs):\n"
        "    for x in xs:\n"
        "        print(x)\n"
    )
    assert _iterating_functions(ast.parse(source)) == ["halve", "root"]


def _csv_importers(tree) -> int:
    """How many import statements in ``tree`` import the ``csv`` module."""
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            count += any(a.name.split(".")[0] == "csv" for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            count += (node.module or "").split(".")[0] == "csv"
    return count


def test_only_dataset_imports_csv():
    """``dataset._read_table`` and ``dataset._write_table`` are the package's
    one CSV table format, so no other module reads or writes CSV itself."""
    src = Path(margfit.__file__).parent
    importers = [
        path.stem
        for path in sorted(src.rglob("*.py"))
        if path.stem != "dataset" and _csv_importers(ast.parse(path.read_text()))
    ]
    assert importers == []


def test_the_csv_guard_sees_both_import_forms():
    source = "import csv\nfrom csv import writer\nfrom . import csv_like\n"
    assert _csv_importers(ast.parse(source)) == 2


def _numbers_importers(tree) -> int:
    """How many import statements in ``tree`` import the ``numbers`` module."""
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            count += any(a.name == "numbers" for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            count += node.module == "numbers"
    return count


def test_only_parallel_checks_integers():
    """``_parallel.check_integer`` is the package's one test of an integer
    argument, so no other module imports ``numbers`` to write its own."""
    src = Path(margfit.__file__).parent
    importers = [
        path.stem
        for path in sorted(src.rglob("*.py"))
        if path.stem != "_parallel" and _numbers_importers(ast.parse(path.read_text()))
    ]
    assert importers == []


def test_the_numbers_guard_sees_both_import_forms():
    source = "import numbers\nfrom numbers import Integral\nfrom . import numbers\n"
    assert _numbers_importers(ast.parse(source)) == 2


_ENVIRONMENT = ("environ", "getenv")


def _environment_reads(tree) -> int:
    """How many references in ``tree`` reach ``os.environ`` or ``os.getenv``."""
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in _ENVIRONMENT:
            count += isinstance(node.value, ast.Name) and node.value.id == "os"
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            count += any(a.name in _ENVIRONMENT for a in node.names)
    return count


def test_no_module_reads_the_environment():
    """Every setting is an argument or a command-line option: no module reads
    an environment variable, which would be a second, hidden way to set it."""
    src = Path(margfit.__file__).parent
    readers = [
        path.stem
        for path in sorted(src.rglob("*.py"))
        if _environment_reads(ast.parse(path.read_text()))
    ]
    assert readers == []


def test_the_environment_guard_sees_both_forms():
    source = (
        "import os\n"
        "jobs = os.environ.get('JOBS')\n"
        "seed = os.getenv('SEED')\n"
        "from os import environ, path\n"
        "name = os.path.join('a', 'b')\n"
    )
    assert _environment_reads(ast.parse(source)) == 3


def _substream_seeders(tree) -> list[str]:
    """The functions in ``tree`` that call ``default_rng`` on a list holding
    one of their loop or comprehension variables: a per-index substream."""
    found = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        loop_vars = {
            name.id
            for node in ast.walk(func)
            if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension))
            for name in ast.walk(node.target)
            if isinstance(name, ast.Name)
        }
        for node in ast.walk(func):
            if not isinstance(node, ast.Call):
                continue
            callee = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
            if callee == "default_rng" and any(
                isinstance(arg, ast.List)
                and any(isinstance(e, ast.Name) and e.id in loop_vars for e in arg.elts)
                for arg in node.args
            ):
                found.append(func.name)
    return found


def test_only_the_block_map_seeds_substreams():
    """``parallel_map`` owns the rule that index i draws from
    ``default_rng([seed, i])``: no other module builds per-index substreams
    (the study's fixed calibration and reference streams are constants)."""
    src = Path(margfit.__file__).parent
    seeders = [
        f"{path.stem}.{func}"
        for path in sorted(src.rglob("*.py"))
        if path.stem != "_parallel"
        for func in _substream_seeders(ast.parse(path.read_text()))
    ]
    assert seeders == []


def test_the_substream_guard_sees_loops_and_comprehensions():
    source = (
        "def block(seed, indices):\n"
        "    return [np.random.default_rng([seed, i]) for i in indices]\n"
        "def draws(seed, n):\n"
        "    for b in range(n):\n"
        "        yield default_rng([seed, b]).random()\n"
        "def fixed(config):\n"
        "    return np.random.default_rng([config.seed, _STREAM])\n"
        "def plain(seeds):\n"
        "    return [np.random.default_rng(s) for s in seeds]\n"
    )
    assert _substream_seeders(ast.parse(source)) == ["block", "draws"]


def _jobs_defaults(tree) -> int:
    """How many places in ``tree`` call ``default_jobs`` or test a ``jobs``
    (a name or an attribute) against None: each is a default worker count."""
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            callee = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
            count += callee == "default_jobs"
        elif isinstance(node, ast.Compare):
            ops = [node.left, *node.comparators]
            names = {getattr(o, "id", None) or getattr(o, "attr", None) for o in ops}
            none = any(isinstance(o, ast.Constant) and o.value is None for o in ops)
            count += "jobs" in names and none
    return count


def test_only_the_block_map_defaults_jobs():
    """``parallel_map`` alone gives ``jobs=None`` its meaning, so the study
    runner, the resamplers and the CLI hand ``jobs`` through unread."""
    src = Path(margfit.__file__).parent
    defaulters = [
        path.stem
        for path in sorted(src.rglob("*.py"))
        if path.stem != "_parallel" and _jobs_defaults(ast.parse(path.read_text()))
    ]
    assert defaulters == []


def test_the_jobs_guard_sees_calls_and_tests():
    source = (
        "def study(config, jobs=None):\n"
        "    jobs = default_jobs(config.reps) if jobs is None else jobs\n"
        "def cli(args):\n"
        "    if args.jobs is not None:\n"
        "        return _parallel.default_jobs(args.draws)\n"
        "def checked(jobs, seed):\n"
        "    check_jobs(jobs)\n"
        "    return seed is None or jobs == 1\n"
    )
    assert _jobs_defaults(ast.parse(source)) == 4


def test_importing_the_package_loads_no_scipy(fresh_python):
    """Only the efficiency grid needs SciPy, and it imports it where it runs."""
    code = (
        "import sys\n"
        "import margfit, margfit.cli\n"
        "loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "assert not loaded, loaded[:5]\n"
        "cell = margfit.AREConfig(beta0=1.0, p=0.5, t_c=1.0)\n"
        "r = margfit.relative_efficiency(cell)\n"
        "assert 0.0 < r.ratio < 1.0 and 'scipy.integrate' in sys.modules\n"
    )
    fresh_python(code)


def test_importing_the_package_loads_no_process_pool(fresh_python):
    """``parallel_map`` imports the pool only for ``jobs > 1``."""
    code = (
        "import sys\n"
        "import margfit, margfit.cli\n"
        "pool = ('concurrent.futures', 'multiprocessing', 'logging')\n"
        "loaded = [m for m in pool if m in sys.modules]\n"
        "assert not loaded, loaded\n"
        "data = margfit.freireich()\n"
        "margfit.resample_distribution(data, margfit.Constant(), n_draws=8, jobs=1)\n"
        "assert 'concurrent.futures' not in sys.modules\n"
        "margfit.resample_distribution(data, margfit.Constant(), n_draws=8, jobs=2)\n"
        "assert 'concurrent.futures' in sys.modules\n"
    )
    fresh_python(code)
