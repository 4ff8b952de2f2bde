"""Every module-level import in the package is used by its module, every
module-level function and class is reached from the package's entry points,
and only linalg calls numpy's linear algebra."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cmvmix"


def unused_imports(source):
    """Names bound by the module-level imports of source that no expression
    in it reads (an attribute chain such as np.linalg reads np)."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    bound = [alias.asname or alias.name.split(".")[0]
             for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names]
    return [name for name in bound if name not in read]


def test_unused_imports_detects_the_unread_name():
    source = "import os\nimport numpy as np\nfrom typing import Optional, Tuple\nx: Tuple = np.e\n"
    assert unused_imports(source) == ["os", "Optional"]


# __init__.py imports names to re-export them
@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def unreachable(sources, entry_points=()):
    """Module-level functions and classes of a package, given as
    {module: source}, that no entry point reaches: the names __init__
    imports, entry_points (module, name) and every module's top-level
    statements.  Inside a module a bare name is its own definition or a
    `from .m import n` binding, and x.attr counts only when `from . import x`
    binds x, so np.linalg.f never reaches a package function f."""
    defs, edges, roots = set(), {}, set(entry_points)
    for mod, source in sources.items():
        tree = ast.parse(source)
        names, modules = {}, {}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    bound = alias.asname or alias.name
                    if node.module is None:
                        modules[bound] = alias.name
                    else:
                        names[bound] = (node.module, alias.name)
                        if mod == "__init__":
                            roots.add(names[bound])
            elif isinstance(node, DEFINITIONS):
                names[node.name] = (mod, node.name)
                defs.add((mod, node.name))

        def refs(node):
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and sub.id in names:
                    yield names[sub.id]
                elif (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                      and sub.value.id in modules):
                    yield modules[sub.value.id], sub.attr

        for node in tree.body:
            if isinstance(node, DEFINITIONS):
                edges[(mod, node.name)] = set(refs(node))
            else:
                roots.update(refs(node))
    seen, todo = set(), list(roots)
    while todo:
        key = todo.pop()
        if key not in seen:
            seen.add(key)
            todo.extend(edges.get(key, ()))
    return sorted(defs - seen)


def test_unreachable_flags_a_function_only_tests_call():
    sources = {
        "__init__": "from .ecm import fit\n",
        "ecm": "import numpy as np\nfrom . import linalg\nfrom .linalg import Record as R\n"
               "def fit(a):\n    return linalg.factor(R(np.linalg.cholesky(a)))\n"
               "def cm_step(a):\n    return linalg.factor(a)\n",
        "linalg": "class Record:\n    def __init__(self, a):\n        self.a = _check(a)\n"
                  "def _check(a):\n    return a\n"
                  "def factor(a):\n    return a\n"
                  "def cholesky(a):\n    return factor(a)\n"
                  "def log_det(a):\n    return a\n"
                  "KERNELS = {'log_det': log_det}\n",
    }
    # cm_step is called only from tests; cholesky only by numpy's name
    assert unreachable(sources) == [("ecm", "cm_step"), ("linalg", "cholesky")]
    assert unreachable(sources, [("ecm", "cm_step")]) == [("linalg", "cholesky")]


def test_package_holds_only_code_it_runs():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert unreachable(sources, [("cli", "main")]) == []


def test_linalg_holds_only_the_chain_kernels():
    # __init__ and cli reach every module, so they are left out; the rest
    # may use linalg, but each linalg definition must serve one ECM cycle
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")
               if p.stem not in ("__init__", "cli")}
    missed = unreachable(sources, [("ecm", "_cm_half")])
    assert [name for mod, name in missed if mod == "linalg"] == []


# the private numpy names linalg binds at import: LAPACK's gufuncs and the
# error-state context variable factor sets around them
PRIVATE = ("_umath_linalg", "_extobj_contextvar", "_make_extobj")


def lapack_routes(source):
    """Line numbers where source reaches numpy's linear algebra or the
    private names linalg binds itself: an attribute linalg of np or numpy
    (np.linalg.inv, numpy.linalg.cholesky), an import of numpy.linalg or from
    it, ``from numpy import linalg``, or a name in PRIVATE in any form."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            hit = node.attr in PRIVATE or (
                node.attr == "linalg" and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy"))
        elif isinstance(node, ast.Name):
            hit = node.id in PRIVATE
        elif isinstance(node, ast.Import):
            hit = any(a.name.startswith("numpy.linalg") for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            hit = (module.startswith("numpy.linalg") or "_umath_linalg" in module
                   or any(a.name in PRIVATE for a in node.names)
                   or (module == "numpy" and any(a.name == "linalg" for a in node.names)))
        else:
            continue
        if hit:
            lines.append(node.lineno)
    return sorted(set(lines))


def test_lapack_routes_flags_each_route():
    source = ("import numpy as np\n"
              "import numpy.linalg as nla\n"
              "from numpy import linalg\n"
              "from numpy.linalg import _umath_linalg\n"
              "from numpy.linalg._umath_linalg import inv\n"
              "x = np.linalg.inv(np.eye(2))\n"
              "y = numpy.linalg.cholesky\n"
              "z = nla._umath_linalg.cholesky_lo\n"
              "from . import linalg as own\n"
              "w = own.factor(x) + linalg_sum(x)\n"
              "from numpy._core.umath import _extobj_contextvar, _make_extobj\n"
              "t = np._core.umath._extobj_contextvar.set(np._core.umath._make_extobj())\n"
              "from numpy._core.umath import _get_extobj_dict\n")
    assert lapack_routes(source) == [2, 3, 4, 5, 6, 7, 8, 11, 12]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "linalg.py"),
                         ids=lambda p: p.name)
def test_only_linalg_calls_numpy_linear_algebra(path):
    # linalg owns numpy's LAPACK gufuncs and the error state that maps their
    # failures to NotPositiveDefinite; a second caller would bring back
    # np.linalg's wrappers or a failure mapped another way
    assert lapack_routes(path.read_text()) == []
