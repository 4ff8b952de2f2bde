"""Every module-level import in the package is used by its module."""

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
