"""Dependency contract: the package imports the stdlib, numpy and itself.

numpy is the only runtime dependency.  This gate walks every module
under ``src/repro`` with :mod:`ast` — imports nested inside functions
included, because a lazy import is how a dependency slips in unnoticed
— and fails on any other top-level module.
"""

import ast
import pathlib
import sys
import tomllib

REPO = pathlib.Path(__file__).resolve().parents[2]

#: Top-level modules the package may import.
ALLOWED = sys.stdlib_module_names | {"numpy", "repro"}


def foreign_imports(root: pathlib.Path) -> list[str]:
    """``file:line: module`` of every disallowed absolute import."""
    found = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top not in ALLOWED:
                    found.append(
                        f"{path.relative_to(root)}:{node.lineno}: {top}"
                    )
    return found


class TestRuntimeDependencies:
    def test_package_imports_only_stdlib_numpy_and_itself(self):
        found = foreign_imports(REPO / "src" / "repro")
        assert found == [], "third-party imports:\n  " + "\n  ".join(found)

    def test_walk_catches_lazy_imports(self, tmp_path):
        (tmp_path / "lazy.py").write_text(
            "import json\n"
            "import numpy as np\n"
            "def tail(x):\n"
            "    from scipy.stats import norm\n"
            "    import numba.core\n"
            "    return norm.sf(x)\n",
            encoding="utf-8",
        )
        assert sorted(foreign_imports(tmp_path)) == [
            "lazy.py:4: scipy",
            "lazy.py:5: numba",
        ]

    def test_pyproject_declares_numpy_only(self):
        text = (REPO / "pyproject.toml").read_text(encoding="utf-8")
        project = tomllib.loads(text)["project"]
        assert project["dependencies"] == ["numpy>=1.24"]
