"""Every name a module of the package imports is used in that module.

No linter is installed, so this is the standard-library stand-in for
pyflakes' F401: a deliberate re-export carries ``# noqa: F401``, and a
name listed in ``__all__`` counts as used. The last test checks what
``import clicktomo.cli`` loads.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import clicktomo

PACKAGE = Path(clicktomo.__file__).resolve().parent


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__" or any(
                "# noqa: F401" in line
                for line in lines[node.lineno - 1:node.end_lineno]
            ):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


def test_checker_flags_unused_and_honours_noqa():
    source = (
        "import os\nimport numpy as np\nfrom a import b  # noqa: F401\n"
        "from c import (d,\n    e)\n__all__ = ['d']\nnp.ones(1)\n"
    )
    assert unused_imports(source) == ["e (line 4)", "os (line 1)"]


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")),
                         ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_cli_import_loads_no_process_pool():
    # the CLI imports multiprocessing only when a command runs a bootstrap
    # beside its point solve, so start-up stays what it was without it
    code = (
        f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); "
        "import clicktomo.cli; "
        "loaded = sorted(m for m in sys.modules if m.startswith("
        "('multiprocessing', 'concurrent'))); assert not loaded, loaded"
    )
    done = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
