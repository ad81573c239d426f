"""Every name a module of the package, a script under ``benchmarks/`` or
a test module imports is used in that module, and only one import binds
it.

No linter is installed, so this is the standard-library stand-in for
pyflakes' F401 and F811: a deliberate re-export carries ``# noqa: F401``,
and a name listed in ``__all__`` counts as used. The last test checks
what ``import clicktomo.cli``, and a bootstrap run after it, loads.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import clicktomo

PACKAGE = Path(clicktomo.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
BENCHMARKS = ROOT / "benchmarks"


def import_faults(source: str) -> list[str]:
    """The names bound by more than one import, with their lines, and
    the imported names never used, with the line of their import."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}  # name: the lines of the imports that bind it
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            noqa = any("# noqa: F401" in line
                       for line in lines[node.lineno - 1:node.end_lineno])
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, []).append(node.lineno)
                if noqa:  # a deliberate re-export counts as used
                    used.add(name)
    faults = []
    for name, at in sorted(imported.items()):
        if len(at) > 1:
            faults.append(f"{name} (lines {', '.join(map(str, sorted(at)))})")
        elif name not in used:
            faults.append(f"{name} (line {at[0]})")
    return faults


def test_checker_flags_unused_and_honours_noqa():
    source = (
        "import os\nimport numpy as np\nfrom a import b  # noqa: F401\n"
        "from c import (d,\n    e)\n__all__ = ['d']\nnp.ones(1)\n"
    )
    assert import_faults(source) == ["e (line 4)", "os (line 1)"]
    twice = ("from a import b\ndef f():\n    from a import b, c\n"
             "    return b(c)\n")
    assert import_faults(twice) == ["b (lines 1, 3)"]


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.rglob("*.py")) + sorted(BENCHMARKS.glob("*.py"))
    + sorted(TESTS.glob("*.py")),
    ids=lambda path: path.name)
def test_no_unused_imports(path):
    assert import_faults(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "path", sorted(path for top in ("src", "tests", "benchmarks")
                   for path in (ROOT / top).rglob("*.py")),
    ids=lambda path: str(path.relative_to(ROOT)))
def test_syntax_parses_as_python_3_10(path):
    # pyproject.toml declares Python >= 3.10, and CI runs only 3.11: this
    # checks the floor's syntax, not its runtime
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
              feature_version=(3, 10))


def test_cli_import_loads_no_process_pool(tmp_path):
    # the background bootstrap forks by hand, so neither the import nor a
    # reconstruct whose bootstrap runs in a forked child (two usable CPUs)
    # loads a process-pool framework
    sim, out = str(tmp_path / "sim"), str(tmp_path / "rec")
    check = ("loaded = sorted(m for m in sys.modules if m.startswith("
             "('multiprocessing', 'concurrent'))); assert not loaded, loaded; ")
    code = (
        f"import os, sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); "
        "import clicktomo.cli; " + check
        + "os.sched_getaffinity = lambda pid: {0, 1}; "
        "assert clicktomo.cli.main(['simulate', '--preset', 'heralded-balanced', "
        f"'--grid-k', '6', '--runs', '2000', '--out-dir', {sim!r}]) == 0; "
        f"assert clicktomo.cli.main(['reconstruct', {sim!r}, '--bootstrap-reps', "
        f"'2', '--max-iters', '50', '--out-dir', {out!r}]) == 0; " + check
    )
    done = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
