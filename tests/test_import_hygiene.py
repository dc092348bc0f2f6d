"""Cold-import hygiene: ``scipy.ndimage`` stays out of the package.

Every cold process (a CLI ``flow``, each spawned batch worker) pays for
what ``import repro`` drags in.  ``scipy.ndimage`` was imported only for
its Gaussian filter, and on recent scipy it also loads ``scipy.special``:
together about 0.3 s of a ~0.8 s import.  The exploration patterns now
blur through ``repro.exploration.patterns.gaussian_blur``.

The AST audit rejects the import anywhere under ``src/repro``, inside
functions too: a lazy import would only move the cost into the run.  The
subprocess checks confirm it at run time, in a fresh interpreter.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "repro"
BANNED = "scipy.ndimage"


def _banned_imports(tree: ast.AST) -> list:
    """Line numbers of every import that loads ``scipy.ndimage``."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(name == BANNED or name.startswith(BANNED + ".") for name in names):
            lines.append(node.lineno)
    return lines


def test_no_module_imports_scipy_ndimage():
    offenders = [
        f"{path.relative_to(PACKAGE).as_posix()}:{line}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for line in _banned_imports(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not offenders, "scipy.ndimage imported at " + ", ".join(offenders)


def test_audit_catches_planted_imports():
    planted = (
        "import scipy.ndimage\n"
        "from scipy.ndimage import gaussian_filter\n"
        "from scipy import ndimage\n"
        "def f():\n"
        "    import scipy.ndimage.filters\n"
        "import scipy.sparse\n"
        "from scipy import sparse\n"
    )
    assert _banned_imports(ast.parse(planted)) == [1, 2, 3, 5]


def _modules_after(code: str) -> set:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\nprint('\\n'.join(sys.modules))"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return set(out.stdout.split())


def test_cold_import_leaves_scipy_ndimage_out():
    for code in ("import repro", "import repro.cli"):
        loaded = _modules_after(code)
        assert "repro" in loaded
        assert not any(m == BANNED or m.startswith(BANNED + ".") for m in loaded), code
