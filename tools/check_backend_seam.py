"""Static gate: no direct numpy imports behind the array-backend seam.

Every array operation inside ``repro.nn`` and ``repro.gnn`` must route
through ``repro.nn.backend.xp`` so that switching the active backend
(numpy / checked / cupy / torch) actually switches *all* the math.  A
stray ``import numpy`` in one of those modules silently pins that code to
the host CPU and breaks the checked backend's accounting, so CI fails on
it here rather than in a device-parity test months later.

The same modules may import ``scipy`` only inside a function: importing
``repro.nn`` (and so every CLI and server process) must not pay scipy's
start-up cost for a routine used on one path.

The check is AST-based (not grep): it flags ``import numpy`` /
``import numpy as anything`` / ``from numpy import ...`` /
``from numpy.random import ...`` wherever they appear in a module,
including inside functions, and ``scipy`` imports that run at import
time (module level or in a class body).  Mentions in strings, comments or
docstrings are fine.

Allowlisted:

* ``repro/nn/backend.py`` — the one module whose job is to bind numpy.

Run from the repository root (CI does)::

    python tools/check_backend_seam.py

Exit status 0 when clean, 1 with a per-violation listing otherwise.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

#: directories whose modules must not import numpy directly
SEALED_DIRS = ("src/repro/nn", "src/repro/gnn")

#: modules allowed to import numpy, relative to the repository root.
#: Keep this list short and deliberate: every entry is a hole in the seam.
ALLOWLIST = frozenset({
    "src/repro/nn/backend.py",
})


def _imports(node: ast.AST, root: str, in_function: bool = False):
    """``(line, text, in_function)`` for imports of package ``root``."""
    for child in ast.iter_child_nodes(node):
        nested = in_function or isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        if isinstance(child, ast.Import):
            for alias in child.names:
                if alias.name.split(".")[0] == root:
                    yield (child.lineno, f"import {alias.name}"
                           + (f" as {alias.asname}" if alias.asname else ""),
                           in_function)
        elif isinstance(child, ast.ImportFrom):
            # level > 0 is a relative import and can never reach root
            if child.level == 0 and child.module \
                    and child.module.split(".")[0] == root:
                names = ", ".join(a.name for a in child.names)
                yield (child.lineno, f"from {child.module} import {names}",
                       in_function)
        yield from _imports(child, root, nested)


def find_numpy_imports(path: Path) -> list:
    """``(line, text)`` for every direct numpy import in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [(line, text) for line, text, _ in _imports(tree, "numpy")]


def find_eager_scipy_imports(path: Path) -> list:
    """``(line, text)`` for every scipy import that runs at import time."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [(line, text) for line, text, in_function in _imports(tree, "scipy")
            if not in_function]


def main(root: Path) -> int:
    failures = []
    checked = 0
    for sealed in SEALED_DIRS:
        base = root / sealed
        for path in sorted(base.rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            for lineno, text in find_eager_scipy_imports(path):
                failures.append(f"{rel}:{lineno}: {text} (import scipy "
                                f"inside the function that uses it)")
            if rel in ALLOWLIST:
                continue
            checked += 1
            for lineno, text in find_numpy_imports(path):
                failures.append(f"{rel}:{lineno}: {text}")
    if failures:
        print("imports that break the backend seam "
              f"({len(failures)}):")
        for line in failures:
            print(f"  {line}")
        print("route array ops through repro.nn.backend.xp instead, or "
              "(deliberately) extend ALLOWLIST in tools/check_backend_seam.py")
        return 1
    print(f"backend seam clean: {checked} modules checked, "
          f"{len(ALLOWLIST)} allowlisted")
    return 0


if __name__ == "__main__":
    sys.exit(main(Path(__file__).resolve().parent.parent))
