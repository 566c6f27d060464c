"""Static gates on imports: the backend seam and the package layer order.

**Backend seam.**  Every array operation inside ``repro.nn`` and
``repro.gnn`` must route through ``repro.nn.backend.xp`` so that switching
the active backend (numpy / checked / any registered adapter) actually
switches *all* the math.  A stray ``import numpy`` in one of those modules
silently pins that code to the host CPU and breaks the checked backend's
accounting, so CI fails on it here rather than in a device-parity test
months later.

The same modules may import ``scipy`` only inside a function: importing
``repro.nn`` (and so every CLI and server process) must not pay scipy's
start-up cost for a routine used on one path.

**Layer order.**  ``repro``'s packages form a stack (``LAYERS``, from the
IR at the bottom to serving on top; README's package map lists it).  A
module may import ``repro`` packages of its own level or below, never
above — at module level or inside a function alike.  A package missing
from the table is an error too, so a new package gets a level before it
gets importers.

Both checks are AST-based (not grep): they see ``import x`` /
``import x as y`` / ``from x import ...`` wherever it appears in a module,
including inside functions and class bodies.  Mentions in strings,
comments or docstrings are fine.

Allowlisted for numpy:

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

#: ``repro``'s packages, lowest level first; one tuple per level
LAYERS = (
    ("ir",),
    ("frontend", "embeddings"),
    ("kernels", "simulator", "nn"),
    ("profiling", "graphs", "dae", "ml"),
    ("gnn",),
    ("core", "datasets"),
    ("tuners",),
    ("evaluation", "pipeline"),
    ("serve",),
)
LEVEL = {package: level for level, packages in enumerate(LAYERS)
         for package in packages}

PACKAGE_ROOT = "src/repro"


def _imports(node: ast.AST, root: str, in_function: bool = False):
    """``(line, text, in_function, targets)`` for imports of package ``root``.

    ``targets`` are the dotted names the statement may bind: the module of
    ``import a.b``, and ``a.b.name`` for each name of ``from a.b import``.
    """
    for child in ast.iter_child_nodes(node):
        nested = in_function or isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        if isinstance(child, ast.Import):
            for alias in child.names:
                if alias.name.split(".")[0] == root:
                    yield (child.lineno, f"import {alias.name}"
                           + (f" as {alias.asname}" if alias.asname else ""),
                           in_function, [alias.name])
        elif isinstance(child, ast.ImportFrom):
            # level > 0 is a relative import and can never reach root
            if child.level == 0 and child.module \
                    and child.module.split(".")[0] == root:
                names = ", ".join(a.name for a in child.names)
                yield (child.lineno, f"from {child.module} import {names}",
                       in_function,
                       [f"{child.module}.{a.name}" for a in child.names])
        yield from _imports(child, root, nested)


def _parse(path: Path) -> ast.AST:
    return ast.parse(path.read_text(), filename=str(path))


def find_numpy_imports(path: Path) -> list:
    """``(line, text)`` for every direct numpy import in ``path``."""
    return [(line, text) for line, text, _, _ in _imports(_parse(path),
                                                          "numpy")]


def find_eager_scipy_imports(path: Path) -> list:
    """``(line, text)`` for every scipy import that runs at import time."""
    return [(line, text)
            for line, text, in_function, _ in _imports(_parse(path), "scipy")
            if not in_function]


def find_upward_imports(path: Path, package: str) -> list:
    """``(line, text, target package)`` for imports above ``package``."""
    found = []
    for line, text, _, targets in _imports(_parse(path), "repro"):
        # ``from repro import x``: x may be a package (or just a name)
        above = {parts[1] for parts in (t.split(".") for t in targets)
                 if len(parts) > 1 and parts[1] in LEVEL
                 and LEVEL[parts[1]] > LEVEL[package]}
        found.extend((line, text, target) for target in sorted(above))
    return found


def check_layers(root: Path) -> tuple:
    """``(failures, modules checked)`` of the layer-order gate.

    The root package's own modules (``repro/__init__.py``,
    ``repro/__main__.py``) sit above every layer and are not checked.
    """
    failures = []
    checked = 0
    base = root / PACKAGE_ROOT
    for path in sorted(base.glob("*/**/*.py")):
        rel = path.relative_to(root).as_posix()
        package = path.relative_to(base).parts[0]
        if package not in LEVEL:
            failures.append(f"{rel}: package {package!r} has no level in "
                            f"LAYERS")
            continue
        checked += 1
        for lineno, text, target in find_upward_imports(path, package):
            failures.append(f"{rel}:{lineno}: {text} ({package} is below "
                            f"{target})")
    return failures, checked


def check_seam(root: Path) -> tuple:
    """``(failures, modules checked)`` of the backend-seam gate."""
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
    return failures, checked


def main(root: Path) -> int:
    seam, sealed = check_seam(root)
    layers, layered = check_layers(root)
    if seam:
        print(f"imports that break the backend seam ({len(seam)}):")
        for line in seam:
            print(f"  {line}")
        print("route array ops through repro.nn.backend.xp instead, or "
              "(deliberately) extend ALLOWLIST in tools/check_backend_seam.py")
    if layers:
        print(f"imports against the layer order ({len(layers)}):")
        for line in layers:
            print(f"  {line}")
        print("move the code to the lower layer, or pass the object in "
              "from above; LAYERS in tools/check_backend_seam.py is the order")
    if seam or layers:
        return 1
    print(f"backend seam clean: {sealed} modules checked, "
          f"{len(ALLOWLIST)} allowlisted; layers clean: {layered} modules "
          f"checked")
    return 0


if __name__ == "__main__":
    sys.exit(main(Path(__file__).resolve().parent.parent))
