#!/usr/bin/env python3
"""Layering lint: every ``repro`` module imports only its own layer or
the layers below it.

:data:`LAYERS` is DESIGN.md §1 as data: module prefixes, lowest layer
first.  A module belongs to the layer of its longest matching prefix,
so a package can be split where the stack splits it (``faults`` sits
below ``cache``, ``faults.sampling`` above ``cacti`` and
``faults.population`` above ``core``).  The lint walks ``src/repro``
with :mod:`ast` and fails on any import of a higher layer, whatever its
form: top-level, inside a function, under ``TYPE_CHECKING`` or
relative (``from ..engine import jobs`` is resolved against the
importing file's package first).  ``from <pkg> import a, b`` is checked
as ``<pkg>``, ``<pkg>.a`` and ``<pkg>.b``, because ``a`` may be a
submodule.

One rule rides on top of the order: ``repro.cells`` is the door to
``repro.sram``.  Only ``repro.sram`` itself and ``repro.cells`` (the
cell-technology API, which re-exports the SRAM stack) import it, so
non-SRAM technologies slot in without touching callers.

Usage::

    python tools/check_imports.py src/repro
    python tools/check_imports.py src/repro --list

Runs in CI and as a test (``tests/docs/test_import_layering.py``), so
a violating import fails the suite before it fails review.
"""

from __future__ import annotations

import argparse
import ast
import pathlib
import sys

#: The package the scanned root directory stands for.
ROOT_PACKAGE = "repro"

#: Module prefixes, lowest layer first.  The root package comes first:
#: its exports are lazy, so importing it loads nothing.
LAYERS = (
    "repro",
    "repro.util",
    "repro.tech",
    "repro.sram",
    "repro.cells",
    "repro.edc",
    "repro.reliability",
    "repro.faults",
    "repro.cache",
    "repro.cacti",
    "repro.faults.sampling",
    "repro.transients",
    "repro.cpu",
    "repro.workloads",
    "repro.engine",
    "repro.core",
    "repro.faults.population",
    "repro.runtime",
    "repro.sustainability",
    "repro.explore",
    "repro.experiments",
    "repro.service",
    "repro.__main__",
)

#: (gated prefix, the one layer above it allowed to import it).
DOOR = ("repro.sram", "repro.cells")


def _within(name: str, prefix: str) -> bool:
    """Whether a dotted name is the prefix or inside it."""
    return name == prefix or name.startswith(prefix + ".")


def layer_of(name: str) -> str | None:
    """The :data:`LAYERS` prefix a dotted module name belongs to."""
    matches = [prefix for prefix in LAYERS if _within(name, prefix)]
    return max(matches, key=len) if matches else None


def module_name(root: pathlib.Path, path: pathlib.Path) -> str:
    """The dotted name of a source file under the scanned root."""
    parts = (ROOT_PACKAGE,) + path.relative_to(root).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _absolute_module(
    node: ast.ImportFrom, package: tuple[str, ...]
) -> str:
    """The module a ``from ... import`` names, relative ones resolved.

    ``package`` is the importing file's package path (``("repro",
    "workloads")`` for ``repro/workloads/source.py``); each leading dot
    past the first climbs one level.
    """
    if node.level == 0:
        return node.module or ""
    base = package[: max(len(package) - node.level + 1, 0)]
    return ".".join(base + ((node.module,) if node.module else ()))


def _imported(
    node: ast.AST, package: tuple[str, ...]
) -> list[str]:
    """Every dotted name an import statement may load."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        module = _absolute_module(node, package)
        return [module] + [
            f"{module}.{alias.name}"
            for alias in node.names
            if alias.name != "*"
        ]
    return []


def _offence(importer: str, target: str) -> str | None:
    """Why ``importer`` may not import ``target`` (None if it may)."""
    gated, door = DOOR
    if _within(target, gated) and not (
        _within(importer, gated) or _within(importer, door)
    ):
        return f"only {door} may import {gated}"
    mine, theirs = layer_of(importer), layer_of(target)
    if theirs is not None and LAYERS.index(theirs) > LAYERS.index(mine):
        return f"layer {theirs} is above {mine}"
    return None


def check_package(root: pathlib.Path) -> list[str]:
    """All layering violations under ``root``, sorted by file."""
    violations: list[str] = []
    for path in sorted(root.rglob("*.py")):
        importer = module_name(root, path)
        package = tuple(importer.split("."))
        if path.name != "__init__.py":
            package = package[:-1]
        tree = ast.parse(
            path.read_text(encoding="utf-8"), filename=str(path)
        )
        found: dict[tuple[int, str], str] = {}
        for node in ast.walk(tree):
            for target in _imported(node, package):
                reason = _offence(importer, target)
                if reason is not None:
                    found.setdefault((node.lineno, reason), target)
        violations.extend(
            f"{path}:{lineno}: imports {target} ({reason})"
            for (lineno, reason), target in sorted(found.items())
        )
    return violations


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a shell exit status."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "package", type=pathlib.Path,
        help="package directory to scan (e.g. src/repro)",
    )
    parser.add_argument(
        "--list", action="store_true",
        help="print violations without failing (for triage)",
    )
    args = parser.parse_args(argv)
    if not args.package.is_dir():
        print(f"error: {args.package} is not a directory",
              file=sys.stderr)
        return 2
    violations = check_package(args.package)
    for line in violations:
        print(line)
    if violations:
        print(
            f"{len(violations)} layering violation(s); layers, lowest "
            "first: " + " < ".join(LAYERS),
            file=sys.stdout if args.list else sys.stderr,
        )
        return 0 if args.list else 1
    print(
        f"import layering OK: {len(LAYERS)} layers, each importing "
        "only itself and the layers below it"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
