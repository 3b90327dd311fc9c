#!/usr/bin/env python3
"""Layering lint: gated packages are imported only from allowed places.

Each row of :data:`RULES` gates one module prefix and names the
entries of the scanned package root (directories or top-level files)
whose code may import it.  This gate walks ``src/repro`` with
:mod:`ast` and fails on any ``import <prefix>...`` /
``from <prefix>... import ...`` elsewhere.  Relative imports
(``from ..engine.jobs import ...``) are resolved against the importing
file's package first; the scanned root is the ``repro`` package.

* ``repro.sram`` — only ``repro/sram/`` itself and ``repro/cells/``
  (the compatibility shim re-exporting it).  The cell-technology API
  is the supported way to consume bitcells; direct ``repro.sram``
  imports bypass the protocol and freeze callers onto one technology.
* ``repro.service`` — only ``repro/service/`` itself and the CLI
  (``repro/__main__.py``).  The service sits on top of the engine, so
  nothing below it may depend on it (DESIGN.md §1).
* ``repro.engine`` — only the layers above it in DESIGN.md §1, plus
  ``repro/cpu/`` (see the row's comment).  In particular
  ``repro.workloads`` sits below the engine and never imports it.

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

#: (gated module prefix, package-root entries allowed to import it).
RULES = (
    ("repro.sram", ("sram", "cells")),
    ("repro.service", ("service", "__main__.py")),
    # ``cpu`` is listed only because ``cpu/chip.py`` calls
    # ``engine.backends.simulate_cache``.
    ("repro.engine", (
        "engine", "cpu", "core", "explore", "experiments", "faults",
        "runtime", "service", "__main__.py",
    )),
)


def _gated(name: str, prefix: str) -> bool:
    """Whether a dotted module name is the prefix or inside it."""
    return name == prefix or name.startswith(prefix + ".")


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


def _violations_in(
    path: pathlib.Path,
    tree: ast.Module,
    prefix: str,
    package: tuple[str, ...],
) -> list[str]:
    """Offending import lines of one parsed module for one rule."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _gated(alias.name, prefix):
                    found.append(
                        f"{path}:{node.lineno}: import {alias.name}"
                    )
        elif isinstance(node, ast.ImportFrom):
            module = _absolute_module(node, package)
            if _gated(module, prefix):
                found.append(
                    f"{path}:{node.lineno}: from {module} import ..."
                )
    return found


def check_package(root: pathlib.Path) -> list[str]:
    """All violations of :data:`RULES` under ``root``, sorted by file."""
    violations: list[str] = []
    for path in sorted(root.rglob("*.py")):
        parts = path.relative_to(root).parts
        applicable = [rule for rule in RULES if parts[0] not in rule[1]]
        if not applicable:
            continue
        tree = ast.parse(
            path.read_text(encoding="utf-8"), filename=str(path)
        )
        package = (ROOT_PACKAGE,) + parts[:-1]
        for prefix, _allowed in applicable:
            violations.extend(_violations_in(path, tree, prefix, package))
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
    if violations and not args.list:
        print(
            f"{len(violations)} layering violation(s); allowed importers: "
            + "; ".join(
                f"{prefix} <- {', '.join(allowed)}"
                for prefix, allowed in RULES
            ),
            file=sys.stderr,
        )
        return 1
    print(
        "import layering OK: "
        + ", ".join(prefix for prefix, _allowed in RULES)
        + " imported only from their allowed packages"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
