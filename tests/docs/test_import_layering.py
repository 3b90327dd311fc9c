"""Import-layering gate: every module imports only its layer or below.

``tools/check_imports.py`` holds DESIGN.md §1 as one ordered table,
``LAYERS``, lowest layer first; a module belongs to the layer of its
longest matching prefix.  An import of a higher layer fails in any
form (top-level, function-level, ``TYPE_CHECKING``, relative, or a
submodule named after ``from <pkg> import``).  One extra rule:
:mod:`repro.cells` is the only door to :mod:`repro.sram`.  The lint
runs here and in CI — a new violating import fails the suite.
"""

import pathlib
import re
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parents[2]
TOOLS = REPO / "tools"
SRC = REPO / "src" / "repro"

sys.path.insert(0, str(TOOLS))

import check_imports  # noqa: E402


def _write(package: pathlib.Path, files: dict[str, str]) -> None:
    for name, text in files.items():
        path = package / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")


def _flagged(package: pathlib.Path) -> set[str]:
    """``<relative path>:<line>`` of every violation under ``package``."""
    flagged = set()
    for line in check_imports.check_package(package):
        location = line.split(": ", 1)[0]
        path, lineno = location.rsplit(":", 1)
        relative = pathlib.Path(path).relative_to(package).as_posix()
        flagged.add(f"{relative}:{lineno}")
    return flagged


def _section_layers(text: str, heading: str) -> list[str]:
    """The ordered list of layer names under one markdown heading."""
    start = text.index(heading + "\n")
    body = text[start + len(heading) + 1:]
    end = re.search(r"^#", body, flags=re.MULTILINE)
    body = body[: end.start()] if end else body
    return re.findall(r"^\d+\. \*\*`([\w.]+)`\*\*", body, re.MULTILINE)


class TestImportLayering:
    def test_no_direct_sram_imports_outside_allowed_packages(self):
        """The source tree obeys the whole layer table and the door."""
        violations = check_imports.check_package(SRC)
        assert violations == [], (
            "layering violations (see tools/check_imports.py LAYERS):\n  "
            + "\n  ".join(violations)
        )

    def test_lint_flags_violations(self, tmp_path):
        """Upward edges flag in every form (top-level, typing-only,
        function-level); ``cacti -> cache`` and downward imports pass."""
        package = tmp_path / "pkg"
        _write(package, {
            # cpu -> engine.
            "cpu/chip.py": (
                "from repro.cache.stats import CacheStats\n"
                "from repro.engine.backends import simulate_cache\n"
            ),
            # engine -> experiments: typing-only and function-level.
            "engine/session.py": (
                "from typing import TYPE_CHECKING\n"
                "if TYPE_CHECKING:\n"
                "    from repro.experiments.report import Result\n"
                "def run():\n"
                "    from repro.experiments.registry import run_experiment\n"
            ),
            # cache -> transients: typing-only and function-level.
            "cache/setassoc.py": (
                "from typing import TYPE_CHECKING\n"
                "if TYPE_CHECKING:\n"
                "    from repro.transients.sampling import Sampler\n"
                "def observe():\n"
                "    from repro.transients.sampling import Outcome\n"
            ),
            # transients -> cpu.
            "transients/recovery.py": (
                "from repro.cpu.power import EnergyLedger\n"
            ),
            # cacti sits above cache.
            "cacti/model.py": "from repro.cache.config import CacheConfig\n",
            # Downward imports of every kind pass.
            "engine/jobs.py": (
                "from repro.cpu.chip import Chip\n"
                "from repro.engine import backends\n"
                "from ..transients.spec import TransientSpec\n"
            ),
            "cpu/other.py": (
                "from repro.faults.maps import DieFaultMap\n"
                "from repro.transients import recovery\n"
            ),
        })
        assert _flagged(package) == {
            "cpu/chip.py:2",
            "engine/session.py:3",
            "engine/session.py:5",
            "cache/setassoc.py:3",
            "cache/setassoc.py:5",
            "transients/recovery.py:1",
        }

    def test_lint_checks_names_imported_from_a_package(self, tmp_path):
        """``from <pkg> import a`` is also an import of ``<pkg>.a``:
        absolute, relative and through the sram door."""
        package = tmp_path / "pkg"
        _write(package, {
            "workloads/absolute.py": "from repro import engine\n",
            "workloads/relative.py": "from .. import engine\n",
            "edc/door.py": "from repro import sram\n",
            "faults/split.py": "from repro.faults import population\n",
            "cells/ok.py": "from repro import sram, util\n",
            "engine/ok.py": "from repro import workloads, util\n",
        })
        assert _flagged(package) == {
            "workloads/absolute.py:1",
            "workloads/relative.py:1",
            "edc/door.py:1",
            "faults/split.py:1",
        }

    def test_sram_door_and_top_layers(self, tmp_path):
        package = tmp_path / "pkg"
        _write(package, {
            "edc/bad.py": "from repro.sram.cells import CellDesign\n",
            "explore/worse.py": "import repro.sram.failure\n",
            "sram/ok.py": "from repro.sram.failure import analytic_pf\n",
            "cells/ok.py": "import repro.sram\n",
            "engine/batch.py": "import repro.service.scheduler\n",
            "experiments/x.py": "from repro.service import api\n",
            "service/ok.py": "from repro.experiments import registry\n",
            "__main__.py": "import repro.service.api\n",
        })
        assert _flagged(package) == {
            "edc/bad.py:1",
            "explore/worse.py:1",
            "engine/batch.py:1",
            "experiments/x.py:1",
        }

    def test_relative_imports_inside_sram_are_ignored(self, tmp_path):
        package = tmp_path / "pkg"
        package.mkdir()
        (package / "relative.py").write_text(
            "from . import something\n", encoding="utf-8"
        )
        assert check_imports.check_package(package) == []

    def test_list_reports_the_count(self, tmp_path, capsys):
        package = tmp_path / "pkg"
        _write(package, {
            "util/a.py": "import repro.cpu.chip\nimport repro.engine\n",
        })
        assert check_imports.main([str(package), "--list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert lines[-1].startswith("2 layering violation(s)")
        assert not any("layering OK" in line for line in lines)
        assert check_imports.main([str(package)]) == 1

    def test_every_module_maps_to_a_named_layer(self):
        """Only the root package sits in the root layer: every other
        module is covered by a prefix of its own package."""
        for path in sorted(SRC.rglob("*.py")):
            name = check_imports.module_name(SRC, path)
            layer = check_imports.layer_of(name)
            assert layer is not None, name
            if name != check_imports.ROOT_PACKAGE:
                assert layer != check_imports.ROOT_PACKAGE, name

    @pytest.mark.parametrize("path, heading", [
        ("DESIGN.md", "## 1. Layer architecture"),
        ("docs/architecture.md", "## Layer stack"),
    ])
    def test_documented_stack_is_the_table(self, path, heading):
        text = (REPO / path).read_text(encoding="utf-8")
        assert _section_layers(text, heading) == list(check_imports.LAYERS)
