"""Import-layering gate: gated packages have few, named importers.

:mod:`repro.cells` is the only door to sram: the cell-technology API
re-exports the whole SRAM stack, and everything else must consume
bitcells through it so non-SRAM technologies slot in without touching
callers.  :mod:`repro.service` sits on top of the engine: only the
service itself and the CLI import it.  :mod:`repro.engine` is imported
only from the layers above it (and ``repro.cpu``); ``repro.workloads``
sits below it.  Relative imports are resolved before the check.  The lint
(``tools/check_imports.py``) runs here and in CI — a new violating
import fails the suite.
"""

import pathlib
import sys

REPO = pathlib.Path(__file__).resolve().parents[2]
TOOLS = REPO / "tools"

sys.path.insert(0, str(TOOLS))


class TestImportLayering:
    def test_no_direct_sram_imports_outside_allowed_packages(self):
        """Every row of the lint holds, the ``repro.service`` one too."""
        import check_imports

        violations = check_imports.check_package(REPO / "src" / "repro")
        assert violations == [], (
            "layering violations (see tools/check_imports.py RULES):\n  "
            + "\n  ".join(violations)
        )

    def test_lint_flags_violations(self, tmp_path):
        import check_imports

        package = tmp_path / "pkg"
        (package / "sram").mkdir(parents=True)
        (package / "cells").mkdir()
        (package / "bad.py").write_text(
            "from repro.sram.cells import CellDesign\n",
            encoding="utf-8",
        )
        (package / "worse.py").write_text(
            "import repro.sram.failure\n", encoding="utf-8"
        )
        (package / "sram" / "ok.py").write_text(
            "from repro.sram.failure import analytic_pf\n",
            encoding="utf-8",
        )
        (package / "cells" / "ok.py").write_text(
            "import repro.sram\n", encoding="utf-8"
        )
        # The service is gated too: only service/ and the CLI import it.
        (package / "service").mkdir()
        (package / "engine").mkdir()
        (package / "engine" / "session.py").write_text(
            "from repro.service.store import ShardedResultStore\n",
            encoding="utf-8",
        )
        (package / "engine" / "batch.py").write_text(
            "import repro.service.scheduler\n", encoding="utf-8"
        )
        (package / "service" / "ok.py").write_text(
            "from repro.service.queue import WeightedFairQueue\n",
            encoding="utf-8",
        )
        (package / "__main__.py").write_text(
            "import repro.service.api\n", encoding="utf-8"
        )
        # Relative imports resolve against the file's package: the
        # workloads layer sits below the engine, the CLI above it.
        (package / "workloads").mkdir()
        (package / "workloads" / "source.py").write_text(
            "from ..engine.jobs import TraceSpec\n"
            "from .mediabench import generate_trace\n",
            encoding="utf-8",
        )
        (package / "core").mkdir()
        (package / "core" / "evaluation.py").write_text(
            "from ..engine.jobs import SimulationJob\n", encoding="utf-8"
        )
        violations = check_imports.check_package(package)
        assert len(violations) == 5
        assert any("bad.py" in line for line in violations)
        assert any("worse.py" in line for line in violations)
        assert any("session.py" in line for line in violations)
        assert any("batch.py" in line for line in violations)
        assert any(
            line.endswith("source.py:1: from repro.engine.jobs import ...")
            for line in violations
        )

    def test_relative_imports_inside_sram_are_ignored(self, tmp_path):
        import check_imports

        package = tmp_path / "pkg"
        package.mkdir()
        (package / "relative.py").write_text(
            "from . import something\n", encoding="utf-8"
        )
        assert check_imports.check_package(package) == []
