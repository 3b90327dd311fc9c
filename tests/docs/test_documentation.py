"""Documentation gates, enforced by the tier-1 suite.

CI additionally runs the real ``mkdocs build --strict`` and
``interrogate``; these tests are the dependency-free local half, so
docs and docstrings cannot rot even on machines without the doc
toolchain installed.
"""

import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parents[2]
TOOLS = REPO / "tools"

sys.path.insert(0, str(TOOLS))


class TestDocsTree:
    def test_mkdocs_config_exists(self):
        assert (REPO / "mkdocs.yml").is_file()

    @pytest.mark.parametrize(
        "page",
        [
            "index.md",
            "installation.md",
            "cli.md",
            "reproducing.md",
            "runtime.md",
            "cells.md",
            "sustainability.md",
            "architecture.md",
            "examples.md",
        ],
    )
    def test_core_pages_exist(self, page):
        assert (REPO / "docs" / page).is_file()

    def test_cli_reference_covers_every_subcommand(self):
        text = (REPO / "docs" / "cli.md").read_text(encoding="utf-8")
        for subcommand in (
            "list", "run", "design", "all", "sweep", "pareto",
            "schedule", "population", "transients",
        ):
            assert f"## {subcommand}" in text, (
                f"docs/cli.md lacks a section for '{subcommand}'"
            )

    def test_cli_reference_quotes_shared_flag_help(self):
        """Each shared flag's docs row carries its one help text."""
        from repro.__main__ import _SHARED_FLAGS

        rows = {
            line.split("`")[1].split()[0]: line
            for line in (REPO / "docs" / "cli.md")
            .read_text(encoding="utf-8")
            .splitlines()
            if line.startswith("| `--")
        }
        for flag, spec in _SHARED_FLAGS.items():
            assert f" | {spec['help']} | " in rows.get(flag, ""), (
                f"docs/cli.md's {flag} row does not quote its help text"
            )

    def test_documented_flags_are_accepted(self):
        """Each flag row in docs/cli.md and README's flag table names
        an option some subcommand's parser accepts."""
        import argparse

        from repro.__main__ import _build_parser

        def options(parser):
            for action in parser._actions:
                yield from action.option_strings
                if isinstance(action, argparse._SubParsersAction):
                    for subparser in action.choices.values():
                        yield from options(subparser)

        accepted = set(options(_build_parser()))
        for page in ("docs/cli.md", "README.md"):
            for line in (REPO / page).read_text(
                encoding="utf-8"
            ).splitlines():
                if line.startswith("| `--"):
                    flag = line.split("`")[1].split()[0]
                    assert flag in accepted, (
                        f"{page} documents {flag}, which no subcommand "
                        "accepts"
                    )

    def test_reproducing_maps_every_paper_artifact(self):
        text = (REPO / "docs" / "reproducing.md").read_text(
            encoding="utf-8"
        )
        for experiment_id in (
            "fig3", "fig4", "tab-sizing", "tab-area", "tab-exectime",
            "tab-reliability", "tab-edc", "tab-wcet", "tab-modeswitch",
        ):
            assert experiment_id in text

    def test_architecture_documents_cache_contract(self):
        text = (REPO / "docs" / "architecture.md").read_text(
            encoding="utf-8"
        )
        assert "ENGINE_CACHE_VERSION" in text
        assert "repro.util.canonical" in text or "util.canonical" in text
        assert "runtime" in text
        assert "explore" in text


class TestNavAndLinks:
    def test_check_docs_passes(self, capsys):
        import check_docs

        assert check_docs.main() == 0


class TestDocstringCoverage:
    def test_public_api_fully_documented(self):
        import docstring_coverage

        cov = docstring_coverage.measure(REPO / "src" / "repro")
        assert cov.percent == 100.0, (
            "undocumented public definitions:\n  "
            + "\n  ".join(cov.missing)
        )

    def test_cli_entrypoint_gate(self):
        """The tool itself enforces --fail-under as a subprocess."""
        result = subprocess.run(
            [
                sys.executable,
                str(TOOLS / "docstring_coverage.py"),
                str(REPO / "src" / "repro"),
                "--fail-under", "100",
            ],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stdout + result.stderr
