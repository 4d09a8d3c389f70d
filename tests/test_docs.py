"""Docs-site consistency checks that run without the docs toolchain.

CI builds the mkdocs site strictly (warnings are errors); these tests
catch the same classes of rot — nav entries pointing at missing pages,
pages missing from the nav, broken relative links, CLI drift — in plain
pytest, so the container suite fails fast without needing mkdocs
installed.
"""

import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
DOCS = REPO / "docs"
MKDOCS_YML = REPO / "mkdocs.yml"


def _nav_pages() -> "list[str]":
    """The .md targets of mkdocs.yml's nav (flat — the nav is one level)."""
    pages = re.findall(r":\s*([\w./-]+\.md)\s*$", MKDOCS_YML.read_text(), flags=re.M)
    assert pages, "mkdocs.yml nav parsed to nothing — did its format change?"
    return pages


class TestDocsSite:
    def test_mkdocs_config_exists_and_is_strict(self):
        config = MKDOCS_YML.read_text()
        assert "strict: true" in config

    def test_every_nav_entry_resolves_to_a_page(self):
        missing = [page for page in _nav_pages() if not (DOCS / page).is_file()]
        assert not missing, f"mkdocs nav references missing pages: {missing}"

    def test_every_page_is_in_the_nav(self):
        nav = set(_nav_pages())
        orphans = [p.name for p in DOCS.glob("*.md") if p.name not in nav]
        assert not orphans, f"docs pages absent from mkdocs nav: {orphans}"

    def test_required_pages_exist(self):
        for page in (
            "index.md",
            "architecture.md",
            "design-lifecycle.md",
            "kernels.md",
            "cli.md",
            "benchmarking.md",
            "robustness.md",
        ):
            assert (DOCS / page).is_file(), f"ISSUE-mandated page missing: {page}"

    def test_relative_links_resolve(self):
        broken = []
        for page in DOCS.glob("*.md"):
            for target in re.findall(r"\]\(([\w./-]+\.md)(?:#[\w-]+)?\)", page.read_text()):
                if not (page.parent / target).is_file():
                    broken.append(f"{page.name} -> {target}")
        assert not broken, f"broken relative doc links: {broken}"

    def test_readme_links_into_docs(self):
        readme = (REPO / "README.md").read_text()
        assert "docs/" in readme, "README should link into the docs site"

    @pytest.mark.parametrize(
        "env_var",
        [
            "REPRO_DESIGN_CACHE",
            "REPRO_DESIGN_STORE",
            "REPRO_KERNEL",
            "REPRO_BLAS_THREADS",
            "REPRO_FAULT_PLAN",
            "REPRO_SERVE_BREAKER_THRESHOLD",
            "REPRO_SERVE_BREAKER_COOLDOWN_MS",
        ],
    )
    def test_env_var_table_documents(self, env_var):
        assert env_var in (DOCS / "index.md").read_text()
        assert env_var in (REPO / "README.md").read_text()


class TestCliReferenceCompleteness:
    def test_every_subcommand_documented(self):
        from repro.cli import build_parser

        cli_page = (DOCS / "cli.md").read_text()
        parser = build_parser()
        sub = next(a for a in parser._actions if hasattr(a, "choices") and a.choices)
        for command in sub.choices:
            assert f"`{command}" in cli_page, f"CLI page missing subcommand {command!r}"
        for design_cmd in ("build", "info", "decode", "store"):
            assert f"design {design_cmd}" in cli_page
        for store_cmd in ("ls", "gc", "stats", "fsck"):
            assert store_cmd in cli_page
