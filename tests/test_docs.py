"""Docs-site consistency checks that run without the docs toolchain.

CI builds the mkdocs site strictly (warnings are errors); these tests
catch the same classes of rot — nav entries pointing at missing pages,
pages missing from the nav, broken relative links, CLI drift — in plain
pytest, so the container suite fails fast without needing mkdocs
installed.
"""

import ast
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


def _source_env_vars() -> "set[str]":
    """Every ``"REPRO_…"`` string literal under ``src/`` — the variables the library reads."""
    names = set()
    for path in (REPO / "src").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and re.fullmatch(r"REPRO_[A-Z0-9_]+", node.value):
                names.add(node.value)
    assert names, "no REPRO_* literal found under src/ — did the layout change?"
    return names


def _env_table(page: Path) -> "set[str]":
    """The ``REPRO_*`` names of the page's "Environment variables" table."""
    section = re.search(r"^#+ Environment variables\n(.*?)(?=^#)", page.read_text(), flags=re.M | re.S)
    assert section, f"{page.name} has no 'Environment variables' section"
    return set(re.findall(r"^\| `(REPRO_[A-Z0-9_]+)` \|", section.group(1), flags=re.M))


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

    @pytest.mark.parametrize("env_var", sorted(_source_env_vars()))
    def test_env_var_table_documents(self, env_var):
        for page in ("README.md", "docs/index.md"):
            assert env_var in _env_table(REPO / page), f"{page}'s env table lacks {env_var}"

    @pytest.mark.parametrize("page", ["README.md", "docs/index.md"])
    def test_env_var_table_lists_only_read_variables(self, page):
        extra = _env_table(REPO / page) - _source_env_vars()
        assert not extra, f"{page}'s env table lists variables no source file names: {sorted(extra)}"


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

    def test_serve_defaults_match_serveconfig(self):
        """docs/cli.md's serve table states the ServeConfig field defaults, the one place they live."""
        from dataclasses import fields

        from repro.serve import ServeConfig

        defaults = {f.name: f.default for f in fields(ServeConfig)}
        rows = re.findall(r"^\| `--([a-z-]+)` \| `([^`]+)` \|", (DOCS / "cli.md").read_text(), flags=re.M)
        checked = set()
        for flag, documented in rows:
            field = "default_decoder" if flag == "decoder" else flag.replace("-", "_")
            if field in defaults:
                default = defaults[field]
                assert type(default)(documented) == default, f"--{flag}: docs say {documented}, ServeConfig says {default}"
                checked.add(field)
        assert checked == set(defaults) - {"drain_timeout_s"}, f"serve flags missing from docs/cli.md: {set(defaults) - checked}"
