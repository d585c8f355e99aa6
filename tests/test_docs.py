"""Documentation integrity: Markdown links resolve, every ``src/repro``
package is 100% docstring-covered, and the examples gallery names every
``examples/*.py`` script.  Runs the same checks as CI's docs job."""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from tools.check_docs import (  # noqa: E402
    DEFAULT_MARKDOWN,
    REPO_ROOT,
    check_docstrings,
    check_examples_gallery,
    check_markdown_links,
    iter_markdown_links,
)


class TestMarkdownLinks:
    def test_repo_markdown_links_resolve(self):
        assert check_markdown_links() == []

    def test_every_docs_page_is_link_checked(self):
        pages = {
            path.relative_to(REPO_ROOT).as_posix()
            for path in (REPO_ROOT / "docs").glob("*.md")
        }
        assert pages - set(DEFAULT_MARKDOWN) == set()

    def test_broken_links_are_reported(self, tmp_path):
        (tmp_path / "doc.md").write_text("see [x](missing.md)")
        errors = check_markdown_links(files=("doc.md",), root=tmp_path)
        assert errors == ["doc.md: broken link -> missing.md"]

    def test_code_fences_and_external_links_skipped(self, tmp_path):
        (tmp_path / "doc.md").write_text(
            "[ok](https://example.com) [anchor](#x)\n"
            "```\n[not a link](nope.md)\n```\n"
        )
        assert check_markdown_links(files=("doc.md",), root=tmp_path) == []

    def test_link_extraction(self):
        text = "a [one](a.md) b [two](b/c.md#frag)"
        assert list(iter_markdown_links(text)) == ["a.md", "b/c.md#frag"]


class TestDocstringCoverage:
    def test_all_packages_fully_documented(self):
        assert check_docstrings() == []

    def test_missing_docstrings_are_reported(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "mod.py").write_text(
            '"""Module."""\n\ndef public():\n    pass\n\ndef _private():\n'
            "    pass\n"
        )
        errors = check_docstrings(packages=("pkg",), root=tmp_path)
        assert errors == ["pkg/mod.py: public"]


class TestExamplesGallery:
    def test_repo_gallery_covers_every_example(self):
        assert check_examples_gallery() == []

    def test_missing_example_section_is_reported(self, tmp_path):
        examples = tmp_path / "examples"
        examples.mkdir()
        (examples / "covered.py").write_text("pass\n")
        (examples / "missing.py").write_text("pass\n")
        (tmp_path / "GALLERY.md").write_text(
            "# Gallery\n\n## covered.py\n\ntext mentioning missing.py\n"
        )
        errors = check_examples_gallery(
            gallery="GALLERY.md", examples_dir="examples", root=tmp_path
        )
        assert errors == ["GALLERY.md: no section for examples/missing.py"]

    def test_substring_headings_do_not_count(self, tmp_path):
        """'scaling.py' must not be covered by '## multinode_scaling.py'."""
        examples = tmp_path / "examples"
        examples.mkdir()
        (examples / "scaling.py").write_text("pass\n")
        (examples / "multinode_scaling.py").write_text("pass\n")
        (tmp_path / "GALLERY.md").write_text(
            "# Gallery\n\n## multinode_scaling.py\n\ntext\n"
        )
        errors = check_examples_gallery(
            gallery="GALLERY.md", examples_dir="examples", root=tmp_path
        )
        assert errors == ["GALLERY.md: no section for examples/scaling.py"]

    def test_code_fence_comments_do_not_count_as_sections(self, tmp_path):
        examples = tmp_path / "examples"
        examples.mkdir()
        (examples / "foo.py").write_text("pass\n")
        (tmp_path / "GALLERY.md").write_text(
            "# Gallery\n\n```bash\n# python examples/foo.py\n```\n"
        )
        errors = check_examples_gallery(
            gallery="GALLERY.md", examples_dir="examples", root=tmp_path
        )
        assert errors == ["GALLERY.md: no section for examples/foo.py"]

    def test_missing_gallery_file_is_reported(self, tmp_path):
        (tmp_path / "examples").mkdir()
        errors = check_examples_gallery(
            gallery="GALLERY.md", examples_dir="examples", root=tmp_path
        )
        assert errors == ["GALLERY.md: file missing"]
