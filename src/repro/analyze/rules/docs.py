"""Documentation rules: links, docstring coverage, examples gallery.

These are the checks that historically lived in ``tools/check_docs.py``
(CI's docs job), promoted into the analyzer so ``repro lint`` covers
them too.  The check functions remain importable — the tool is now a
thin shim over this module — and the three project-scope rules wrap
them as lint findings:

* ``doc-link`` — every relative link in the tracked Markdown files must
  resolve on disk;
* ``doc-docstring`` — every ``src/repro`` package in
  :data:`DEFAULT_PACKAGES` stays at 100% public-docstring coverage;
* ``doc-example-gallery`` — every ``examples/*.py`` script needs its
  own heading in ``docs/EXAMPLES.md``.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterable

from repro.analyze.context import ProjectContext
from repro.analyze.findings import SEVERITY_ERROR, Finding
from repro.analyze.registry import SCOPE_PROJECT, Rule

#: The examples gallery and the scripts it must cover.
EXAMPLES_GALLERY = "docs/EXAMPLES.md"
EXAMPLES_DIR = "examples"

#: Markdown files whose relative links must resolve.
DEFAULT_MARKDOWN = (
    "README.md",
    "ROADMAP.md",
    "CHANGES.md",
    "docs/ANALYSIS.md",
    "docs/ARCHITECTURE.md",
    "docs/REGRESSION.md",
    "docs/SERVICE.md",
    "docs/SERVING.md",
    "docs/SWEEPS.md",
    "docs/TOPOLOGIES.md",
    EXAMPLES_GALLERY,
)

#: Packages held to 100% docstring coverage — every ``src/repro``
#: package with public API surface.
DEFAULT_PACKAGES = (
    "src/repro/analyze",
    "src/repro/capacity",
    "src/repro/codesign",
    "src/repro/e2e",
    "src/repro/graph",
    "src/repro/models",
    "src/repro/multigpu",
    "src/repro/ops",
    "src/repro/overheads",
    "src/repro/perfmodels",
    "src/repro/regress",
    "src/repro/service",
    "src/repro/serving",
    "src/repro/simulator",
    "src/repro/sweep",
    "src/repro/trace",
)

_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_EXTERNAL = ("http://", "https://", "mailto:")


def iter_markdown_links(text: str):
    """Yield link targets from ``[text](target)`` Markdown links.

    Skips fenced code blocks so example snippets cannot produce false
    positives.
    """
    in_fence = False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        yield from _LINK_RE.findall(line)


def check_markdown_links(
    files=DEFAULT_MARKDOWN, root: Path | None = None
) -> list[str]:
    """Return one error string per broken relative link."""
    root = _resolve_root(root)
    errors = []
    for name in files:
        path = root / name
        if not path.exists():
            errors.append(f"{name}: file missing")
            continue
        for target in iter_markdown_links(path.read_text(encoding="utf-8")):
            if target.startswith(_EXTERNAL) or target.startswith("#"):
                continue
            resolved = (path.parent / target.split("#", 1)[0]).resolve()
            if not resolved.exists():
                errors.append(f"{name}: broken link -> {target}")
    return errors


def _missing_docstrings(tree: ast.Module, module_name: str) -> list[str]:
    """Names of public defs in ``tree`` lacking docstrings."""
    missing = []
    if ast.get_docstring(tree) is None:
        missing.append(f"{module_name}: module docstring")

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                name = child.name
                if name.startswith("_"):
                    # Private defs (and everything inside them) are
                    # exempt, matching pydocstyle.
                    continue
                qualified = f"{prefix}{name}"
                if ast.get_docstring(child) is None:
                    missing.append(f"{module_name}: {qualified}")
                walk(child, f"{qualified}.")

    walk(tree, "")
    return missing


def check_docstrings(
    packages=DEFAULT_PACKAGES, root: Path | None = None
) -> list[str]:
    """Return one error string per public def missing a docstring."""
    root = _resolve_root(root)
    errors = []
    for package in packages:
        base = root / package
        if not base.exists():
            errors.append(f"{package}: package missing")
            continue
        for path in sorted(base.rglob("*.py")):
            rel = path.relative_to(root)
            tree = ast.parse(path.read_text(encoding="utf-8"))
            errors.extend(_missing_docstrings(tree, str(rel)))
    return errors


def check_examples_gallery(
    gallery: str = EXAMPLES_GALLERY,
    examples_dir: str = EXAMPLES_DIR,
    root: Path | None = None,
) -> list[str]:
    """Return one error string per example script missing from the gallery.

    A script counts as covered only when a gallery heading *is* its
    file name (e.g. ``## quickstart.py``); prose mentions and headings
    that merely contain the name as a substring do not count, so every
    example gets a real section of its own.
    """
    root = _resolve_root(root)
    gallery_path = root / gallery
    if not gallery_path.exists():
        return [f"{gallery}: file missing"]
    headings = []
    in_fence = False
    for line in gallery_path.read_text(encoding="utf-8").splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        # '#' lines inside fenced output excerpts are shell comments,
        # not headings — they must not satisfy coverage.
        if not in_fence and line.startswith("#"):
            headings.append(line.lstrip("#").strip())
    errors = []
    for script in sorted((root / examples_dir).glob("*.py")):
        if script.name not in headings:
            errors.append(
                f"{gallery}: no section for {examples_dir}/{script.name}"
            )
    return errors


def _resolve_root(root: Path | None) -> Path:
    """Explicit root, or the repo this module is installed from."""
    if root is not None:
        return root
    # src/repro/analyze/rules/docs.py -> repo root is four levels up.
    return Path(__file__).resolve().parents[4]


def _errors_to_findings(rule: Rule, errors: list[str]) -> list[Finding]:
    """Turn ``path: message`` check strings into findings."""
    findings = []
    for error in errors:
        path, _, message = error.partition(": ")
        findings.append(rule.finding(path, 1, message or error))
    return findings


class DocLink(Rule):
    """Relative Markdown links must resolve."""

    name = "doc-link"
    severity = SEVERITY_ERROR
    description = "relative link target in tracked Markdown files missing"
    scope = SCOPE_PROJECT

    def check_project(self, context: ProjectContext) -> Iterable[Finding]:
        """Report broken links across the tracked Markdown set."""
        if context.root is None:
            return []
        return _errors_to_findings(
            self, check_markdown_links(root=context.root)
        )


class DocDocstring(Rule):
    """Public API docstring coverage stays at 100%."""

    name = "doc-docstring"
    severity = SEVERITY_ERROR
    description = (
        "public module/class/function in a tracked package lacks a "
        "docstring"
    )
    scope = SCOPE_PROJECT

    def check_project(self, context: ProjectContext) -> Iterable[Finding]:
        """Report missing docstrings across the tracked packages."""
        if context.root is None:
            return []
        return _errors_to_findings(self, check_docstrings(root=context.root))


class DocExampleGallery(Rule):
    """Every example script needs a gallery section."""

    name = "doc-example-gallery"
    severity = SEVERITY_ERROR
    description = "examples/*.py script with no docs/EXAMPLES.md section"
    scope = SCOPE_PROJECT

    def check_project(self, context: ProjectContext) -> Iterable[Finding]:
        """Report example scripts missing from the gallery."""
        if context.root is None:
            return []
        return _errors_to_findings(
            self, check_examples_gallery(root=context.root)
        )
