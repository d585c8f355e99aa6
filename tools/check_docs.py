"""Documentation checks — thin shim over ``repro.analyze.rules.docs``.

The real checks now live in the analyzer (``repro lint`` runs them as
the ``doc-link`` / ``doc-docstring`` / ``doc-example-gallery`` rules);
this script keeps the historical standalone entry point and the
import surface ``tests/test_docs.py`` uses.

Usage::

    python tools/check_docs.py            # check the default set
    python tools/check_docs.py --quiet    # exit code only
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analyze.rules.docs import (  # noqa: E402
    DEFAULT_MARKDOWN,
    DEFAULT_PACKAGES,
    EXAMPLES_DIR,
    EXAMPLES_GALLERY,
    check_docstrings,
    check_examples_gallery,
    check_markdown_links,
    iter_markdown_links,
)

__all__ = [
    "DEFAULT_MARKDOWN",
    "DEFAULT_PACKAGES",
    "EXAMPLES_DIR",
    "EXAMPLES_GALLERY",
    "REPO_ROOT",
    "check_docstrings",
    "check_examples_gallery",
    "check_markdown_links",
    "iter_markdown_links",
    "main",
]


def main(argv: list[str] | None = None) -> int:
    """Run all three checks; print findings unless ``--quiet``."""
    args = argv if argv is not None else sys.argv[1:]
    quiet = "--quiet" in args
    errors = (
        check_markdown_links(root=REPO_ROOT)
        + check_docstrings(root=REPO_ROOT)
        + check_examples_gallery(root=REPO_ROOT)
    )
    if errors and not quiet:
        for error in errors:
            print(error, file=sys.stderr)
    if not errors and not quiet:
        print(
            f"docs OK: {len(DEFAULT_MARKDOWN)} Markdown files, "
            f"{len(DEFAULT_PACKAGES)} packages at 100% docstrings, "
            "examples gallery complete"
        )
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
