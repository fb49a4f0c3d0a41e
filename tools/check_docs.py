"""Markdown link and anchor checker for the repo's documentation.

Run it over the documentation set (``tests/test_documentation.py``
checks the same set)::

    python tools/check_docs.py README.md DESIGN.md PAPER.md EXPERIMENTS.md ROADMAP.md docs/

For every markdown file named (directories recurse to their ``*.md``),
every link outside fenced code blocks is checked:

* relative file links must point at an existing file or directory;
* ``#fragment`` parts (and bare ``#anchor`` self-links) must match a
  heading in the target file, using GitHub's slug rules (lowercase,
  punctuation stripped, spaces to hyphens);
* ``http(s)``/``mailto`` links are recorded but not fetched — CI must
  not depend on the network.

Exit 0 when every link resolves; exit 1 listing each broken link as
``file:line: problem``.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

__all__ = ["check_files", "heading_anchors", "iter_links", "main"]

#: ``[text](target)`` — images share the syntax and are checked too.
_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

#: A markdown heading line (fenced code is stripped before matching).
_HEADING = re.compile(r"^#{1,6}\s+(.*)$")

#: Characters GitHub drops when slugging a heading.
_SLUG_DROP = re.compile(r"[^\w\s-]")


def _strip_fences(text: str) -> list[str]:
    """The file's lines with fenced code blocks blanked (links and
    headings inside fences are examples, not navigation)."""
    lines = []
    fenced = False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            fenced = not fenced
            lines.append("")
            continue
        lines.append("" if fenced else line)
    return lines


def heading_anchors(path: Path) -> set[str]:
    """Every anchor a file's headings define, GitHub slug style."""
    anchors: set[str] = set()
    counts: dict[str, int] = {}
    for line in _strip_fences(path.read_text(encoding="utf-8")):
        match = _HEADING.match(line)
        if not match:
            continue
        # Inline code/emphasis markers don't survive into the slug.
        title = re.sub(r"[`*_]", "", match.group(1).strip())
        slug = _SLUG_DROP.sub("", title.lower()).strip().replace(" ", "-")
        slug = re.sub(r"-{2,}", "-", slug)
        # Duplicate headings get -1, -2, ... suffixes.
        n = counts.get(slug, 0)
        counts[slug] = n + 1
        anchors.add(slug if n == 0 else f"{slug}-{n}")
    return anchors


def iter_links(path: Path):
    """``(line_number, target)`` for every markdown link in a file."""
    for number, line in enumerate(
        _strip_fences(path.read_text(encoding="utf-8")), start=1
    ):
        for match in _LINK.finditer(line):
            yield number, match.group(1)


def _relative(path: Path, root: Path) -> str:
    """``path`` relative to ``root`` for display; absolute when outside."""
    try:
        return str(path.relative_to(root))
    except ValueError:
        return str(path)


def _check_file(path: Path, root: Path) -> list[str]:
    problems = []
    for number, target in iter_links(path):
        where = f"{_relative(path, root)}:{number}"
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        base, _, fragment = target.partition("#")
        destination = path if not base else (path.parent / base).resolve()
        if not destination.exists():
            problems.append(f"{where}: broken link {target!r} "
                            f"({destination} does not exist)")
            continue
        if not fragment:
            continue
        if destination.is_dir():
            # A directory defines no headings; an anchored link into one
            # can never resolve and used to slip through silently.
            problems.append(
                f"{where}: anchor #{fragment} targets the directory "
                f"{_relative(destination, root)}, which has no headings"
            )
            continue
        if fragment not in heading_anchors(destination):
            problems.append(
                f"{where}: anchor #{fragment} not found in "
                f"{_relative(destination, root)}"
            )
    return problems


def check_files(paths: list[Path], root: Path | None = None) -> list[str]:
    """Every broken link/anchor across ``paths`` (empty = all good).
    Directories recurse to their ``*.md`` files."""
    root = (root or Path.cwd()).resolve()
    files: list[Path] = []
    for path in paths:
        path = path.resolve()
        if path.is_dir():
            files.extend(sorted(path.rglob("*.md")))
        else:
            files.append(path)
    problems = []
    for path in files:
        problems.extend(_check_file(path, root))
    return problems


def build_parser() -> argparse.ArgumentParser:
    """The checker's argparse parser."""
    parser = argparse.ArgumentParser(
        prog="check_docs",
        description="Check markdown links and heading anchors "
        "(relative targets only; no network access).",
    )
    parser.add_argument(
        "paths",
        nargs="+",
        help="markdown files or directories (directories recurse to *.md)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    paths = [Path(p) for p in args.paths]
    problems = check_files(paths)
    if problems:
        print(f"FAIL: {len(problems)} broken link(s)")
        for problem in problems:
            print(f"  {problem}")
        return 1
    count = sum(
        len(list(p.rglob("*.md"))) if p.is_dir() else 1 for p in paths
    )
    print(f"OK: links and anchors resolve across {count} markdown file(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
