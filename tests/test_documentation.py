"""Documentation coverage: docstrings, flags, links, and examples.

The deliverable requires doc comments on every public item; this test
makes that a property of the build rather than a review checklist, and
extends the same discipline to the user-facing docs:

* every CLI flag (the ``repro`` CLI and the ``tools/`` gates) appears
  somewhere in README.md or ``docs/*.md``;
* every ``python -m repro``/``python tools/*.py`` command shown in a
  docs code block actually parses against the real argparse parser —
  documented invocations cannot rot;
* every relative markdown link and ``#anchor`` in README, DESIGN,
  PAPER, EXPERIMENTS, ROADMAP and ``docs/`` resolves.
"""

import argparse
import importlib
import inspect
import pkgutil
import shlex
from pathlib import Path

import pytest

import repro
from repro.cli import build_parser
from repro.scenario import scenario_names
from tools import assess_realism, check_docs, check_report, inject_faults

REPO = Path(__file__).resolve().parent.parent

#: The user-facing documentation set the flag/example tests read.
DOC_FILES = sorted((REPO / "docs").glob("*.md")) + [REPO / "README.md"]

#: Every markdown file whose links and anchors must resolve.
LINKED_FILES = [
    REPO / name
    for name in ("README.md", "DESIGN.md", "PAPER.md", "EXPERIMENTS.md", "ROADMAP.md", "docs")
]

#: Script basename -> the argparse parser its documented examples must
#: satisfy.
TOOL_PARSERS = {
    "check_report.py": check_report.build_parser,
    "check_docs.py": check_docs.build_parser,
    "inject_faults.py": inject_faults.build_parser,
    "assess_realism.py": assess_realism.build_parser,
}


def _walk_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield importlib.import_module(info.name)


MODULES = list(_walk_modules())


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_docstring(module):
    assert module.__doc__ and module.__doc__.strip(), f"{module.__name__} lacks a docstring"


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_public_items_documented(module):
    undocumented: list[str] = []
    public = getattr(module, "__all__", None)
    names = public if public is not None else [
        n for n in dir(module) if not n.startswith("_")
    ]
    for name in names:
        item = getattr(module, name, None)
        if item is None:
            continue
        if inspect.ismodule(item):
            continue
        if not (inspect.isclass(item) or inspect.isfunction(item)):
            continue
        if getattr(item, "__module__", None) != module.__name__:
            continue  # re-export; documented at its home
        if not (item.__doc__ and item.__doc__.strip()):
            undocumented.append(f"{module.__name__}.{name}")
        if inspect.isclass(item):
            for method_name, method in inspect.getmembers(item, inspect.isfunction):
                if method_name.startswith("_"):
                    continue
                if method.__qualname__.split(".")[0] != item.__name__:
                    continue  # inherited
                if not (method.__doc__ and method.__doc__.strip()):
                    undocumented.append(
                        f"{module.__name__}.{name}.{method_name}"
                    )
    assert not undocumented, "undocumented public items:\n  " + "\n  ".join(undocumented)


# -- the user-facing docs -----------------------------------------------------


def _option_strings(parser: argparse.ArgumentParser) -> set[str]:
    """Every ``--flag`` a parser accepts, subcommands included."""
    flags: set[str] = set()
    stack = [parser]
    while stack:
        current = stack.pop()
        for action in current._actions:
            flags.update(s for s in action.option_strings if s.startswith("--"))
            if isinstance(action, argparse._SubParsersAction):
                stack.extend(action.choices.values())
    return flags - {"--help"}


def _code_blocks(path: Path):
    """``(line_number, line)`` for every line inside a fenced code block."""
    fenced = False
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        if line.lstrip().startswith("```"):
            fenced = not fenced
            continue
        if fenced:
            yield number, line


def _documented_commands(path: Path):
    """Every parseable CLI example in a file's code blocks, as
    ``(location, parser, argv)``.  Lines with ``<placeholders>`` or
    ``[optional]`` notation document shape, not a literal invocation,
    and are skipped."""
    for number, line in _code_blocks(path):
        stripped = line.strip()
        if "<" in stripped or "[" in stripped:
            continue
        try:
            tokens = shlex.split(stripped, comments=True)
        except ValueError:
            continue
        while tokens and "=" in tokens[0]:  # PYTHONPATH=src etc.
            tokens.pop(0)
        if len(tokens) < 2 or tokens[0] != "python":
            continue
        location = f"{path.name}:{number}"
        if tokens[1] == "-m" and len(tokens) > 2 and tokens[2] == "repro":
            yield location, build_parser(), tokens[3:]
            continue
        script = Path(tokens[1]).name
        if script in TOOL_PARSERS:
            yield location, TOOL_PARSERS[script](), tokens[2:]


class TestCliDocumentation:
    def test_every_flag_appears_in_the_docs(self):
        corpus = "\n".join(path.read_text() for path in DOC_FILES)
        flags = _option_strings(build_parser())
        for tool_parser in TOOL_PARSERS.values():
            flags |= _option_strings(tool_parser())
        missing = sorted(flag for flag in flags if flag not in corpus)
        assert not missing, (
            "CLI flags absent from README.md and docs/*.md:\n  "
            + "\n  ".join(missing)
        )

    def test_every_scenario_name_appears_in_the_docs(self):
        """Every registered scenario must be documented: the registry is
        the CLI's ``--scenario``/``--name`` vocabulary, so an undocumented
        name is an undiscoverable feature."""
        corpus = "\n".join(path.read_text() for path in DOC_FILES)
        missing = sorted(name for name in scenario_names() if name not in corpus)
        assert not missing, (
            "registered scenarios absent from README.md and docs/*.md:\n  "
            + "\n  ".join(missing)
        )

    def test_scenario_flags_are_under_the_contract(self):
        """The scenario subparser must be reachable from the flag walk —
        otherwise the doc contract above silently stops covering it."""
        flags = _option_strings(build_parser())
        assert {"--name", "--seed", "--scale", "--out"} <= flags
        assert {"--scenario", "--strict"} <= _option_strings(
            assess_realism.build_parser()
        )

    def test_serve_and_query_flags_are_under_the_contract(self):
        """The serve/query subparsers must be reachable from the walk in
        :func:`_option_strings` — otherwise the doc contract above would
        silently stop covering the serve layer's flags."""
        flags = _option_strings(build_parser())
        assert {"--state-dir", "--poll-interval", "--once"} <= flags
        assert {"--endpoint", "--from", "--to", "--by", "--asn"} <= flags

    @pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
    def test_documented_commands_parse(self, path):
        failures = []
        seen = 0
        for location, parser, argv in _documented_commands(path):
            seen += 1
            try:
                parser.parse_args(argv)
            except SystemExit:
                failures.append(f"{location}: {' '.join(argv)!r}")
        assert not failures, (
            "documented commands the real parser rejects:\n  "
            + "\n  ".join(failures)
        )
        if path.name == "operations.md":
            assert seen >= 10, "the runbook lost its worked examples"


class TestDocsLinks:
    def test_links_and_anchors_resolve(self):
        problems = check_docs.check_files(LINKED_FILES, root=REPO)
        assert not problems, "broken documentation links:\n  " + "\n  ".join(
            problems
        )
