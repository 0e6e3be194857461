"""Docs-drift check: every documented CLI line still parses.

Collects each ``python -m repro.cli ...`` command from ``README.md``,
``docs/*.md`` and the ``repro.cli`` module docstring (joining
backslash continuations) and feeds it to ``build_parser()``.
"""

import pathlib
import re
import shlex

import pytest

import repro.cli
from repro.cli import build_parser
from repro.scenario import SCENARIOS

ROOT = pathlib.Path(__file__).resolve().parents[1]
DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
COMMAND = re.compile(r"python -m repro\.cli\b(.*)")


def _documents():
    for path in DOCS:
        yield path.name, path.read_text()
    yield "repro/cli.py", repro.cli.__doc__


def _commands():
    found = []
    for name, text in _documents():
        text = re.sub(r"\\\n\s*", " ", text)
        for line in text.splitlines():
            match = COMMAND.search(line)
            if match:
                args = match.group(1).split("`")[0].split("#")[0]
                found.append((name, args.strip()))
    return found


COMMANDS = _commands()


def test_docs_name_cli_commands():
    assert len(COMMANDS) > 20
    assert {name for name, _ in COMMANDS} >= {"README.md", "repro/cli.py"}


@pytest.mark.parametrize(
    "args", [args for _, args in COMMANDS], ids=[n for n, _ in COMMANDS]
)
def test_documented_command_parses(args):
    try:
        parsed = build_parser().parse_args(shlex.split(args))
    except SystemExit as exc:
        pytest.fail(f"repro.cli {args!r} does not parse (exit {exc.code})")
    scenario = getattr(parsed, "scenario", None)
    assert scenario is None or scenario in SCENARIOS, args


def test_no_doc_names_the_removed_runner():
    stale = [
        name for name, text in _documents()
        if "repro.experiments.runner" in text
    ]
    assert not stale
