"""The names the prose uses must exist in the code.

Two checks over README.md, DESIGN.md, EXPERIMENTS.md and docs/*.md:

* every subcommand and ``--flag`` of a ``repro …`` or
  ``python -m repro.cli …`` command — in a backticked span or a fenced
  code block — exists in :func:`repro.cli.build_parser`;
* every backticked dotted ``repro.*`` name imports as a module or
  resolves as an attribute of one.

A change that deletes a flag, a subcommand, a module or a class cannot
leave its prose behind.
"""

import argparse
import importlib
import re
from pathlib import Path

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
DOCS = sorted(
    [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md"]
    + list((ROOT / "docs").glob("*.md"))
)

#: A CLI invocation: the program, then what follows on its line.
COMMAND = re.compile(
    r"(?:^|[\s`(])(?:python3? -m repro\.cli|repro)((?:\s+\S+)+)"
)
#: A backticked span that starts with a dotted ``repro.`` name.
DOTTED = re.compile(r"`(repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+)")
FLAG = re.compile(r"^(--[a-z][a-z0-9-]*)")


def _code_texts(text):
    """Fenced code lines (a trailing backslash joins the next line) and
    inline backticked spans outside fences."""
    fenced, prose, inside, pending = [], [], False, ""
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            inside = not inside
            continue
        if inside:
            if line.rstrip().endswith("\\"):
                pending += line.rstrip()[:-1] + " "
                continue
            fenced.append(pending + line)
            pending = ""
        else:
            prose.append(line)
    # An inline span may wrap onto the next line.
    spans = re.findall(r"`([^`]+)`", "\n".join(prose))
    return fenced + [span.replace("\n", " ") for span in spans]


def _commands():
    """``(file, subcommand, flags)`` for every documented invocation."""
    found = []
    for path in DOCS:
        for code in _code_texts(path.read_text()):
            for match in COMMAND.finditer(code):
                before = code[: match.start() + 1].split()
                if before[-1:] in (["from"], ["import"]):
                    continue  # Python, not a command line
                tokens = match.group(1).split()
                words = [t for t in tokens if not t.startswith("-")]
                if not words or not re.fullmatch(r"[a-z][a-z-]*", words[0]):
                    continue
                flags = [m.group(1) for t in tokens if (m := FLAG.match(t))]
                found.append((path.name, words[0], flags))
    return found


def _subparsers():
    parser = build_parser()
    (action,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return parser, action.choices


def test_documented_commands_exist():
    parser, subcommands = _subparsers()
    commands = _commands()
    assert len(commands) > 20  # the scan itself works
    stale = []
    for name, command, flags in commands:
        if command not in subcommands:
            stale.append((name, command, None))
            continue
        known = set(subcommands[command]._option_string_actions)
        known |= set(parser._option_string_actions)
        stale.extend((name, command, f) for f in flags if f not in known)
    assert stale == []


def _resolves(dotted):
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attribute in parts[cut:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


def test_documented_dotted_names_resolve():
    names = sorted({
        (path.name, name)
        for path in DOCS
        for name in DOTTED.findall(path.read_text())
    })
    assert len(names) > 20  # the scan itself works
    assert [(doc, name) for doc, name in names if not _resolves(name)] == []
