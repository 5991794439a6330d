"""What reaches what: the ``src/`` lines each driver enters.

Usage (from the repository root; stdlib only, ~10 minutes on 2 cores)::

    python3 benchmarks/reachability.py > reachability.md

Five drivers run one after another, each in a process of its own, with
a profile hook (``sys.setprofile`` and ``threading.setprofile``) that
records every code object the process enters:

* ``workloads`` — the four ``BENCHMARK.json`` workloads through
  ``benchmarks/e2e/child.py --quick``, untraced (``--traced`` installs
  cProfile, which replaces the hook);
* ``audit`` — ``repro audit --scenario all --seed 0``;
* ``examples`` — every ``examples/*.py``, then the ``repro …`` commands
  the docs show (:data:`DOC_COMMANDS`);
* ``experiments`` — ``python -m repro.experiments --scale 0.05``;
* ``tier-1`` — the tier-1 test suite, outcomes ignored (under the hook
  the wall-clock telemetry tests can fail from the slowdown).

A *function-body line* is a line in the line table of a function,
method, lambda or comprehension code object under ``src/repro`` (module
and class bodies run at import and are not counted).  A line is
*entered* by a driver when one of the code objects it belongs to was
called.  The table gives, per file, those lines; the lines no driver
but tier-1 enters; and the lines nothing enters in-process.

Not measured: code that runs in a process the hook is not in — the
multiprocess backend's broker children and any CLI subprocess a test
starts.  Their lines count as not entered.

``--driver NAME --out FILE`` runs one driver in this process and writes
the entered code objects as JSON; the table run starts itself that way.

``--check [TABLE]`` makes the committed table in docs/architecture.md
("What reaches what") a ratchet: it exits 1, naming the file, when a
file's *no driver* count in the fresh table rises above the committed
one and docs/architecture.md has no keep-reason bullet for it (a line
``- `path.py` (N): …`` under the table).  TABLE is a table this script
printed earlier; without it the drivers run first and the fresh table
is printed as usual.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import runpy
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
E2E = ROOT / "benchmarks" / "e2e"
ARCHITECTURE = ROOT / "docs" / "architecture.md"

#: inspect.CO_OPTIMIZED: set on function code objects, not on module or
#: class bodies.
CO_OPTIMIZED = 0x0001

#: The ``repro …`` commands the docs show, in an order that lets a
#: command read what an earlier one wrote.  The 127-broker multiprocess
#: deploy (runtime.md, README) runs at ``--levels 3``: the same parent
#: code, 7 broker processes instead of 127.
DOC_COMMANDS: List[List[str]] = [
    ["stats"],
    ["stats", "--levels", "3", "--xpes", "50", "--documents", "10"],
    ["stats", "--format", "line"],
    ["stats", "--out", "metrics.json"],
    ["stats", "--faults", "drop=0.15,dup=0.05,seed=1"],
    ["stats", "--sample-every", "0.5", "--engine", "shared"],
    ["simulate", "--levels", "3", "--metrics-out", "out.json"],
    ["simulate", "--levels", "3", "--strategy", "with-Adv-with-Cov",
     "--faults", "drop=0.1,seed=3"],
    ["simulate", "--levels", "3", "--strategy", "with-Adv-with-Cov",
     "--engine", "shared"],
    ["audit"],
    ["audit", "--scenario", "crash-restart", "--engine", "shared"],
    ["trace", "--scenario", "all", "--seed", "0"],
    ["trace", "--follow", "doc2-0"],
    ["trace", "--scenario", "crash-restart", "--flight-dump",
     "flight-dumps", "--last", "5"],
    ["trace", "--export", "chrome", "--out", "trace.json"],
    ["trace", "--export", "prom", "--out", "stages.prom"],
    ["deploy"],
    ["deploy", "--backend", "multiprocess", "--levels", "3", "--audit",
     "--dump", "deploy-diag"],
    ["top", "--backend", "asyncio", "--levels", "3"],
    ["top", "--backend", "asyncio", "--prom-port", "0"],
    ["top", "--backend", "asyncio", "--overload", "b3", "--queue-slo", "2,4"],
    ["top", "--backend", "asyncio", "--levels", "2", "--rounds", "8",
     "--interval", "0.01", "--overload", "b3", "--overload-delay", "0.03",
     "--queue-slo", "2,4", "--timeline", "telemetry-timeline.json"],
    ["timeline", "telemetry-timeline.json", "--metric", "queue_depth",
     "--broker", "b3"],
]

CodeKey = Tuple[str, int, str]


# -- the drivers (run inside the hooked process) -----------------------------

def _drive_workloads():
    sys.path.insert(0, str(E2E))
    import child
    import run
    from workloads import WORKLOADS

    for name in sorted(WORKLOADS):
        rounds = run.rounds_for(WORKLOADS[name], 15.0, True)
        child.main([
            "--workload", name, "--seed", "7", "--rounds", str(rounds),
            "--quick",
        ])


def _drive_audit():
    from repro.cli import main

    main(["audit", "--scenario", "all", "--seed", "0"])


def _drive_examples():
    from repro.cli import main

    for path in sorted((ROOT / "examples").glob("*.py")):
        runpy.run_path(str(path), run_name="__main__")
    for argv in DOC_COMMANDS:
        main(argv)


def _drive_experiments():
    from repro.experiments.__main__ import main

    main(["--scale", "0.05"])


def _drive_tier1():
    import pytest

    pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])


#: Driver name -> (column heading, what it runs), in run order.
DRIVERS = {
    "workloads": ("W", _drive_workloads),
    "audit": ("A", _drive_audit),
    "examples": ("E", _drive_examples),
    "experiments": ("X", _drive_experiments),
    "tier-1": ("T", _drive_tier1),
}
#: The drivers a line must be entered by to count as reached.
REACHING = ("workloads", "audit", "examples", "experiments")


def run_driver(name: str, out: str) -> None:
    """Run one driver under the profile hook; write what it entered."""
    entered: Set[object] = set()
    add = entered.add

    def hook(frame, event, arg):
        if event == "call":
            add(frame.f_code)

    threading.setprofile(hook)
    sys.setprofile(hook)
    try:
        DRIVERS[name][1]()
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
    package = str(PACKAGE) + os.sep
    keys = sorted({
        (
            os.path.relpath(os.path.realpath(code.co_filename), SRC),
            code.co_firstlineno,
            getattr(code, "co_qualname", code.co_name),
        )
        for code in entered
        if os.path.realpath(code.co_filename).startswith(package)
    })
    with open(out, "w") as handle:
        json.dump(keys, handle)


# -- the static side: every function-body line ------------------------------

def function_lines() -> Dict[str, Dict[CodeKey, Set[int]]]:
    """Per ``src/``-relative file: function code object -> its lines."""
    table: Dict[str, Dict[CodeKey, Set[int]]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        relative = os.path.relpath(path, SRC)
        functions: Dict[CodeKey, Set[int]] = {}
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
            if not code.co_flags & CO_OPTIMIZED:
                continue
            key = (
                relative, code.co_firstlineno,
                getattr(code, "co_qualname", code.co_name),
            )
            functions[key] = {
                line for _start, _end, line in code.co_lines()
                if line is not None
            }
        table[relative] = functions
    return table


def _collect(python: str) -> Dict[str, Set[CodeKey]]:
    """Run every driver in a process of its own; entered keys per driver."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    # child.py refuses to run with a random hash seed.
    env["PYTHONHASHSEED"] = "7"
    entered: Dict[str, Set[CodeKey]] = {}
    with tempfile.TemporaryDirectory() as scratch:
        for name in DRIVERS:
            out = os.path.join(scratch, name + ".json")
            cwd = ROOT if name == "tier-1" else Path(scratch)
            started = time.monotonic()
            subprocess.run(
                [python, str(Path(__file__).resolve()), "--driver", name,
                 "--out", out],
                env=env, cwd=str(cwd), check=True,
                stdout=subprocess.DEVNULL,
            )
            with open(out) as handle:
                entered[name] = {tuple(key) for key in json.load(handle)}
            print(
                "reachability: %-11s %6.0f s" % (name, time.monotonic() - started),
                file=sys.stderr,
            )
    return entered


#: Files with at least this many lines no driver enters get their
#: unreached functions listed under the table.
LISTED = 50


def render(table, entered: Dict[str, Set[CodeKey]]) -> str:
    rows, listings = [], []
    totals = [0] * (len(DRIVERS) + 4)
    reaching = set().union(*(entered[name] for name in REACHING))
    for relative, functions in table.items():
        lines: Set[int] = set().union(*functions.values()) if functions else set()
        if not lines:
            continue
        per_driver = {
            name: set().union(*(
                found for key, found in functions.items() if key in entered[name]
            ))
            for name in DRIVERS
        }
        reached = set().union(*(per_driver[name] for name in REACHING))
        unreached = lines - reached
        only_tests = unreached & per_driver["tier-1"]
        counts = (
            [len(lines)]
            + [len(per_driver[name]) for name in DRIVERS]
            + [len(unreached), len(only_tests), len(unreached) - len(only_tests)]
        )
        totals = [a + b for a, b in zip(totals, counts)]
        rows.append((relative, counts))
        if len(unreached) >= LISTED:
            missed = sorted(
                (-len(found & unreached), key[2],
                 "" if key in entered["tier-1"] else " (not tier-1)")
                for key, found in functions.items()
                if key not in reaching and found & unreached
            )
            listings.append((len(unreached), relative, [
                "%s %d%s" % (name, -count, mark) for count, name, mark in missed
            ]))
    rows.sort(key=lambda row: (-row[1][-3], row[0]))
    head = (
        ["file", "lines"] + [column for column, _run in DRIVERS.values()]
        + ["no driver", "only tier-1", "nothing"]
    )
    legend = ", ".join(
        "%s = %s" % (column, name) for name, (column, _run) in DRIVERS.items()
    )
    out = [
        "Function-body lines of `src/` entered per driver (%s)." % legend,
        "*no driver*: entered by none of W, A, E, X; *only tier-1*: of "
        "those, entered by the tests; *nothing*: entered by no driver and "
        "not by tier-1 in-process.  Multiprocess broker children and CLI "
        "subprocesses run outside the hook; their lines count as not "
        "entered.",
        "",
        "| " + " | ".join(head) + " |",
        "|" + "---|" * len(head),
    ]
    for relative, counts in rows + [("**total**", totals)]:
        out.append(
            "| %s | %s |" % (relative, " | ".join("%d" % c for c in counts))
        )
    out += [
        "",
        "Functions no driver enters, with their lines, in files with at "
        "least %d such lines:" % LISTED,
        "",
    ]
    for _count, relative, missed in sorted(listings, reverse=True):
        out.append("* `%s`: %s" % (relative, ", ".join(missed)))
    return "\n".join(out)


# -- the ratchet ---------------------------------------------------------------

#: A keep-reason bullet: ``- `runtime/multiprocess.py` (125): keep. …``.
KEEP_REASON = re.compile(r"^- `([\w/]+\.py)` \(\d+\):", re.MULTILINE)


def no_driver_counts(text: str) -> Dict[str, int]:
    """``file -> no driver`` read from a table as :func:`render` prints
    it (the committed copy in docs/architecture.md included)."""
    counts: Dict[str, int] = {}
    column = None
    for line in text.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if cells[:2] == ["file", "lines"]:
            column = cells.index("no driver")
        elif column is not None and cells[0].startswith("repro/"):
            counts[cells[0]] = int(cells[column])
    return counts


def ratchet(committed: str, fresh: str) -> List[str]:
    """One message per file whose *no driver* count in *fresh* rose
    above *committed* without a keep-reason bullet in *committed*."""
    before = no_driver_counts(committed)
    kept = {"repro/" + path for path in KEEP_REASON.findall(committed)}
    return [
        "%s: %d function-body lines no driver enters, %d in the committed "
        "table, and no keep-reason bullet" % (relative, count,
                                              before.get(relative, 0))
        for relative, count in sorted(no_driver_counts(fresh).items())
        if count > before.get(relative, 0) and relative not in kept
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--driver", choices=sorted(DRIVERS))
    parser.add_argument("--out")
    parser.add_argument("--check", nargs="?", const="", metavar="TABLE")
    args = parser.parse_args(argv)
    if args.driver:
        run_driver(args.driver, args.out)
        return 0
    if args.check:
        fresh = Path(args.check).read_text()
    else:
        fresh = render(function_lines(), _collect(sys.executable))
        print(fresh)
    if args.check is None:
        return 0
    failures = ratchet(ARCHITECTURE.read_text(), fresh)
    for failure in failures:
        print("reachability: " + failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
