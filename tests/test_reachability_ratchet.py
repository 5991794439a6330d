"""The reachability ratchet (``benchmarks/reachability.py --check``)
reads the table committed in docs/architecture.md: it must parse, and a
rise in a file's *no driver* count must fail unless a keep-reason
bullet names the file."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "reachability", ROOT / "benchmarks" / "reachability.py"
)
reachability = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(reachability)

COMMITTED = reachability.ARCHITECTURE.read_text()


def _with_count(text, relative, count):
    """*text* with *relative*'s *no driver* cell set to *count*."""
    lines = []
    for line in text.splitlines():
        if line.startswith("| %s |" % relative):
            cells = line.strip("|").split("|")
            cells[-3] = " %d " % count
            line = "|" + "|".join(cells) + "|"
        lines.append(line)
    return "\n".join(lines)


def test_committed_table_parses():
    counts = reachability.no_driver_counts(COMMITTED)
    assert len(counts) > 50
    assert "**total**" not in counts
    # Every keep-reason bullet names a file of the table.
    for path in reachability.KEEP_REASON.findall(COMMITTED):
        assert "repro/" + path in counts, path


def test_unchanged_table_passes():
    assert reachability.ratchet(COMMITTED, COMMITTED) == []


def test_a_rise_without_a_keep_reason_fails():
    counts = reachability.no_driver_counts(COMMITTED)
    kept = set(reachability.KEEP_REASON.findall(COMMITTED))
    bare = next(
        relative for relative in sorted(counts)
        if relative[len("repro/"):] not in kept
    )
    fresh = _with_count(COMMITTED, bare, counts[bare] + 1)
    assert reachability.no_driver_counts(fresh)[bare] == counts[bare] + 1
    (failure,) = reachability.ratchet(COMMITTED, fresh)
    assert failure.startswith(bare + ":")
    # A fall is fine.
    if counts[bare]:
        lower = _with_count(COMMITTED, bare, counts[bare] - 1)
        assert reachability.ratchet(COMMITTED, lower) == []


def test_a_rise_with_a_keep_reason_passes():
    path = reachability.KEEP_REASON.findall(COMMITTED)[0]
    relative = "repro/" + path
    counts = reachability.no_driver_counts(COMMITTED)
    fresh = _with_count(COMMITTED, relative, counts[relative] + 10)
    assert reachability.ratchet(COMMITTED, fresh) == []


def test_a_new_file_counts_from_zero():
    fresh = COMMITTED.replace(
        "| **total** |",
        "| repro/new_module.py | 3 | 0 | 0 | 0 | 0 | 3 | 3 | 3 | 0 |\n"
        "| **total** |",
    )
    (failure,) = reachability.ratchet(COMMITTED, fresh)
    assert failure.startswith("repro/new_module.py: 3 ")
