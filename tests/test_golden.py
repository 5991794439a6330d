"""The golden same-work run (``tests/golden/routing_full.py``) reproduces
the committed ``tests/golden/routing_full.json`` exactly.

A change that moves a key does different work or reaches different
answers: regenerate the file with the command in the generator's
docstring, and say in the change log why each moved key moved.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent / "golden"))

import routing_full  # noqa: E402


def _flatten(value, prefix=""):
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _flatten(value[key], prefix + "." + key if prefix else key)
    else:
        yield prefix, value


def first_difference(expected: dict, actual: dict):
    """The first key (in sorted dotted order) whose value differs, with
    both values, or None when the documents are equal."""
    left, right = dict(_flatten(expected)), dict(_flatten(actual))
    for key in sorted(set(left) | set(right)):
        if left.get(key, "<absent>") != right.get(key, "<absent>"):
            return key, left.get(key, "<absent>"), right.get(key, "<absent>")
    return None


def test_first_difference_names_the_key():
    assert first_difference({"a": {"b": 1}}, {"a": {"b": 1}}) is None
    assert first_difference(
        {"a": {"b": 1, "c": [1]}}, {"a": {"b": 1, "c": [2]}}
    ) == ("a.c", [1], [2])
    assert first_difference({"a": 1}, {}) == ("a", 1, "<absent>")


def test_the_golden_run_is_unchanged():
    expected = json.loads(routing_full.GOLDEN.read_text())
    actual = json.loads(routing_full.render(routing_full.generate()))
    difference = first_difference(expected, actual)
    assert difference is None, (
        "golden run differs first at %r: committed %r, now %r"
        % difference
    )
