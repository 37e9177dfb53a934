"""List what moved in the golden reports since a git revision.

    python tests/golden_diff.py REV

For every case whose recorded outcome differs from the one at REV, prints
the case and each moved value: a JSON key path of stdout with its old and
new value, a line of a text report keyed by its text before the first
``: `` (for example ``oracle hankel_rows[0]``) with its old and new text,
or a whole field (the exit code, or a case that one side lacks) that
moved.  Ends with the set of moved fields, key paths and line keys.
"""

import json
import subprocess
import sys
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
ABSENT = "<absent>"


def leaves(value, path=()):
    """(key path, repr) of every scalar in a parsed JSON document."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from leaves(item, (*path, key))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from leaves(item, (*path, index))
    else:
        yield path, repr(value)


def text_lines(text: str) -> dict:
    """Each line of a text report, keyed by its text before the first ': '."""
    return {(line.partition(": ")[0],): line for line in text.splitlines()}


def moves(old: dict, new: dict):
    """(field, key path, old, new) of each value that differs in one case."""
    for field in sorted(old.keys() | new.keys()):
        before, after = old.get(field, ABSENT), new.get(field, ABSENT)
        if before == after:
            continue
        try:
            before_leaves = dict(leaves(json.loads(before)))
            after_leaves = dict(leaves(json.loads(after)))
        except (TypeError, ValueError):
            if not isinstance(before, str) or ABSENT in (before, after):
                yield field, (), before, after
                continue
            before_leaves, after_leaves = text_lines(before), text_lines(after)
        for path in sorted(before_leaves.keys() | after_leaves.keys(), key=repr):
            old_value, new_value = before_leaves.get(path, ABSENT), after_leaves.get(path, ABSENT)
            if old_value != new_value:
                yield field, path, old_value, new_value


def main(rev: str) -> None:
    moved = set()
    for path in sorted(GOLDEN.glob("*.json")):
        name = path.relative_to(GOLDEN.parent.parent).as_posix()
        shown = subprocess.run(
            ["git", "show", f"{rev}:{name}"], capture_output=True, text=True, cwd=GOLDEN
        )
        old = json.loads(shown.stdout) if shown.returncode == 0 else {}
        new = json.loads(path.read_text())
        for case in sorted(old.keys() | new.keys()):
            for field, keys, before, after in moves(old.get(case, {}), new.get(case, {})):
                key = ".".join(map(str, keys))
                print(f"{path.stem}:{case}  {field} {key}: {before} -> {after}")
                moved.add((field, *keys))
    print("moved:", sorted(moved, key=repr) or "nothing")


if __name__ == "__main__":
    main(sys.argv[1])
