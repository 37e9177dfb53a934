"""Every function and class in ``src/`` has a caller in ``src/``.

A name counts as called when some module of the package reads it as a
name, as an attribute or in an import; dunder methods are called by the
interpreter.  The exceptions are named with the ROADMAP item that is to
wire them in, so the test also fails once one of them gains a caller.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "tcshift"

AWAITING_CALLERS = {
    "check_membership_h0": "ROADMAP item 5: the level at which a pair fails",
}


def test_every_function_and_class_has_a_caller_in_src():
    defined, read = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    uncalled = {name for name in defined - read if not name.startswith("__")}
    assert uncalled == set(AWAITING_CALLERS)
