"""Checks on the package source and the README's library example."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "idealis"


def test_no_assert_statements():
    # python -O strips assert statements; invariant checks must raise
    files = sorted(SRC.rglob("*.py"))
    assert files
    found = [f"{path.relative_to(SRC)}:{node.lineno}"
             for path in files
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert not found, found


def test_readme_library_example():
    # every "expr  # value" line of the python block evaluates to its value
    text = (ROOT / "README.md").read_text()
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    env: dict = {}
    checked = 0
    for line in block.splitlines():
        code, _, want = line.partition("#")
        if not want:
            exec(line, env)
            continue
        assert eval(code, env) == ast.literal_eval(want.strip()), line
        checked += 1
    assert checked
