import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "kraitchik"


def test_no_assert_statements_in_src():
    # contract checks must survive ``python -O``, which strips assert statements
    paths = sorted(SRC.glob("*.py"))
    assert paths, SRC
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
