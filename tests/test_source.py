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


def test_src_reads_no_environment():
    # settings come in through flags and arguments only, never from the process environment
    readers = {"environ", "environb", "getenv", "getenvb"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        # os.environ / os.getenv (Attribute), a bare environ (Name), from os import environ (alias)
        if getattr(node, "attr", None) in readers or getattr(node, "id", None) in readers
        or isinstance(node, ast.alias) and node.name in readers
    ]
    assert found == []
